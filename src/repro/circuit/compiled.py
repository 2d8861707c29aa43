"""Compiled MNA assembly: extract structure once, re-stamp only devices.

The reference stamping protocol (:mod:`repro.circuit.netlist`) rebuilds
the whole MNA system element-by-element in Python on every Newton
iteration.  This module performs that walk **once**, at compile time,
and partitions the circuit (:meth:`Circuit.partition`):

* **Linear elements** (R, L, C, V/I sources) contribute conductance
  entries of the form ``const + coef / dt`` — constant for a fixed step
  size.  They are flattened into COO index/value arrays and summed into
  a cached base matrix per distinct ``dt``.
* **Nonlinear devices** (square-law MOSFETs) are lowered to parallel
  parameter arrays (``beta``/``vt``/``lambda``/polarity plus terminal
  indices).  A one-lane Newton round linearizes them on Python floats
  (:meth:`CompiledCircuit._linearize`, cheaper than numpy calls on a
  handful of devices) and scatter-adds the stamps, through positions
  cached per swap pattern, into a *copy* of the cached linear base and
  the step's RHS held in one padded ``[G | I]`` buffer — one
  ``np.add.at``, no re-stamping of linear parts.  Batched rounds
  evaluate every lane's devices in one vectorized
  :meth:`CompiledCircuit._device_stamps` call.  The two laws are the
  same operations in the same order, so their stamps are bit-identical
  (``tests/test_circuit_linearize.py``).
* **The sparsity pattern** is precomputed.  Above
  :data:`~repro.circuit.solver.SPARSE_THRESHOLD` unknowns the base is a
  CSC data vector over the exact union pattern (linear entries, both
  drain/source orientations of every MOSFET, and the node diagonals for
  regularization); per-iteration stamping writes straight into a copy of
  that data vector and the matrix is handed to SuperLU without ever
  materializing a dense ``(size, size)`` array or converting formats.

Circuits containing *opaque* elements — user subclasses with custom
``stamp`` arithmetic — cannot be described statically and fall back to
:class:`ReferenceAssembler`, which preserves the seed solver's
behaviour (and stamps into a ``scipy.sparse.lil_matrix`` above the
sparse threshold, so even the fallback never densifies large systems).

Both assemblers expose the same two entry points consumed by
:class:`~repro.circuit.solver.CircuitSession`:

* ``prepare_step(xp_prev, t, dt, stats, gshunt=0.0, source_scale=1.0)``
  → an ``iterate(xp)`` callable performing one
  linearize-assemble-solve round (``gshunt``/``source_scale`` deform
  the system for the rescue ladder; the defaults assemble the exact
  undeformed system), and
* ``system_matrices(x, v_prev, t, dt)`` → the dense ``(G, I)`` pair for
  verification (architecture invariant 10: compiled and reference
  stamping produce identical MNA systems).

The compiled assembler adds ``prepare_step_batched`` for
:class:`~repro.circuit.batched.BatchedCircuitSession`: dense lanes are
solved one ``dgesv`` call each, the scalar path's own LAPACK routine, so
each lane is bit-identical to its scalar run (architecture invariant 14).
Dense matrices are stored column-major, the layout LAPACK reads, so both
paths have ``dgesv`` factor and solve their round buffers in place.

The LAPACK routines (``dgesv``, and ``dgetrf``/``dgetrs`` for the cached
factorization of device-free circuits) come from SciPy's compiled
wrapper module, loaded by itself on the first solve (:func:`_lapack`):
the CLI loads no SciPy, and a circuit solve never runs the
``scipy.linalg`` package.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from typing import Callable, List, Optional, Tuple

import numpy as np

from .netlist import (
    GMIN,
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
    _MOSFET,
)


class SingularSystemError(RuntimeError):
    """The assembled MNA matrix could not be factorized (singular)."""


#: The eight Jacobian stamps of a MOSFET, as (row, col) picked from the
#: effective (drain, gate, source) triple, and the sign/kind of each
#: value: ``gds`` for the output conductance block, ``gm`` for the
#: transconductance block.  Mirrors ``_MOSFET.stamp`` exactly.
_FET_STAMPS = (
    ("d", "d", "gds", +1.0),
    ("s", "s", "gds", +1.0),
    ("d", "s", "gds", -1.0),
    ("s", "d", "gds", -1.0),
    ("d", "g", "gm", +1.0),
    ("d", "s", "gm", -1.0),
    ("s", "g", "gm", -1.0),
    ("s", "s", "gm", +1.0),
)


@functools.cache
def _lapack():
    """SciPy's compiled LAPACK wrappers, ``scipy.linalg._flapack``.

    Loaded on the first circuit solve, never at CLI import.  Only the
    ``scipy`` root package (it sets up the library search paths) and
    the one extension module run, not ``scipy/linalg/__init__.py``: the
    package costs ~0.23 s and ~22 MB, the extension ~7 ms and ~3 MB.
    The module is registered in :data:`sys.modules` under its own name,
    so a later ``import scipy.linalg.lapack`` hands back these very
    routines.  If SciPy lays the file out differently, the public
    ``scipy.linalg.lapack`` names are the same routines.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        from scipy.linalg import lapack

        return lapack
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader)
    )
    sys.modules[name] = module
    loader.exec_module(module)
    return module


#: Swap patterns whose scatter positions a compiled circuit keeps; the
#: cache is cleared when full (a pattern costs ten positions per device).
_SCATTER_CACHE_SIZE = 1024


def build_assembler(circuit: Circuit, size: int, sparse: bool):
    """Compile ``circuit`` if possible, else fall back to reference stamping.

    Args:
        circuit: an assembled circuit (terminals bound to indices).
        size: MNA system size as returned by :meth:`Circuit.assemble`.
        sparse: whether the solver chose the sparse linear-algebra path.
    """
    linear, nonlinear, opaque = circuit.partition()
    if opaque:
        return ReferenceAssembler(circuit, size, sparse)
    return CompiledCircuit(circuit, size, sparse, linear, nonlinear)


class CompiledCircuit:
    """Vectorized MNA assembly for a circuit of library element types.

    Built once per :class:`~repro.circuit.solver.CircuitSession`; holds
    the COO/CSC structure, per-``dt`` linear base cache, and the device
    parameter arrays.  Not constructed directly — use
    :func:`build_assembler`.
    """

    is_compiled = True

    def __init__(self, circuit, size, sparse, linear, nonlinear):
        self.size = size
        self.n_nodes = circuit.num_nodes
        self.sparse = sparse
        pad = size  # index of the discard slot in padded vectors

        # --- linear conductance entries: value(dt) = const + coef / dt ---
        rows: List[int] = []
        cols: List[int] = []
        const: List[float] = []
        coef: List[float] = []

        def entry(i: int, j: int, c: float = 0.0, k: float = 0.0) -> None:
            if i >= 0 and j >= 0:
                rows.append(i)
                cols.append(j)
                const.append(c)
                coef.append(k)

        # --- per-step RHS history terms: I[row] += (coef/dt) * (x_prev[a] - x_prev[b]) ---
        h_row: List[int] = []
        h_a: List[int] = []
        h_b: List[int] = []
        h_coef: List[float] = []

        def history(row: int, a: int, b: int, k: float) -> None:
            if row >= 0:
                h_row.append(row)
                h_a.append(a if a >= 0 else pad)
                h_b.append(b if b >= 0 else pad)
                h_coef.append(k)

        vs_rows: List[int] = []
        vs_waves: List[Callable[[float], float]] = []
        is_rows_a: List[int] = []
        is_rows_b: List[int] = []
        is_waves: List[Callable[[float], float]] = []

        for el in linear:
            if isinstance(el, Resistor):
                g = 1.0 / el.resistance
                ia, ib = el._indices
                entry(ia, ia, g)
                entry(ib, ib, g)
                entry(ia, ib, -g)
                entry(ib, ia, -g)
            elif isinstance(el, Capacitor):
                ia, ib = el._indices
                c = el.capacitance
                entry(ia, ia, k=c)
                entry(ib, ib, k=c)
                entry(ia, ib, k=-c)
                entry(ib, ia, k=-c)
                history(ia, ia, ib, c)
                history(ib, ia, ib, -c)
            elif isinstance(el, Inductor):
                ia, ib = el._indices
                k = el._branch_index
                entry(ia, k, 1.0)
                entry(ib, k, -1.0)
                entry(k, ia, 1.0)
                entry(k, ib, -1.0)
                entry(k, k, k=-el.inductance)
                history(k, k, -1, -el.inductance)
            elif isinstance(el, VoltageSource):
                ia, ib = el._indices
                k = el._branch_index
                entry(ia, k, 1.0)
                entry(ib, k, -1.0)
                entry(k, ia, 1.0)
                entry(k, ib, -1.0)
                vs_rows.append(k)
                vs_waves.append(el.waveform)
            elif isinstance(el, CurrentSource):
                ia, ib = el._indices
                is_rows_a.append(ia if ia >= 0 else pad)
                is_rows_b.append(ib if ib >= 0 else pad)
                is_waves.append(el.waveform)

        self._lin_rows = np.asarray(rows, dtype=np.intp)
        self._lin_cols = np.asarray(cols, dtype=np.intp)
        self._lin_const = np.asarray(const)
        self._lin_coef = np.asarray(coef)
        self._h_row = np.asarray(h_row, dtype=np.intp)
        self._h_a = np.asarray(h_a, dtype=np.intp)
        self._h_b = np.asarray(h_b, dtype=np.intp)
        self._h_coef = np.asarray(h_coef)
        self._vs_rows = vs_rows
        self._vs_waves = vs_waves
        self._is_rows_a = is_rows_a
        self._is_rows_b = is_rows_b
        self._is_waves = is_waves

        # --- nonlinear devices as parallel arrays ---
        n_fet = len(nonlinear)
        self.n_devices = n_fet
        self._f_beta = np.array([f.beta for f in nonlinear])
        self._f_vt = np.array([f.vt for f in nonlinear])
        self._f_lam = np.array([f.lam for f in nonlinear])
        self._f_pol = np.array([float(f.polarity) for f in nonlinear])
        f_d = np.array([f._indices[0] for f in nonlinear], dtype=np.intp).reshape(n_fet)
        f_g = np.array([f._indices[1] for f in nonlinear], dtype=np.intp).reshape(n_fet)
        f_s = np.array([f._indices[2] for f in nonlinear], dtype=np.intp).reshape(n_fet)
        d_gather = np.where(f_d < 0, pad, f_d)
        g_gather = np.where(f_g < 0, pad, f_g)
        s_gather = np.where(f_s < 0, pad, f_s)
        # One gather of every (drain, gate, source) terminal, with the
        # matching polarity per entry.
        self._f_gather = np.concatenate([d_gather, g_gather, s_gather])
        self._f_params = (
            self._f_beta,
            self._f_vt,
            self._f_lam,
            self._f_pol,
            np.tile(self._f_pol, 3),
        )
        # ... and as columns, against ``(n, L)`` lane arrays.
        self._f_lane_params = tuple(p[:, None] for p in self._f_params)
        # The same parameters as Python scalars for the one-lane round.
        self._fets = list(
            zip(
                d_gather.tolist(),
                g_gather.tolist(),
                s_gather.tolist(),
                self._f_beta.tolist(),
                self._f_vt.tolist(),
                self._f_lam.tolist(),
                self._f_pol.tolist(),
            )
        )
        # Scatter positions of one round's device stamps into the padded
        # [G | I] buffer, keyed by the devices' swap pattern.
        self._scatter_cache: dict = {}
        # Per-lane-count round buffers and scatter tables of batched steps.
        self._lane_cache: dict = {}

        if sparse:
            self._build_sparse_structure(f_d, f_g, f_s)
        else:
            self._build_dense_structure(f_d, f_g, f_s)

        # Per-dt cache of the assembled linear base (matrix for the
        # dense path, CSC data vector for the sparse path) plus, for
        # device-free circuits, its reusable factorization.
        self._lin_cache_dt: Optional[float] = None
        self._lin_cache_base = None
        self._lin_cache_factor = None
        # Per-lane-count cache of the block-diagonal CSC structure used
        # by the batched sparse path (indices/indptr only; data varies).
        self._blk_cache: dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # structure construction                                              #
    # ------------------------------------------------------------------ #

    def _fet_positions(self, f_d, f_g, f_s, locate, pad_pos):
        """Stamp-position arrays for both device orientations.

        ``locate(i, j)`` maps a matrix coordinate to a storage position
        (dense flat index or CSC data offset); ground coordinates map to
        ``pad_pos``, a discard slot.  Returns ``(pos_normal,
        pos_swapped, rhs_normal, rhs_swapped)``; the ``pos`` arrays are
        ``(n_fet, 8)`` following :data:`_FET_STAMPS`, the ``rhs`` arrays
        ``(n_fet, 2)`` for the (drain, source) current rows.
        """
        n = len(f_d)
        pos = {True: np.empty((n, 8), dtype=np.intp), False: np.empty((n, 8), dtype=np.intp)}
        rhs = {True: np.empty((n, 2), dtype=np.intp), False: np.empty((n, 2), dtype=np.intp)}
        for swapped in (False, True):
            for dev in range(n):
                d_eff = f_s[dev] if swapped else f_d[dev]
                s_eff = f_d[dev] if swapped else f_s[dev]
                terms = {"d": d_eff, "g": f_g[dev], "s": s_eff}
                for slot, (ri, ci, _kind, _sign) in enumerate(_FET_STAMPS):
                    i, j = terms[ri], terms[ci]
                    pos[swapped][dev, slot] = locate(i, j) if (i >= 0 and j >= 0) else pad_pos
                rhs[swapped][dev, 0] = d_eff if d_eff >= 0 else pad_pos
                rhs[swapped][dev, 1] = s_eff if s_eff >= 0 else pad_pos
        return pos[False], pos[True], rhs[False], rhs[True]

    def _set_scatter_tables(self, pos_normal, pos_swapped, rhs_normal, rhs_swapped) -> None:
        """Positions of the device stamps in a padded ``[G | I]`` buffer.

        One table per orientation, ``(10 n,)``, in stamp order: every
        device's eight Jacobian stamps (device-major, following
        :data:`_FET_STAMPS`), every drain RHS row, then every source RHS
        row.  ``_entry_device`` maps each entry to its device, so a swap
        mask picks each device's orientation.
        """
        n = len(pos_normal)
        offset = self._rhs_offset

        def table(pos, rhs):
            return np.concatenate([pos.ravel(), rhs[:, 0] + offset, rhs[:, 1] + offset])

        self._index_normal = table(pos_normal, rhs_normal)
        self._index_swapped = table(pos_swapped, rhs_swapped)
        devices = np.arange(n, dtype=np.intp)
        self._entry_device = np.concatenate([np.repeat(devices, 8), devices, devices])
        # Where each stamp value sits in :meth:`_device_stamps`' six rows
        # (gds, gm, ieq, -gds, -gm, -ieq), in stamp order.
        gds, gm, ieq, neg_gds, neg_gm, neg_ieq = (devices + r * n for r in range(6))
        jacobian = np.stack((gds, gds, neg_gds, neg_gds, gm, neg_gm, neg_gm, gm), axis=-1)
        self._stamp_order = np.concatenate([jacobian.ravel(), neg_ieq, ieq])

    def _build_dense_structure(self, f_d, f_g, f_s) -> None:
        """Dense backend: flat indices into a ``(size+1, size+1)`` pad matrix.

        The matrix is stored column-major (entry ``(i, j)`` at flat index
        ``j * stride + i``), the layout LAPACK reads, so a round hands
        ``dgesv`` its buffer without a transposing copy.
        """
        size = self.size
        stride = size + 1
        self._lin_flat = self._lin_cols * stride + self._lin_rows
        self._diag_flat = np.arange(self.n_nodes, dtype=np.intp) * stride + np.arange(
            self.n_nodes, dtype=np.intp
        )
        pad_pos = size * stride + size  # the (size, size) discard cell

        def locate(i: int, j: int) -> int:
            return int(j) * stride + int(i)

        pos_normal, pos_swapped, rhs_normal, rhs_swapped = self._fet_positions(
            f_d, f_g, f_s, locate, pad_pos
        )
        # RHS scatter targets index the padded I vector (pad row = size),
        # which follows the padded matrix in [G | I] buffers.
        self._rhs_offset = stride * stride
        self._set_scatter_tables(
            pos_normal,
            pos_swapped,
            np.where(rhs_normal == pad_pos, size, rhs_normal),
            np.where(rhs_swapped == pad_pos, size, rhs_swapped),
        )

    def _build_sparse_structure(self, f_d, f_g, f_s) -> None:
        """Sparse backend: canonical CSC pattern + slot→data-offset maps."""
        size = self.size
        # Register every structural entry as a COO "slot": the linear
        # entries, both orientations of every device stamp, and the node
        # diagonals (regularization must be able to write them).
        slot_rows: List[int] = list(self._lin_rows)
        slot_cols: List[int] = list(self._lin_cols)
        fet_slot: dict[Tuple[int, int], int] = {}

        def register(i: int, j: int) -> int:
            key = (i, j)
            if key not in fet_slot:
                fet_slot[key] = len(slot_rows)
                slot_rows.append(i)
                slot_cols.append(j)
            return fet_slot[key]

        n = len(f_d)
        pos_arrays = {}
        rhs_arrays = {}
        for swapped in (False, True):
            pos = np.empty((n, 8), dtype=np.intp)
            rhs = np.empty((n, 2), dtype=np.intp)
            for dev in range(n):
                d_eff = f_s[dev] if swapped else f_d[dev]
                s_eff = f_d[dev] if swapped else f_s[dev]
                terms = {"d": d_eff, "g": f_g[dev], "s": s_eff}
                for slot, (ri, ci, _kind, _sign) in enumerate(_FET_STAMPS):
                    i, j = int(terms[ri]), int(terms[ci])
                    pos[dev, slot] = register(i, j) if (i >= 0 and j >= 0) else -1
                rhs[dev, 0] = d_eff if d_eff >= 0 else size
                rhs[dev, 1] = s_eff if s_eff >= 0 else size
            pos_arrays[swapped] = pos
            rhs_arrays[swapped] = rhs
        diag_slots = [register(k, k) for k in range(self.n_nodes)]

        all_rows = np.asarray(slot_rows, dtype=np.intp)
        all_cols = np.asarray(slot_cols, dtype=np.intp)
        order = np.lexsort((all_rows, all_cols))
        sr = all_rows[order]
        sc = all_cols[order]
        if len(sr):
            new_entry = np.concatenate(
                [[True], (np.diff(sc) != 0) | (np.diff(sr) != 0)]
            )
        else:
            new_entry = np.zeros(0, dtype=bool)
        uid_sorted = np.cumsum(new_entry) - 1
        nnz = int(uid_sorted[-1]) + 1 if len(uid_sorted) else 0
        slot_pos = np.empty(len(all_rows), dtype=np.intp)
        slot_pos[order] = uid_sorted

        self._nnz = nnz
        self._csc_indices = sr[new_entry].astype(np.int32)
        counts = np.bincount(sc[new_entry], minlength=size)
        self._csc_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self._lin_pos = slot_pos[: len(self._lin_rows)]
        pad_pos = nnz  # data vectors carry one discard slot at the end
        # The padded I vector follows the data vector in [data | I] buffers.
        self._rhs_offset = nnz + 1

        def map_pos(arr):
            out = slot_pos[np.where(arr >= 0, arr, 0)]
            return np.where(arr >= 0, out, pad_pos)

        self._set_scatter_tables(
            map_pos(pos_arrays[False]),
            map_pos(pos_arrays[True]),
            rhs_arrays[False],
            rhs_arrays[True],
        )
        self._diag_pos = slot_pos[np.asarray(diag_slots, dtype=np.intp)]

    # ------------------------------------------------------------------ #
    # per-dt linear base                                                  #
    # ------------------------------------------------------------------ #

    def _linear_values(self, dt: float) -> np.ndarray:
        """Values of the linear conductance entries at step size ``dt``."""
        return self._lin_const + self._lin_coef / dt

    def _assemble_linear(self, dt: float) -> np.ndarray:
        """The padded dense matrix (column-major: its transpose as a C
        array) or CSC data vector (with its discard slot) holding every
        linear stamp at step size ``dt``."""
        vals = self._linear_values(dt)
        if self.sparse:
            base = np.zeros(self._nnz + 1)
            np.add.at(base, self._lin_pos, vals)
        else:
            base = np.zeros((self.size + 1, self.size + 1))
            np.add.at(base.ravel(), self._lin_flat, vals)
        return base

    def _linear_base(self, dt: float, stats) -> tuple:
        """The cached ``(base, factor)`` pair for step size ``dt``.

        ``base`` is :meth:`_assemble_linear`'s.  ``factor`` is a reusable
        factorization when the circuit has no nonlinear devices (the
        matrix is then constant for the whole ``dt``), else ``None``.
        """
        if self._lin_cache_dt == dt:
            return self._lin_cache_base, self._lin_cache_factor
        size = self.size
        base = self._assemble_linear(dt)
        factor = None
        if self.n_devices == 0 and self.sparse:
            data = base[: self._nnz].copy()
            zero = data[self._diag_pos] == 0.0
            if zero.any():
                data[self._diag_pos[zero]] = 1e-12
            try:
                factor = self._sparse_factor(data, stats)
            except SingularSystemError:
                # Leave the cached factor empty: the per-iteration
                # path retries (with any rescue gmin applied) and
                # raises there if the system is truly singular.
                factor = None
        elif self.n_devices == 0:
            G = base.T[:size, :size].copy()
            flat = G.ravel()
            diag = np.arange(self.n_nodes, dtype=np.intp) * (size + 1)
            zero = flat[diag] == 0.0
            if zero.any():
                flat[diag[zero]] = 1e-12
            factor = self._dense_factor(G, stats)
        self._lin_cache_dt = dt
        self._lin_cache_base = base
        self._lin_cache_factor = factor
        return base, factor

    def _dense_factor(self, G: np.ndarray, stats):
        """LU-factorize a dense matrix for reuse; ``None`` if ill-posed.

        The ``dgetrf``/``dgetrs`` pair that SciPy's ``lu_factor`` and
        ``lu_solve`` call; a zero pivot (``info > 0``) or a bad argument
        (``info < 0``) gives ``None``.
        """
        lapack = _lapack()
        lu, piv, info = lapack.dgetrf(G)
        if info != 0:
            return None
        stats.factorizations += 1
        dgetrs = lapack.dgetrs

        def solve(I: np.ndarray) -> np.ndarray:
            x, info = dgetrs(lu, piv, I)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrs")
            return x

        return solve

    def _sparse_factor(self, data: np.ndarray, stats):
        """SuperLU-factorize the CSC matrix for reuse; raises on singular."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        matrix = sp.csc_matrix(
            (data, self._csc_indices, self._csc_indptr), shape=(self.size, self.size)
        )
        try:
            lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        stats.factorizations += 1
        return lu.solve

    # ------------------------------------------------------------------ #
    # per-step / per-iteration assembly                                   #
    # ------------------------------------------------------------------ #

    def _rhs_base(
        self, xp_prev: np.ndarray, t: float, dt: float, source_scale: float = 1.0
    ) -> np.ndarray:
        """Source and companion-history RHS for one step (padded vector).

        ``source_scale`` ramps V/I source contributions for the rescue
        ladder's source stepping (1.0 — multiplication by which is exact
        — everywhere outside a rescue).  Companion history terms are
        integration state, not supplies, and are never scaled.
        """
        I = np.zeros(self.size + 1)
        if len(self._h_coef):
            hist = (self._h_coef / dt) * (xp_prev[self._h_a] - xp_prev[self._h_b])
            np.add.at(I, self._h_row, hist)
        for row, wave in zip(self._vs_rows, self._vs_waves):
            I[row] += source_scale * wave(t)
        for ra, rb, wave in zip(self._is_rows_a, self._is_rows_b, self._is_waves):
            value = source_scale * wave(t)
            I[ra] -= value
            I[rb] += value
        return I

    def _rhs_base_batch(self, XP_prev: np.ndarray, t: float, dt: float) -> np.ndarray:
        """Batched :meth:`_rhs_base` (unscaled sources): one padded RHS row per lane.

        Each lane's row is elementwise the vector the scalar path would
        build, with matching scatter order for duplicate history rows.
        """
        L = XP_prev.shape[0]
        stride = self.size + 1
        I = np.zeros((L, stride))
        if len(self._h_coef):
            hist = (self._h_coef / dt) * (XP_prev[:, self._h_a] - XP_prev[:, self._h_b])
            rows = self._h_row + (np.arange(L, dtype=np.intp) * stride)[:, None]
            np.add.at(I.reshape(-1), rows.reshape(-1), hist.reshape(-1))
        if self._vs_rows:
            # Branch rows are distinct, so one fancy += adds each source
            # exactly as a per-row loop would.
            waves = np.array([wave(t) for wave in self._vs_waves], dtype=float)
            I[:, self._vs_rows] += waves
        for ra, rb, wave in zip(self._is_rows_a, self._is_rows_b, self._is_waves):
            value = wave(t)
            I[:, ra] -= value
            I[:, rb] += value
        return I

    def _device_stamps(self, xp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized linearization of every MOSFET at iterate ``xp``.

        Returns ``(swap, values)``: each device's drain/source swap flag
        ``(n,)`` and its stamp values ``(10 n,)`` in scatter order —
        every device's eight Jacobian stamps (device-major), every drain
        ``-ieq``, then every source ``+ieq`` — whose positions
        :meth:`_scatter_positions` gives.  The clamped form below is
        algebraically identical to ``_MOSFET._ids`` in every operating
        region, so the compiled system matches the reference one to
        rounding (a couple of ulps from reassociated products).

        ``xp`` may also be a stacked ``(L, size + 1)`` batch of lane
        states; both arrays then grow a trailing lane axis, ``(n, L)`` and
        ``(10 n, L)``, so every operation runs on contiguous lane rows.
        The arithmetic is elementwise, so each lane's stamps are exactly
        the values the unbatched call would produce for that lane, and
        exactly :meth:`_linearize`'s.
        """
        n = self.n_devices
        params = self._f_params if xp.ndim == 1 else self._f_lane_params
        beta, vt, lam, pol, pol3 = params
        v = xp.T[self._f_gather]
        v *= pol3
        vd = v[:n]
        vg = v[n : 2 * n]
        vs = v[2 * n :]
        swap = vd < vs
        vgs = vg - np.minimum(vd, vs)
        vds = np.abs(vd - vs)
        # Branchless square-law: clamping the effective V_ds to the
        # overdrive folds all three regions into the triode expressions —
        # saturation is triode evaluated at ``vds == vov`` (where the
        # ``vov - vds`` term vanishes), cut-off is ``vov == 0``.
        vov = np.maximum(vgs - vt, 0.0)
        vc = np.minimum(vds, vov)
        lam_term = 1.0 + lam * vds
        f = vov * vc - 0.5 * (vc * vc)
        bf = beta * f
        ids = bf * lam_term
        # gds, gm, ieq and their negations, six device rows.
        out = np.empty((6,) + vd.shape)
        gds, gm, ieq = out[0], out[1], out[2]
        np.multiply(beta * vc, lam_term, out=gm)
        np.add(beta * (vov - vc) * lam_term + bf * lam, GMIN, out=gds)
        np.multiply(ids - gm * vgs - gds * vds, pol, out=ieq)
        np.negative(out[:3], out=out[3:])
        return swap, out.reshape((6 * n,) + vd.shape[1:])[self._stamp_order]

    def _linearize(self, xp: np.ndarray) -> Tuple[tuple, list]:
        """One lane's device stamps, computed on Python floats.

        Returns ``(swaps, values)``: the devices' swap pattern (the key
        of :meth:`_scatter_index`) and, in scatter order, every device's
        eight Jacobian stamps (device-major), every drain ``-ieq``, then
        every source ``+ieq``.  Each value is bit-identical to
        :meth:`_device_stamps`'s: the operations and their order are
        the same, and the clamps follow numpy's rules — ``np.minimum(a,
        b)`` is ``a if a < b else b`` and ``np.maximum(a, b)`` is ``a if
        a > b else b`` (the second operand on ties, so signed zeros
        match), with a NaN in either operand propagating.
        """
        xl = xp.tolist()
        swaps = []
        vals: list = []
        drains = []
        sources = []
        for d, g, s, beta, vt, lam, pol in self._fets:
            vd = xl[d] * pol
            vg = xl[g] * pol
            vs = xl[s] * pol
            swap = vd < vs
            swaps.append(swap)
            vgs = vg - (vd if swap or vd != vd else vs)
            vds = abs(vd - vs)
            vov = vgs - vt
            if not (vov > 0.0 or vov != vov):
                vov = 0.0
            vc = vds if vds < vov or vds != vds else vov
            lam_term = 1.0 + lam * vds
            bf = beta * (vov * vc - 0.5 * (vc * vc))
            gm = beta * vc * lam_term
            gds = beta * (vov - vc) * lam_term + bf * lam + GMIN
            ieq = (bf * lam_term - gm * vgs - gds * vds) * pol
            vals += (gds, gds, -gds, -gds, gm, -gm, -gm, gm)
            drains.append(-ieq)
            sources.append(ieq)
        vals += drains
        vals += sources
        return tuple(swaps), vals

    def _scatter_positions(self, swap: np.ndarray) -> np.ndarray:
        """Positions of the stamp values for swap mask ``swap`` (``(n,)``)
        in a padded ``[G | I]`` buffer (``[data | I]`` on the sparse
        path)."""
        return np.where(swap[..., self._entry_device], self._index_swapped, self._index_normal)

    def _lane_context(self, n_lanes: int) -> tuple:
        """Batched-step state reused across steps, cached per lane count.

        Returns ``(buffer, lane_G, lane_I, normal, swapped)``: a round
        buffer holding one padded ``[G | I]`` row per lane (``[data | I]``
        on the sparse path); on the dense path each row's
        Fortran-ordered matrix view and its RHS view (else ``None``);
        and both orientations' stamp positions in that buffer,
        ``(10 n, n_lanes)``.  One batched step uses the buffer at a time.
        """
        context = self._lane_cache.get(n_lanes)
        if context is None:
            offset = self._rhs_offset
            width = offset + self.size + 1
            buffer = np.empty((n_lanes, width))
            lane_G = lane_I = None
            if not self.sparse:
                stride = self.size + 1
                matrices = buffer[:, :offset].reshape(n_lanes, stride, stride)
                lane_G = list(matrices.transpose(0, 2, 1))
                lane_I = list(buffer[:, offset:])
            rows = np.arange(n_lanes, dtype=np.intp) * width
            context = self._lane_cache[n_lanes] = (
                buffer,
                lane_G,
                lane_I,
                self._index_normal[:, None] + rows,
                self._index_swapped[:, None] + rows,
            )
        return context

    def _scatter_index(self, swaps: tuple) -> np.ndarray:
        """:meth:`_scatter_positions` for one lane, cached per swap pattern."""
        index = self._scatter_cache.get(swaps)
        if index is None:
            index = self._scatter_positions(np.array(swaps, dtype=bool))
            if len(self._scatter_cache) >= _SCATTER_CACHE_SIZE:
                self._scatter_cache.clear()
            self._scatter_cache[swaps] = index
        return index

    def prepare_step(
        self,
        xp_prev: np.ndarray,
        t: float,
        dt: float,
        stats,
        gshunt: float = 0.0,
        source_scale: float = 1.0,
    ):
        """One time step's assembly context.

        Returns ``iterate(xp) -> x_next`` performing a single Newton
        round: stamp devices at the iterate, regularize floating nodes,
        factorize/solve.  Raises :class:`SingularSystemError` when the
        system cannot be solved.

        ``gshunt``/``source_scale`` deform the system for the rescue
        ladder (:mod:`repro.circuit.rescue`): a shunt conductance on
        every node diagonal, and a scale on the V/I source RHS terms.
        At the defaults the assembled system is bit-identical to the
        undeformed one.

        A round works in one padded ``[G | I]`` buffer (``[data | I]``
        on the sparse path) holding the step's linear base and RHS: the
        devices, linearized on Python floats (:meth:`_linearize`), land
        in it through a single ``np.add.at`` in the order separate
        matrix and RHS scatters would take.
        """
        size = self.size
        base, factor = self._linear_base(dt, stats)
        I_base = self._rhs_base(xp_prev, t, dt, source_scale)

        if self.n_devices == 0 and factor is not None and gshunt == 0.0:
            x_static: Optional[np.ndarray] = None

            def iterate_linear(xp: np.ndarray) -> np.ndarray:
                nonlocal x_static
                if x_static is None:
                    x_static = factor(I_base[:size])
                return x_static

            return iterate_linear

        offset = self._rhs_offset
        start = np.empty(offset + size + 1)
        start[:offset] = base.ravel()
        start[offset:] = I_base
        work = np.empty_like(start)
        I = work[offset : offset + size + 1]

        def stamp(xp: np.ndarray) -> None:
            np.copyto(work, start)
            if self.n_devices:
                swaps, vals = self._linearize(xp)
                np.add.at(work, self._scatter_index(swaps), np.array(vals, dtype=float))

        if self.sparse:
            data = work[: self._nnz]
            diag_pos = self._diag_pos

            def iterate_sparse(xp: np.ndarray) -> np.ndarray:
                stamp(xp)
                if gshunt:
                    data[diag_pos] += gshunt
                zero = data[diag_pos] == 0.0
                if zero.any():
                    data[diag_pos[zero]] = 1e-12
                return self._sparse_factor(data, stats)(I[:size])

            return iterate_sparse

        dgesv = _lapack().dgesv
        stride = size + 1
        G = work[:offset].reshape(stride, stride).T  # Fortran-ordered view
        pad_cell = size * stride + size  # flat index of (size, size)
        diag_flat = self._diag_flat

        def iterate_dense(xp: np.ndarray) -> np.ndarray:
            stamp(xp)
            if gshunt:
                work[diag_flat] += gshunt
            diag = work[diag_flat]
            if not diag.all():
                work[diag_flat[diag == 0.0]] = 1e-12
            # Reset the discard slots so the padded system is exactly
            # block-diagonal ([G 0; 0 1], rhs 0): solving the (size+1)
            # system in one LAPACK call avoids slicing out a
            # non-contiguous (size, size) view, and the pad unknown
            # solves to exactly 0.
            work[pad_cell] = 1.0
            I[size] = 0.0
            stats.factorizations += 1
            # In place: the LU overwrites G and the solution I, both
            # rebuilt from ``start`` next round.
            info = dgesv(G, I, 1, 1)[3]
            if info != 0:
                raise SingularSystemError(
                    f"LU factorization failed (LAPACK dgesv info={info})"
                )
            return I[:size].copy()

        return iterate_dense

    # ------------------------------------------------------------------ #
    # batched (multi-lane) assembly                                       #
    # ------------------------------------------------------------------ #

    def _block_sparse_structure(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSC ``(indices, indptr)`` of ``k`` copies of the pattern on the
        block diagonal.  Column ``l * size + j`` of the block matrix is
        column ``j`` of lane ``l``, so lane-major concatenation of the
        per-lane data vectors is already in block-CSC order."""
        cached = self._blk_cache.get(k)
        if cached is None:
            nnz, size = self._nnz, self.size
            indices = np.tile(self._csc_indices.astype(np.int64), k) + np.repeat(
                np.arange(k, dtype=np.int64) * size, nnz
            )
            indptr = np.empty(k * size + 1, dtype=np.int64)
            indptr[0] = 0
            indptr[1:] = (
                self._csc_indptr[1:].astype(np.int64)[None, :]
                + (np.arange(k, dtype=np.int64) * nnz)[:, None]
            ).ravel()
            cached = self._blk_cache[k] = (indices, indptr)
        return cached

    def _block_sparse_factor(self, data: np.ndarray, stats):
        """One SuperLU factorization of the ``(k*size, k*size)`` block system."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        k = data.shape[0]
        indices, indptr = self._block_sparse_structure(k)
        n = k * self.size
        matrix = sp.csc_matrix((data.ravel(), indices, indptr), shape=(n, n))
        try:
            lu = spla.splu(matrix)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        stats.factorizations += 1
        return lu.solve

    def prepare_step_batched(self, XP_prev: np.ndarray, t: float, dt: float, stats):
        """Batched counterpart of :meth:`prepare_step` over ``L`` lanes.

        ``XP_prev`` is the stacked ``(L, size + 1)`` padded state.
        Returns ``iterate(XP, rows) -> (X_next, solved)``: one Newton
        round for the lane subset ``rows`` (``XP`` holds just those
        lanes' states), giving the stacked node solutions and a boolean
        mask of lanes whose linear solve succeeded — a singular lane is
        reported in the mask instead of aborting the batch, so the
        session can retry it alone through the scalar rescue path.

        There is no ``gshunt`` or ``source_scale``: batched stepping never
        deforms the system — rescue is per-lane through
        :meth:`prepare_step`.

        The devices of all lanes are linearized by one vectorized
        :meth:`_device_stamps` call.  Solve backends per path:

        * device-free + reusable factorization: one multi-RHS solve
          shared by every lane (bit-identical per lane in practice);
        * dense: the scalar path's own LAPACK ``dgesv``, one call per
          active lane on that lane's padded system, so every lane is
          bit-identical to its scalar run by construction;
        * sparse: one SuperLU factorization of the block-diagonal
          system, reused across the lane axis (within the documented
          2 mV circuit envelope of the scalar run).
        """
        size = self.size
        base, factor = self._linear_base(dt, stats)
        I_all = self._rhs_base_batch(XP_prev, t, dt)

        if self.n_devices == 0 and factor is not None:
            cache: dict = {}

            def iterate_linear_batch(XP, rows):
                X = cache.get("X")
                if X is None:
                    # Both factor kinds (LAPACK lu_solve, SuperLU solve)
                    # accept a (size, L) multi-RHS block directly.
                    X = cache["X"] = factor(I_all[:, :size].T).T
                return X[rows], np.ones(len(rows), dtype=bool)

            return iterate_linear_batch

        # Each round works in one padded [G | I] row per lane ([data | I]
        # on the sparse path), like the scalar round.
        n_lanes = XP_prev.shape[0]
        offset = self._rhs_offset
        base = base.reshape(-1)
        buffer, lane_G, lane_I, normal, swapped = self._lane_context(n_lanes)

        def stamp(XP, rows) -> np.ndarray:
            k = len(rows)
            work = buffer[:k]
            work[:, :offset] = base
            work[:, offset:] = I_all if k == n_lanes else I_all[rows]
            if self.n_devices:
                # Entry-major scatter (every lane's first stamp, then its
                # second, ...): lanes own disjoint rows, so each lane's
                # stamps still accumulate in stamp order.
                swap, values = self._device_stamps(XP)
                index = np.where(swap[self._entry_device], swapped[:, :k], normal[:, :k])
                np.add.at(work.reshape(-1), index.reshape(-1), values.reshape(-1))
            return work

        if self.sparse:
            nnz = self._nnz

            def iterate_sparse_batch(XP, rows):
                k = XP.shape[0]
                work = stamp(XP, rows)
                data = work[:, :nnz]
                I = work[:, offset : offset + size]
                diag = data[:, self._diag_pos]
                zero = diag == 0.0
                if zero.any():
                    li, wi = np.nonzero(zero)
                    data[li, self._diag_pos[wi]] = 1e-12
                try:
                    solve = self._block_sparse_factor(data, stats)
                    X = solve(I.reshape(-1)).reshape(k, size)
                    return X, np.ones(k, dtype=bool)
                except SingularSystemError:
                    # Identify the singular lane(s) individually; healthy
                    # lanes still get their solution this round.
                    X = np.zeros((k, size))
                    solved = np.zeros(k, dtype=bool)
                    for lane_i in range(k):
                        try:
                            lane_solve = self._sparse_factor(data[lane_i].copy(), stats)
                            X[lane_i] = lane_solve(I[lane_i])
                            solved[lane_i] = True
                        except SingularSystemError:
                            pass
                    return X, solved

            return iterate_sparse_batch

        dgesv = _lapack().dgesv
        stride = size + 1
        pad_cell = size * stride + size  # flat index of (size, size)

        def iterate_dense_batch(XP, rows):
            k = XP.shape[0]
            work = stamp(XP, rows)
            diag = work[:, self._diag_flat]
            if not diag.all():
                li, wi = np.nonzero(diag == 0.0)
                work[li, self._diag_flat[wi]] = 1e-12
            work[:, pad_cell] = 1.0
            work[:, offset + size] = 0.0
            stats.factorizations += k
            # Each lane's Fortran-ordered system, solved in place as the
            # scalar round solves its buffer.
            infos = [dgesv(lane_G[i], lane_I[i], 1, 1)[3] for i in range(k)]
            return work[:, offset : offset + size].copy(), np.array(infos) == 0

        return iterate_dense_batch

    # ------------------------------------------------------------------ #
    # verification                                                        #
    # ------------------------------------------------------------------ #

    def system_matrices(self, x: np.ndarray, v_prev: np.ndarray, t: float, dt: float):
        """Densified ``(G, I)`` as assembled by the compiled path.

        Testing hook for architecture invariant 10 — compare against
        :meth:`ReferenceAssembler.system_matrices`.  Regularization of
        floating nodes is *not* applied (neither does the reference
        stamping protocol itself).
        """
        size = self.size
        xp = np.zeros(size + 1)
        xp[:size] = x
        xp_prev = np.zeros(size + 1)
        xp_prev[:size] = v_prev
        offset = self._rhs_offset
        work = np.concatenate([self._assemble_linear(dt).reshape(-1), self._rhs_base(xp_prev, t, dt)])
        if self.n_devices:
            swap, values = self._device_stamps(xp)
            np.add.at(work, self._scatter_positions(swap), values)
        I = work[offset : offset + size]
        if self.sparse:
            import scipy.sparse as sp

            matrix = sp.csc_matrix(
                (work[: self._nnz], self._csc_indices, self._csc_indptr),
                shape=(size, size),
            )
            return matrix.toarray(), I
        return work[:offset].reshape(size + 1, size + 1).T[:size, :size].copy(), I


class ReferenceAssembler:
    """Per-iteration reference stamping (the seed solver's semantics).

    Used for circuits containing opaque user elements, and by the
    equivalence tests as the ground truth the compiled assembler must
    match.  Above the sparse threshold it stamps into a
    ``scipy.sparse.lil_matrix`` — the dense ``(size, size)`` matrix is
    never materialized for large systems.
    """

    is_compiled = False

    def __init__(self, circuit: Circuit, size: int, sparse: bool):
        self.circuit = circuit
        self.size = size
        self.n_nodes = circuit.num_nodes
        self.sparse = sparse
        self.n_devices = sum(1 for e in circuit.elements if isinstance(e, _MOSFET))

    @staticmethod
    def _is_library_source(element) -> bool:
        """Whether ``element`` stamps with the unmodified library V/I source
        arithmetic (and so is safe to scale during source stepping).
        Subclasses overriding ``stamp`` are opaque and never scaled."""
        return type(element).stamp in (VoltageSource.stamp, CurrentSource.stamp)

    def _assemble(
        self,
        x: np.ndarray,
        v_prev: np.ndarray,
        t: float,
        dt: float,
        source_scale: float = 1.0,
    ):
        """Stamp every element; returns ``(G, I)`` (G possibly lil)."""
        size = self.size
        if self.sparse:
            import scipy.sparse as sp

            G = sp.lil_matrix((size, size))
        else:
            G = np.zeros((size, size))
        I = np.zeros(size)
        if source_scale == 1.0:
            for element in self.circuit.elements:
                element.stamp(G, I, x, v_prev, t, dt)
        else:
            # Source stepping: library V/I sources stamp their RHS into a
            # scratch vector that is scaled back in.  Their G entries are
            # ±1 incidence terms, unaffected by the supply level.
            I_sources = np.zeros(size)
            for element in self.circuit.elements:
                if self._is_library_source(element):
                    element.stamp(G, I_sources, x, v_prev, t, dt)
                else:
                    element.stamp(G, I, x, v_prev, t, dt)
            I += source_scale * I_sources
        return G, I

    def prepare_step(
        self,
        xp_prev: np.ndarray,
        t: float,
        dt: float,
        stats,
        gshunt: float = 0.0,
        source_scale: float = 1.0,
    ):
        """Reference counterpart of :meth:`CompiledCircuit.prepare_step`."""
        size, n_nodes = self.size, self.n_nodes
        v_prev = xp_prev[:size].copy()

        def iterate(xp: np.ndarray) -> np.ndarray:
            G, I = self._assemble(xp[:size], v_prev, t, dt, source_scale)
            if gshunt:
                for k in range(n_nodes):
                    G[k, k] += gshunt
            # Regularize rows untouched by any stamp (isolated nodes).
            for k in range(n_nodes):
                if G[k, k] == 0.0:
                    G[k, k] = 1e-12
            stats.factorizations += 1
            if self.sparse:
                import scipy.sparse.linalg as spla

                try:
                    lu = spla.splu(G.tocsc())
                except RuntimeError as exc:
                    raise SingularSystemError(str(exc)) from exc
                return lu.solve(I)
            try:
                return np.linalg.solve(G, I)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(str(exc)) from exc

        return iterate

    def system_matrices(self, x: np.ndarray, v_prev: np.ndarray, t: float, dt: float):
        """Densified ``(G, I)`` via the reference stamping protocol."""
        G, I = self._assemble(x, v_prev, t, dt)
        if self.sparse:
            G = G.toarray()
        return G, I
