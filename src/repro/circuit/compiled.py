"""Compiled MNA stamping: extract structure once, re-stamp only devices.

The element ``stamp`` protocol (:mod:`repro.circuit.netlist`) would
rebuild the whole MNA system element-by-element in Python on every
Newton iteration.  This module performs that walk **once**, at compile
time, and partitions the circuit (:meth:`Circuit.partition`):

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

Every system is dense: the netlists this layer serves (the Fig. 2
circuits) have tens of unknowns, 50 at most.  Elements with custom
``stamp`` arithmetic cannot be described statically, and
:func:`build_assembler` rejects a circuit holding one.  The per-element
stamping loop survives as the tests' oracle
(``tests/reference_assembler.py``, architecture invariant 10).

:class:`CompiledCircuit` exposes the entry points consumed by
:class:`~repro.circuit.solver.CircuitSession`:

* ``prepare_step(xp_prev, t, dt, stats, gshunt=0.0, source_scale=1.0)``
  → an ``iterate(xp)`` callable performing one
  linearize-assemble-solve round (``gshunt``/``source_scale`` deform
  the system for the rescue ladder; the defaults assemble the exact
  undeformed system),
* ``prepare_step_batched`` for
  :class:`~repro.circuit.batched.BatchedCircuitSession`: lanes are
  solved one ``dgesv`` call each, the scalar path's own LAPACK routine,
  so each lane is bit-identical to its scalar run (architecture
  invariant 14), and
* ``system_matrices(x, v_prev, t, dt)`` → the ``(G, I)`` pair for
  verification against the oracle.

Matrices are stored column-major, the layout LAPACK reads, so both
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


def build_assembler(circuit: Circuit, size: int) -> CompiledCircuit:
    """Compile ``circuit``, an assembled netlist of library elements.

    Args:
        circuit: an assembled circuit (terminals bound to indices).
        size: MNA system size as returned by :meth:`Circuit.assemble`.

    Raises:
        TypeError: an element overrides the library ``stamp`` arithmetic
            (:meth:`Circuit.partition` finds it opaque).
    """
    linear, nonlinear, opaque = circuit.partition()
    if opaque:
        element = opaque[0]
        raise TypeError(
            f"circuit {circuit.name!r}: element {element.name!r} of type "
            f"{type(element).__name__} has custom stamp arithmetic; the solver "
            f"compiles library elements only (R, C, L, V/I sources, NMOS/PMOS)"
        )
    return CompiledCircuit(circuit, size, linear, nonlinear)


class CompiledCircuit:
    """Vectorized MNA assembler for a circuit of library element types.

    Built once per :class:`~repro.circuit.solver.CircuitSession`; holds
    the stamp positions, per-``dt`` linear base cache, and the device
    parameter arrays.  Not constructed directly — use
    :func:`build_assembler`.
    """

    def __init__(self, circuit, size, linear, nonlinear):
        self.size = size
        self.n_nodes = circuit.num_nodes
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

        self._build_structure(f_d, f_g, f_s)

        # Per-dt cache of the assembled linear base plus, for
        # device-free circuits, its reusable factorization.
        self._lin_cache_dt: Optional[float] = None
        self._lin_cache_base = None
        self._lin_cache_factor = None

    # ------------------------------------------------------------------ #
    # structure construction                                              #
    # ------------------------------------------------------------------ #

    def _fet_positions(self, f_d, f_g, f_s):
        """Stamp positions for both device orientations.

        Matrix entry ``(i, j)`` sits at flat index ``j * stride + i`` of
        the padded ``(size+1, size+1)`` matrix; ground coordinates map
        to the ``(size, size)`` discard cell, and ground RHS rows to the
        pad row ``size``.  Returns ``(pos_normal, pos_swapped,
        rhs_normal, rhs_swapped)``; the ``pos`` arrays are ``(n_fet, 8)``
        following :data:`_FET_STAMPS`, the ``rhs`` arrays ``(n_fet, 2)``
        for the (drain, source) current rows.
        """
        size = self.size
        stride = size + 1
        pad_pos = size * stride + size
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
                    pos[swapped][dev, slot] = (
                        int(j) * stride + int(i) if (i >= 0 and j >= 0) else pad_pos
                    )
                rhs[swapped][dev, 0] = d_eff if d_eff >= 0 else size
                rhs[swapped][dev, 1] = s_eff if s_eff >= 0 else size
        return pos[False], pos[True], rhs[False], rhs[True]

    def _build_structure(self, f_d, f_g, f_s) -> None:
        """Flat indices into a ``(size+1, size+1)`` pad matrix.

        The matrix is stored column-major (entry ``(i, j)`` at flat index
        ``j * stride + i``), the layout LAPACK reads, so a round hands
        ``dgesv`` its buffer without a transposing copy.

        The device stamps get one position table per orientation,
        ``(10 n,)``, into a padded ``[G | I]`` buffer, in stamp order:
        every device's eight Jacobian stamps (device-major, following
        :data:`_FET_STAMPS`), every drain RHS row, then every source RHS
        row.  ``_entry_device`` maps each entry to its device, so a swap
        mask picks each device's orientation.
        """
        size = self.size
        stride = size + 1
        self._lin_flat = self._lin_cols * stride + self._lin_rows
        self._diag_flat = np.arange(self.n_nodes, dtype=np.intp) * stride + np.arange(
            self.n_nodes, dtype=np.intp
        )
        # RHS scatter targets index the padded I vector (pad row = size),
        # which follows the padded matrix in [G | I] buffers.
        self._rhs_offset = offset = stride * stride
        pos_normal, pos_swapped, rhs_normal, rhs_swapped = self._fet_positions(f_d, f_g, f_s)

        def table(pos, rhs):
            return np.concatenate([pos.ravel(), rhs[:, 0] + offset, rhs[:, 1] + offset])

        self._index_normal = table(pos_normal, rhs_normal)
        self._index_swapped = table(pos_swapped, rhs_swapped)
        n = len(pos_normal)
        devices = np.arange(n, dtype=np.intp)
        self._entry_device = np.concatenate([np.repeat(devices, 8), devices, devices])
        # Where each stamp value sits in :meth:`_device_stamps`' six rows
        # (gds, gm, ieq, -gds, -gm, -ieq), in stamp order.
        gds, gm, ieq, neg_gds, neg_gm, neg_ieq = (devices + r * n for r in range(6))
        jacobian = np.stack((gds, gds, neg_gds, neg_gds, gm, neg_gm, neg_gm, gm), axis=-1)
        self._stamp_order = np.concatenate([jacobian.ravel(), neg_ieq, ieq])

    # ------------------------------------------------------------------ #
    # per-dt linear base                                                  #
    # ------------------------------------------------------------------ #

    def _linear_values(self, dt: float) -> np.ndarray:
        """Values of the linear conductance entries at step size ``dt``."""
        return self._lin_const + self._lin_coef / dt

    def _assemble_linear(self, dt: float) -> np.ndarray:
        """The padded matrix (column-major: its transpose as a C array)
        holding every linear stamp at step size ``dt``."""
        base = np.zeros((self.size + 1, self.size + 1))
        np.add.at(base.ravel(), self._lin_flat, self._linear_values(dt))
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
        if self.n_devices == 0:
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
        (``info < 0``) gives ``None``: the per-iteration path then
        retries (with any rescue gmin applied) and raises there if the
        system is truly singular.
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

    # ------------------------------------------------------------------ #
    # per-step / per-iteration stamping                                   #
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
        in a padded ``[G | I]`` buffer."""
        return np.where(swap[..., self._entry_device], self._index_swapped, self._index_normal)

    def _lane_context(self, n_lanes: int) -> tuple:
        """Batched-step state reused across steps, cached per lane count.

        Returns ``(buffer, lane_G, lane_I, normal, swapped)``: a round
        buffer holding one padded ``[G | I]`` row per lane; each row's
        Fortran-ordered matrix view and its RHS view; and both
        orientations' stamp positions in that buffer, ``(10 n,
        n_lanes)``.  One batched step uses the buffer at a time.
        """
        context = self._lane_cache.get(n_lanes)
        if context is None:
            offset = self._rhs_offset
            stride = self.size + 1
            width = offset + stride
            buffer = np.empty((n_lanes, width))
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
        """One time step's Newton-round context.

        Returns ``iterate(xp) -> x_next`` performing a single Newton
        round: stamp devices at the iterate, regularize floating nodes,
        factorize/solve.  Raises :class:`SingularSystemError` when the
        system cannot be solved.

        ``gshunt``/``source_scale`` deform the system for the rescue
        ladder (:mod:`repro.circuit.rescue`): a shunt conductance on
        every node diagonal, and a scale on the V/I source RHS terms.
        At the defaults the assembled system is bit-identical to the
        undeformed one.

        A round works in one padded ``[G | I]`` buffer holding the
        step's linear base and RHS: the devices, linearized on Python
        floats (:meth:`_linearize`), land in it through a single
        ``np.add.at`` in the order separate matrix and RHS scatters
        would take.
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

        dgesv = _lapack().dgesv
        stride = size + 1
        G = work[:offset].reshape(stride, stride).T  # Fortran-ordered view
        pad_cell = size * stride + size  # flat index of (size, size)
        diag_flat = self._diag_flat

        def iterate(xp: np.ndarray) -> np.ndarray:
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

        return iterate

    # ------------------------------------------------------------------ #
    # batched (multi-lane) stamping                                       #
    # ------------------------------------------------------------------ #

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
        :meth:`_device_stamps` call.  Solve backends:

        * device-free + reusable factorization: one multi-RHS solve
          shared by every lane (to machine precision of the scalar run);
        * otherwise the scalar path's own LAPACK ``dgesv``, one call per
          active lane on that lane's padded system, so every lane is
          bit-identical to its scalar run by construction.
        """
        size = self.size
        base, factor = self._linear_base(dt, stats)
        I_all = self._rhs_base_batch(XP_prev, t, dt)

        if self.n_devices == 0 and factor is not None:
            cache: dict = {}

            def iterate_linear_batch(XP, rows):
                X = cache.get("X")
                if X is None:
                    # dgetrs accepts a (size, L) multi-RHS block directly.
                    X = cache["X"] = factor(I_all[:, :size].T).T
                return X[rows], np.ones(len(rows), dtype=bool)

            return iterate_linear_batch

        # Each round works in one padded [G | I] row per lane, like the
        # scalar round.
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

        dgesv = _lapack().dgesv
        stride = size + 1
        pad_cell = size * stride + size  # flat index of (size, size)

        def iterate_batch(XP, rows):
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

        return iterate_batch

    # ------------------------------------------------------------------ #
    # verification                                                        #
    # ------------------------------------------------------------------ #

    def system_matrices(self, x: np.ndarray, v_prev: np.ndarray, t: float, dt: float):
        """``(G, I)`` as assembled by the compiled path.

        Testing hook for architecture invariant 10 — compare against
        the per-element stamping oracle in
        ``tests/reference_assembler.py``.  Regularization of floating
        nodes is *not* applied (neither does the stamping protocol
        itself).
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
        return work[:offset].reshape(size + 1, size + 1).T[:size, :size].copy(), I

