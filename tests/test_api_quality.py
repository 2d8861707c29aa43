"""Meta-tests on API quality: docstrings, exports, and import hygiene."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.area",
    "repro.circuit",
    "repro.controller",
    "repro.experiments",
    "repro.model",
    "repro.mprsf",
    "repro.power",
    "repro.retention",
    "repro.sim",
    "repro.workloads",
]


def _all_modules():
    modules = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__, prefix=f"{name}."):
            modules.append(importlib.import_module(info.name))
    return modules


ALL_MODULES = _all_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_members_documented(self, module):
        """Every public class and function defined in the package has a
        docstring, and every public method of every public class does."""
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not getattr(obj, "__module__", "").startswith("repro"):
                continue
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(f"{module.__name__}.{name}")
            if inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    if not (inspect.isfunction(method) or isinstance(method, property)):
                        continue
                    # getattr + getdoc honors documentation inherited
                    # from a documented base-class method (overrides of
                    # stamp/nodes/refresh_row etc. need no copy-paste).
                    attribute = getattr(obj, method_name, None)
                    if attribute is None:
                        continue
                    doc = inspect.getdoc(attribute)
                    if not (doc and doc.strip()):
                        undocumented.append(f"{module.__name__}.{name}.{method_name}")
        assert undocumented == []


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package_name", PACKAGES[1:])
    def test_package_all_resolves(self, package_name):
        package = importlib.import_module(package_name)
        if hasattr(package, "__all__"):
            for name in package.__all__:
                assert hasattr(package, name), f"{package_name}.{name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestLayering:
    """The architecture guide's 'nothing imports upward' rule."""

    FORBIDDEN = {
        "repro.model": ["repro.controller", "repro.sim", "repro.experiments"],
        "repro.circuit": ["repro.model", "repro.controller", "repro.sim"],
        "repro.retention": ["repro.controller", "repro.sim", "repro.experiments"],
        "repro.controller": ["repro.sim", "repro.experiments"],
        "repro.sim": ["repro.experiments", "repro.workloads"],
    }

    @pytest.mark.parametrize("lower,uppers", FORBIDDEN.items(), ids=lambda x: str(x))
    def test_no_upward_imports(self, lower, uppers):
        import sys

        package = importlib.import_module(lower)
        for info in pkgutil.iter_modules(package.__path__, prefix=f"{lower}."):
            importlib.import_module(info.name)
        source_modules = [m for m in sys.modules if m.startswith(lower + ".") or m == lower]
        for module_name in source_modules:
            module = sys.modules[module_name]
            source = getattr(module, "__file__", None)
            if not source:
                continue
            with open(source) as fh:
                text = fh.read()
            for upper in uppers:
                # Check both absolute and the corresponding relative form.
                relative = upper.replace("repro.", "")
                assert f"from {upper}" not in text and f"import {upper}" not in text, (
                    f"{module_name} imports {upper}"
                )
                assert f"from ..{relative} import" not in text, (
                    f"{module_name} imports ..{relative}"
                )


class TestApiReference:
    def test_reference_is_current(self, tmp_path, monkeypatch):
        """docs/api_reference.md matches a fresh generation (no drift)."""
        import importlib.util
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "generate_api_reference.py"
        spec = importlib.util.spec_from_file_location("gen_api_ref", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        committed = module.OUTPUT.read_text()
        monkeypatch.setattr(module, "OUTPUT", tmp_path / "api.md")
        module.main()
        assert (tmp_path / "api.md").read_text() == committed



def _rc_session():
    from repro.circuit import GND, BatchedCircuitSession, Capacitor, Circuit, Resistor

    circuit = Circuit(name="rc")
    circuit.add(Resistor("R1", "out", GND, 1e3))
    circuit.add(Capacitor("C1", "out", GND, 1e-12, ic=1.0))
    return BatchedCircuitSession(circuit)


def _session(**removed):
    from repro.circuit import CircuitSession

    return CircuitSession(_rc_session().circuit, **removed)


def _simulate(**removed):
    return _rc_session().simulate(1e-9, 1e-11, adaptive=True, **removed)


def _simulate_batch(**removed):
    return _rc_session().simulate_batch(1e-9, 1e-11, lane_overrides={"out": [1.0]}, **removed)


def _harvest_breakpoints(extra):
    return _rc_session()._harvest_breakpoints(1e-9, extra)


def _optimizer_and_timing():
    from repro.mprsf import TauPartialOptimizer

    optimizer = TauPartialOptimizer(repro.DEFAULT_TECH)
    return optimizer, optimizer.model.partial_refresh()


def _restored_fractions(**removed):
    optimizer, timing = _optimizer_and_timing()
    return optimizer.calculator.circuit_restored_fractions([0.9], timing, **removed)


def _calibrate(**removed):
    optimizer, _ = _optimizer_and_timing()
    return optimizer.calibrate([0.9], **removed)


def _predicted_full_fraction(**removed):
    from repro.sim import predicted_full_fraction

    return predicted_full_fraction(2, 0.5, **removed)


def _runner(**removed):
    from repro.runner import ExperimentRunner

    return ExperimentRunner(**removed)


#: Every parameter that no caller set, now a module constant or gone:
#: (call, keyword, a value it used to accept).
REMOVED_OPTIONS = [
    (_session, "assembly", "naive"),
    (_session, "abstol", 1e-9),
    (_session, "max_newton", 5),
    (_simulate, "lte_tol", 1e-3),
    (_simulate, "dt_min", 1e-13),
    (_simulate, "dt_max", 1e-10),
    (_simulate, "breakpoints", [5e-10]),
    (_simulate_batch, "lte_tol", 1e-3),
    (_simulate_batch, "dt_min", 1e-13),
    (_simulate_batch, "dt_max", 1e-10),
    (_simulate_batch, "breakpoints", [5e-10]),
    (_simulate_batch, "lane_source_scale", [0.5]),
    (_simulate_batch, "adaptive", True),
    (_harvest_breakpoints, "extra", [5e-10]),
    (_restored_fractions, "dt", 5e-12),
    (_restored_fractions, "adaptive", False),
    (_calibrate, "dt", 5e-12),
    (_calibrate, "adaptive", False),
    (_predicted_full_fraction, "tol", 1e-6),
    (_runner, "faults", "raise@0"),
]


class TestRemovedOptions:
    """Solver and calibration knobs no caller set are module constants now,
    the circuit session has one assembler (no ``assembly=``), a batch
    always steps adaptively (no ``adaptive=``), and fault injection lives
    in the tests, not in the runner or the CLI."""

    @pytest.mark.parametrize(
        "call,keyword,value",
        REMOVED_OPTIONS,
        ids=[f"{call.__name__.lstrip('_')}-{keyword}" for call, keyword, _ in REMOVED_OPTIONS],
    )
    def test_removed_options_are_rejected(self, call, keyword, value):
        with pytest.raises(TypeError, match="argument"):
            call(**{keyword: value})

    def test_one_point_restored_fraction_is_gone(self):
        # A one-point profile of circuit_restored_fractions is that run.
        from repro.mprsf import MPRSFCalculator

        assert not hasattr(MPRSFCalculator, "circuit_restored_fraction")

    def test_chaos_flag_is_rejected(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["fig4", "--no-cache", "--chaos", "raise@0"])
        assert info.value.code == 2
        assert "--chaos" in capsys.readouterr().err

    def test_faults_env_var_is_ignored(self, monkeypatch):
        from repro.runner import Cell, ExperimentRunner

        monkeypatch.setenv("VRL_DRAM_FAULTS", "raise@0")
        cells = [
            Cell.of("temperature-point", tech=repro.DEFAULT_TECH, rows=64, cols=8,
                    temperature=t, seed=7)
            for t in (45.0, 65.0)
        ]
        report = ExperimentRunner().run(cells, "env")
        assert report.failures == [] and report.cache_misses == 2
        assert all(payload is not None for payload in report.results)
