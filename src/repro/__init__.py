"""VRL-DRAM: Improving DRAM Performance via Variable Refresh Latency.

A complete, self-contained reproduction of Das, Hassan & Mutlu,
DAC 2018 (doi:10.1145/3195970.3196136): the circuit-level analytical
refresh model (Sec. 2), the MPRSF-driven variable-latency refresh
mechanism with its RAIDR baseline (Sec. 3), and every substrate the
evaluation needs — a SPICE-equivalent transient circuit simulator,
retention profiling, a trace-driven bank simulator, workload
generators, and power/area models (Sec. 4).

Quick start::

    from repro import (
        DEFAULT_TECH, RefreshLatencyModel, RetentionProfiler,
        RefreshBinning, build_policy, DRAMTiming, RefreshOverheadEvaluator,
    )

    model = RefreshLatencyModel(DEFAULT_TECH)
    print(model.partial_refresh())   # tau_partial = 11 cycles
    print(model.full_refresh())      # tau_full    = 19 cycles

    profile = RetentionProfiler().profile()
    binning = RefreshBinning().assign(profile)
    policy = build_policy("vrl-access", DEFAULT_TECH, profile, binning)

See ``examples/`` for runnable scenarios and ``repro.experiments`` for
the figure/table reproductions.
"""

from .guard import NumericalError, assert_finite
from .technology import (
    BankGeometry,
    DEFAULT_GEOMETRY,
    DEFAULT_TECH,
    TABLE1_GEOMETRIES,
    TechnologyParams,
)
from .model import (
    EqualizationModel,
    LeakageModel,
    PostSensingModel,
    PreSensingModel,
    RefreshLatencyModel,
    RefreshTiming,
    SingleCellModel,
)
from .retention import (
    BinningResult,
    DataPattern,
    RefreshBinning,
    RetentionDistribution,
    RetentionProfile,
    RetentionProfiler,
)
from .mprsf import MPRSFCalculator, TauPartialOptimizer
from .controller import (
    AVATARPolicy,
    ChargeCachePolicy,
    DARPPolicy,
    FGRPolicy,
    FixedRefreshPolicy,
    MECHANISMS,
    MechanismRegistry,
    RAIDRPolicy,
    RefreshCommand,
    RefreshKind,
    RefreshPolicy,
    VRLAccessPolicy,
    VRLPolicy,
    build_policy,
)
from .sim import (
    BankSimulator,
    DRAMTiming,
    MemoryTrace,
    RefreshOverheadEvaluator,
    RefreshStats,
    SimulationResult,
)
from .workloads import PARSEC_WORKLOADS, TraceGenerator, WorkloadSpec
from .power import RefreshPowerModel
from .area import AreaModel

__version__ = "1.0.0"

# The runner layer imports __version__ (cache keys embed it), so it must
# come after the assignment above.
from .runner import Cell, ExperimentRunner, ResultCache  # noqa: E402

__all__ = [
    "NumericalError",
    "assert_finite",
    "BankGeometry",
    "DEFAULT_GEOMETRY",
    "DEFAULT_TECH",
    "TABLE1_GEOMETRIES",
    "TechnologyParams",
    "EqualizationModel",
    "LeakageModel",
    "PostSensingModel",
    "PreSensingModel",
    "RefreshLatencyModel",
    "RefreshTiming",
    "SingleCellModel",
    "BinningResult",
    "DataPattern",
    "RefreshBinning",
    "RetentionDistribution",
    "RetentionProfile",
    "RetentionProfiler",
    "MPRSFCalculator",
    "TauPartialOptimizer",
    "AVATARPolicy",
    "ChargeCachePolicy",
    "DARPPolicy",
    "FGRPolicy",
    "FixedRefreshPolicy",
    "MECHANISMS",
    "MechanismRegistry",
    "RAIDRPolicy",
    "RefreshCommand",
    "RefreshKind",
    "RefreshPolicy",
    "VRLAccessPolicy",
    "VRLPolicy",
    "build_policy",
    "BankSimulator",
    "DRAMTiming",
    "MemoryTrace",
    "RefreshOverheadEvaluator",
    "RefreshStats",
    "SimulationResult",
    "PARSEC_WORKLOADS",
    "TraceGenerator",
    "WorkloadSpec",
    "RefreshPowerModel",
    "AreaModel",
    "Cell",
    "ExperimentRunner",
    "ResultCache",
    "__version__",
]
