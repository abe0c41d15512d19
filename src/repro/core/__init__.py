"""The paper's contribution: CSD-offloaded LSTM inference.

Public surface: :class:`~repro.core.engine.CSDInferenceEngine` plus its
configuration types and the Fig. 3 timing sweep helpers.
"""

from repro.core.config import (
    EngineConfig,
    GATE_NAMES,
    ModelDimensions,
    OptimizationLevel,
)
from repro.core.control_plane import (
    AutoscalePolicy,
    ControlPlane,
    ControlPlaneConfig,
    ControlPlaneReport,
    QosClass,
    ScaleEvent,
    ShardRouter,
    TopologySpec,
    generate_fleet_rounds,
)
from repro.core.engine import CSDInferenceEngine, InferenceResult, engine_at_level
from repro.core.fleet import FleetPlan, FleetPlanner, MonitoredStream
from repro.core.serving import (
    FleetServer,
    ServingConfig,
    SessionServingReport,
    StreamVerdictRecord,
    TokenArrival,
    build_fleet,
    generate_token_workload,
)
from repro.core.sessions import (
    SessionCheckpoint,
    SessionConfig,
    SessionManager,
    SessionVerdict,
    StreamSession,
)
from repro.core.throughput import ThroughputReport, throughput_report
from repro.core.mixed_precision import (
    MixedPrecisionLstm,
    MixedPrecisionPolicy,
    PolicyEvaluation,
    evaluate_policy,
)
from repro.core.sessions import StreamingReport, streaming_report
from repro.core.timing import (
    InferenceTiming,
    KernelReport,
    kernel_breakdown,
    optimization_sweep,
)
from repro.core.weights import HostWeights, QuantizedHostWeights

__all__ = [
    "AutoscalePolicy",
    "CSDInferenceEngine",
    "ControlPlane",
    "ControlPlaneConfig",
    "ControlPlaneReport",
    "EngineConfig",
    "FleetPlan",
    "FleetPlanner",
    "FleetServer",
    "GATE_NAMES",
    "HostWeights",
    "InferenceResult",
    "InferenceTiming",
    "KernelReport",
    "MixedPrecisionLstm",
    "MixedPrecisionPolicy",
    "ModelDimensions",
    "MonitoredStream",
    "OptimizationLevel",
    "PolicyEvaluation",
    "QosClass",
    "QuantizedHostWeights",
    "ScaleEvent",
    "ServingConfig",
    "SessionCheckpoint",
    "SessionConfig",
    "SessionManager",
    "SessionServingReport",
    "SessionVerdict",
    "ShardRouter",
    "StreamSession",
    "StreamVerdictRecord",
    "StreamingReport",
    "ThroughputReport",
    "TopologySpec",
    "TokenArrival",
    "build_fleet",
    "engine_at_level",
    "generate_fleet_rounds",
    "evaluate_policy",
    "generate_token_workload",
    "kernel_breakdown",
    "optimization_sweep",
    "streaming_report",
    "throughput_report",
]
