"""Ransomware detection use case: vocabulary, families, sandbox, dataset,
detector, per-process monitoring and scenario replay, and CTI-driven
model updates."""

from repro.ransomware.api_vocabulary import (
    API_CATEGORIES,
    API_NAMES,
    API_TO_CATEGORY,
    API_TO_ID,
    VOCABULARY_SIZE,
    decode,
    encode,
)
from repro.ransomware.benign import ALL_BENIGN_PROFILES, BenignProfile, MANUAL_INTERACTION
from repro.ransomware.cuckoo_report import (
    ReportParseError,
    load_report,
    report_from_json,
    report_to_trace,
    save_report,
    trace_to_report,
)
from repro.ransomware.cti import (
    CtiFeed,
    ModelUpdateWorkflow,
    NOVEL_STRAIN,
    ThreatReport,
    UpdateResult,
)
from repro.ransomware.dataset import (
    Dataset,
    PAPER_BENIGN_SEQUENCES,
    PAPER_RANSOMWARE_SEQUENCES,
    PAPER_SEQUENCE_LENGTH,
    PAPER_TOTAL_SEQUENCES,
    build_dataset,
    extract_windows,
    load_csv,
    save_csv,
)
from repro.ransomware.detector import (
    DetectionReport,
    RansomwareDetector,
    Verdict,
    train_detector,
)
from repro.ransomware.families import (
    ALL_FAMILIES,
    FamilyProfile,
    Motif,
    Phase,
    TOTAL_VARIANTS,
    table_ii,
)
from repro.ransomware.analysis import (
    category_distribution,
    category_divergence,
    per_family_detection,
    source_summary,
)
from repro.ransomware.monitor import ProcessMonitor
from repro.ransomware.replay import (
    ScenarioReplay,
    ScenarioStream,
    StreamOutcome,
    build_scenario,
    data_loss_accounting,
)
from repro.ransomware.sandbox import ApiTrace, CuckooSandbox, OS_VERSIONS

__all__ = [
    "ALL_BENIGN_PROFILES",
    "ALL_FAMILIES",
    "API_CATEGORIES",
    "API_NAMES",
    "API_TO_CATEGORY",
    "API_TO_ID",
    "ApiTrace",
    "BenignProfile",
    "CtiFeed",
    "CuckooSandbox",
    "Dataset",
    "DetectionReport",
    "FamilyProfile",
    "MANUAL_INTERACTION",
    "ModelUpdateWorkflow",
    "Motif",
    "NOVEL_STRAIN",
    "OS_VERSIONS",
    "PAPER_BENIGN_SEQUENCES",
    "PAPER_RANSOMWARE_SEQUENCES",
    "PAPER_SEQUENCE_LENGTH",
    "PAPER_TOTAL_SEQUENCES",
    "Phase",
    "ProcessMonitor",
    "RansomwareDetector",
    "ReportParseError",
    "ScenarioReplay",
    "ScenarioStream",
    "StreamOutcome",
    "ThreatReport",
    "TOTAL_VARIANTS",
    "UpdateResult",
    "Verdict",
    "VOCABULARY_SIZE",
    "build_dataset",
    "build_scenario",
    "category_distribution",
    "data_loss_accounting",
    "category_divergence",
    "per_family_detection",
    "source_summary",
    "decode",
    "encode",
    "extract_windows",
    "load_csv",
    "load_report",
    "report_from_json",
    "report_to_trace",
    "save_report",
    "trace_to_report",
    "save_csv",
    "table_ii",
    "train_detector",
]
