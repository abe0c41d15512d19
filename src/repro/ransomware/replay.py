"""Attack-scenario replay: many processes writing to one protected drive.

A real system housing a CSD observes an *interleaved* stream of events
from many processes at once — benign applications doing their work with
(possibly) ransomware processes hiding among them.  The detector must
track a sliding window **per process** (a global window would smear the
malicious pattern across innocent calls), and enforcement must refuse
only the offending process's writes.

:class:`ScenarioReplay` is that detect-to-act loop: attack scenarios over
any of the three :data:`~repro.ransomware.traces.adapters.MODALITIES`
feed a :class:`~repro.ransomware.monitor.ProcessMonitor`, its verdicts
drive a :class:`~repro.response.policy.ResponseEngine` under a graduated
:class:`~repro.response.policy.ResponsePolicy`, and every write lands
through the self-protecting :class:`~repro.hw.smartssd.SmartSSD` path
(copy-on-write snapshots, write-blocking, restore).  This is the
data-loss benchmark's engine (``benchmarks/bench_response.py``).

Scenario traces are synthesised with the family's masquerade prelude
stripped (``masquerade_length=0``): the replay measures *response*
latency from attack onset, and the dropper's benign-identical prelude
would otherwise just add a constant number of benign tokens in front of
every run.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.hw.smartssd import WriteRefused
from repro.ransomware.benign import ALL_BENIGN_PROFILES
from repro.ransomware.families import ALL_FAMILIES
from repro.ransomware.monitor import ProcessMonitor
from repro.ransomware.sandbox import (
    ApiTrace,
    CuckooSandbox,
    draw_weighted,
    weighted_cdf,
)
from repro.ransomware.traces.adapters import MODALITIES
from repro.ransomware.traces.block_io import BlockIoSynthesizer
from repro.ransomware.traces.filesystem import FsEventSynthesizer
from repro.response.audit import AuditLog
from repro.response.policy import (
    ACTION_WRITE_BLOCK,
    ESCALATION_LADDER,
    ResponseEngine,
    ResponsePolicy,
    SmartSsdEnforcer,
)

#: Modelled bytes per write event, by modality.  The API and filesystem
#: modalities do not carry sizes, so a fixed per-call cost stands in
#: (one 16 KiB buffered ``NtWriteFile``; one 32 KiB file rewrite);
#: block-I/O events carry their true transfer size.
API_WRITE_BYTES = 16 * 1024
FS_WRITE_BYTES = 32 * 1024
BLOCK_BYTES = 4096

_RANK = {action: rank for rank, action in enumerate(ESCALATION_LADDER)}


def interleave_traces(lengths, seed: int = 0) -> list:
    """Deterministic weighted interleaving of per-trace cursors.

    Returns a list of trace indices — one entry per event, preserving
    each trace's internal order, with the next trace drawn proportional
    to its remaining length (long traces keep emitting, short ones
    finish naturally).
    """
    rng = np.random.default_rng(seed)
    remaining = [int(length) for length in lengths]
    order: list = []
    while any(remaining):
        weights = np.array(remaining, dtype=np.float64)
        index = draw_weighted(rng, weighted_cdf(weights))
        order.append(index)
        remaining[index] -= 1
    return order


@dataclasses.dataclass(frozen=True)
class ScenarioStream:
    """One process's tokenised trace plus its per-event write schedule.

    ``tokens`` and ``write_bytes`` are aligned 1:1 (every tokenizer in
    :mod:`repro.ransomware.traces.adapters` emits exactly one token per
    event); ``write_bytes[i]`` is 0 for non-write events.
    """

    name: str
    source: str
    is_ransomware: bool
    tokens: tuple
    write_bytes: tuple

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.write_bytes):
            raise ValueError(
                f"{self.name}: {len(self.tokens)} tokens vs "
                f"{len(self.write_bytes)} write-bytes entries"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def total_write_bytes(self) -> int:
        return int(sum(self.write_bytes))


def _api_stream(name, trace: ApiTrace) -> ScenarioStream:
    vocabulary = MODALITIES["api"].vocabulary
    return ScenarioStream(
        name=name, source=trace.source, is_ransomware=trace.is_ransomware,
        tokens=tuple(vocabulary.encode(trace.calls)),
        write_bytes=tuple(
            API_WRITE_BYTES if call in ("NtWriteFile", "WriteFile") else 0
            for call in trace.calls
        ),
    )


def _block_stream(name, trace) -> ScenarioStream:
    from repro.ransomware.traces.adapters import tokenize_block_trace

    return ScenarioStream(
        name=name, source=trace.source, is_ransomware=trace.is_ransomware,
        tokens=tokenize_block_trace(trace).token_ids,
        write_bytes=tuple(
            event.blocks * BLOCK_BYTES if event.op == "write" else 0
            for event in trace.events
        ),
    )


def _fs_stream(name, trace) -> ScenarioStream:
    from repro.ransomware.traces.adapters import tokenize_filesystem_trace

    return ScenarioStream(
        name=name, source=trace.source, is_ransomware=trace.is_ransomware,
        tokens=tokenize_filesystem_trace(trace).token_ids,
        write_bytes=tuple(
            FS_WRITE_BYTES if event.op == "write" else 0
            for event in trace.events
        ),
    )


def build_scenario(modality: str = "api", ransomware: int = 1,
                   benign: int = 3, seed: int = 0,
                   benign_length: int = 400,
                   strip_masquerade: bool = True) -> list:
    """Synthesise one attack scenario: a list of :class:`ScenarioStream`.

    ``ransomware`` variants are drawn from :data:`ALL_FAMILIES` in order
    (family ``i % len``, variant ``i // len``); ``benign`` sessions from
    :data:`ALL_BENIGN_PROFILES` likewise.  With ``strip_masquerade`` the
    dropper's benign-identical prelude is removed so the replay measures
    response latency from attack onset (the masquerade adds a constant
    benign prefix, not information).
    """
    if modality not in MODALITIES:
        raise ValueError(
            f"unknown modality {modality!r}; expected one of {sorted(MODALITIES)}"
        )
    if modality == "api":
        synthesizer = CuckooSandbox(seed=seed)
        make_ransomware = synthesizer.execute_ransomware
        make_benign = synthesizer.execute_benign
        to_stream = _api_stream
    elif modality == "block_io":
        synthesizer = BlockIoSynthesizer(seed=seed)
        make_ransomware = synthesizer.synthesize_ransomware
        make_benign = synthesizer.synthesize_benign
        to_stream = _block_stream
    else:
        synthesizer = FsEventSynthesizer(seed=seed)
        make_ransomware = synthesizer.synthesize_ransomware
        make_benign = synthesizer.synthesize_benign
        to_stream = _fs_stream

    streams: list = []
    for index in range(ransomware):
        family = ALL_FAMILIES[index % len(ALL_FAMILIES)]
        if strip_masquerade and family.masquerade_length:
            family = dataclasses.replace(family, masquerade_length=0)
        variant = (index // len(ALL_FAMILIES)) % family.variant_count
        trace = make_ransomware(family, variant)
        streams.append(
            to_stream(f"rw-{index}-{family.name.lower()}", trace)
        )
    for index in range(benign):
        profile = ALL_BENIGN_PROFILES[index % len(ALL_BENIGN_PROFILES)]
        trace = make_benign(profile, index, target_length=benign_length)
        streams.append(
            to_stream(f"benign-{index}-{profile.name.lower()}", trace)
        )
    return streams


@dataclasses.dataclass
class StreamOutcome:
    """Per-stream results of a scenario replay."""

    name: str
    source: str
    is_ransomware: bool
    tokens_replayed: int = 0
    writes_admitted: int = 0
    writes_blocked: int = 0
    bytes_admitted: int = 0
    bytes_blocked: int = 0
    write_seconds: float = 0.0
    final_action: str = "observe"
    enforced_at_step: int | None = None
    enforced_window_index: int | None = None
    first_probability: float | None = None

    @property
    def detection_latency_tokens(self) -> int | None:
        """Stream tokens past the first complete window at enforcement.

        The window index of the enforcing verdict **is** that latency:
        window 0 completes after ``window_length`` tokens, and each
        subsequent token advances the index by one.
        """
        return self.enforced_window_index


def _payload(name: str, position: int, num_bytes: int) -> bytes:
    """Deterministic per-write payload (so restores are byte-checkable)."""
    digest = hashlib.sha256(f"{name}:{position}".encode("utf-8")).digest()
    return (digest * (num_bytes // len(digest) + 1))[:num_bytes]


class ScenarioReplay:
    """Replays an attack scenario through monitor + response + SmartSSD.

    The closed loop of ``docs/response.md``: stream tokens feed a
    :class:`~repro.ransomware.monitor.ProcessMonitor`, verdicts feed a
    :class:`~repro.response.policy.ResponseEngine`, and enforcement
    lands on the :class:`~repro.hw.smartssd.SmartSSD` the streams are
    writing to (copy-on-write preservation at first alert,
    write-blocking at escalation, snapshot restore if the policy allows
    it).  Fully deterministic: one seed → bit-identical outcomes,
    storage state, and audit log.

    Parameters
    ----------
    engine:
        A loaded CSD inference engine trained on the scenario's modality.
    storage:
        The :class:`~repro.hw.smartssd.SmartSSD` whose volume is at
        stake.
    policy:
        The :class:`~repro.response.policy.ResponsePolicy`; default
        thresholds with two confirmations.
    monitor_threshold / stride:
        Detector parameters (``is_ransomware`` on the verdicts the
        policy consumes).
    telemetry:
        Optional; attached to ``engine`` (the monitor's sessions, kernel
        backend and AXI ports: ``repro_session_*``, ``repro_backend_*``,
        ``repro_axi_*``) and forwarded to the response engine
        (``repro_resp_*``).
    """

    def __init__(self, engine, storage, policy: ResponsePolicy | None = None,
                 monitor_threshold: float = 0.5, stride: int = 10,
                 telemetry=None, audit: AuditLog | None = None):
        if telemetry is not None:
            engine.attach_telemetry(telemetry)
        self.engine = engine
        self.storage = storage
        self.monitor = ProcessMonitor(
            engine, threshold=monitor_threshold, stride=stride
        )
        self.responder = ResponseEngine(
            policy=policy, enforcer=SmartSsdEnforcer(storage),
            engine=engine, audit=audit, telemetry=telemetry,
        )

    @property
    def audit(self) -> AuditLog:
        return self.responder.audit

    def seed_user_objects(self, count: int = 16,
                          num_bytes: int = 64 * 1024) -> list:
        """Populate the volume with the user data ransomware will target."""
        keys = []
        for index in range(count):
            key = f"user-{index:04d}"
            self.storage.ssd.write_object(
                key, num_bytes, data=_payload(key, 0, num_bytes)
            )
            keys.append(key)
        return keys

    def run(self, streams, seed: int = 0, user_keys=None) -> dict:
        """Replay interleaved streams; returns name → :class:`StreamOutcome`.

        Ransomware streams overwrite the seeded user objects round-robin
        (the encryption pass); benign streams write fresh objects of
        their own.  Write first, then observe — the damage a write does
        is not undone by the verdict its own token triggers; that is
        what the copy-on-write pre-images are for.
        """
        streams = list(streams)
        user_keys = list(user_keys or [])
        outcomes = {
            stream.name: StreamOutcome(
                name=stream.name, source=stream.source,
                is_ransomware=stream.is_ransomware,
            )
            for stream in streams
        }
        cursors = [0] * len(streams)
        overwrite_cursor = 0
        for step, index in enumerate(
            interleave_traces([len(s) for s in streams], seed)
        ):
            stream = streams[index]
            position = cursors[index]
            cursors[index] += 1
            outcome = outcomes[stream.name]
            outcome.tokens_replayed += 1
            num_bytes = stream.write_bytes[position]
            if num_bytes:
                if stream.is_ransomware and user_keys:
                    key = user_keys[overwrite_cursor % len(user_keys)]
                    overwrite_cursor += 1
                else:
                    key = f"{stream.name}-out-{position}"
                try:
                    outcome.write_seconds += self.storage.stream_write(
                        stream.name, key, num_bytes,
                        data=_payload(stream.name, position, num_bytes),
                    )
                    outcome.writes_admitted += 1
                    outcome.bytes_admitted += num_bytes
                except WriteRefused:
                    outcome.writes_blocked += 1
                    outcome.bytes_blocked += num_bytes
            token = stream.tokens[position]
            self.responder.observe_token(stream.name, token)
            verdict = self.monitor.observe(stream.name, token)
            if verdict is None:
                continue
            decision = self.responder.on_verdict(stream.name, verdict)
            outcome.final_action = decision.action
            if (decision.escalated
                    and _RANK[decision.action] >= _RANK[ACTION_WRITE_BLOCK]
                    and outcome.enforced_at_step is None):
                outcome.enforced_at_step = step
                outcome.enforced_window_index = verdict.window_index
                outcome.first_probability = verdict.probability
        return outcomes

    def report(self, outcomes: dict) -> dict:
        """Aggregate a replay: detection, data loss, storage, audit."""
        ransomware = [o for o in outcomes.values() if o.is_ransomware]
        benign = [o for o in outcomes.values() if not o.is_ransomware]
        enforced = [o for o in ransomware if o.enforced_at_step is not None]
        latencies = sorted(
            o.detection_latency_tokens for o in enforced
        )
        self.audit.verify()
        return {
            "ransomware_streams": len(ransomware),
            "enforced": len(enforced),
            "benign_streams": len(benign),
            "benign_writes_blocked": sum(o.writes_blocked for o in benign),
            "benign_bytes_blocked": sum(o.bytes_blocked for o in benign),
            "detection_latency_tokens": latencies,
            "bytes_blocked": sum(o.bytes_blocked for o in ransomware),
            "bytes_admitted_ransomware": sum(o.bytes_admitted for o in ransomware),
            "write_seconds": sum(o.write_seconds for o in outcomes.values()),
            "storage": self.storage.protection_summary(),
            "response": self.responder.summary(),
            "audit_head": self.audit.head_hash,
            "audit_stream_heads": self.audit.stream_heads(),
        }


def data_loss_accounting(streams, enforcement_at_tokens: dict) -> dict:
    """Modelled data-loss split, independent of cross-stream timing.

    ``enforcement_at_tokens`` maps stream name → the number of the
    stream's *own* tokens processed when its writes stopped (``None`` or
    missing = never enforced).  Because it is computed from each
    stream's write schedule and a stream-local cut point, the accounting
    is invariant under fleet failovers and interleaving shifts — the
    same property the per-stream audit chains have.

    Returns per-stream ``{exposed, prevented}`` byte counts plus
    ransomware/benign totals; ``prevented`` is what enforcement stopped,
    ``exposed`` what landed first (recoverable from copy-on-write
    pre-images when protection was armed in time).
    """
    per_stream: dict = {}
    totals = {
        "ransomware_bytes_prevented": 0,
        "ransomware_bytes_exposed": 0,
        "benign_bytes_prevented": 0,
    }
    for stream in streams:
        cut = enforcement_at_tokens.get(stream.name)
        total = stream.total_write_bytes
        if cut is None:
            exposed, prevented = total, 0
        else:
            exposed = int(sum(stream.write_bytes[:max(0, int(cut))]))
            prevented = total - exposed
        per_stream[stream.name] = {
            "is_ransomware": stream.is_ransomware,
            "total_bytes": total,
            "exposed_bytes": exposed,
            "prevented_bytes": prevented,
        }
        if stream.is_ransomware:
            totals["ransomware_bytes_prevented"] += prevented
            totals["ransomware_bytes_exposed"] += exposed
        else:
            totals["benign_bytes_prevented"] += prevented
    return {"per_stream": per_stream, **totals}
