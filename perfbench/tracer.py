"""Host wall-clock spans around the calls into each layer's public functions.

The program carries no host-clock instrumentation of its own, so a
traced unit of work wraps the public entry points of every layer from
here and restores them afterwards.  A span is the list
``[name, start_ns, end_ns, parent, run, n]``: ``parent`` is the index of
the enclosing span (``-1`` for a unit's root), ``run`` the unit it
belongs to, and ``n`` a per-name count (tokens stepped, rows, windows,
an escalation flag ...).  Spans stay in memory and are written out as
JSON lines when the run ends.

A span's self time is its duration minus the time its child spans
cover.  Summed over every span of a unit, the unit's root span
``harness.unit`` included, self times add up to the root's duration.
"""

from __future__ import annotations

import collections
import functools
import json
import time

from repro.core.control_plane import ControlPlane
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels import backends as kernel_backends
from repro.core.kernels.gates import GatesKernel
from repro.core.kernels.hidden_state import HiddenStateKernel
from repro.core.kernels.preprocess import PreprocessKernel
from repro.core.serving import FleetServer
from repro.core.sessions import EVICT_MIGRATED, SessionManager
from repro.hw.smartssd import SmartSSD
from repro.nn.trainer import Trainer
from repro.ransomware.monitor import ProcessMonitor
from repro.ransomware.replay import ScenarioReplay
from repro.response import policy as response_policy
from repro.response.audit import AuditLog
from repro.response.policy import ResponseEngine

_now = time.perf_counter_ns

ROOT = "harness.unit"
_EVENT_LOOP = ("serving.run_tokens_until", "serving.finish_tokens")

#: Every per-layer metric a traced run reports: name, unit, and which
#: direction is better.  Times and counts are per unit of work (one
#: scenario, replay, fit or classify cycle); a layer the workload never
#: calls reports zero.
PER_LAYER = (
    ("control_plane.round_self_s", "s", "lower"),
    ("control_plane.drains", "count", "lower"),
    ("control_plane.shard_moves", "count", "lower"),
    ("serving.ingest_s", "s", "lower"),
    ("serving.event_loop_self_s", "s", "lower"),
    ("serving.migrate_s", "s", "lower"),
    ("serving.ticks", "count", "lower"),
    ("serving.tokens_per_tick", "count", "higher"),
    ("serving.migrated_sessions", "count", "lower"),
    ("sessions.step_self_s", "s", "lower"),
    ("sessions.checkpoint_io_s", "s", "lower"),
    ("sessions.evictions", "count", "lower"),
    ("sessions.restores", "count", "lower"),
    ("sessions.resident_hit_ratio", "ratio", "higher"),
    ("sessions.peak_checkpoint_bytes", "bytes", "lower"),
    ("backends.step_rows_s", "s", "lower"),
    ("backends.rows", "count", "lower"),
    ("backends.rows_per_call", "count", "higher"),
    ("backends.us_per_row", "us", "lower"),
    ("backends.infer_probabilities_s", "s", "lower"),
    ("backends.fallbacks", "count", "lower"),
    ("engine.infer_batch_s", "s", "lower"),
    ("engine.infer_batch_self_s", "s", "lower"),
    ("engine.predict_proba_self_s", "s", "lower"),
    ("engine.preprocess_s", "s", "lower"),
    ("engine.kernels_s", "s", "lower"),
    ("engine.calls", "count", "lower"),
    ("engine.windows", "count", "lower"),
    ("monitor.observe_self_s", "s", "lower"),
    ("response.on_verdict_self_s", "s", "lower"),
    ("response.attribute_s", "s", "lower"),
    ("response.attributions", "count", "lower"),
    ("response.audit_append_s", "s", "lower"),
    ("response.audit_records", "count", "lower"),
    ("response.escalations", "count", "lower"),
    ("smartssd.stream_write_s", "s", "lower"),
    ("smartssd.writes_admitted", "count", "lower"),
    ("smartssd.writes_blocked", "count", "lower"),
    ("smartssd.cow_copies", "count", "lower"),
    ("nn.train_batch_s", "s", "lower"),
    ("nn.optimizer_s", "s", "lower"),
    ("nn.evaluate_s", "s", "lower"),
    ("nn.fit_self_s", "s", "lower"),
    ("nn.batches", "count", "lower"),
    ("harness.replay_self_s", "s", "lower"),
    ("harness.other_s", "s", "lower"),
    ("harness.coverage", "ratio", "higher"),
    ("harness.unit_wall_s", "s", "lower"),
    ("harness.tracing_overhead_s", "s", "lower"),
)


class Tracer:
    """In-memory span store plus the program objects a traced unit touched."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.run = -1
        self._unit_start = 0
        self._reset_unit()

    def _reset_unit(self) -> None:
        self.managers: dict = {}      # id -> SessionManager stepped this unit
        self.seen_keys: set = set()   # session keys stepped this unit
        self.fresh_sessions = 0       # first steps of a key this unit
        self.peak_checkpoint_bytes = 0

    def call(self, name, fn, args, kwargs, count=None):
        spans = self.spans
        stack = self.stack
        record = [name, 0, 0, stack[-1] if stack else -1, self.run, 0]
        stack.append(len(spans))
        spans.append(record)
        record[1] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = _now()
            stack.pop()
        if count is not None:
            record[5] = count(args, result)
        return result

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def begin_unit(self) -> None:
        self.run += 1
        self._reset_unit()
        self._unit_start = len(self.spans)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start_ns", "end_ns", "parent", "run", "n")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")

    # ------------------------------------------------------------------
    # Per-unit profile
    # ------------------------------------------------------------------

    def profile(self, wall_s: float, counters: dict) -> dict:
        """Per-layer metrics of the unit just traced.

        ``counters`` carries what the workload read from the program's
        own plain counters (drains, shard moves, migrated sessions,
        copy-on-write copies) and the kernel backends it built.
        """
        base = self._unit_start
        spans = self.spans[base:]
        total = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        counts = collections.Counter()
        covered = [0] * len(spans)
        ticks = tick_tokens = 0
        for name, start, end, parent, _, n in spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            counts[name] += n
            if parent >= base:
                covered[parent - base] += duration
                if name == "sessions.step" and self.spans[parent][0] in _EVENT_LOOP:
                    ticks += 1
                    tick_tokens += n
        for (name, start, end, *_), child in zip(spans, covered):
            own[name] += end - start - child

        def s(counter, *names):
            return sum(counter[name] for name in names) / 1e9

        managers = list(self.managers.values())
        evictions = sum(
            count for manager in managers
            for reason, count in manager.stats()["evictions"].items()
            if reason != EVICT_MIGRATED
        )
        restores = sum(manager.stats()["restores"] for manager in managers)
        stepped = counts["sessions.step"]
        backends = {id(b): b for b in counters.get("backends", ())}
        backends.update((id(m.backend), m.backend) for m in managers)
        rows = counts["backends.step_rows"]
        writes = calls["smartssd.stream_write"]
        admitted = counts["smartssd.stream_write"]
        return {
            "control_plane.round_self_s": s(
                own, "control_plane.run_round", "control_plane.finish"),
            "control_plane.drains": counters.get("drains", 0),
            "control_plane.shard_moves": counters.get("shard_moves", 0),
            "serving.ingest_s": s(total, "serving.ingest_tokens"),
            "serving.event_loop_self_s": s(own, *_EVENT_LOOP),
            "serving.migrate_s": s(
                total, "serving.drain_device", "serving.migrate_streams"),
            "serving.ticks": ticks,
            "serving.tokens_per_tick": tick_tokens / ticks if ticks else 0.0,
            "serving.migrated_sessions": counters.get("migrated_sessions", 0),
            "sessions.step_self_s": s(own, "sessions.step"),
            "sessions.checkpoint_io_s": s(
                own, "sessions.export_checkpoint",
                "sessions.import_checkpoint", "sessions.release"),
            "sessions.evictions": evictions,
            "sessions.restores": restores,
            "sessions.resident_hit_ratio": (
                (stepped - restores - self.fresh_sessions) / stepped
                if stepped else 0.0),
            "sessions.peak_checkpoint_bytes": self.peak_checkpoint_bytes,
            "backends.step_rows_s": s(total, "backends.step_rows"),
            "backends.rows": rows,
            "backends.rows_per_call": (
                rows / calls["backends.step_rows"] if rows else 0.0),
            "backends.us_per_row": (
                total["backends.step_rows"] / rows / 1e3 if rows else 0.0),
            "backends.infer_probabilities_s": s(
                total, "backends.infer_probabilities"),
            "backends.fallbacks": sum(
                sum(b.fallback_reasons.values()) for b in backends.values()),
            "engine.infer_batch_s": s(total, "engine.infer_batch"),
            "engine.infer_batch_self_s": s(own, "engine.infer_batch"),
            "engine.predict_proba_self_s": s(own, "engine.predict_proba"),
            "engine.preprocess_s": s(total, "engine.preprocess"),
            "engine.kernels_s": s(total, "engine.gates", "engine.hidden_state"),
            "engine.calls": calls["engine.infer_batch"],
            "engine.windows": counts["engine.infer_batch"],
            "monitor.observe_self_s": s(own, "monitor.observe"),
            "response.on_verdict_self_s": s(own, "response.on_verdict"),
            "response.attribute_s": s(total, "response.attribute_window"),
            "response.attributions": calls["response.attribute_window"],
            "response.audit_append_s": s(total, "response.audit_append"),
            "response.audit_records": calls["response.audit_append"],
            "response.escalations": counts["response.on_verdict"],
            "smartssd.stream_write_s": s(total, "smartssd.stream_write"),
            "smartssd.writes_admitted": admitted,
            "smartssd.writes_blocked": writes - admitted,
            "smartssd.cow_copies": counters.get("cow_copies", 0),
            "nn.train_batch_s": s(total, "nn.train_batch"),
            "nn.optimizer_s": s(total, "nn.optimizer_step"),
            "nn.evaluate_s": s(total, "nn.evaluate"),
            "nn.fit_self_s": s(own, "nn.fit"),
            "nn.batches": calls["nn.train_batch"],
            "harness.replay_self_s": s(own, "harness.replay"),
            "harness.other_s": s(own, ROOT),
            "harness.coverage": sum(own.values()) / 1e9 / wall_s,
            "harness.unit_wall_s": wall_s,
        }


# ----------------------------------------------------------------------
# Wrapping the layers' public calls
# ----------------------------------------------------------------------


def _span(tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    return wrapper


def _kernel_span(tracer, name, fn):
    """Engine kernel spans, recorded only directly under ``infer_batch``.

    The reference session stepper calls the same kernels; there they are
    part of ``backends.step_rows`` and stay unwrapped.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.parent_name() != "engine.infer_batch":
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _step_span(tracer, fn):
    @functools.wraps(fn)
    def wrapper(manager, tokens):
        tracer.managers[id(manager)] = manager
        seen = tracer.seen_keys
        for key in tokens:
            if key not in seen:
                seen.add(key)
                tracer.fresh_sessions += 1
        result = tracer.call("sessions.step", fn, (manager, tokens), {},
                             lambda args, _: len(args[1]))
        tracer.peak_checkpoint_bytes = max(tracer.peak_checkpoint_bytes,
                                           manager.checkpoint_bytes)
        return result
    return wrapper


def _stepper_span(tracer, fn):
    """Wrap ``session_stepper`` so every stepper it builds is traced."""
    @functools.wraps(fn)
    def wrapper(backend, manager):
        stepper = fn(backend, manager)
        stepper.step_rows = _span(tracer, "backends.step_rows",
                                  stepper.step_rows,
                                  lambda _, result: result[0])
        return stepper
    return wrapper


def _fit_span(tracer, fn):
    """``Trainer.fit`` plus its kernel's ``train_batch`` and optimizer step."""
    @functools.wraps(fn)
    def wrapper(trainer, *args, **kwargs):
        wrapped = ((trainer.kernel, "train_batch", "nn.train_batch"),
                   (trainer.optimizer, "step", "nn.optimizer_step"))
        saved = [owner.__dict__.get(attr) for owner, attr, _ in wrapped]
        for owner, attr, name in wrapped:
            setattr(owner, attr, _span(tracer, name, getattr(owner, attr)))
        try:
            return tracer.call("nn.fit", fn, (trainer, *args), kwargs)
        finally:
            for (owner, attr, _), previous in zip(wrapped, saved):
                if previous is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, previous)
    return wrapper


def _backend_classes() -> list:
    found, pending = [], [kernel_backends.KernelBackend]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _rows(args, _):
    return len(args[1])


def install(tracer: Tracer) -> list:
    """Wrap every layer's public calls; returns the undo list."""
    undo: list = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, count=None):
        patch(owner, attr, _span(tracer, name, owner.__dict__[attr], count))

    span(ControlPlane, "run_round", "control_plane.run_round")
    span(ControlPlane, "finish", "control_plane.finish")
    span(FleetServer, "ingest_tokens", "serving.ingest_tokens", _rows)
    span(FleetServer, "run_tokens_until", "serving.run_tokens_until")
    span(FleetServer, "finish_tokens", "serving.finish_tokens")
    span(FleetServer, "drain_device", "serving.drain_device")
    span(FleetServer, "migrate_streams", "serving.migrate_streams")
    patch(SessionManager, "step", _step_span(tracer, SessionManager.step))
    span(SessionManager, "export_checkpoint", "sessions.export_checkpoint")
    span(SessionManager, "import_checkpoint", "sessions.import_checkpoint")
    span(SessionManager, "release", "sessions.release")
    for cls in _backend_classes():
        if "session_stepper" in cls.__dict__:
            patch(cls, "session_stepper",
                  _stepper_span(tracer, cls.__dict__["session_stepper"]))
        if "infer_probabilities" in cls.__dict__:
            span(cls, "infer_probabilities", "backends.infer_probabilities")
    span(CSDInferenceEngine, "predict_proba", "engine.predict_proba")
    span(CSDInferenceEngine, "infer_batch", "engine.infer_batch", _rows)
    for cls, name in ((PreprocessKernel, "engine.preprocess"),
                      (GatesKernel, "engine.gates"),
                      (HiddenStateKernel, "engine.hidden_state")):
        patch(cls, "run_batch",
              _kernel_span(tracer, name, cls.__dict__["run_batch"]))
    span(ProcessMonitor, "observe", "monitor.observe")
    span(ResponseEngine, "on_verdict", "response.on_verdict",
         lambda _, decision: int(decision.escalated))
    span(response_policy, "attribute_window", "response.attribute_window")
    span(AuditLog, "append", "response.audit_append")
    span(SmartSSD, "stream_write", "smartssd.stream_write", lambda *_: 1)
    span(ScenarioReplay, "run", "harness.replay")
    patch(Trainer, "fit", _fit_span(tracer, Trainer.__dict__["fit"]))
    span(Trainer, "evaluate", "nn.evaluate")
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_traced(tracer: Tracer, run_unit) -> tuple:
    """One unit of work with every layer wrapped: ``(unit, profile)``."""
    tracer.begin_unit()
    undo = install(tracer)
    began = time.perf_counter()
    try:
        unit = tracer.call(ROOT, run_unit, (), {})
    finally:
        wall = time.perf_counter() - began
        uninstall(undo)
    return unit, tracer.profile(wall, unit.counters)
