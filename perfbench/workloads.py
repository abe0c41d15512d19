"""The benchmark's four seeded workloads.

Each workload builds every input in :meth:`setup` from the seed (the
program only ever receives the generated inputs) and then runs one
*unit* of work per :meth:`run_unit` call through the public entry points
of the default configuration: ``EngineConfig()`` and ``TrainingConfig()``
defaults with no backend pinned.  ``backend=`` exists only for the
benchmark's own parity tests.

A unit returns its wall time, the host calls it timed, an output digest
(identical for every unit of a run, and pinned for the default seed in
``digests.json``), the attempted/failed operation counts and any
invariant violations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import time

import numpy as np

from repro.core.config import EngineConfig
from repro.core.control_plane import (
    AutoscalePolicy,
    ControlPlane,
    ControlPlaneConfig,
    QosClass,
    TopologySpec,
)
from repro.core.engine import CSDInferenceEngine
from repro.core.serving import ServingConfig, TokenArrival, build_fleet
from repro.core.sessions import SessionConfig
from repro.core.weights import HostWeights
from repro.hw.smartssd import SmartSSD
from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware.dataset import build_dataset
from repro.ransomware.replay import ScenarioReplay, build_scenario
from repro.response.audit import AuditTamperError
from repro.response.policy import ResponsePolicy

HERE = pathlib.Path(__file__).resolve().parent
#: The ``train`` workload's final weights at the default seed: the model
#: every inference workload deploys.
WEIGHTS_FILE = HERE / "data" / "detector.npz"
DIGESTS_FILE = HERE / "digests.json"
DEFAULT_SEED = 0

_now = time.perf_counter


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def sha256(*parts) -> str:
    """Digest of arrays, strings, numbers and JSON-able values, in order."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def weights_digest(arrays) -> str:
    return sha256(*[np.asarray(array) for array in arrays])


def load_weights() -> tuple:
    """``(HostWeights, digest)`` of the stored detector weights."""
    with np.load(WEIGHTS_FILE) as stored:
        arrays = [stored[f"w{i}"] for i in range(len(stored.files))]
    model = SequenceClassifier(seed=0)
    model.set_weights(arrays)
    return HostWeights.from_model(model), weights_digest(arrays)


def pinned(workload: str) -> dict:
    """The pinned default-seed digests of one workload."""
    with open(DIGESTS_FILE) as handle:
        return json.load(handle)[workload]


def _engine_config(weights, sequence_length: int, backend) -> EngineConfig:
    dims = dataclasses.replace(weights.dimensions,
                               sequence_length=sequence_length)
    extra = {} if backend is None else {"backend": backend}
    return EngineConfig(dimensions=dims, **extra)


def _probabilities_ok(values) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0)
                and np.all(values <= 1))


@dataclasses.dataclass
class Unit:
    """The outcome of one unit of work."""

    wall_s: float
    work: int                 # tokens / windows / samples processed
    calls_s: list             # wall time of each timed host call
    outputs: dict             # digest components, equal for every unit
    attempted: int
    failed: int
    errors: list
    counters: dict            # program-side counts for the traced profile


class Workload:
    name = ""
    why = ""
    FULL: dict = {}  # the benchmark's size knobs; tests pass smaller ones
    #: What ``work`` counts and which host call ``calls_s`` times.
    work_label = ""
    call_label = ""

    def __init__(self, seed: int, size: dict | None = None, backend=None):
        self.seed = seed
        self.size = dict(self.FULL, **(size or {}))
        self.backend = backend

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self) -> Unit:
        raise NotImplementedError

    def inputs(self) -> dict:
        """Digests of the generated inputs (pinned for the default seed)."""
        raise NotImplementedError

    def backends(self) -> list:
        """Kernel backends (inference or training) the workload runs on."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# fleet-stream
# ----------------------------------------------------------------------

CLASSES = (
    QosClass("gold", priority=2),
    QosClass("silver", priority=1),
    QosClass("bronze", priority=0),
)


def fleet_schedule(seed: int, size: dict, vocab_size: int) -> list:
    """Open-loop per-round arrivals on the simulated clock.

    A hot head (``hot`` streams per class) sends a token in each round
    with probability ``hot_rate`` at a uniformly random instant; a cold
    tail (``cold`` streams per class) registers one token each over the
    first ``registration_rounds`` rounds and then parks; in the last
    ``tail_rounds`` only a ``tail_fraction`` of the hot head keeps
    sending, so the fleet idles and autoscaling drains drives.
    """
    rng = np.random.default_rng([seed, 0xF1EE7])
    round_us = size["round_us"]
    hot = [f"{q.name}-h{i:05d}" for q in CLASSES for i in range(size["hot"])]
    cold = [f"{q.name}-c{i:05d}" for q in CLASSES for i in range(size["cold"])]
    cold = [cold[i] for i in rng.permutation(len(cold))]
    chunk = math.ceil(len(cold) / size["registration_rounds"])
    tail_hot = hot[: max(1, int(len(hot) * size["tail_fraction"]))]
    rounds = []
    busy = size["rounds"] - size["tail_rounds"]
    for index in range(size["rounds"]):
        pool = hot if index < busy else tail_hot
        active = rng.random(len(pool)) < size["hot_rate"]
        streams = [s for s, on in zip(pool, active) if on]
        streams += cold[index * chunk:(index + 1) * chunk]
        offsets = rng.integers(0, round_us, size=len(streams))
        tokens = rng.integers(0, vocab_size, size=len(streams))
        start = index * round_us
        rounds.append([
            TokenArrival(stream=streams[k], token=int(tokens[k]),
                         arrival_us=start + int(offsets[k]))
            for k in np.argsort(offsets, kind="stable")
        ])
    return rounds


class FleetStream(Workload):
    name = "fleet-stream"
    why = ("control plane over a 12-drive fleet: hot head, 10x cold tail "
           "parked as checkpoints, idle tail drains drives")
    work_label = "admitted tokens fully processed"
    call_label = "ControlPlane.run_round over rounds offered tokens"

    FULL = dict(
        racks=2, nodes_per_rack=2, drives_per_node=3, active_per_node=2,
        shards_per_drive=4, hot=40, cold=500, hot_rate=0.9,
        rounds=110, tail_rounds=10, tail_fraction=0.1,
        registration_rounds=15, round_us=5_000, window=16,
        drive_tokens_per_round=150,
    )

    def setup(self) -> None:
        size = self.size
        self.weights, _ = load_weights()
        self.topology = TopologySpec(
            racks=size["racks"], nodes_per_rack=size["nodes_per_rack"],
            drives_per_node=size["drives_per_node"],
            active_per_node=size["active_per_node"],
            shards_per_drive=size["shards_per_drive"],
        )
        self.rounds = fleet_schedule(self.seed, size,
                                     self.weights.dimensions.vocab_size)
        self.engines = build_fleet(
            self.weights, self.topology.total_drives,
            config=_engine_config(self.weights, size["window"], self.backend),
        )
        for engine in self.engines:
            engine.step_backend  # resolve (and compile) before timing
        self.config = ControlPlaneConfig(
            round_us=size["round_us"],
            drive_tokens_per_round=size["drive_tokens_per_round"],
            classes=CLASSES,
            # Watermarks sized to this light load: the registration burst
            # scales every node up, the idle tail scales it back down.
            autoscale=AutoscalePolicy(high_watermark=0.15,
                                      low_watermark=0.03),
            serving=ServingConfig(),
            sessions=SessionConfig(
                stride=size["window"], memory_budget_bytes=256 * 1024,
                checkpoint_budget_bytes=64 * 2**20, idle_after_steps=1,
            ),
        )

    def inputs(self) -> dict:
        flat = [(a.stream, a.token, a.arrival_us)
                for arrivals in self.rounds for a in arrivals]
        return {"schedule": sha256(flat), "weights": load_weights()[1]}

    def backends(self) -> list:
        return [engine.step_backend for engine in self.engines]

    def run_unit(self) -> Unit:
        calls = []
        start = _now()
        plane = ControlPlane(self.engines, self.topology, self.config)
        for arrivals in self.rounds:
            began = _now()
            plane.run_round(arrivals)
            if arrivals:
                calls.append(_now() - began)
        report = plane.finish()
        wall = _now() - start

        offered = sum(len(arrivals) for arrivals in self.rounds)
        admitted = sum(report.tokens_admitted.values())
        shed = sum(n for reasons in report.tokens_shed.values()
                   for n in reasons.values())
        dropped = sum(report.serving.tokens_shed.values())
        errors = []
        if report.tokens_offered != offered or admitted + shed != offered:
            errors.append(f"admitted {admitted} + shed {shed} != offered "
                          f"{offered} (plane counted {report.tokens_offered})")
        if not report.within_memory_budget:
            errors.append(
                f"resident peak {report.peak_resident_bytes_per_drive} B "
                f"exceeds the {report.resident_budget_bytes} B budget")
        sequences = report.verdict_sequences()
        probabilities = [p for entries in sequences.values()
                         for _, p, _ in entries]
        if not _probabilities_ok(probabilities):
            errors.append("a verdict probability is not finite or in [0, 1]")
        outputs = {
            "verdict_sequences": sha256(sorted(
                (stream, [(w, float(p).hex(), bool(r)) for w, p, r in entries])
                for stream, entries in sequences.items())),
            "verdict_p50_us": report.verdict_latency_percentile_us(50),
            "verdict_p99_us": report.verdict_latency_percentile_us(99),
            "tokens_admitted": dict(sorted(report.tokens_admitted.items())),
            "peak_concurrent_sessions": report.peak_concurrent_sessions,
        }
        return Unit(
            wall_s=wall, work=admitted - dropped, calls_s=calls,
            outputs=outputs, attempted=offered, failed=shed + dropped,
            errors=errors,
            counters={
                "drains": sum(report.drains.values()),
                "shard_moves": report.shard_moves,
                "migrated_sessions": report.migrated_sessions,
                "backends": self.backends(),
            },
        )


# ----------------------------------------------------------------------
# batch-classify
# ----------------------------------------------------------------------


class BatchClassify(Workload):
    name = "batch-classify"
    why = ("closed-loop predict_proba: single-window scans interleaved "
           "with 1024-window bulk calls; engine only")
    work_label = "windows classified"
    call_label = "single-window predict_proba scan"

    FULL = dict(scale=0.08, window=100, bulk=1024, scans=32)

    def setup(self) -> None:
        size = self.size
        weights, _ = load_weights()
        self.engine = CSDInferenceEngine(
            _engine_config(weights, size["window"], self.backend), weights)
        self.engine.step_backend  # resolve (and compile) before timing
        self.dataset = build_dataset(scale=size["scale"],
                                     sequence_length=size["window"],
                                     seed=self.seed)
        windows = self.dataset.sequences
        if len(windows) < size["bulk"] + size["scans"]:
            raise ValueError("dataset too small for the bulk and scan windows")
        self.bulk = windows[: size["bulk"]]
        self.scans = windows[size["bulk"]: size["bulk"] + size["scans"]]

    def inputs(self) -> dict:
        return {"dataset": sha256(self.dataset.sequences, self.dataset.labels),
                "weights": load_weights()[1]}

    def backends(self) -> list:
        return [self.engine.step_backend]

    def _call(self, windows, results: list, failed: list):
        try:
            probabilities = self.engine.predict_proba(windows)
        except Exception as error:  # counted, and fails the run
            failed.append(len(windows))
            results.append(np.full(len(windows), np.nan))
            return repr(error)
        bad = ~(np.isfinite(probabilities) & (probabilities >= 0)
                & (probabilities <= 1))
        failed.append(int(bad.sum()))
        results.append(probabilities)
        return None

    def run_unit(self) -> Unit:
        calls, results, failed, errors = [], [], [], []
        half = len(self.scans) // 2
        start = _now()
        for index, window in enumerate(self.scans):
            if index == half:
                errors.append(self._call(self.bulk, results, failed))
            began = _now()
            errors.append(self._call(window[np.newaxis, :], results, failed))
            calls.append(_now() - began)
        wall = _now() - start
        probabilities = np.concatenate(results)
        errors = [error for error in errors if error is not None]
        if sum(failed):
            errors.append(f"{sum(failed)} windows raised or returned "
                          "probabilities outside [0, 1]")
        windows = len(self.bulk) + len(self.scans)
        return Unit(
            wall_s=wall, work=windows, calls_s=calls,
            outputs={"probabilities": sha256(probabilities)},
            attempted=windows, failed=sum(failed), errors=errors,
            counters={"backends": self.backends()},
        )


# ----------------------------------------------------------------------
# attack-replay
# ----------------------------------------------------------------------

#: ``bench_response.py``'s settings: observe == write-block threshold,
#: four confirmations.
REPLAY_POLICY = ResponsePolicy(
    observe_threshold=0.7, write_block_threshold=0.7,
    quarantine_threshold=0.95, kill_threshold=None, confirmations=4,
)


class AttackReplay(Workload):
    name = "attack-replay"
    why = ("api attack scenario replay: detection, response ladder, "
           "attribution, audit and SmartSSD payload writes")
    work_label = "scenario tokens replayed"
    call_label = "ScenarioReplay.run (one whole replay)"

    #: The trace set is ``bench_response.py``'s api scenario (synthesis
    #: seed 7); the run seed drives the host interleaving of the streams.
    FULL = dict(ransomware=4, benign=12, benign_length=300, scenario_seed=7,
                window=60, stride=5, user_objects=16,
                user_object_bytes=64 * 1024, max_stream_tokens=None)

    def setup(self) -> None:
        size = self.size
        weights, digest = load_weights()
        if digest != pinned("train")["weights"]:
            raise RuntimeError(
                f"{WEIGHTS_FILE.name} does not hold the train workload's "
                "default-seed weights")
        self.engine = CSDInferenceEngine(
            _engine_config(weights, size["window"], self.backend), weights)
        self.engine.step_backend  # resolve (and compile) before timing
        self.streams = build_scenario(
            "api", ransomware=size["ransomware"], benign=size["benign"],
            seed=size["scenario_seed"], benign_length=size["benign_length"],
        )
        cut = size["max_stream_tokens"]
        if cut is not None:  # the benchmark's own tests shrink the streams
            self.streams = [
                dataclasses.replace(s, tokens=s.tokens[:cut],
                                    write_bytes=s.write_bytes[:cut])
                for s in self.streams]

    def inputs(self) -> dict:
        return {
            "scenario": sha256([
                (s.name, s.is_ransomware, [int(t) for t in s.tokens],
                 [int(b) for b in s.write_bytes]) for s in self.streams]),
            "weights": load_weights()[1],
        }

    def backends(self) -> list:
        return [self.engine.step_backend]

    def run_unit(self) -> Unit:
        size = self.size
        start = _now()
        storage = SmartSSD()
        replay = ScenarioReplay(self.engine, storage, policy=REPLAY_POLICY,
                                monitor_threshold=0.5, stride=size["stride"])
        keys = replay.seed_user_objects(count=size["user_objects"],
                                        num_bytes=size["user_object_bytes"])
        outcomes = replay.run(self.streams, seed=self.seed, user_keys=keys)
        wall = _now() - start

        errors = []
        try:
            report = replay.report(outcomes)  # re-verifies the audit chain
        except AuditTamperError as error:
            return Unit(wall, 0, [wall], {}, 1, 1, [repr(error)], {})
        tokens = sum(o.tokens_replayed for o in outcomes.values())
        if tokens != sum(len(s) for s in self.streams):
            errors.append(f"replayed {tokens} tokens of "
                          f"{sum(len(s) for s in self.streams)}")
        benign = [o for o in outcomes.values() if not o.is_ransomware]
        missed = report["ransomware_streams"] - report["enforced"]
        blocked = report["benign_writes_blocked"]
        return Unit(
            wall_s=wall, work=tokens, calls_s=[wall],
            outputs={
                "audit_head": report["audit_head"],
                "detection_latency_tokens": report["detection_latency_tokens"],
                "bytes_blocked": report["bytes_blocked"],
            },
            attempted=(sum(o.writes_admitted + o.writes_blocked for o in benign)
                       + report["ransomware_streams"]),
            failed=blocked + missed, errors=errors,
            counters={"cow_copies": storage.cow_copies,
                      "backends": self.backends()},
        )


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


class Train(Workload):
    name = "train"
    why = ("Trainer.fit on the reference detector recipe (api, T=60, "
           "10 epochs, batch 32), no model cache")
    work_label = "training samples (sequences x epochs)"
    call_label = "Trainer.fit (one whole training run)"

    #: ``tests/reference.py``'s recipe; the default seed reproduces it.
    FULL = dict(scale=0.04, window=60, epochs=10, batch_size=32,
                learning_rate=0.005, eval_every=5)

    def setup(self) -> None:
        size = self.size
        dataset = build_dataset(scale=size["scale"],
                                sequence_length=size["window"],
                                seed=7 + self.seed)
        self.train, self.test = dataset.train_test_split(
            test_fraction=0.25, seed=self.seed)
        self.trainer = self._trainer()  # builds (and compiles) the kernel

    def _trainer(self) -> Trainer:
        size = self.size
        extra = {} if self.backend is None else {"backend": self.backend}
        return Trainer(
            SequenceClassifier(seed=self.seed),
            TrainingConfig(epochs=size["epochs"],
                           batch_size=size["batch_size"],
                           learning_rate=size["learning_rate"],
                           eval_every=size["eval_every"],
                           restore_best_weights=True, **extra),
        )

    def inputs(self) -> dict:
        return {"split": sha256(self.train.sequences, self.train.labels,
                                self.test.sequences, self.test.labels)}

    def backends(self) -> list:
        return [self.trainer.kernel]

    def run_unit(self) -> Unit:
        losses = []
        start = _now()
        trainer = self._trainer()
        kernel_step = trainer.kernel.train_batch

        def checked(token_ids, labels):
            loss, grads = kernel_step(token_ids, labels)
            losses.append(loss)
            return loss, grads

        trainer.kernel.train_batch = checked
        history = trainer.fit(self.train.sequences, self.train.labels,
                              self.test.sequences, self.test.labels)
        wall = _now() - start
        del trainer.kernel.train_batch

        self.trainer = trainer
        weights = trainer.model.get_weights()
        failed = int(np.sum(~np.isfinite(np.asarray(losses, dtype=float))))
        errors = [] if not failed else [f"{failed} batches had a non-finite loss"]
        if not all(np.all(np.isfinite(w)) for w in weights):
            errors.append("final weights are not finite")
        records = [[r.epoch, float(r.train_loss).hex(),
                    float(r.test_accuracy).hex()] for r in history.records]
        return Unit(
            wall_s=wall, work=len(self.train.sequences) * self.size["epochs"],
            calls_s=[wall],
            outputs={"weights": weights_digest(weights),
                     "loss_history": sha256(records)},
            attempted=len(losses), failed=failed, errors=errors,
            counters={},
        )

    def final_weights(self) -> list:
        return self.trainer.model.get_weights()


WORKLOADS = {cls.name: cls for cls in (FleetStream, BatchClassify,
                                       AttackReplay, Train)}
