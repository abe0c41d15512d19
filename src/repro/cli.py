"""Command-line interface: ``python -m repro <command>``.

Commands cover the operational loop a data-center operator would run:

* ``dataset``  — synthesise the API-call dataset and write the CSV;
* ``train``    — offline-train the classifier and export the weight file;
* ``evaluate`` — deploy a weight file onto the CSD engine and evaluate a
  CSV dataset (accuracy/precision/recall/F1 + per-item time);
* ``scan``     — sandbox one ransomware family variant and stream it
  through a deployed detector, reporting the alarm point;
* ``report``   — print the Vitis-style emulation report for a
  configuration (utilisation + per-kernel timing);
* ``monitor``  — interleave sandboxed multi-process traces and stream
  them through the session-based process monitor (incremental per-token
  inference, batched across processes, memory-budgeted; see
  ``docs/streaming.md``);
* ``fleet-serve`` — run the deterministic multi-device serving
  simulator (per-stream sessions, batched token ticks, bounded token
  buffers, failover with session migration) over a seeded synthetic
  token workload and print verdict/latency/shed/utilisation figures;
* ``control-plane`` — run the hierarchical rack/node/drive control
  plane (shard-affine routing, QoS admission, autoscaling, rolling
  drains) over a simulated fleet and print the operator report (see
  ``docs/control_plane.md``);
* ``generalize`` — leave-k-families-out evaluation across the API-call,
  block-I/O, and filesystem signal modalities, reporting per-family
  held-out recall and the in-distribution-vs-held-out recall gap (see
  ``docs/generalization.md``);
* ``respond`` — train a detector in-process, replay an attack scenario
  (ransomware plus benign streams, any signal modality) against a
  self-protecting drive under the graduated response policy, and print
  the enforcement report: detection latency, bytes blocked vs admitted,
  benign false blocks, and the verified hash-chained audit log (see
  ``docs/response.md``).

The global ``--telemetry <path>`` flag (before the subcommand) records
structured telemetry — counters, latency histograms, and kernel-level
span trees per the ``docs/observability.md`` contract — as JSON lines at
``<path>`` for any command that drives the engine.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.config import DEFAULT_BACKEND, EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels.backends import available_backends
from repro.hw.emulation import render_engine_report
from repro.nn.model import SequenceClassifier
from repro.nn.serialization import dump_weights
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware.dataset import build_dataset, load_csv, save_csv
from repro.ransomware.detector import RansomwareDetector
from repro.ransomware.families import ALL_FAMILIES
from repro.ransomware.sandbox import CuckooSandbox


def _add_dataset_command(subparsers) -> None:
    parser = subparsers.add_parser("dataset", help="synthesise the dataset CSV")
    parser.add_argument("output", help="CSV path to write")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="fraction of the paper's 29K sequences (default 0.1)")
    parser.add_argument("--sequence-length", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(handler=_run_dataset)


def _run_dataset(args) -> int:
    dataset = build_dataset(
        scale=args.scale, sequence_length=args.sequence_length, seed=args.seed
    )
    save_csv(dataset, args.output)
    print(f"wrote {len(dataset)} sequences "
          f"({dataset.ransomware_fraction:.0%} ransomware) to {args.output}")
    return 0


def _add_train_command(subparsers) -> None:
    parser = subparsers.add_parser("train", help="train and export weights")
    parser.add_argument("dataset", help="CSV produced by the dataset command")
    parser.add_argument("weights", help="weight file path to write")
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--learning-rate", type=float, default=0.005)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--test-fraction", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    _add_training_arguments(parser)
    parser.set_defaults(handler=_run_train)


def _add_training_arguments(parser) -> None:
    from repro.nn.kernels import DEFAULT_TRAIN_BACKEND, available_training_backends

    parser.add_argument(
        "--train-backend", choices=available_training_backends(),
        default=DEFAULT_TRAIN_BACKEND,
        help="training kernel backend; the default 'fused' is "
             "bit-exact with the 'reference' oracle and faster (see "
             "docs/performance.md)")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed model cache directory: identical "
             "training runs restore trained weights from disk instead "
             "of retraining (see docs/performance.md)")


def _make_model_cache(args, telemetry):
    if not getattr(args, "cache_dir", None):
        return None
    from repro.nn.cache import ModelCache

    return ModelCache(args.cache_dir, telemetry=telemetry)


def _run_train(args) -> int:
    dataset = load_csv(args.dataset)
    train, test = dataset.train_test_split(args.test_fraction, seed=args.seed)
    model = SequenceClassifier(seed=args.seed)
    telemetry = getattr(args, "_telemetry", None)
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=args.epochs, batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            eval_every=max(1, args.epochs // 10),
            backend=args.train_backend,
        ),
        telemetry=telemetry,
        cache=_make_model_cache(args, telemetry),
    )
    history = trainer.fit(train.sequences, train.labels, test.sequences, test.labels)
    for record in history.records:
        print(f"epoch {record.epoch:4d}  loss {record.train_loss:.4f}  "
              f"test acc {record.test_accuracy:.4f}")
    dump_weights(model, args.weights)
    print(f"peak accuracy {history.peak.test_accuracy:.4f}; "
          f"weights written to {args.weights}")
    return 0


def _add_evaluate_command(subparsers) -> None:
    parser = subparsers.add_parser("evaluate", help="evaluate weights on the CSD")
    parser.add_argument("weights", help="weight file from the train command")
    parser.add_argument("dataset", help="CSV dataset to evaluate")
    parser.add_argument("--optimization", choices=[l.name for l in OptimizationLevel],
                        default="FIXED_POINT")
    parser.add_argument("--limit", type=int, default=500,
                        help="max sequences to run through the engine")
    parser.set_defaults(handler=_run_evaluate)


def _run_evaluate(args) -> int:
    import numpy as np

    from repro.nn.metrics import classification_report

    dataset = load_csv(args.dataset)
    engine = CSDInferenceEngine.from_weight_file(
        args.weights, sequence_length=dataset.sequence_length
    )
    engine = _engine_at(engine, OptimizationLevel[args.optimization], args)
    _maybe_attach_telemetry(engine, args)
    subset = dataset.subset(np.arange(min(args.limit, len(dataset))))
    metrics = classification_report(engine.predict(subset.sequences), subset.labels)
    for name, value in metrics.items():
        print(f"{name:10s} {value:.4f}")
    print(f"per-item inference: {engine.per_item_microseconds():.5f} us "
          f"({args.optimization})")
    return 0


def _with_backend(config: EngineConfig, args) -> EngineConfig:
    """``config`` with the global ``--backend`` applied, if one was given."""
    backend = getattr(args, "backend", None)
    if backend is None:
        return config
    return dataclasses.replace(config, backend=backend)


def _engine_at(engine: CSDInferenceEngine, level: OptimizationLevel,
               args) -> CSDInferenceEngine:
    """``engine`` rebuilt at ``level`` on the ``--backend`` (if they differ)."""
    config = _with_backend(
        dataclasses.replace(engine.config, optimization=level), args
    )
    if config == engine.config:
        return engine
    return CSDInferenceEngine(config, engine.weights)


def _maybe_attach_telemetry(engine: CSDInferenceEngine, args) -> None:
    """Attach the session's Telemetry (from ``--telemetry``) if enabled."""
    telemetry = getattr(args, "_telemetry", None)
    if telemetry is not None:
        engine.attach_telemetry(telemetry)


def _add_scan_command(subparsers) -> None:
    parser = subparsers.add_parser("scan", help="stream a sandboxed family trace")
    parser.add_argument("weights", help="weight file from the train command")
    parser.add_argument("family", choices=[f.name for f in ALL_FAMILIES])
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--sequence-length", type=int, default=100)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--stride", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(handler=_run_scan)


def _run_scan(args) -> int:
    engine = CSDInferenceEngine.from_weight_file(
        args.weights, sequence_length=args.sequence_length
    )
    engine = _engine_at(engine, engine.config.optimization, args)
    _maybe_attach_telemetry(engine, args)
    detector = RansomwareDetector(engine, threshold=args.threshold, stride=args.stride)
    family = next(f for f in ALL_FAMILIES if f.name == args.family)
    trace = CuckooSandbox(seed=args.seed).execute_ransomware(family, args.variant)
    report = detector.scan_trace(trace.calls)
    print(f"{family.name} variant {args.variant}: {len(trace)} API calls")
    if report.detected:
        verdict = report.first_detection
        print(f"DETECTED at call {report.calls_until_detection} "
              f"(p={verdict.probability:.3f}, "
              f"{verdict.inference_microseconds:.0f} us of FPGA time)")
        return 0
    print("NOT DETECTED")
    return 1


def _add_report_command(subparsers) -> None:
    parser = subparsers.add_parser("report", help="emulation report for a config")
    parser.add_argument("--optimization", choices=[l.name for l in OptimizationLevel],
                        default="FIXED_POINT")
    parser.add_argument("--gate-cus", type=int, default=4, choices=(1, 2, 4))
    parser.set_defaults(handler=_run_report)


def _run_report(args) -> int:
    config = _with_backend(EngineConfig(
        optimization=OptimizationLevel[args.optimization],
        num_gate_cus=args.gate_cus,
    ), args)
    engine = CSDInferenceEngine.build_unloaded(config)
    _maybe_attach_telemetry(engine, args)
    print(render_engine_report(engine), end="")
    return 0


def _add_monitor_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "monitor",
        help="stream interleaved multi-process traces through the "
             "session-based process monitor",
    )
    parser.add_argument("weights", help="weight file from the train command")
    parser.add_argument("--ransomware", type=int, default=1,
                        help="number of ransomware processes to interleave")
    parser.add_argument("--benign", type=int, default=3,
                        help="number of benign processes to interleave")
    parser.add_argument("--sequence-length", type=int, default=100)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--stride", type=int, default=10)
    parser.add_argument("--optimization", choices=[l.name for l in OptimizationLevel],
                        default="FIXED_POINT")
    parser.add_argument("--memory-budget-kib", type=int, default=None,
                        help="resident session-state budget; excess "
                             "processes are evicted to checkpoints")
    parser.add_argument("--idle-after", type=int, default=None,
                        help="evict a process after this many ticks "
                             "without a call")
    parser.add_argument("--early-exit", action="store_true",
                        help="stop stepping a process once it is flagged")
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(handler=_run_monitor)


def _run_monitor(args) -> int:
    from repro.ransomware.benign import ALL_BENIGN_PROFILES
    from repro.ransomware.monitor import ProcessMonitor
    from repro.ransomware.replay import interleave_traces

    engine = CSDInferenceEngine.from_weight_file(
        args.weights, sequence_length=args.sequence_length
    )
    engine = _engine_at(engine, OptimizationLevel[args.optimization], args)
    _maybe_attach_telemetry(engine, args)
    sandbox = CuckooSandbox(seed=args.seed)
    traces = [
        sandbox.execute_ransomware(
            ALL_FAMILIES[i % len(ALL_FAMILIES)],
            i // len(ALL_FAMILIES),
        )
        for i in range(args.ransomware)
    ]
    traces += [
        sandbox.execute_benign(
            ALL_BENIGN_PROFILES[i % len(ALL_BENIGN_PROFILES)],
            i // len(ALL_BENIGN_PROFILES),
        )
        for i in range(args.benign)
    ]
    order = interleave_traces([len(trace.calls) for trace in traces],
                              seed=args.seed)
    monitor = ProcessMonitor(
        engine, threshold=args.threshold, stride=args.stride,
        memory_budget_bytes=(args.memory_budget_kib * 1024
                             if args.memory_budget_kib is not None else None),
        idle_after_steps=args.idle_after,
        early_exit=args.early_exit,
    )
    sources = {
        1000 + index: (trace.source, trace.is_ransomware)
        for index, trace in enumerate(traces)
    }
    first_detection: dict = {}
    calls_fed: dict = {}
    # Greedy tick batching: walk the interleaved schedule and group one
    # call per process into each batched step — the same cross-process
    # batching a live tick-driven monitor would achieve.
    tick: dict = {}
    ticks = 0

    def flush() -> None:
        nonlocal ticks
        if not tick:
            return
        ticks += 1
        for pid, verdict in monitor.observe_tick(tick).items():
            if verdict.is_ransomware and pid not in first_detection:
                first_detection[pid] = (calls_fed[pid], verdict)
        tick.clear()

    for index in order:
        pid = 1000 + index
        if pid in tick:
            flush()
        fed = calls_fed.get(pid, 0)
        tick[pid] = traces[index].calls[fed]
        calls_fed[pid] = fed + 1
    flush()

    print(f"monitored {len(traces)} processes "
          f"({args.ransomware} ransomware, {args.benign} benign), "
          f"{len(order)} interleaved calls in {ticks} batched ticks")
    for pid in sorted(sources):
        source, is_ransomware = sources[pid]
        label = "ransomware" if is_ransomware else "benign"
        if pid in first_detection:
            calls, verdict = first_detection[pid]
            print(f"pid {pid} [{label:10s}] {source}: FLAGGED at call {calls} "
                  f"(p={verdict.probability:.3f})")
        else:
            print(f"pid {pid} [{label:10s}] {source}: clean "
                  f"({calls_fed.get(pid, 0)} calls)")
    stats = monitor.stats()
    print(f"sessions: {stats['resident_sessions']} resident, "
          f"{stats['checkpointed_sessions']} checkpointed, "
          f"{stats['slot_steps']} slot-steps over {stats['steps']} ticks")
    if stats["evictions"]:
        breakdown = ", ".join(
            f"{k}={v}" for k, v in sorted(stats["evictions"].items())
        )
        print(f"evictions: {breakdown} (restores {stats['restores']})")
    missed = [pid for pid, (_, ransom) in sources.items()
              if ransom and pid not in first_detection]
    return 1 if missed else 0


def _add_fleet_serve_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-serve",
        help="simulate serving a monitored-stream workload on a CSD fleet",
    )
    parser.add_argument("weights", help="weight file from the train command")
    parser.add_argument("--devices", type=int, default=2)
    parser.add_argument("--streams", type=int, default=8,
                        help="number of monitored streams")
    parser.add_argument("--calls-per-second", type=float, default=20_000.0,
                        help="API-call rate of each monitored stream")
    parser.add_argument("--stride", type=int, default=10,
                        help="detection stride (calls between window starts)")
    parser.add_argument("--duration-ms", type=int, default=200)
    parser.add_argument("--sequence-length", type=int, default=100)
    parser.add_argument("--optimization", choices=[l.name for l in OptimizationLevel],
                        default="FIXED_POINT")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-us", type=int, default=2_000)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--headroom", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill-device", type=int, default=None,
                        help="inject a device failure at --kill-at-ms")
    parser.add_argument("--kill-at-ms", type=int, default=None,
                        help="when the injected failure strikes (default: mid-run)")
    parser.set_defaults(handler=_run_fleet_serve)


def _run_fleet_serve(args) -> int:
    import dataclasses as _dc

    from repro.core.fleet import FleetPlanner, MonitoredStream
    from repro.core.serving import (
        FleetServer,
        ServingConfig,
        build_fleet,
        generate_token_workload,
    )
    from repro.core.sessions import SessionConfig
    from repro.core.throughput import throughput_report
    from repro.core.weights import HostWeights
    from repro.hw.faults import DeviceFailFault, FaultPlan

    weights = HostWeights.from_file(args.weights)
    dims = _dc.replace(weights.dimensions, sequence_length=args.sequence_length)
    config = _with_backend(EngineConfig(
        dimensions=dims, optimization=OptimizationLevel[args.optimization],
    ), args)
    engines = build_fleet(weights, args.devices, config=config)
    streams = [
        MonitoredStream(f"stream{i}", args.calls_per_second,
                        detection_stride=args.stride)
        for i in range(args.streams)
    ]
    planner = FleetPlanner(throughput_report(engines[0]), headroom=args.headroom)
    duration_us = args.duration_ms * 1000
    fault_plans = {}
    if args.kill_device is not None:
        kill_at_us = (args.kill_at_ms * 1000 if args.kill_at_ms is not None
                      else duration_us // 2)
        fault_plans[args.kill_device] = FaultPlan(
            device_fail=DeviceFailFault(at_us=kill_at_us)
        )
    arrivals = generate_token_workload(
        streams, duration_us=duration_us,
        tokens_per_second=args.calls_per_second,
        vocab_size=dims.vocab_size, seed=args.seed,
    )
    server = FleetServer(
        engines, streams,
        ServingConfig(
            max_batch=args.max_batch, max_wait_us=args.max_wait_us,
            queue_depth=args.queue_depth,
        ),
        planner=planner, fault_plans=fault_plans,
        telemetry=getattr(args, "_telemetry", None),
    )
    report = server.serve_tokens(
        arrivals, sessions=SessionConfig(stride=args.stride)
    )
    print(f"fleet: {args.devices} devices, {args.streams} streams x "
          f"{args.calls_per_second:.0f} calls/s (window {args.sequence_length},"
          f" stride {args.stride}), {args.duration_ms} ms simulated")
    shed_rate = report.shed_count / max(report.tokens_offered, 1)
    print(f"tokens: offered {report.tokens_offered}  "
          f"shed {report.shed_count} ({shed_rate:.1%})")
    if report.tokens_shed:
        breakdown = ", ".join(
            f"{k}={v}" for k, v in sorted(report.tokens_shed.items())
        )
        print(f"shed breakdown: {breakdown}")
    print(f"verdicts: {report.verdict_count} "
          f"({sum(v.is_ransomware for v in report.verdicts)} ransomware)")
    if report.token_latencies:
        print(f"token latency p50 {report.token_latency_percentile_us(50):.0f} us"
              f"  p99 {report.token_latency_percentile_us(99):.0f} us")
    if report.verdicts:
        print("verdict latency "
              f"p50 {report.verdict_latency_percentile_us(50):.0f} us  "
              f"p99 {report.verdict_latency_percentile_us(99):.0f} us")
    for index, utilization in enumerate(report.device_utilization()):
        print(f"device {index}: utilization {utilization:.1%}")
    print(f"device failures {report.device_failures}  "
          f"migrated sessions {report.migrated_sessions}")
    return 0


def _add_control_plane_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "control-plane",
        help="run the hierarchical rack/node/drive control plane over a "
             "simulated CSD fleet (QoS admission, autoscaling, drains)",
    )
    parser.add_argument("weights", help="weight file from the train command")
    parser.add_argument("--racks", type=int, default=2)
    parser.add_argument("--nodes-per-rack", type=int, default=2)
    parser.add_argument("--drives-per-node", type=int, default=3)
    parser.add_argument("--active-per-node", type=int, default=2,
                        help="drives per node in service at start "
                             "(the rest are autoscaling standby)")
    parser.add_argument("--shards-per-drive", type=int, default=4)
    parser.add_argument("--qos", action="append", default=None,
                        metavar="NAME=PRIORITY[:CAP]",
                        help="QoS class spec, repeatable (e.g. gold=2 "
                             "bronze=0:500); default gold=2 + bronze=0")
    parser.add_argument("--streams-per-class", type=int, default=2_000)
    parser.add_argument("--hot-per-class", type=int, default=200,
                        help="streams per class that emit one token every "
                             "round (these complete windows and produce "
                             "verdicts); the rest register once and park "
                             "as checkpoints")
    parser.add_argument("--rounds", type=int, default=32)
    parser.add_argument("--round-us", type=int, default=5_000)
    parser.add_argument("--registration-rounds", type=int, default=None)
    parser.add_argument("--hot-rounds", type=int, default=None)
    parser.add_argument("--window", type=int, default=16,
                        help="detection window (engine sequence length)")
    parser.add_argument("--stride", type=int, default=16)
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--max-wait-us", type=int, default=200)
    parser.add_argument("--queue-depth", type=int, default=4_096)
    parser.add_argument("--memory-budget-mib", type=float, default=8.0,
                        help="per-drive resident-session budget")
    parser.add_argument("--no-autoscale", action="store_true")
    parser.add_argument("--high-watermark", type=float, default=0.75)
    parser.add_argument("--low-watermark", type=float, default=0.25)
    parser.add_argument("--sustain-rounds", type=int, default=2)
    parser.add_argument("--cooldown-rounds", type=int, default=3)
    parser.add_argument("--drain-drive", type=int, default=None,
                        help="manually drain this drive at --drain-round")
    parser.add_argument("--drain-round", type=int, default=None)
    parser.add_argument("--rolling-upgrade", action="store_true",
                        help="rolling drain/restore of every active drive, "
                             "one per round")
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(handler=_run_control_plane)


def _parse_qos_specs(specs) -> tuple:
    from repro.core.control_plane import QosClass

    if not specs:
        return (QosClass("gold", priority=2), QosClass("bronze", priority=0))
    classes = []
    for spec in specs:
        try:
            name, _, rest = spec.partition("=")
            priority, _, cap = rest.partition(":")
            classes.append(QosClass(
                name=name, priority=int(priority),
                max_streams=int(cap) if cap else None,
            ))
        except ValueError as error:
            raise SystemExit(
                f"bad --qos spec {spec!r} (want NAME=PRIORITY[:CAP]): {error}"
            )
    return tuple(classes)


def _run_control_plane(args) -> int:
    import dataclasses as _dc

    from repro.core.control_plane import (
        AutoscalePolicy,
        ControlPlane,
        ControlPlaneConfig,
        TopologySpec,
        generate_fleet_rounds,
    )
    from repro.core.serving import ServingConfig, build_fleet
    from repro.core.sessions import SessionConfig
    from repro.core.weights import HostWeights

    weights = HostWeights.from_file(args.weights)
    dims = _dc.replace(weights.dimensions, sequence_length=args.window)
    config = _with_backend(EngineConfig(
        dimensions=dims, optimization=OptimizationLevel.FIXED_POINT,
    ), args)
    topology = TopologySpec(
        racks=args.racks, nodes_per_rack=args.nodes_per_rack,
        drives_per_node=args.drives_per_node,
        active_per_node=min(args.active_per_node, args.drives_per_node),
        shards_per_drive=args.shards_per_drive,
    )
    engines = build_fleet(weights, topology.total_drives, config=config)
    classes = _parse_qos_specs(args.qos)
    autoscale = None if args.no_autoscale else AutoscalePolicy(
        high_watermark=args.high_watermark, low_watermark=args.low_watermark,
        sustain_rounds=args.sustain_rounds,
        cooldown_rounds=args.cooldown_rounds,
    )
    plane = ControlPlane(
        engines, topology,
        ControlPlaneConfig(
            round_us=args.round_us, classes=classes, autoscale=autoscale,
            serving=ServingConfig(
                max_batch=args.max_batch, max_wait_us=args.max_wait_us,
                queue_depth=args.queue_depth,
            ),
            sessions=SessionConfig(
                stride=args.stride,
                memory_budget_bytes=int(args.memory_budget_mib * 2**20),
                idle_after_steps=4,
            ),
            max_events_per_round=None,
        ),
        telemetry=getattr(args, "_telemetry", None),
    )
    if args.rolling_upgrade:
        plane.start_rolling_upgrade()
    rounds = generate_fleet_rounds(
        classes, rounds=args.rounds, round_us=args.round_us,
        streams_per_class=args.streams_per_class,
        hot_per_class=args.hot_per_class,
        registration_rounds=args.registration_rounds,
        hot_rounds=args.hot_rounds, vocab_size=dims.vocab_size,
        seed=args.seed,
    )
    for index, arrivals in enumerate(rounds):
        if args.drain_drive is not None and index == (args.drain_round or 0):
            migrated = plane.drain(args.drain_drive)
            print(f"drained drive {args.drain_drive} at round {index}: "
                  f"{migrated} sessions migrated")
        plane.run_round(arrivals)
    report = plane.finish()

    print(f"topology: {args.racks} racks x {args.nodes_per_rack} nodes x "
          f"{args.drives_per_node} drives "
          f"({topology.initial_active_per_node} active/node at start, "
          f"{topology.num_shards} shards)")
    print(f"rounds: {report.rounds} x {args.round_us} us  "
          f"tokens offered {report.tokens_offered}")
    for qos in classes:
        shed = report.tokens_shed.get(qos.name, {})
        shed_text = (" shed " + ", ".join(f"{k}={v}" for k, v in sorted(shed.items()))
                     if shed else "")
        print(f"  class {qos.name} (priority {qos.priority}): "
              f"streams {report.streams_admitted[qos.name]} admitted / "
              f"{report.streams_denied[qos.name]} denied, tokens "
              f"{report.tokens_admitted[qos.name]} admitted{shed_text}")
    print(f"sessions: peak {report.peak_concurrent_sessions} concurrent "
          f"(final {report.final_concurrent_sessions}), peak resident "
          f"{report.peak_resident_bytes_per_drive} B/drive "
          f"(budget {report.resident_budget_bytes} B, "
          f"{'OK' if report.within_memory_budget else 'EXCEEDED'})")
    if report.verdict_count:
        print(f"verdicts: {report.verdict_count}  latency p50 "
              f"{report.verdict_latency_percentile_us(50):.0f} us  p99 "
              f"{report.verdict_latency_percentile_us(99):.0f} us")
    scale_text = ", ".join(
        f"r{e.round_index}:n{e.node}:{e.direction}" for e in report.scale_events
    ) or "none"
    print(f"autoscale events: {scale_text}  active drives at end: "
          f"{report.active_drives}")
    if report.drains or report.restores:
        drain_text = ", ".join(f"{k}={v}" for k, v in sorted(report.drains.items()))
        print(f"drains: {drain_text or 'none'}  restores: {report.restores}  "
              f"shard moves: {report.shard_moves}  sessions migrated: "
              f"{report.migrated_sessions}")
    return 0


def _add_generalize_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "generalize",
        help="leave-k-families-out evaluation across signal modalities",
    )
    parser.add_argument(
        "--modalities", default="api,block_io,filesystem",
        help="comma-separated modality names (default: all three)")
    parser.add_argument("--held-out", type=int, default=2, metavar="K",
                        help="families held out per fold (default 2)")
    parser.add_argument("--folds", type=int, default=None,
                        help="number of folds (default: every family "
                             "held out exactly once)")
    parser.add_argument("--scale", type=float, default=0.04,
                        help="dataset scale per modality (default 0.04)")
    parser.add_argument("--sequence-length", type=int, default=60)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--optimization", action="append", default=None,
                        choices=[l.name for l in OptimizationLevel],
                        help="engine rung(s) to evaluate at (repeatable; "
                             "default FIXED_POINT)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run the independent folds across N forked "
                             "processes (bit-exact with N=1; see "
                             "docs/performance.md)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON to PATH")
    _add_training_arguments(parser)
    parser.set_defaults(handler=_run_generalize)


def _run_generalize(args) -> int:
    import json

    from repro.ransomware.generalization import (
        GeneralizationConfig,
        evaluate_generalization,
    )

    modalities = tuple(m.strip() for m in args.modalities.split(",") if m.strip())
    levels = tuple(
        OptimizationLevel[name]
        for name in (args.optimization or ["FIXED_POINT"])
    )
    config = GeneralizationConfig(
        modalities=modalities,
        held_out_per_fold=args.held_out,
        folds=args.folds,
        scale=args.scale,
        sequence_length=args.sequence_length,
        seed=args.seed,
        threshold=args.threshold,
        optimizations=levels,
        epochs=args.epochs,
        workers=max(1, args.workers),
        train_backend=args.train_backend,
        cache_dir=args.cache_dir,
    )
    report = evaluate_generalization(
        config, telemetry=getattr(args, "_telemetry", None), progress=print
    )
    primary = levels[0]
    print()
    print(f"leave-{args.held_out}-out over {len(report.fold_sets)} fold(s); "
          f"recall gap = in-distribution recall - held-out recall "
          f"at {primary.name}:")
    for result in report.modalities:
        print(f"  {result.modality:<11s} (vocab {result.vocabulary_size:>3d}): "
              f"held-out recall {result.mean_held_out_recall(primary):.3f}  "
              f"gap {result.mean_recall_gap(primary):+.3f}")
        for family, recall in result.per_family_recall(primary).items():
            print(f"    {family:<12s} {recall:.3f}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0


def _add_respond_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "respond",
        help="replay an attack scenario under the graduated response policy",
    )
    parser.add_argument("--modality", default="api",
                        choices=("api", "block_io", "filesystem"),
                        help="signal modality to train and replay (default api)")
    parser.add_argument("--ransomware", type=int, default=1,
                        help="ransomware streams in the scenario (default 1)")
    parser.add_argument("--benign", type=int, default=3,
                        help="benign streams in the scenario (default 3)")
    parser.add_argument("--benign-length", type=int, default=300,
                        help="benign trace length in events (default 300)")
    parser.add_argument("--threshold", type=float, default=0.7,
                        help="write-block threshold; the confirmation "
                             "streak counts windows at or above it "
                             "(default 0.7)")
    parser.add_argument("--quarantine-threshold", type=float, default=0.95,
                        help="stream-quarantine threshold (default 0.95)")
    parser.add_argument("--kill-threshold", type=float, default=None,
                        help="kill threshold (default: kill rung disabled)")
    parser.add_argument("--confirmations", type=int, default=4,
                        help="consecutive confirmed windows before "
                             "escalating (default 4)")
    parser.add_argument("--allow-kill", action="store_true",
                        help="unlock the destructive kill rung (otherwise "
                             "it is gated and audited)")
    parser.add_argument("--allow-restore", action="store_true",
                        help="unlock snapshot restore after a kill")
    parser.add_argument("--monitor-threshold", type=float, default=0.5)
    parser.add_argument("--stride", type=int, default=5)
    parser.add_argument("--scale", type=float, default=0.08,
                        help="training dataset scale (default 0.08)")
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--sequence-length", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--user-objects", type=int, default=16,
                        help="pre-seeded user objects the attack "
                             "overwrites (default 16)")
    parser.add_argument("--audit", metavar="PATH", default=None,
                        help="write the hash-chained audit log (JSON "
                             "lines) to PATH")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON to PATH")
    parser.set_defaults(handler=_run_respond)


def _run_respond(args) -> int:
    import json

    from repro.hw.smartssd import SmartSSD
    from repro.ransomware.replay import ScenarioReplay, build_scenario
    from repro.ransomware.traces.adapters import MODALITIES
    from repro.response.policy import ResponsePolicy

    telemetry = getattr(args, "_telemetry", None)
    modality = MODALITIES[args.modality]
    print(f"[train] {args.modality}: scale {args.scale}, "
          f"{args.epochs} epochs, window {args.sequence_length}")
    dataset = modality.build_dataset(
        scale=args.scale, sequence_length=args.sequence_length, seed=args.seed
    )
    train_split, test_split = dataset.train_test_split(0.2, seed=args.seed)
    model = SequenceClassifier(vocab_size=modality.vocabulary.size,
                               seed=args.seed)
    Trainer(
        model,
        TrainingConfig(epochs=args.epochs, eval_every=args.epochs,
                       learning_rate=0.005, seed=args.seed),
    ).fit(train_split.sequences, train_split.labels,
          test_split.sequences, test_split.labels)
    engine = _engine_at(
        CSDInferenceEngine.from_model(model, sequence_length=args.sequence_length),
        OptimizationLevel.FIXED_POINT, args,
    )

    policy = ResponsePolicy(
        observe_threshold=args.threshold,
        write_block_threshold=args.threshold,
        quarantine_threshold=(
            None if args.quarantine_threshold is None
            else max(args.threshold, args.quarantine_threshold)
        ),
        kill_threshold=args.kill_threshold,
        confirmations=args.confirmations,
        allow_kill=args.allow_kill,
        allow_restore=args.allow_restore,
    )
    streams = build_scenario(
        args.modality, ransomware=args.ransomware, benign=args.benign,
        seed=args.seed, benign_length=args.benign_length,
    )
    storage = SmartSSD()
    replay = ScenarioReplay(
        engine, storage, policy=policy,
        monitor_threshold=args.monitor_threshold, stride=args.stride,
        telemetry=telemetry,
    )
    user_keys = replay.seed_user_objects(count=args.user_objects)
    print(f"[replay] {len(streams)} streams "
          f"({args.ransomware} ransomware, {args.benign} benign), "
          f"{args.user_objects} user objects at risk")
    outcomes = replay.run(streams, seed=args.seed, user_keys=user_keys)
    report = replay.report(outcomes)

    for outcome in outcomes.values():
        kind = "ransomware" if outcome.is_ransomware else "benign"
        enforced = (
            f"{outcome.final_action} at window "
            f"{outcome.enforced_window_index} "
            f"(latency {outcome.detection_latency_tokens} tokens)"
            if outcome.enforced_window_index is not None else "not enforced"
        )
        print(f"  {outcome.name:<24s} {kind:<10s} "
              f"blocked {outcome.bytes_blocked:>10d} B / admitted "
              f"{outcome.bytes_admitted:>10d} B  {enforced}")
    print(f"[storage] {report['storage']}")
    print(f"[response] actions {report['response']['actions']}, "
          f"{report['response']['audit_records']} audit records, "
          f"head {report['audit_head'][:16]}…")
    replay.audit.verify()
    print("[audit] hash chain verified")
    if args.audit:
        replay.audit.write(args.audit)
        print(f"[audit] written to {args.audit}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    benign_blocked = sum(
        o.writes_blocked for o in outcomes.values() if not o.is_ransomware
    )
    if benign_blocked:
        print(f"warning: {benign_blocked} benign writes blocked")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSD-based LSTM inference for ransomware detection "
                    "(DSN-S 2024 reproduction)",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write structured telemetry (JSON lines, schema in "
             "docs/observability.md) to PATH",
    )
    parser.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="kernel backend for the inference/session hot path "
             f"(default: {DEFAULT_BACKEND}; 'fused' is bit-exact and "
             "faster — see docs/performance.md)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_dataset_command(subparsers)
    _add_train_command(subparsers)
    _add_evaluate_command(subparsers)
    _add_scan_command(subparsers)
    _add_report_command(subparsers)
    _add_monitor_command(subparsers)
    _add_fleet_serve_command(subparsers)
    _add_control_plane_command(subparsers)
    _add_generalize_command(subparsers)
    _add_respond_command(subparsers)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    telemetry = None
    if args.telemetry:
        from repro.telemetry import JsonLinesExporter, Telemetry

        telemetry = Telemetry(exporters=[JsonLinesExporter(args.telemetry)])
    args._telemetry = telemetry
    try:
        return args.handler(args)
    finally:
        if telemetry is not None:
            telemetry.close()


if __name__ == "__main__":
    sys.exit(main())
