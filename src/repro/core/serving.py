"""Fleet serving simulator: per-stream token ticks, admission, failover.

The paper positions the SmartSSD as "a scalable solution ... allowing for
the installation of multiple devices within a single node", and its use
case is continuous scanning of per-process API-call streams: the FPGA
steps one item at a time through preprocess, the four gate CUs and
hidden_state.  This module drives N simulated CSD devices with exactly
that workload.  It is a deterministic discrete-event simulator on the
same simulated clock as everything else in the repo — no wall clock
anywhere, so two runs with one seed produce *identical* event logs,
metrics, and verdicts.

Mechanics
---------
* **Session affinity** — every device runs a
  :class:`~repro.core.sessions.SessionManager`; a stream's tokens route
  to one device (a :class:`~repro.core.fleet.FleetPlanner` plan,
  round-robin, or a caller's ``router``), so its incremental LSTM state
  lives in one place.
* **Ticks** — a device buffers arriving tokens and steps at most one
  token per stream through one batched ``SessionManager.step`` once
  ``max_batch`` distinct streams are waiting or the oldest token has
  waited ``max_wait_us``.  Service time is one LSTM step
  (``per_item_microseconds``) per slot row stepped.  Verdicts are
  bit-exact with a standalone ``SessionManager``, and so with
  full-window recompute.
* **Admission control** — each device's token buffer is bounded at
  ``queue_depth``; a token past the bound, with no healthy device, or
  of a quarantined stream is shed with an explicit reason and counted,
  never silently dropped.
* **Failover** — a :class:`~repro.hw.faults.FaultPlan` device failure
  kills a drive mid-run: its in-flight tick delivers, its streams
  re-route (via
  :meth:`~repro.core.fleet.FleetPlanner.rebalance_after_failure` when a
  planner is attached), and every session it held migrates as a
  checkpoint along with its buffered tokens.  The per-stream verdict
  sequence is invariant under failures; only timing shifts.
* **Telemetry** — the ``repro_serve_*`` counters and gauges of the
  ``repro.telemetry/v1`` contract (see ``docs/observability.md`` and
  ``docs/serving.md``); the sessions emit their own ``repro_session_*``
  family.

Time is integer simulated microseconds throughout, driven by the same
:class:`~repro.hw.sim.Simulator` event core the pipeline cross-validation
uses.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.fleet import FleetPlan, FleetPlanner, MonitoredStream
from repro.core.sessions import SessionConfig, SessionManager
from repro.hw.faults import FaultPlan
from repro.hw.sim import Simulator

#: Shed reasons (the ``reason`` label of ``repro_serve_shed_total``).
SHED_QUEUE_FULL = "queue_full"
SHED_NO_DEVICE = "no_device"
SHED_QUARANTINED = "quarantined"


def nearest_rank_percentile(values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of a 1-D sample; NaN for an empty one.

    The single definition the serving and control-plane reports share.
    ``values`` need not be sorted.
    """
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = np.sort(np.asarray(values))
    if ordered.size == 0:
        return float("nan")
    rank = max(1, math.ceil(percentile / 100.0 * ordered.size))
    return float(ordered[rank - 1])


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Tick and admission policy of the fleet server.

    Parameters
    ----------
    max_batch:
        Distinct streams a device waits for before it launches a tick
        (one token per stream per tick).
    max_wait_us:
        Longest the oldest buffered token may wait before a partial tick
        launches (0 = launch immediately, no batching delay).
    queue_depth:
        Bound on each device's token buffer; tokens beyond it are shed
        with reason ``queue_full``.
    """

    max_batch: int = 16
    max_wait_us: int = 2_000
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")


@dataclasses.dataclass(frozen=True)
class TokenArrival:
    """One API-call token of one monitored stream (the fleet's input)."""

    stream: str
    token: int
    arrival_us: int


@dataclasses.dataclass(frozen=True)
class StreamVerdictRecord:
    """A window verdict emitted by the fleet.

    ``latency_us`` is arrival → delivery for the token that completed
    the window (-1 when the completing token is unknown, which only
    happens for records built by hand).
    """

    stream: str
    window_index: int
    probability: float
    is_ransomware: bool
    device: int
    completion_us: int
    latency_us: int = -1


@dataclasses.dataclass(frozen=True)
class SessionServingReport:
    """Outcome of one simulated token-stream serving run."""

    verdicts: tuple
    tokens_offered: int
    tokens_shed: dict
    migrated_sessions: int
    device_failures: int
    event_log: tuple
    duration_us: int
    device_busy_us: tuple
    token_latencies: tuple      # per-token arrival → tick-completion, us
    session_stats: tuple        # one SessionManager.stats() dict per device

    @property
    def verdict_count(self) -> int:
        return len(self.verdicts)

    @property
    def shed_count(self) -> int:
        return sum(self.tokens_shed.values())

    def token_latency_percentile_us(self, percentile: float) -> float:
        """Nearest-rank percentile of per-token serving latency."""
        return nearest_rank_percentile(
            np.array(self.token_latencies, dtype=np.int64), percentile
        )

    def verdict_latency_percentile_us(self, percentile: float) -> float:
        """Nearest-rank percentile of per-verdict delivery latency."""
        return nearest_rank_percentile(
            np.array([v.latency_us for v in self.verdicts], dtype=np.int64),
            percentile,
        )

    def device_utilization(self) -> tuple:
        horizon = max(self.duration_us, 1)
        return tuple(busy / horizon for busy in self.device_busy_us)


def generate_token_workload(
    streams,
    duration_us: int,
    tokens_per_second: float,
    vocab_size: int = 278,
    seed: int = 0,
) -> list:
    """Seeded per-stream Poisson token arrivals.

    Each stream emits single API-call tokens at ``tokens_per_second``
    with exponential inter-arrivals from an RNG derived from ``(seed,
    stream index)``, so adding a stream never perturbs the others.
    Returns :class:`TokenArrival` sorted by ``(arrival_us, stream)``.
    """
    if duration_us <= 0:
        raise ValueError(f"duration_us must be positive, got {duration_us}")
    if tokens_per_second <= 0:
        raise ValueError(
            f"tokens_per_second must be positive, got {tokens_per_second}"
        )
    arrivals = []
    for index, stream in enumerate(streams):
        rng = np.random.default_rng([seed, index])
        mean_gap_us = 1e6 / tokens_per_second
        clock = 0.0
        while True:
            clock += rng.exponential(mean_gap_us)
            arrival = int(round(clock))
            if arrival >= duration_us:
                break
            token = int(rng.integers(0, vocab_size))
            arrivals.append(TokenArrival(stream=stream.name, token=token,
                                         arrival_us=arrival))
    arrivals.sort(key=lambda a: (a.arrival_us, a.stream))
    return arrivals


class _Device:
    """One simulated drive: an engine, its sessions, a token buffer."""

    __slots__ = (
        "index", "engine", "fault_plan", "step_us", "busy", "dead",
        "tick_start_us", "busy_us", "sessions", "token_buffer",
        "buffer_streams", "wake_at", "current_tick",
    )

    def __init__(self, index: int, engine, fault_plan: FaultPlan):
        self.index = index
        self.engine = engine
        self.fault_plan = fault_plan
        self.step_us = engine.per_item_microseconds()
        self.busy = False
        self.dead = False
        self.tick_start_us = 0
        self.busy_us = 0
        self.sessions = None        # SessionManager, set by begin_tokens()
        self.token_buffer: list = []
        self.buffer_streams: dict = {}  # stream -> buffered-token count
        self.wake_at = None         # armed flush deadline, if any
        self.current_tick = None    # (tick_id, [TokenArrival], [verdicts])


class FleetServer:
    """Deterministic discrete-event server for a node's CSD fleet.

    Parameters
    ----------
    engines:
        One loaded :class:`~repro.core.engine.CSDInferenceEngine` per
        simulated device; all must share the model dimensions.
    streams:
        The monitored streams (also the workload's rate model).
    config:
        Tick and admission policy (:class:`ServingConfig`).
    planner:
        Optional :class:`~repro.core.fleet.FleetPlanner`; when given,
        streams are routed by its first-fit plan and device failures
        re-route via ``rebalance_after_failure``.  When the plan (or a
        rebalance) calls for more devices than the fleet has, the
        overflow spills round-robin onto the healthy devices and
        admission control sheds what the node cannot absorb.  Without a
        planner, streams are routed round-robin and failover re-routes
        round-robin over the healthy survivors.
    fault_plans:
        Mapping of device index to :class:`~repro.hw.faults.FaultPlan`;
        ``device_fail`` / ``device_degrade`` faults drive the failover
        and degradation paths.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; observation-only,
        never alters scheduling or numerics.
    router:
        Optional callable ``stream_name -> device index | None``.  When
        given it replaces the static stream→device dict for every
        routing decision (arrivals, failover re-buffering), which is how
        the control plane implements shard-affine routing over a stream
        population that is not known up front (see
        ``docs/control_plane.md``).  The callable must be deterministic.
    on_device_failed:
        Optional callable ``device_index -> None`` invoked when a fault
        plan kills a device *before* its sessions migrate.  With a
        ``router`` this replaces the built-in rerouting: the callback
        owner (the control plane) reassigns the dead device's shards so
        the subsequent checkpoint migration lands per its placement
        policy.
    on_verdict:
        Optional callable invoked with every
        :class:`StreamVerdictRecord` the moment it is delivered (on the
        simulated clock) — the hook the response subsystem
        (:class:`~repro.response.policy.FleetResponder`) uses to close
        the verdict → action loop.  If the callable has a ``bind``
        method it is called with this server first, so a bare responder
        can be passed directly.  Actions are available immediately:
        :meth:`quarantine_stream` sheds the stream's future arrivals
        (``tokens_shed["quarantined"]``), :meth:`kill_stream`
        additionally drops its session state.
    """

    def __init__(
        self,
        engines,
        streams,
        config: ServingConfig | None = None,
        planner: FleetPlanner | None = None,
        fault_plans: dict | None = None,
        telemetry=None,
        router=None,
        on_device_failed=None,
        on_verdict=None,
    ):
        engines = list(engines)
        if not engines:
            raise ValueError("a fleet needs at least one device")
        dims = engines[0].config.dimensions
        for engine in engines[1:]:
            if engine.config.dimensions != dims:
                raise ValueError("all fleet engines must share model dimensions")
        self.config = config or ServingConfig()
        self.streams = list(streams)
        self.planner = planner
        self.telemetry = telemetry
        self._router = router
        self._on_device_failed = on_device_failed
        if on_verdict is not None and hasattr(on_verdict, "bind"):
            on_verdict.bind(self)
        self._on_verdict = on_verdict
        self._quarantined: set = set()
        if router is not None and planner is not None:
            raise ValueError("router and planner are mutually exclusive")
        fault_plans = fault_plans or {}
        self.devices = [
            _Device(i, engine, fault_plans.get(i, FaultPlan()))
            for i, engine in enumerate(engines)
        ]
        if telemetry is not None:
            for engine in engines:
                engine.attach_telemetry(telemetry)

        self._plan: FleetPlan | None = None
        if planner is not None:
            self._plan = planner.plan(self.streams)
            self._stream_device = self._resolve_routes(self._plan)
        else:
            self._stream_device = {
                stream.name: i % len(self.devices)
                for i, stream in enumerate(self.streams)
            }

        self._sim = Simulator()
        self._events: list = []
        self._device_failures = 0
        self._token_mode = False    # set by begin_tokens()
        self._tokens_offered = 0
        self._tokens_shed: dict = {}
        self._verdict_records: list = []
        self._token_latencies: list = []
        self._migrated_sessions = 0
        self._tick_counter = 0
        self._session_config: SessionConfig | None = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _resolve_routes(self, plan: FleetPlan) -> dict:
        """Map streams to physical devices, spilling oversubscribed plans.

        The planner sizes an *ideal* fleet; this server has a fixed one.
        Planned device indices beyond the physical fleet (an
        oversubscribed plan or rebalance) spill round-robin onto the
        healthy devices — admission control then sheds what the fleet
        truly cannot absorb, which is the honest failure mode for an
        undersized node.  Streams are unroutable only when no healthy
        device exists at all.
        """
        healthy = [d.index for d in self.devices if not d.dead]
        routes: dict = {}
        for assignment in plan.assignments:
            target = assignment.device_index
            if target >= len(self.devices) or self.devices[target].dead:
                if not healthy:
                    continue
                target = healthy[assignment.device_index % len(healthy)]
            for stream in assignment.streams:
                routes[stream.name] = target
        return routes

    def _routable_device(self, index) -> "_Device | None":
        """The healthy physical device at ``index``, if any."""
        if index is None or not 0 <= index < len(self.devices):
            return None
        device = self.devices[index]
        return None if device.dead else device

    def _route(self, stream: str) -> "_Device | None":
        """Resolve a stream to its healthy device (router or static dict)."""
        if self._router is not None:
            return self._routable_device(self._router(stream))
        return self._routable_device(self._stream_device.get(stream))

    # ------------------------------------------------------------------
    # Event log (observation only)
    # ------------------------------------------------------------------

    def _log(self, kind: str, **details) -> None:
        self._events.append(
            (self._sim.now, kind, tuple(sorted(details.items())))
        )

    # ------------------------------------------------------------------
    # Failure + failover
    # ------------------------------------------------------------------

    def _fail_device(self, device: _Device) -> None:
        if device.dead:
            return
        device.dead = True
        self._device_failures += 1
        if self.telemetry is not None:
            self.telemetry.counter("repro_serve_device_failures_total").inc()
        self._log("device_failed", device=device.index)
        if self._router is not None:
            if self._on_device_failed is not None:
                self._on_device_failed(device.index)
        else:
            self._reroute_after_failure(device.index)
        self._failover_sessions(device)

    def _reroute_after_failure(self, failed_index: int) -> None:
        if self.planner is not None and self._plan is not None:
            try:
                self._plan = self.planner.rebalance_after_failure(
                    self._plan, failed_index
                )
            except KeyError:
                pass  # the failed device carried no planned streams
            else:
                self._stream_device = self._resolve_routes(self._plan)
                return
        # Planner-less (or unplanned device): round-robin the failed
        # device's streams over the healthy survivors.
        healthy = [d.index for d in self.devices if not d.dead]
        reassigned = 0
        for name in sorted(self._stream_device):
            if self._stream_device[name] == failed_index:
                if healthy:
                    self._stream_device[name] = healthy[reassigned % len(healthy)]
                    reassigned += 1
                else:
                    del self._stream_device[name]

    # ------------------------------------------------------------------
    # Token lifecycle: admission, ticks, delivery
    # ------------------------------------------------------------------

    def _token_arrive(self, arrival: TokenArrival) -> None:
        self._tokens_offered += 1
        if arrival.stream in self._quarantined:
            self._shed_token(arrival, SHED_QUARANTINED)
            return
        device = self._route(arrival.stream)
        if device is None:
            self._shed_token(arrival, SHED_NO_DEVICE)
            return
        self._buffer_token(device, arrival)

    def _buffer_token(self, device: _Device, arrival: TokenArrival) -> None:
        if len(device.token_buffer) >= self.config.queue_depth:
            self._shed_token(arrival, SHED_QUEUE_FULL)
            return
        device.token_buffer.append((self._sim.now, arrival))
        streams = device.buffer_streams
        streams[arrival.stream] = streams.get(arrival.stream, 0) + 1
        self._maybe_flush_tokens(device)

    def _shed_token(self, arrival: TokenArrival, reason: str) -> None:
        self._tokens_shed[reason] = self._tokens_shed.get(reason, 0) + 1
        if self.telemetry is not None:
            self.telemetry.counter("repro_serve_shed_total", reason=reason).inc()
        self._log("token_shed", stream=arrival.stream, reason=reason)

    def _maybe_flush_tokens(self, device: _Device) -> None:
        """Run a tick if the batching policy says so, else arm a wake.

        The batch trigger counts *distinct streams*: a tick steps at most
        one token per stream (per-stream order is sacred), so only
        cross-stream accumulation widens the batched matmul.
        """
        if device.dead or device.busy or not device.token_buffer:
            return
        now = self._sim.now
        distinct = len(device.buffer_streams)
        oldest_wait = now - device.token_buffer[0][0]
        if (distinct >= self.config.max_batch
                or oldest_wait >= self.config.max_wait_us):
            self._execute_tick(device)
            return
        wake_at = device.token_buffer[0][0] + self.config.max_wait_us
        if device.wake_at != wake_at:
            # One armed wake per buffer head: re-arming on every arrival
            # would schedule O(buffer) no-op events per tick.
            device.wake_at = wake_at
            self._sim.schedule(wake_at - now, lambda: self._token_wake(device))

    def _token_wake(self, device: _Device) -> None:
        device.wake_at = None
        self._maybe_flush_tokens(device)

    def _execute_tick(self, device: _Device) -> None:
        """Step one buffered token per stream through the session manager.

        The numeric step runs at tick *launch* (host simulation is
        instantaneous on the simulated clock); verdict delivery waits for
        the simulated service completion.  Per-slot-row service cost is
        one LSTM timestep (``per_item_microseconds``), which is the whole
        point: smooth incremental cost instead of whole-window recompute
        bursts.
        """
        now = self._sim.now
        tick_tokens: dict = {}
        tick_arrivals: list = []
        rest: list = []
        for entry in device.token_buffer:
            arrival = entry[1]
            if arrival.stream in tick_tokens:
                rest.append(entry)
            else:
                tick_tokens[arrival.stream] = arrival.token
                tick_arrivals.append(arrival)
        device.token_buffer = rest
        device.wake_at = None
        streams = device.buffer_streams
        for stream in tick_tokens:
            remaining = streams[stream] - 1
            if remaining:
                streams[stream] = remaining
            else:
                del streams[stream]
        rows_before = device.sessions.slot_steps
        verdicts = device.sessions.step(tick_tokens)
        rows = device.sessions.slot_steps - rows_before
        self._tick_counter += 1
        tick_id = self._tick_counter
        device.busy = True
        device.tick_start_us = now
        device.current_tick = (tick_id, tick_arrivals, verdicts)
        slowdown = device.fault_plan.service_slowdown(now)
        service_us = max(
            1, math.ceil(max(rows, 1) * device.step_us * slowdown)
        )
        self._log(
            "tick_start", tick=tick_id, device=device.index,
            streams=len(tick_arrivals), rows=rows, service_us=service_us,
        )
        self._sim.schedule(
            service_us, lambda: self._complete_tick(device, tick_id)
        )

    def _complete_tick(self, device: _Device, tick_id: int) -> None:
        if device.dead or device.current_tick is None:
            return  # handled by the failure path
        current_id, arrivals, verdicts = device.current_tick
        if current_id != tick_id:
            return  # stale wake
        now = self._sim.now
        device.busy = False
        device.current_tick = None
        device.busy_us += now - device.tick_start_us
        self._deliver_tick(device, tick_id, arrivals, verdicts)
        self._maybe_flush_tokens(device)

    def _deliver_tick(self, device: _Device, tick_id: int, arrivals: list,
                      verdicts: list, aborted: bool = False) -> None:
        now = self._sim.now
        arrived_at: dict = {}
        for arrival in arrivals:
            self._token_latencies.append(now - arrival.arrival_us)
            arrived_at[arrival.stream] = arrival.arrival_us
        for verdict in verdicts:
            record = StreamVerdictRecord(
                stream=verdict.session,
                window_index=verdict.window_index,
                probability=verdict.probability,
                is_ransomware=verdict.is_ransomware,
                device=device.index,
                completion_us=now,
                latency_us=now - arrived_at.get(verdict.session, now),
            )
            self._verdict_records.append(record)
            if self._on_verdict is not None:
                self._on_verdict(record)
        self._log(
            "tick_complete", tick=tick_id, device=device.index,
            verdicts=len(verdicts), aborted=aborted,
        )

    def _failover_sessions(self, device: _Device) -> None:
        """Hand a dead device's session state to the survivors.

        The tick in flight at failure already advanced the session state
        (the step runs at launch), so its verdicts are delivered rather
        than dropped — the per-stream verdict sequence is invariant
        under failures; only timing shifts.  Every session the device
        held (resident or checkpointed) migrates as a checkpoint to the
        stream's re-routed device, along with the buffered tokens.
        """
        if device.current_tick is not None:
            device.busy_us += self._sim.now - device.tick_start_us
            device.busy = False
            tick_id, arrivals, verdicts = device.current_tick
            device.current_tick = None
            self._deliver_tick(device, tick_id, arrivals, verdicts,
                               aborted=True)
        migrated = 0
        for key in device.sessions.known_keys():
            target = self._route(key)
            if target is None or target.sessions is None:
                continue
            target.sessions.import_checkpoint(
                device.sessions.export_checkpoint(key)
            )
            migrated += 1
        self._migrated_sessions += migrated
        self._log("sessions_migrated", device=device.index, count=migrated)
        buffered = device.token_buffer
        device.token_buffer = []
        device.buffer_streams = {}
        device.wake_at = None
        for _, arrival in buffered:
            target = self._route(arrival.stream)
            if target is None:
                self._shed_token(arrival, SHED_NO_DEVICE)
                continue
            self._buffer_token(target, arrival)

    def begin_tokens(self, sessions: SessionConfig | None = None) -> None:
        """Start the token path without running anything yet.

        Gives every device a fresh
        :class:`~repro.core.sessions.SessionManager` and schedules the
        fault plans.  Pair with :meth:`ingest_tokens` /
        :meth:`run_tokens_until` to step the simulation in bounded
        rounds (the control plane's loop), and :meth:`finish_tokens` to
        drain the queue and build the report.  :meth:`serve_tokens` is
        exactly this sequence in one call.
        """
        if self._token_mode:
            raise RuntimeError("token mode already begun")
        self._token_mode = True
        self._session_config = sessions or SessionConfig()
        for device in self.devices:
            device.sessions = SessionManager(device.engine, self._session_config)
        for device in self.devices:
            fail = device.fault_plan.device_fail
            if fail is not None:
                self._sim.schedule(
                    fail.at_us, (lambda d: lambda: self._fail_device(d))(device)
                )

    def ingest_tokens(self, arrivals) -> int:
        """Schedule token arrivals (each at or after the current clock)."""
        if not self._token_mode:
            raise RuntimeError("call begin_tokens first")
        now = self._sim.now
        count = 0
        for arrival in arrivals:
            if arrival.arrival_us < now:
                raise ValueError(
                    f"arrival at {arrival.arrival_us}us is in the past "
                    f"(now={now}us)"
                )
            self._sim.schedule(
                arrival.arrival_us - now,
                (lambda a: lambda: self._token_arrive(a))(arrival),
            )
            count += 1
        return count

    def run_tokens_until(self, until_us: int | None = None,
                         max_events: int | None = None) -> int:
        """Fire queued events up to ``until_us``; returns the clock."""
        if not self._token_mode:
            raise RuntimeError("call begin_tokens first")
        return self._sim.run(max_events=max_events, until=until_us)

    def finish_tokens(self, max_events: int | None = 1_000_000
                      ) -> SessionServingReport:
        """Drain remaining events and build the serving report."""
        if not self._token_mode:
            raise RuntimeError("call begin_tokens first")
        duration = self._sim.run(max_events=max_events)
        if self.telemetry is not None:
            horizon = max(duration, 1)
            for device in self.devices:
                self.telemetry.gauge(
                    "repro_serve_device_utilization", device=device.index
                ).set(device.busy_us / horizon)
        return SessionServingReport(
            verdicts=tuple(self._verdict_records),
            tokens_offered=self._tokens_offered,
            tokens_shed=dict(self._tokens_shed),
            migrated_sessions=self._migrated_sessions,
            device_failures=self._device_failures,
            event_log=tuple(self._events),
            duration_us=duration,
            device_busy_us=tuple(d.busy_us for d in self.devices),
            token_latencies=tuple(self._token_latencies),
            session_stats=tuple(d.sessions.stats() for d in self.devices),
        )

    def serve_tokens(self, arrivals,
                     sessions: SessionConfig | None = None) -> SessionServingReport:
        """Run the simulation over a token-arrival schedule.

        Each device runs a :class:`~repro.core.sessions.SessionManager`
        over its affine streams, stepping one buffered token per stream
        per tick through one stacked batched matmul.  Device failures
        migrate session checkpoints to the re-routed devices, so
        monitoring continues without losing window state.
        Deterministic: one seed → identical event logs and verdicts.

        Each device steps on its own engine's kernel backend
        (``EngineConfig.backend``).  Checkpoint migration between
        devices is backend-neutral, so a fleet of engines built with
        different backends stays bit-exact.
        """
        self.begin_tokens(sessions=sessions)
        self.ingest_tokens(sorted(arrivals, key=lambda a: (a.arrival_us, a.stream)))
        return self.finish_tokens()

    @property
    def clock_us(self) -> int:
        """Current simulated time in microseconds."""
        return self._sim.now

    @property
    def session_verdicts(self) -> list:
        """Live list of delivered :class:`StreamVerdictRecord` (read-only).

        Incremental callers (the control plane) slice from their last
        cursor instead of waiting for :meth:`finish_tokens`; treat the
        list as append-only.
        """
        return self._verdict_records

    # ------------------------------------------------------------------
    # Response actions (quarantine / kill)
    # ------------------------------------------------------------------

    @property
    def quarantined_streams(self) -> frozenset:
        """Streams currently shed at admission."""
        return frozenset(self._quarantined)

    def quarantine_stream(self, stream) -> None:
        """Shed all future arrivals for ``stream`` at admission.

        Already-buffered tokens still tick through (their session steps
        are in flight on the simulated clock); the stream's window state
        is kept so triage can continue to read it.  Idempotent.
        """
        self._quarantined.add(stream)
        self._log("stream_quarantined", stream=stream)

    def release_stream(self, stream) -> None:
        """Lift a quarantine (operator action after triage)."""
        if stream in self._quarantined:
            self._quarantined.discard(stream)
            self._log("stream_released", stream=stream)

    def kill_stream(self, stream) -> None:
        """Quarantine ``stream`` and drop its session state everywhere.

        The escalation beyond :meth:`quarantine_stream`: buffered tokens
        are discarded (counted as ``tokens_shed["quarantined"]``) and the
        owning device's session slot is closed, so the stream cannot
        produce further verdicts.  Idempotent.
        """
        self._quarantined.add(stream)
        for device in self.devices:
            if device.token_buffer:
                keep = []
                for entry in device.token_buffer:
                    if entry[1].stream == stream:
                        self._shed_token(entry[1], SHED_QUARANTINED)
                    else:
                        keep.append(entry)
                device.token_buffer = keep
                device.buffer_streams.pop(stream, None)
            if device.sessions is not None and stream in device.sessions.known_keys():
                device.sessions.close(stream)
        self._log("stream_killed", stream=stream)

    # ------------------------------------------------------------------
    # Fleet membership (drain / standby / rebalance)
    # ------------------------------------------------------------------

    def drain_device(self, index: int) -> int:
        """Gracefully take a device out of service.

        The same state hand-off as a failure — the in-flight tick's
        verdicts deliver (the step ran at launch), every held session
        migrates as a checkpoint to its re-routed device, buffered
        tokens re-buffer in order — but counted as a drain, not a
        failure.  The caller must re-route the device's streams *first*
        (reassign its shards, or rely on the planner-less round-robin by
        calling with the static dict in place).  Returns the number of
        sessions migrated.
        """
        device = self.devices[index]
        if device.dead:
            return 0
        if device.sessions is None:
            raise RuntimeError("call begin_tokens first")
        device.dead = True
        self._log("device_drained", device=device.index)
        if self._router is None:
            self._reroute_after_failure(device.index)
        before = self._migrated_sessions
        self._failover_sessions(device)
        return self._migrated_sessions - before

    def deactivate_device(self, index: int) -> None:
        """Hold an *empty* device out of service (autoscaling standby)."""
        device = self.devices[index]
        if device.dead:
            return
        if device.sessions is not None and device.sessions.known_keys():
            raise RuntimeError(
                "deactivate_device requires an empty device; use drain_device"
            )
        device.dead = True
        self._log("device_standby", device=device.index)

    def restore_device(self, index: int) -> None:
        """Return a drained/standby device to service, state reset.

        Once :meth:`begin_tokens` has run, the device comes back with a
        fresh :class:`~repro.core.sessions.SessionManager` (post-upgrade,
        a real drive boots empty); the caller routes shards back to it.
        """
        device = self.devices[index]
        if not device.dead:
            return
        device.dead = False
        device.busy = False
        device.current_tick = None
        device.token_buffer = []
        device.buffer_streams = {}
        device.wake_at = None
        if self._token_mode:
            device.sessions = SessionManager(device.engine, self._session_config)
        self._log("device_restored", device=device.index)

    def migrate_streams(self, from_index: int, to_index: int, streams) -> int:
        """Move live session state + buffered tokens between healthy devices.

        The shard-rebalancing primitive: unlike the failure/drain paths
        the source stays in service, so sessions are *released* (moved,
        counted ``migrated``) rather than copied.  The caller must have
        re-routed ``streams`` to ``to_index`` already.  Returns the
        number of sessions moved.
        """
        source = self.devices[from_index]
        target = self.devices[to_index]
        if source.sessions is None or target.sessions is None:
            raise RuntimeError("call begin_tokens first")
        if target.dead:
            raise ValueError(f"target device {to_index} is out of service")
        wanted = set(streams)
        moved = 0
        for key in source.sessions.known_keys():
            if key in wanted:
                target.sessions.import_checkpoint(source.sessions.release(key))
                moved += 1
        if moved:
            self._migrated_sessions += moved
            self._log("sessions_migrated", device=from_index, count=moved,
                      target=to_index)
        if wanted & source.buffer_streams.keys():
            keep: list = []
            moving: list = []
            for entry in source.token_buffer:
                if entry[1].stream in wanted:
                    moving.append(entry)
                else:
                    keep.append(entry)
            source.token_buffer = keep
            source.wake_at = None
            counts: dict = {}
            for entry in keep:
                stream = entry[1].stream
                counts[stream] = counts.get(stream, 0) + 1
            source.buffer_streams = counts
            for _, arrival in moving:
                self._buffer_token(target, arrival)
        return moved


def build_fleet(weights, num_devices: int, config=None) -> list:
    """Build ``num_devices`` engines sharing one set of host weights.

    ``weights`` is a :class:`~repro.core.weights.HostWeights`;  every
    device runs the same deployed model, as on a real multi-CSD node.
    """
    from repro.core.engine import CSDInferenceEngine

    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if config is None:
        from repro.core.config import EngineConfig

        config = EngineConfig(dimensions=weights.dimensions)
    return [CSDInferenceEngine(config, weights) for _ in range(num_devices)]
