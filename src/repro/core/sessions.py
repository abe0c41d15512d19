"""Streaming sessions: stateful incremental inference for live streams.

The paper's deployment story is continuous in-drive monitoring of live
I/O — a stream of API calls per process, classified over overlapping
sliding windows.  Re-running :meth:`~repro.core.engine.CSDInferenceEngine.infer_sequence`
over the whole window at every stride gives O(window) recompute *bursts*
per verdict and no way to batch across streams.  This module is the
online-serving answer:

* :class:`StreamSession` is one stream's record: its counters and a
  rotating ring of partial windows — one per overlapping stride window —
  so each arriving token advances every open window by a single step and
  the per-token cost is smooth instead of bursty.
* :class:`SessionManager` steps *many* sessions per tick through one
  stacked batched gate matmul, so kernel-invocation overhead amortises
  across all streams and all open windows; it enforces a memory budget
  via LRU/idle eviction with checkpoint/restore of evicted session state
  (checkpoint bytes are budgeted too, see ``checkpoint_budget_bytes``),
  and emits a verdict the moment a window completes (optionally
  early-exiting flagged streams).

Every open window's ``(h, C)`` state is a row of one slot arena, stepped
by one :class:`SessionStepper`.  The engine's **kernel backend**
(``engine.step_backend``, chosen only by ``EngineConfig.backend``; see
:mod:`repro.core.kernels.backends`) decides only the math: the
``reference`` backend runs the NumPy kernels, while the ``fused``
backend at ``FIXED_POINT`` runs the whole step as one fused pass.
Every backend is **bit-exact** with ``infer_sequence`` on the same
window at every :class:`~repro.core.config.OptimizationLevel`: a window
stepped token by token inside an arbitrary batch of other sessions
produces the identical probability to a fresh full-window recompute.
See ``docs/streaming.md`` for the lifecycle and semantics and
``docs/performance.md`` for the kernel backends.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import _token_array
from repro.core.kernels.backends import (
    FALLBACK_OVERFLOW_GUARD,
    FusedOverflow,
    METRIC_TICKS,
)
from repro.core.kernels.base import KernelTiming
from repro.hw.clock import ClockDomain
from repro.hw.dataflow import StageTiming, schedule

#: Fixed per-session bookkeeping estimate (Python objects, dict slots)
#: on top of the ring's state arrays; used by the memory budget.
SESSION_OVERHEAD_BYTES = 256

#: Eviction reasons (the ``reason`` label of
#: ``repro_session_evictions_total``).
EVICT_LRU = "lru"
EVICT_IDLE = "idle"
EVICT_CLOSED = "closed"
EVICT_MIGRATED = "migrated"
EVICT_CHECKPOINT_BUDGET = "checkpoint_budget"


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Policy knobs of a :class:`SessionManager`.

    Parameters
    ----------
    threshold:
        Ransomware probability above which a completed window raises a
        positive verdict (same semantics as the offline detector).
    stride:
        Open a new window every ``stride`` tokens (1 = classify every
        window, as in :class:`~repro.ransomware.detector.RansomwareDetector`).
    memory_budget_bytes:
        Bound on resident session state; exceeding it evicts the least
        recently stepped sessions to the checkpoint store (``None`` =
        unbounded).  Must hold at least one session.
    max_resident_sessions:
        Direct cap on resident sessions (``None`` = derived from the
        byte budget only).  The effective cap is the minimum of both.
    idle_after_steps:
        Evict a session once this many manager ticks pass without it
        receiving a token (``None`` = never).  Evicted state is
        checkpointed, not lost — an idle process that wakes up restores
        transparently.
    checkpoint_budget_bytes:
        Bound on the checkpoint store's bytes (``None`` = unbounded).
        When exceeded, the **oldest** checkpoints are dropped outright
        (counted as ``checkpoint_budget`` evictions) until the store
        fits — a stream whose checkpoint was dropped restarts fresh on
        its next token.  Without this bound the store of evicted/idle
        sessions grows without limit, silently defeating the memory
        budget it backs.
    early_exit:
        Once a session raises a ransomware verdict, stop stepping it:
        subsequent tokens are dropped without inference until the
        session is reset or closed.  Off by default (parity with the
        recompute detector, which keeps classifying).
    """

    threshold: float = 0.5
    stride: int = 1
    memory_budget_bytes: int | None = None
    max_resident_sessions: int | None = None
    idle_after_steps: int | None = None
    checkpoint_budget_bytes: int | None = None
    early_exit: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.memory_budget_bytes is not None and self.memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive")
        if self.max_resident_sessions is not None and self.max_resident_sessions < 1:
            raise ValueError("max_resident_sessions must be >= 1")
        if self.idle_after_steps is not None and self.idle_after_steps < 1:
            raise ValueError("idle_after_steps must be >= 1")
        if self.checkpoint_budget_bytes is not None and self.checkpoint_budget_bytes < 1:
            raise ValueError("checkpoint_budget_bytes must be positive")


@dataclasses.dataclass(frozen=True)
class SessionVerdict:
    """One completed window's classification for one stream."""

    session: object          # the session key (process id, stream name, ...)
    window_index: int        # 0 = the stream's first fully-formed window
    probability: float
    is_ransomware: bool
    inference_microseconds: float


@dataclasses.dataclass(frozen=True)
class SessionCheckpoint:
    """The complete restorable state of one evicted session.

    Slots are ``(start, filled, hidden, cell)`` tuples holding *copies*
    of the ring arrays, so a checkpoint can never alias live state.
    Restoring a checkpoint and continuing the stream produces verdicts
    bit-identical to a session that was never evicted (asserted by
    ``tests/core/test_sessions.py``).  Checkpoints are backend-neutral:
    state is stored in the engine's external dtype (int64 fixed-point,
    float64 otherwise), so a checkpoint exported from a ``fused``
    manager restores into a ``reference`` one and vice versa.
    """

    key: object
    calls_seen: int
    flagged: bool
    windows_classified: int
    slots: tuple

    @property
    def nbytes(self) -> int:
        """Approximate retained size (state arrays + bookkeeping).

        Every slot holds same-shaped vectors, so the first one sizes all.
        """
        if not self.slots:
            return SESSION_OVERHEAD_BYTES
        _, _, hidden, cell = self.slots[0]
        per_slot = np.asarray(hidden).nbytes + np.asarray(cell).nbytes
        return SESSION_OVERHEAD_BYTES + len(self.slots) * per_slot


class StreamSession:
    """One stream's record: its counters and its open windows.

    ``rows`` are the open windows' rows in the manager's slot arena and
    ``starts`` their start positions, both oldest first.  A window opens
    whenever ``calls_seen % stride == 0`` (the same window positions the
    recompute detector classifies), every arriving token advances all
    open windows by one LSTM step, and a window whose fill
    ``calls_seen - start`` reaches the window length is classified and
    closed.  At most ``ceil(window_length / stride)`` windows are ever
    open, which bounds a stream's state to a fixed number of ``(h, C)``
    vector pairs.  Sessions are driven by a :class:`SessionManager`;
    they are not stepped directly.
    """

    __slots__ = ("key", "calls_seen", "flagged", "windows_classified",
                 "last_used_tick", "rows", "starts")

    def __init__(self, key):
        self.key = key
        self.calls_seen = 0
        self.flagged = False
        self.windows_classified = 0
        self.last_used_tick = 0
        self.rows: list = []
        self.starts: list = []


class SessionStepper:
    """Steps every open window of a tick's streams through one LSTM step.

    Owns the slot arena: every open window's ``(h, C)`` is a row of two
    ``(capacity, H)`` arrays, handed out from a free list that doubles
    the arrays when it runs dry.  The carrier dtype is float64 while
    ``math`` (the backend's fused fixed-point math) is set, otherwise
    the engine's external dtype, so the reference ``preprocess``/
    ``gates``/``hidden_state`` kernels get exactly the arrays they
    always have.  Only the math differs between backends; the
    bookkeeping is shared.
    """

    def __init__(self, manager: "SessionManager", math=None):
        self.manager = manager
        self.math = math
        dtype = np.float64 if math is not None else manager._dtype
        # Start small: a fleet runs one manager per drive, most of them
        # with few resident streams.
        self.h = np.zeros((16, manager._hidden_size), dtype=dtype)
        self.c = np.zeros_like(self.h)
        self._free = list(range(15, -1, -1))

    def _alloc(self) -> int:
        if not self._free:
            capacity = self.h.shape[0]
            self.h = np.concatenate([self.h, np.zeros_like(self.h)])
            self.c = np.concatenate([self.c, np.zeros_like(self.c)])
            self._free.extend(range(2 * capacity - 1, capacity - 1, -1))
        return self._free.pop()

    def drop_fused_math(self) -> None:
        """Continue on the reference kernels (the ``overflow_guard`` fallback).

        The arena's float64 values are exact integers inside the guard,
        so casting it to the external dtype once loses nothing.
        """
        self.math = None
        self.h = self.h.astype(self.manager._dtype)
        self.c = self.c.astype(self.manager._dtype)
        self.manager.backend.record_fallback(FALLBACK_OVERFLOW_GUARD)

    def _advance(self, index: np.ndarray, embedded: np.ndarray) -> tuple:
        h = self.h[index]
        c = self.c[index]
        if self.math is not None:
            return self.math.step_rows(h, c, embedded)
        engine = self.manager.engine
        gate_outputs = engine.gates.run_batch(h, embedded)
        return engine.hidden_state.step_batch(gate_outputs, c)

    def step_rows(self, stepped) -> tuple:
        """Advance ``stepped`` ``(session, token)`` pairs by one token each.

        Rows are the stepped streams in order, each stream's windows
        oldest first.  Returns ``(rows, completions)`` where each
        completion is ``(session, window_start, probability)``, in
        stream order (only a stream's oldest window can complete).
        """
        manager = self.manager
        stride = manager.config.stride
        window = manager.window_length
        cols: list = []
        counts: list = []
        tokens: list = []
        opened: list = []
        done: list = []  # (session, row position) of completing windows
        for session, token in stepped:
            calls = session.calls_seen
            rows = session.rows
            if calls % stride == 0:
                row = self._alloc()
                opened.append(row)
                rows.append(row)
                session.starts.append(calls)
            session.calls_seen = calls + 1
            if rows:
                if calls + 1 - session.starts[0] == window:
                    done.append((session, len(cols)))
                cols.extend(rows)
            counts.append(len(rows))
            tokens.append(token)
        if not cols:
            return 0, []

        if opened:
            self.h[opened] = 0
            self.c[opened] = 0
        index = np.array(cols, dtype=np.intp)
        embedded = manager.engine.preprocess.run_batch(
            np.repeat(np.array(tokens, dtype=np.int64), counts)
        )
        try:
            new_h, new_c = self._advance(index, embedded)
        except FusedOverflow:
            self.drop_fused_math()
            new_h, new_c = self._advance(index, embedded)
        self.h[index] = new_h
        self.c[index] = new_c

        completions: list = []
        if done:
            finished = new_h[[position for _, position in done]]
            if self.math is not None:
                probabilities = self.math.classify_rows(finished)
            else:
                probabilities = manager.engine.hidden_state.classify_batch(finished)
            for (session, _), probability in zip(done, probabilities.tolist()):
                self._free.append(session.rows.pop(0))
                completions.append((session, session.starts.pop(0), probability))
        return len(cols), completions

    def checkpoint(self, session: StreamSession) -> SessionCheckpoint:
        """Snapshot one session into an alias-free external-dtype checkpoint."""
        dtype = self.manager._dtype
        h, c = self.h, self.c
        calls = session.calls_seen
        return SessionCheckpoint(
            key=session.key,
            calls_seen=calls,
            flagged=session.flagged,
            windows_classified=session.windows_classified,
            slots=tuple(
                (start, calls - start, h[row].astype(dtype), c[row].astype(dtype))
                for row, start in zip(session.rows, session.starts)
            ),
        )

    def restore(self, checkpoint: SessionCheckpoint) -> StreamSession:
        """A resident session rebuilt from ``checkpoint``'s state.

        A state magnitude outside the fused exactness guard drops the
        fused math first (counted ``overflow_guard``).
        """
        session = StreamSession(checkpoint.key)
        session.calls_seen = checkpoint.calls_seen
        session.flagged = checkpoint.flagged
        session.windows_classified = checkpoint.windows_classified
        slots = checkpoint.slots
        math = self.math
        if math is not None and any(
            np.max(np.abs(hidden, dtype=np.float64)) > math.scale
            or np.max(np.abs(cell, dtype=np.float64)) > math.cell_limit
            for _, _, hidden, cell in slots
        ):
            self.drop_fused_math()
        for start, _, hidden, cell in slots:
            row = self._alloc()
            self.h[row] = hidden
            self.c[row] = cell
            session.rows.append(row)
            session.starts.append(start)
        return session

    def release(self, session: StreamSession) -> None:
        """Return a session's arena rows (eviction/close/migration path)."""
        self._free.extend(session.rows)
        session.rows = []
        session.starts = []


class SessionManager:
    """Batched stepping, memory budgeting, and lifecycle for many sessions.

    Parameters
    ----------
    engine:
        A loaded :class:`~repro.core.engine.CSDInferenceEngine`; the
        manager reuses its preprocess/gates/hidden-state kernels (and
        its live ``telemetry`` reference) for every step.
    config:
        Session policy; see :class:`SessionConfig`.

    The stepping math is the engine's kernel backend
    (``engine.step_backend``, chosen by ``EngineConfig.backend``), so
    its fallback counters are the engine's too.

    The manager keeps two tiers of state:

    * **resident** sessions — hot ``(h, C)`` ring state, stepped in
      batch, bounded by the memory budget;
    * the **checkpoint store** — compact evicted state, the "storage
      tier" a real CSD would spill to; restoring from it is transparent
      and bit-exact.  Its bytes are tracked (``checkpoint_bytes``) and
      optionally bounded by ``checkpoint_budget_bytes``.

    Stepping never touches the engine's sequence/AXI counters: the
    incremental path is a different execution model from the per-window
    recompute, and it reports its own ``repro_session_*`` metrics
    (see ``docs/observability.md``).
    """

    def __init__(self, engine, config: SessionConfig | None = None):
        self.engine = engine
        self.config = config or SessionConfig()
        engine._require_loaded()
        dims = engine.config.dimensions
        self.window_length = dims.sequence_length
        self._vocab_size = dims.vocab_size
        self.ring_capacity = math.ceil(self.window_length / self.config.stride)
        self._hidden_size = dims.hidden_size
        self._dtype = (
            np.int64 if engine.config.optimization.uses_fixed_point
            else np.float64
        )
        bytes_per_value = 8
        self.session_bytes = (
            SESSION_OVERHEAD_BYTES
            + self.ring_capacity * 2 * self._hidden_size * bytes_per_value
        )
        self._max_resident = self._effective_cap()
        self._sequence_microseconds = engine.sequence_microseconds()

        self.backend = engine.step_backend
        self._stepper = self.backend.session_stepper(self)

        self._resident: collections.OrderedDict = collections.OrderedDict()
        self._checkpoints: collections.OrderedDict = collections.OrderedDict()
        self._checkpoint_bytes = 0
        self._tick = 0
        # Plain-int counters, always live (telemetry only mirrors them).
        self._evictions: dict = {}
        self._restores = 0
        self._tokens = 0
        self._tokens_dropped = 0
        self._slot_steps = 0
        self._steps = 0
        self._verdicts = {"ransomware": 0, "benign": 0}
        self._early_exits = 0

    def _effective_cap(self) -> int | None:
        cap = self.config.max_resident_sessions
        budget = self.config.memory_budget_bytes
        if budget is not None:
            by_budget = budget // self.session_bytes
            if by_budget < 1:
                raise ValueError(
                    f"memory_budget_bytes={budget} cannot hold even one "
                    f"session ({self.session_bytes} bytes each)"
                )
            cap = by_budget if cap is None else min(cap, by_budget)
        return cap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    @property
    def checkpointed_count(self) -> int:
        return len(self._checkpoints)

    @property
    def resident_bytes(self) -> int:
        return len(self._resident) * self.session_bytes

    @property
    def checkpoint_bytes(self) -> int:
        """Bytes retained by the checkpoint store (budgeted separately)."""
        return self._checkpoint_bytes

    @property
    def slot_steps(self) -> int:
        """Slot rows stepped so far (the batched matmul's total rows)."""
        return self._slot_steps

    def known_keys(self) -> tuple:
        """Every session key currently held, resident or checkpointed."""
        keys = list(self._resident)
        keys.extend(k for k in self._checkpoints if k not in self._resident)
        return tuple(keys)

    def stats(self) -> dict:
        """Plain-data operational counters (mirrors the telemetry)."""
        return {
            "backend": self.backend.name,
            "backend_fallbacks": dict(self.backend.fallback_reasons),
            "resident_sessions": self.resident_count,
            "checkpointed_sessions": self.checkpointed_count,
            "resident_bytes": self.resident_bytes,
            "checkpoint_bytes": self.checkpoint_bytes,
            "tokens": self._tokens,
            "tokens_dropped": self._tokens_dropped,
            "steps": self._steps,
            "slot_steps": self._slot_steps,
            "verdicts": dict(self._verdicts),
            "evictions": dict(self._evictions),
            "restores": self._restores,
            "early_exits": self._early_exits,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _count_eviction(self, reason: str) -> None:
        self._evictions[reason] = self._evictions.get(reason, 0) + 1
        self._count("repro_session_evictions_total", reason=reason)

    def _store_checkpoint(self, checkpoint: SessionCheckpoint) -> None:
        previous = self._checkpoints.pop(checkpoint.key, None)
        if previous is not None:
            self._checkpoint_bytes -= previous.nbytes
        self._checkpoints[checkpoint.key] = checkpoint
        self._checkpoint_bytes += checkpoint.nbytes
        budget = self.config.checkpoint_budget_bytes
        if budget is not None:
            while self._checkpoint_bytes > budget and self._checkpoints:
                _, dropped = self._checkpoints.popitem(last=False)
                self._checkpoint_bytes -= dropped.nbytes
                self._count_eviction(EVICT_CHECKPOINT_BUDGET)

    def _pop_checkpoint(self, key) -> SessionCheckpoint | None:
        checkpoint = self._checkpoints.pop(key, None)
        if checkpoint is not None:
            self._checkpoint_bytes -= checkpoint.nbytes
        return checkpoint

    def _activate(self, key) -> StreamSession:
        """Resident lookup with LRU touch; restores or creates as needed."""
        session = self._resident.get(key)
        if session is not None:
            self._resident.move_to_end(key)
        else:
            checkpoint = self._pop_checkpoint(key)
            if checkpoint is not None:
                session = self._stepper.restore(checkpoint)
                self._restores += 1
                self._count("repro_session_restores_total")
            else:
                session = StreamSession(key)
            self._resident[key] = session
        session.last_used_tick = self._tick
        return session

    def _evict_session(self, key, reason: str, checkpoint: bool = True) -> None:
        session = self._resident.pop(key)
        if checkpoint:
            self._store_checkpoint(self._stepper.checkpoint(session))
        self._stepper.release(session)
        self._count_eviction(reason)

    def _enforce_budget(self) -> None:
        cap = self._max_resident
        if cap is not None:
            while len(self._resident) > cap:
                oldest = next(iter(self._resident))
                self._evict_session(oldest, EVICT_LRU)
        idle_after = self.config.idle_after_steps
        if idle_after is not None:
            horizon = self._tick - idle_after
            while self._resident:
                oldest = next(iter(self._resident))
                if self._resident[oldest].last_used_tick > horizon:
                    break
                self._evict_session(oldest, EVICT_IDLE)

    def evict(self, key, reason: str = EVICT_LRU) -> None:
        """Checkpoint and evict one resident session explicitly."""
        if key not in self._resident:
            raise KeyError(f"session {key!r} is not resident")
        self._evict_session(key, reason)

    def close(self, key) -> None:
        """Drop a session entirely (process exited); counted as eviction.

        Unlike :meth:`evict`, no checkpoint survives — a later token for
        the same key starts a fresh stream.
        """
        if key in self._resident:
            self._evict_session(key, EVICT_CLOSED, checkpoint=False)
        elif key in self._checkpoints:
            self._pop_checkpoint(key)
            self._count_eviction(EVICT_CLOSED)
        else:
            raise KeyError(f"unknown session {key!r}")

    def export_checkpoint(self, key) -> SessionCheckpoint:
        """Snapshot one session (resident or evicted) for migration.

        The session's local state is untouched; use :meth:`close` on the
        source and :meth:`import_checkpoint` on the target to complete a
        hand-off (the fleet failover path does exactly this).
        """
        if key in self._resident:
            return self._stepper.checkpoint(self._resident[key])
        if key in self._checkpoints:
            return self._checkpoints[key]
        raise KeyError(f"unknown session {key!r}")

    def import_checkpoint(self, checkpoint: SessionCheckpoint) -> None:
        """Adopt a migrated session; it restores on its next token.

        Raises
        ------
        ValueError
            if the session is already resident, or the checkpoint is one
            this manager could not continue (see
            :meth:`_check_checkpoint`); nothing is stored then.
        """
        if checkpoint.key in self._resident:
            raise ValueError(f"session {checkpoint.key!r} is already resident")
        self._check_checkpoint(checkpoint)
        self._store_checkpoint(checkpoint)

    def _check_checkpoint(self, checkpoint: SessionCheckpoint) -> None:
        """Reject a checkpoint whose windows or state this manager cannot step.

        At most ``ring_capacity`` windows; starts strictly increasing
        multiples of ``stride``; each fill ``calls_seen - start`` inside
        ``[1, window_length)``; each ``hidden``/``cell`` a finite
        ``(H,)`` vector, integer-valued at fixed point.  Magnitudes are
        not bounded: state beyond the fused guard restores on the
        reference kernels.
        """
        slots = checkpoint.slots
        calls = checkpoint.calls_seen
        if not isinstance(calls, (int, np.integer)) or calls < 0:
            raise ValueError(f"calls_seen must be a non-negative int, got {calls!r}")
        if len(slots) > self.ring_capacity:
            raise ValueError(
                f"checkpoint holds {len(slots)} windows; at most "
                f"{self.ring_capacity} are open at stride {self.config.stride}"
            )
        previous = -1
        for start, filled, _, _ in slots:
            if (not isinstance(start, (int, np.integer)) or start <= previous
                    or start % self.config.stride):
                raise ValueError(
                    f"window start {start!r}: starts must be strictly "
                    f"increasing multiples of stride {self.config.stride}"
                )
            if filled != calls - start or not 1 <= filled < self.window_length:
                raise ValueError(
                    f"window at {start} has fill {filled!r}; expected "
                    f"calls_seen - start = {calls - start} inside "
                    f"[1, {self.window_length})"
                )
            previous = start
        if not slots:
            return
        shape = (2 * len(slots), self._hidden_size)
        try:
            states = np.array([state for slot in slots for state in slot[2:]])
        except ValueError:
            states = None
        if states is None or states.shape != shape or states.dtype.kind not in "iuf":
            raise ValueError(
                f"hidden and cell must be numeric vectors of shape "
                f"({self._hidden_size},)"
            )
        if states.dtype.kind == "f":
            if not np.isfinite(states).all():
                raise ValueError("checkpoint state must be finite")
            if self._dtype is np.int64 and not (
                (np.floor(states) == states) & (np.abs(states) < 2.0**63)
            ).all():
                raise ValueError(
                    "fixed-point checkpoint state must be integer-valued"
                )

    def release(self, key) -> SessionCheckpoint:
        """Export ``key`` and drop every local copy; counted ``migrated``.

        The live-migration primitive: hand the returned checkpoint to
        another manager's :meth:`import_checkpoint` and the session has
        *moved* (unlike :meth:`export_checkpoint`, which copies).  Used
        by shard rebalancing, where the source device stays in service.
        """
        checkpoint = self.export_checkpoint(key)
        session = self._resident.pop(key, None)
        if session is not None:
            self._stepper.release(session)
        self._pop_checkpoint(key)
        self._count_eviction(EVICT_MIGRATED)
        return checkpoint

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def observe(self, key, token) -> SessionVerdict | None:
        """Feed one token of one stream; the single-stream convenience.

        Returns the window verdict this token completed, if any (a token
        completes at most one window: open slots always hold distinct
        fill counts).
        """
        verdicts = self.step({key: token})
        return verdicts[0] if verdicts else None

    def step(self, tokens) -> list:
        """Advance many sessions by one token each, batched.

        Parameters
        ----------
        tokens:
            Mapping of session key → token id (one token per session per
            tick; call again for further tokens).  Iteration order fixes
            the row order, so runs are deterministic for a deterministic
            mapping order.

        Returns
        -------
        list
            :class:`SessionVerdict` for every window completed this tick,
            in row order.

        Raises
        ------
        ValueError
            if any token id is not an integer in ``[0, vocab_size)``; the
            whole tick is rejected before any session state changes.
        """
        token_ids = self._token_ids(tokens)
        self._tick += 1
        stepped: list = []
        for key, token in zip(tokens, token_ids):
            session = self._activate(key)
            self._tokens += 1
            if session.flagged and self.config.early_exit:
                self._tokens_dropped += 1
                continue
            stepped.append((session, token))

        rows, completions = self._stepper.step_rows(stepped)
        verdicts = [
            self._complete_window(session, start, probability)
            for session, start, probability in completions
        ]
        self._slot_steps += rows

        self._steps += 1
        self._enforce_budget()
        self._emit_step_telemetry(len(stepped), rows, len(verdicts))
        return verdicts

    def _token_ids(self, tokens) -> list:
        """The tick's token ids as ints, validated together in one pass."""
        ids = _token_array(list(tokens.values()))
        out_of_range = (ids < 0) | (ids >= self._vocab_size)
        if out_of_range.any():
            raise ValueError(
                f"token id {int(ids[out_of_range][0])} out of range "
                f"[0, {self._vocab_size})"
            )
        return ids.tolist()

    def _complete_window(self, session: StreamSession, start: int,
                         probability: float) -> SessionVerdict:
        verdict = SessionVerdict(
            session=session.key,
            window_index=start,
            probability=probability,
            is_ransomware=probability >= self.config.threshold,
            inference_microseconds=self._sequence_microseconds,
        )
        session.windows_classified += 1
        label = "ransomware" if verdict.is_ransomware else "benign"
        self._verdicts[label] += 1
        self._count("repro_session_verdicts_total", verdict=label)
        if verdict.is_ransomware and not session.flagged:
            session.flagged = True
            if self.config.early_exit:
                self._early_exits += 1
                self._count("repro_session_early_exits_total")
        return verdict

    # ------------------------------------------------------------------
    # Telemetry (observation only; plain counters above are the source)
    # ------------------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.counter(name, **labels).inc()

    def _emit_step_telemetry(self, sessions: int, rows: int,
                             verdicts: int) -> None:
        telemetry = self.engine.telemetry
        if telemetry is None:
            return
        telemetry.counter("repro_session_steps_total").inc()
        telemetry.counter("repro_session_tokens_total").inc(sessions)
        telemetry.counter("repro_session_slot_steps_total").inc(rows)
        telemetry.counter(METRIC_TICKS, backend=self.backend.name).inc()
        telemetry.gauge("repro_session_resident").set(self.resident_count)
        telemetry.gauge("repro_session_state_bytes").set(self.resident_bytes)
        telemetry.gauge("repro_session_checkpoint_bytes").set(
            self._checkpoint_bytes
        )
        telemetry.tracer.record(
            "session.step", self._tick - 1, self._tick,
            attributes={
                "sessions": sessions, "rows": rows, "verdicts": verdicts,
                "unit": "step",
            },
        )


# ---------------------------------------------------------------------------
# Kernel-to-kernel streaming extension (paper Section III-C)
# ---------------------------------------------------------------------------
# "Note that streaming can be easily ported to the kernel implementation
# for additional acceleration if the FPGA supports it."  In the baseline
# design, kernels exchange data through FPGA global memory over AXI
# masters (each hand-off pays a DDR write + read).  With AXI4-Stream
# hand-offs the producing kernel pushes words directly into the
# consumer's FIFO: the hand-off cost drops from two DDR transactions to
# a FIFO depth, and the per-CU copy loops disappear (each consumer taps
# the stream).  The model below quantifies that variant on top of the
# existing kernel timings for the streaming ablation benchmark; it lives
# with the streaming-session serving layer because both describe the
# engine's streaming story.

#: Cycles for a word to traverse an AXI4-Stream FIFO hand-off.
STREAM_FIFO_LATENCY_CYCLES = 2


def _speedup(baseline_cycles: int, streamed_cycles: int) -> float:
    """``baseline / streamed`` with degenerate denominators made honest.

    A zero streamed-cycle count against a non-zero baseline is an
    *unbounded* speedup — returning 1.0 there (as this once did) would
    silently report "no speedup" for the best possible outcome.  Only
    zero-over-zero, where the comparison is vacuous, reports 1.0.
    """
    if streamed_cycles == 0:
        return math.inf if baseline_cycles > 0 else 1.0
    return baseline_cycles / streamed_cycles


@dataclasses.dataclass(frozen=True)
class StreamingReport:
    """Per-item and per-sequence effect of enabling streaming."""

    baseline_item_cycles: int
    streamed_item_cycles: int
    baseline_sequence_cycles: int
    streamed_sequence_cycles: int
    clock: ClockDomain

    @property
    def item_speedup(self) -> float:
        return _speedup(self.baseline_item_cycles, self.streamed_item_cycles)

    @property
    def sequence_speedup(self) -> float:
        return _speedup(
            self.baseline_sequence_cycles, self.streamed_sequence_cycles
        )

    @property
    def streamed_item_microseconds(self) -> float:
        return self.clock.cycles_to_microseconds(self.streamed_item_cycles)


def _copy_loop_cycles(trip_count: int, ii_optimized: bool) -> int:
    """Latency of a per-CU fan-out copy loop (same model as the kernels)."""
    from repro.hw.hls import HlsLoop, PragmaSet, VANILLA_PRAGMAS

    if ii_optimized:
        pragmas = PragmaSet(pipeline=True, target_ii=1, unroll=4, array_partition=True)
    else:
        pragmas = VANILLA_PRAGMAS
    return HlsLoop(
        name="copy", trip_count=trip_count, iteration_depth=4,
        pragmas=pragmas, unroll_depth_penalty=0,
    ).latency_cycles


def _streamed(timing: KernelTiming, saved_cycles: int) -> KernelTiming:
    """Rewrite one kernel's timing with ``saved_cycles`` removed."""
    fill = max(1, timing.fill_latency_cycles - saved_cycles)
    steady = max(1, timing.steady_ii_cycles - (0 if timing.reports_ii else saved_cycles))
    return KernelTiming(
        kernel=timing.kernel,
        fill_latency_cycles=fill,
        steady_ii_cycles=steady,
        reports_ii=timing.reports_ii,
    )


def streaming_report(engine) -> StreamingReport:
    """Quantify the streaming variant against an engine's baseline.

    Savings model:

    * the producing kernels' per-CU fan-out copy loops disappear — each
      consumer taps the stream (``kernel_preprocess``'s embedding copies,
      ``kernel_hidden_state``'s ``h_t`` copies);
    * downstream kernels become free-running: the per-item AXI-Lite
      re-invocation handshake is replaced by the stream FIFO latency.

    The embedding-table DDR fetch and the first kernel's invocation are
    *not* removed — streaming changes hand-offs, not where the model's
    parameters live.

    Parameters
    ----------
    engine:
        A built :class:`~repro.core.engine.CSDInferenceEngine` (loaded or
        timing-only).
    """
    from repro.hw.hls import KERNEL_INVOKE_CYCLES

    config: EngineConfig = engine.config
    dims = config.dimensions
    clock = engine.device.clock

    preprocess = engine.preprocess.timing()
    gates = engine.gates.timing()
    hidden = engine.hidden_state.timing()

    ii_optimized = config.optimization.uses_ii_pragmas
    handoff_saving = KERNEL_INVOKE_CYCLES - STREAM_FIFO_LATENCY_CYCLES
    preprocess_copy = _copy_loop_cycles(
        dims.embedding_dim * config.num_gate_cus, ii_optimized
    )
    hidden_copy = _copy_loop_cycles(
        dims.hidden_size * config.num_gate_cus, ii_optimized
    )

    streamed_preprocess = _streamed(preprocess, preprocess_copy)
    streamed_gates = _streamed(gates, handoff_saving)
    streamed_hidden = _streamed(hidden, handoff_saving + hidden_copy)

    baseline_stage = StageTiming(
        preprocess=preprocess.reported_cycles,
        gates=gates.reported_cycles,
        hidden_state=hidden.reported_cycles,
    )
    streamed_stage = StageTiming(
        preprocess=streamed_preprocess.reported_cycles,
        gates=streamed_gates.reported_cycles,
        hidden_state=streamed_hidden.reported_cycles,
    )
    items = dims.sequence_length
    return StreamingReport(
        baseline_item_cycles=baseline_stage.serial_total,
        streamed_item_cycles=streamed_stage.serial_total,
        baseline_sequence_cycles=schedule(
            baseline_stage, items, config.preemptive_preprocess
        ),
        streamed_sequence_cycles=schedule(
            streamed_stage, items, config.preemptive_preprocess
        ),
        clock=clock,
    )
