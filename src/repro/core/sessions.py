"""Streaming sessions: stateful incremental inference for live streams.

The paper's deployment story is continuous in-drive monitoring of live
I/O — a stream of API calls per process, classified over overlapping
sliding windows.  Re-running :meth:`~repro.core.engine.CSDInferenceEngine.infer_sequence`
over the whole window at every stride gives O(window) recompute *bursts*
per verdict and no way to batch across streams.  This module is the
online-serving answer:

* :class:`StreamSession` carries the LSTM ``(h, C)`` state **per token**,
  with a rotating ring of partial window states — one per overlapping
  stride window — so each arriving token advances every open window by a
  single step and the per-token cost is smooth instead of bursty.
* :class:`SessionManager` steps *many* sessions per tick through one
  stacked batched gate matmul, so kernel-invocation overhead amortises
  across all streams and all ring slots; it enforces a memory budget via
  LRU/idle eviction with checkpoint/restore of evicted session state
  (checkpoint bytes are budgeted too, see ``checkpoint_budget_bytes``),
  and emits a verdict the moment a window completes (optionally
  early-exiting flagged streams).

How each tick executes is delegated to the engine's **kernel backend**
(:mod:`repro.core.kernels.backends`): the ``reference`` backend invokes
the NumPy kernels exactly as this module always has, while the ``fused``
backend keeps all slot state in a persistent preallocated arena, caches
the row roster between structural changes (window opens/closes,
evictions), and — at ``FIXED_POINT`` — runs the whole step as one fused
pass.  Every backend is **bit-exact** with ``infer_sequence`` on the
same window at every :class:`~repro.core.config.OptimizationLevel`: a
window stepped token by token inside an arbitrary batch of other
sessions produces the identical probability to a fresh full-window
recompute.  See ``docs/streaming.md`` for the lifecycle and semantics
and ``docs/performance.md`` for the backend registry.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels.backends import (
    FALLBACK_OVERFLOW_GUARD,
    FusedOverflow,
    METRIC_TICKS,
    resolve_backend,
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
        """Approximate retained size (state arrays + bookkeeping)."""
        state = sum(
            np.asarray(hidden).nbytes + np.asarray(cell).nbytes
            for _, _, hidden, cell in self.slots
        )
        return SESSION_OVERHEAD_BYTES + state


class _WindowSlot:
    """One partial window: its start index, fill count, and LSTM state.

    ``hidden``/``cell`` are either owned arrays (plain store) or views
    into the backend's slot arena (``col`` is then the arena row).
    """

    __slots__ = ("start", "filled", "hidden", "cell", "col")

    def __init__(self, start: int, hidden: np.ndarray, cell: np.ndarray,
                 filled: int = 0, col: int | None = None):
        self.start = start
        self.filled = filled
        self.hidden = hidden
        self.cell = cell
        self.col = col


class _PlainSlotStore:
    """Per-slot owned arrays in the engine's external dtype (reference)."""

    def __init__(self, hidden_size: int, dtype):
        self.hidden_size = hidden_size
        self.dtype = dtype

    def new_slot(self, start: int) -> _WindowSlot:
        return _WindowSlot(
            start,
            np.zeros(self.hidden_size, dtype=self.dtype),
            np.zeros(self.hidden_size, dtype=self.dtype),
        )

    def adopt_slots(self, entries) -> list:
        return [
            _WindowSlot(start, np.array(hidden, dtype=self.dtype),
                        np.array(cell, dtype=self.dtype), filled=filled)
            for start, filled, hidden, cell in entries
        ]

    def release_slot(self, slot: _WindowSlot) -> None:
        pass


class _ArenaSlotStore:
    """Slot state packed into persistent ``(capacity, H)`` float64 arrays.

    Slots hold *views* into arena rows, so checkpoint/export code reads
    them exactly like owned arrays; the fused stepper gathers/scatters
    whole row batches by arena index instead of stacking Python lists.
    When ``hidden_limit`` is set (fixed-point), values outside the
    float64 exactness envelope are refused at write time with
    :class:`~repro.core.kernels.backends.FusedOverflow` so the manager
    can degrade instead of silently losing precision.
    """

    def __init__(self, hidden_size: int, dtype, hidden_limit: float | None,
                 cell_limit: float | None, capacity: int = 64):
        self.hidden_size = hidden_size
        self.dtype = dtype  # external/checkpoint dtype, not the arena's
        self.hidden_limit = hidden_limit
        self.cell_limit = cell_limit
        self.h = np.zeros((capacity, hidden_size), dtype=np.float64)
        self.c = np.zeros((capacity, hidden_size), dtype=np.float64)
        self._free = list(range(capacity - 1, -1, -1))
        self.grow_hook = None  # rebinds live slot views after a resize

    def _alloc(self) -> int:
        if not self._free:
            self._grow()
        return self._free.pop()

    def _grow(self) -> None:
        capacity = self.h.shape[0]
        new_h = np.zeros((capacity * 2, self.hidden_size), dtype=np.float64)
        new_c = np.zeros_like(new_h)
        new_h[:capacity] = self.h
        new_c[:capacity] = self.c
        self.h, self.c = new_h, new_c
        self._free.extend(range(capacity * 2 - 1, capacity - 1, -1))
        if self.grow_hook is not None:
            self.grow_hook()

    def new_slot(self, start: int) -> _WindowSlot:
        col = self._alloc()
        self.h[col] = 0.0
        self.c[col] = 0.0
        return _WindowSlot(start, self.h[col], self.c[col], col=col)

    def adopt_slots(self, entries) -> list:
        adopted: list = []
        try:
            for start, filled, hidden, cell in entries:
                h = np.asarray(hidden, dtype=np.float64)
                c = np.asarray(cell, dtype=np.float64)
                if self.hidden_limit is not None and (
                    float(np.max(np.abs(h), initial=0.0)) > self.hidden_limit
                    or float(np.max(np.abs(c), initial=0.0)) > self.cell_limit
                ):
                    raise FusedOverflow
                col = self._alloc()
                self.h[col] = h
                self.c[col] = c
                adopted.append(
                    _WindowSlot(start, self.h[col], self.c[col],
                                filled=filled, col=col)
                )
        except FusedOverflow:
            for slot in adopted:
                self.release_slot(slot)
            raise
        return adopted

    def release_slot(self, slot: _WindowSlot) -> None:
        if slot.col is not None:
            self._free.append(slot.col)
            slot.col = None


class StreamSession:
    """Incremental per-stream detection state.

    Holds a rotating ring of :class:`_WindowSlot` partial windows.  A new
    slot opens whenever ``calls_seen % stride == 0`` (the same window
    positions the recompute detector classifies); every arriving token
    advances all open slots by one LSTM step; a slot whose fill count
    reaches the window length is classified and closed.  At most
    ``ceil(window_length / stride)`` slots are ever open, which bounds
    the session's state to a fixed number of ``(h, C)`` vector pairs.

    Slot state lives in the manager's backend store (owned arrays for
    ``reference``, arena views for ``fused``).  Sessions are driven by a
    :class:`SessionManager`; they are not stepped directly.
    """

    __slots__ = ("key", "calls_seen", "flagged", "windows_classified",
                 "slots", "last_used_tick", "_store")

    def __init__(self, key, store):
        self.key = key
        self.calls_seen = 0
        self.flagged = False
        self.windows_classified = 0
        self.slots: list = []
        self.last_used_tick = 0
        self._store = store

    def open_slot(self) -> _WindowSlot:
        """Open a zero-state partial window starting at ``calls_seen``."""
        slot = self._store.new_slot(self.calls_seen)
        self.slots.append(slot)
        return slot

    def close_slot(self, slot: _WindowSlot) -> None:
        self.slots.remove(slot)
        self._store.release_slot(slot)

    def release_slots(self) -> None:
        """Return all slot storage to the store (eviction/close path)."""
        for slot in self.slots:
            self._store.release_slot(slot)
        self.slots = []

    def rebind_store(self, store) -> None:
        """Move this session's slot state into another store (degrade path)."""
        old_store = self._store
        for slot in self.slots:
            hidden = np.array(slot.hidden, dtype=store.dtype)
            cell = np.array(slot.cell, dtype=store.dtype)
            old_store.release_slot(slot)
            slot.hidden = hidden
            slot.cell = cell
        self._store = store

    def checkpoint(self) -> SessionCheckpoint:
        """Snapshot the full session state into an alias-free checkpoint."""
        dtype = self._store.dtype
        return SessionCheckpoint(
            key=self.key,
            calls_seen=self.calls_seen,
            flagged=self.flagged,
            windows_classified=self.windows_classified,
            slots=tuple(
                (slot.start, slot.filled,
                 np.array(slot.hidden, dtype=dtype),
                 np.array(slot.cell, dtype=dtype))
                for slot in self.slots
            ),
        )

    @classmethod
    def from_checkpoint(cls, checkpoint: SessionCheckpoint,
                        store) -> "StreamSession":
        session = cls(checkpoint.key, store)
        session.calls_seen = checkpoint.calls_seen
        session.flagged = checkpoint.flagged
        session.windows_classified = checkpoint.windows_classified
        session.slots = store.adopt_slots(checkpoint.slots)
        return session


def _open_due_slot(session: StreamSession, stride: int) -> None:
    """Open this tick's window unless an overflow retry already did.

    A fused tick that trips the overflow guard is re-run on the
    reference path *after* its slot opens; the retry must not open a
    duplicate.  A freshly-opened slot is recognisable as the last slot
    with ``start == calls_seen`` (older slots always have smaller
    starts).
    """
    if session.calls_seen % stride == 0 and (
        not session.slots or session.slots[-1].start != session.calls_seen
    ):
        session.open_slot()


class ReferenceStepper:
    """The shipped per-tick mechanics: Python row lists + NumPy kernels.

    This is the oracle the fused stepper is measured against — its
    behaviour (iteration order, kernel call sequence, rounding) is the
    bit-exactness baseline and must not drift.
    """

    name = "reference"

    def __init__(self, manager: "SessionManager"):
        self.manager = manager
        manager._store = _PlainSlotStore(manager._hidden_size, manager._dtype)

    def materialize(self) -> None:
        pass

    def after_tick(self, stepped, completed: bool) -> None:
        pass

    def step_rows(self, stepped) -> tuple:
        manager = self.manager
        stride = manager.config.stride
        row_sessions: list = []
        row_slots: list = []
        h_rows: list = []
        c_rows: list = []
        x_tokens: list = []
        for session, token in stepped:
            _open_due_slot(session, stride)
            for slot in session.slots:
                row_sessions.append(session)
                row_slots.append(slot)
                h_rows.append(slot.hidden)
                c_rows.append(slot.cell)
                x_tokens.append(token)
            session.calls_seen += 1

        completions: list = []
        if row_slots:
            engine = manager.engine
            embedded = engine.preprocess.run_batch(
                np.asarray(x_tokens, dtype=np.int64)
            )
            gate_outputs = engine.gates.run_batch(np.stack(h_rows), embedded)
            hidden, cell = engine.hidden_state.step_batch(
                gate_outputs, np.stack(c_rows)
            )
            completed: list = []
            for index, slot in enumerate(row_slots):
                slot.hidden[:] = hidden[index]
                slot.cell[:] = cell[index]
                slot.filled += 1
                if slot.filled == manager.window_length:
                    completed.append(index)
            if completed:
                probabilities = engine.hidden_state.classify_batch(
                    hidden[np.asarray(completed, dtype=np.intp)]
                )
                completions = [
                    (row_sessions[index], row_slots[index], float(probability))
                    for probability, index in zip(probabilities, completed)
                ]
        return len(row_slots), completions


class _Roster:
    """Cached row structure reused across ticks with no structural change."""

    __slots__ = ("sessions", "row_sessions", "row_slots", "cols", "counts",
                 "fast_left")

    def __init__(self, sessions, row_sessions, row_slots, cols, counts,
                 fast_left):
        self.sessions = sessions
        self.row_sessions = row_sessions
        self.row_slots = row_slots
        self.cols = cols
        self.counts = counts
        self.fast_left = fast_left


class FusedStepper:
    """Arena-backed stepping with roster caching (the ``fused`` backend).

    Two tick shapes:

    * **slow** — structural work due (a window opens or completes, or
      the stepped set changed): enumerate slots in Python like the
      reference path, but gather/scatter state by arena index and rebuild
      the roster cache.
    * **fast** — the cached roster still describes this tick exactly: no
      Python per-slot work at all; one embedding gather, one fused (or
      batched-kernel) step, one scatter.  ``slot.filled`` bookkeeping is
      deferred (``_pending``) and folded in by :meth:`materialize`
      before anything outside the tick reads it.

    How many fast ticks a roster is good for is computed at build time
    from the stride phase of every stepped session and the fill count of
    every open slot, so correctness never depends on re-checking them
    per tick.
    """

    name = "fused"

    def __init__(self, manager: "SessionManager", backend):
        self.manager = manager
        self.backend = backend
        self.math = backend.fused_math  # None on the float levels
        if self.math is not None:
            hidden_limit = float(self.math.scale)
            cell_limit = self.math.cell_limit
        else:
            hidden_limit = cell_limit = None
        store = _ArenaSlotStore(
            manager._hidden_size, manager._dtype, hidden_limit, cell_limit
        )
        store.grow_hook = self._rebind_views
        manager._store = store
        self.store = store
        self._roster: _Roster | None = None
        self._pending = 0
        self._draft: tuple | None = None

    # -- bookkeeping hooks ---------------------------------------------

    def _rebind_views(self) -> None:
        store = self.store
        for session in self.manager._resident.values():
            for slot in session.slots:
                slot.hidden = store.h[slot.col]
                slot.cell = store.c[slot.col]

    def materialize(self) -> None:
        """Fold deferred fast-tick fill counts into the slot objects."""
        pending = self._pending
        if pending and self._roster is not None:
            for slot in self._roster.row_slots:
                slot.filled += pending
        self._pending = 0

    # -- stepping -------------------------------------------------------

    def step_rows(self, stepped) -> tuple:
        roster = self._roster
        if roster is not None and roster.fast_left > 0 and len(stepped) == len(roster.sessions):
            for (session, _token), cached in zip(stepped, roster.sessions):
                if session is not cached:
                    break
            else:
                return self._fast_tick(stepped, roster)
        return self._slow_tick(stepped)

    def _step_state(self, h, c, embedded) -> tuple:
        if self.math is not None:
            return self.math.step_rows(h, c, embedded)
        engine = self.manager.engine
        gate_outputs = engine.gates.run_batch(h, embedded)
        return engine.hidden_state.step_batch(gate_outputs, c)

    def _classify(self, hidden_rows) -> np.ndarray:
        if self.math is not None:
            return self.math.classify_rows(hidden_rows)
        return self.manager.engine.hidden_state.classify_batch(hidden_rows)

    def _fast_tick(self, stepped, roster: _Roster) -> tuple:
        manager = self.manager
        tokens = np.fromiter(
            (token for _, token in stepped), dtype=np.int64, count=len(stepped)
        )
        rows = int(roster.cols.size)
        if rows:
            row_tokens = np.repeat(tokens, roster.counts)
            embedded = manager.engine.preprocess.run_batch(row_tokens)
            store = self.store
            h = store.h[roster.cols]
            c = store.c[roster.cols]
            new_h, new_c = self._step_state(h, c, embedded)  # may raise FusedOverflow
            store.h[roster.cols] = new_h
            store.c[roster.cols] = new_c
        for session, _token in stepped:
            session.calls_seen += 1
        self._pending += 1
        roster.fast_left -= 1
        return rows, []

    def _slow_tick(self, stepped) -> tuple:
        self.materialize()
        self._roster = None
        self._draft = None
        manager = self.manager
        stride = manager.config.stride
        count = len(stepped)
        sessions: list = []
        row_sessions: list = []
        row_slots: list = []
        counts = np.empty(count, dtype=np.intp)
        tokens = np.empty(count, dtype=np.int64)
        for index, (session, token) in enumerate(stepped):
            _open_due_slot(session, stride)
            slots = session.slots
            sessions.append(session)
            counts[index] = len(slots)
            tokens[index] = token
            for slot in slots:
                row_sessions.append(session)
                row_slots.append(slot)

        rows = len(row_slots)
        completions: list = []
        if rows:
            cols = np.fromiter(
                (slot.col for slot in row_slots), dtype=np.intp, count=rows
            )
            row_tokens = np.repeat(tokens, counts)
            embedded = manager.engine.preprocess.run_batch(row_tokens)
            store = self.store
            h = store.h[cols]
            c = store.c[cols]
            new_h, new_c = self._step_state(h, c, embedded)  # may raise FusedOverflow
            store.h[cols] = new_h
            store.c[cols] = new_c
            completed: list = []
            window = manager.window_length
            for index, slot in enumerate(row_slots):
                slot.filled += 1
                if slot.filled == window:
                    completed.append(index)
            if completed:
                probabilities = self._classify(
                    new_h[np.asarray(completed, dtype=np.intp)]
                )
                completions = [
                    (row_sessions[index], row_slots[index], float(probability))
                    for probability, index in zip(probabilities, completed)
                ]
        else:
            cols = np.zeros(0, dtype=np.intp)
        for session, _token in stepped:
            session.calls_seen += 1
        self._draft = (sessions, row_sessions, row_slots, cols, counts)
        return rows, completions

    def after_tick(self, stepped, completed: bool) -> None:
        """Build the roster for upcoming ticks from this tick's outcome."""
        draft = self._draft
        self._draft = None
        if draft is None:
            return  # fast tick: roster already live
        sessions, row_sessions, row_slots, cols, counts = draft
        if not sessions:
            return
        if completed:
            # Window closes invalidated the draft's rows; re-enumerate.
            row_sessions, row_slots = [], []
            for index, session in enumerate(sessions):
                counts[index] = len(session.slots)
                for slot in session.slots:
                    row_sessions.append(session)
                    row_slots.append(slot)
            cols = np.fromiter(
                (slot.col for slot in row_slots), dtype=np.intp,
                count=len(row_slots),
            )
        stride = self.manager.config.stride
        calls = np.fromiter(
            (session.calls_seen for session in sessions), dtype=np.int64,
            count=len(sessions),
        )
        # Next window opens for session i at age ((-calls_i) mod stride)+1;
        # the earliest completion at age window - max(filled).  The tick
        # at that age must be slow, every tick before it may be fast.
        next_open = int(np.min((-calls) % stride)) + 1
        if row_slots:
            max_filled = max(slot.filled for slot in row_slots)
            next_complete = self.manager.window_length - max_filled
            horizon = min(next_open, next_complete)
        else:
            horizon = next_open
        fast_left = horizon - 1
        if fast_left > 0:
            self._roster = _Roster(
                sessions, row_sessions, row_slots, cols, counts, fast_left
            )


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
    backend:
        Kernel backend name for the stepping hot path (``"reference"``
        or ``"fused"``); ``None`` uses the engine's configured backend.
        See :mod:`repro.core.kernels.backends`.

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

    def __init__(self, engine, config: SessionConfig | None = None,
                 backend: str | None = None):
        self.engine = engine
        self.config = config or SessionConfig()
        engine._require_loaded()
        dims = engine.config.dimensions
        self.window_length = dims.sequence_length
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

        backend_name = backend if backend is not None else engine.config.backend
        if backend_name == engine.config.backend:
            self.backend = engine.step_backend
        else:
            self.backend = resolve_backend(backend_name, engine)
        self._store = None  # set by the stepper's constructor
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

    def _degrade(self, reason: str) -> None:
        """Swap to the reference stepper mid-run (overflow guard path)."""
        self._stepper.materialize()
        old_stepper = self._stepper
        self._stepper = ReferenceStepper(self)  # rebinds self._store
        del old_stepper
        for session in self._resident.values():
            session.rebind_store(self._store)
        self.backend.record_fallback(reason)

    def _activate(self, key) -> StreamSession:
        """Resident lookup with LRU touch; restores or creates as needed."""
        session = self._resident.get(key)
        if session is not None:
            self._resident.move_to_end(key)
        else:
            checkpoint = self._pop_checkpoint(key)
            if checkpoint is not None:
                try:
                    session = StreamSession.from_checkpoint(checkpoint, self._store)
                except FusedOverflow:
                    self._degrade(FALLBACK_OVERFLOW_GUARD)
                    session = StreamSession.from_checkpoint(checkpoint, self._store)
                self._restores += 1
                self._count("repro_session_restores_total")
            else:
                session = StreamSession(key, self._store)
            self._resident[key] = session
        session.last_used_tick = self._tick
        return session

    def _evict_session(self, key, reason: str, checkpoint: bool = True) -> None:
        self._stepper.materialize()
        session = self._resident.pop(key)
        if checkpoint:
            self._store_checkpoint(session.checkpoint())
        session.release_slots()
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
            self._stepper.materialize()
            return self._resident[key].checkpoint()
        if key in self._checkpoints:
            return self._checkpoints[key]
        raise KeyError(f"unknown session {key!r}")

    def import_checkpoint(self, checkpoint: SessionCheckpoint) -> None:
        """Adopt a migrated session; it restores on its next token."""
        if checkpoint.key in self._resident:
            raise ValueError(f"session {checkpoint.key!r} is already resident")
        self._store_checkpoint(checkpoint)

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
            session.release_slots()
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
        """
        self._tick += 1
        stepped: list = []
        for key, token in tokens.items():
            session = self._activate(key)
            self._tokens += 1
            if session.flagged and self.config.early_exit:
                self._tokens_dropped += 1
                continue
            stepped.append((session, int(token)))

        try:
            rows, completions = self._stepper.step_rows(stepped)
        except FusedOverflow:
            self._degrade(FALLBACK_OVERFLOW_GUARD)
            rows, completions = self._stepper.step_rows(stepped)
        verdicts = [
            self._complete_window(session, slot, probability)
            for session, slot, probability in completions
        ]
        self._slot_steps += rows
        self._stepper.after_tick(stepped, bool(completions))

        self._steps += 1
        self._enforce_budget()
        self._emit_step_telemetry(len(stepped), rows, len(verdicts))
        return verdicts

    def _complete_window(self, session: StreamSession, slot: _WindowSlot,
                         probability: float) -> SessionVerdict:
        verdict = SessionVerdict(
            session=session.key,
            window_index=slot.start,
            probability=probability,
            is_ransomware=probability >= self.config.threshold,
            inference_microseconds=self._sequence_microseconds,
        )
        session.close_slot(slot)
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
