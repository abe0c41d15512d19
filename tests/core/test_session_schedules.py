"""Generated-interleaving parity for :class:`SessionManager`.

Hypothesis draws a *schedule*: ticks that step random ordered subsets of
a small key pool, idle gaps, residency/idle/checkpoint-budget pressure,
live migration (``release`` into a manager on an engine of the *other*
backend, same weights) and ``close``.  Whatever the interleaving, every stream's verdicts must equal
the full-window recompute over that stream's tokens since its last
restart.  A stream restarts when ``close`` drops it or when the
checkpoint budget drops its checkpoint; both show up as the key leaving
``known_keys()``, which is how the model below tracks them.

Tier-1 draws a handful of schedules; ``--hypothesis-profile=long``
(registered in ``tests/conftest.py``) draws the profile's count.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.config import OptimizationLevel
from repro.core.sessions import SESSION_OVERHEAD_BYTES, SessionConfig, SessionManager
from tests.core.test_sessions import VOCAB, WINDOW, engine_for, recompute_verdicts

THRESHOLD = 0.5
LEVELS = ("FIXED_POINT", "VANILLA")
BACKENDS = ("reference", "fused")

_SCHEDULES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "long" else 25
)


@dataclasses.dataclass(frozen=True)
class Schedule:
    level: str
    backend: str              # where every stream starts; migration flips it
    keys: int
    stride: int
    max_resident: int | None
    idle_after: int | None
    checkpoint_slots: int | None  # checkpoint budget, in one-slot checkpoints
    ops: tuple                # ("burst", keys, ticks, seed) | ("idle", n)
                              # | ("migrate", key) | ("close", key)


@st.composite
def schedules(draw) -> Schedule:
    keys = draw(st.integers(3, 6))
    key = st.integers(0, keys - 1)
    # A burst steps one ordered subset of keys for several ticks; its
    # tokens come from ``seed`` so a pinned schedule stays short.
    burst = st.tuples(
        st.just("burst"),
        st.lists(key, min_size=1, max_size=keys, unique=True).map(tuple),
        st.integers(1, 2 * WINDOW),
        st.integers(0, 2**16),
    )
    op = st.one_of(
        burst, burst, burst,
        st.tuples(st.just("idle"), st.integers(1, 3)),
        st.tuples(st.just("migrate"), key),
        st.tuples(st.just("close"), key),
    )
    return Schedule(
        level=draw(st.sampled_from(LEVELS)),
        backend=draw(st.sampled_from(BACKENDS)),
        keys=keys,
        stride=draw(st.integers(1, WINDOW + 1)),
        max_resident=draw(st.none() | st.integers(1, 4)),
        idle_after=draw(st.none() | st.integers(1, 4)),
        checkpoint_slots=draw(st.none() | st.integers(1, 8)),
        ops=tuple(draw(st.lists(op, min_size=2, max_size=12))),
    )


class _Stream:
    """One key's tokens and verdicts, split at every restart."""

    def __init__(self):
        self.epochs: list = []  # [tokens, verdicts] per restart

    def feed(self, token: int, known: bool) -> None:
        if not known or not self.epochs:
            self.epochs.append(([], []))
        self.epochs[-1][0].append(token)


def run_schedule(schedule: Schedule) -> None:
    level = OptimizationLevel[schedule.level]
    engine = engine_for(level)  # the recompute oracle
    hidden = engine.config.dimensions.hidden_size
    budget = None
    if schedule.checkpoint_slots is not None:
        budget = SESSION_OVERHEAD_BYTES + schedule.checkpoint_slots * 2 * hidden * 8
    config = SessionConfig(
        threshold=THRESHOLD,
        stride=schedule.stride,
        max_resident_sessions=schedule.max_resident,
        idle_after_steps=schedule.idle_after,
        checkpoint_budget_bytes=budget,
    )
    first = schedule.backend
    second = BACKENDS[1 - BACKENDS.index(first)]
    managers = {name: SessionManager(engine_for(level, name), config)
                for name in (first, second)}
    fed = dict.fromkeys(managers, 0)
    received = {name: {"ransomware": 0, "benign": 0} for name in managers}
    names = [f"k{i}" for i in range(schedule.keys)]
    home = dict.fromkeys(names, first)
    streams = {name: _Stream() for name in names}

    def step(manager_name: str, batch: dict) -> None:
        manager = managers[manager_name]
        known = set(manager.known_keys())
        for key, token in batch.items():
            streams[key].feed(token, key in known)
        fed[manager_name] += len(batch)
        verdicts = manager.step(batch)
        # Verdicts come back in stream order, one per stream at most.
        order = list(batch)
        assert [order.index(v.session) for v in verdicts] == sorted(
            order.index(v.session) for v in verdicts
        )
        for verdict in verdicts:
            streams[verdict.session].epochs[-1][1].append(verdict)
            label = "ransomware" if verdict.is_ransomware else "benign"
            received[manager_name][label] += 1
        if schedule.max_resident is not None:
            assert manager.resident_count <= schedule.max_resident

    for op, *args in schedule.ops:
        if op == "burst":
            subset, ticks, seed = args
            rng = np.random.default_rng(seed)
            tokens = rng.integers(0, VOCAB, size=(ticks, len(subset))).tolist()
            for row in tokens:
                for manager_name in managers:
                    batch = {names[k]: token for k, token in zip(subset, row)
                             if home[names[k]] == manager_name}
                    if batch:
                        step(manager_name, batch)
        elif op == "idle":
            for _ in range(args[0]):
                for manager_name in managers:
                    step(manager_name, {})
        elif op == "migrate":
            key = names[args[0]]
            source = managers[home[key]]
            if key in source.known_keys():
                target_name = second if home[key] == first else first
                managers[target_name].import_checkpoint(source.release(key))
                home[key] = target_name
        else:  # close
            key = names[args[0]]
            manager = managers[home[key]]
            if key in manager.known_keys():
                manager.close(key)

    for key, stream in streams.items():
        for tokens, verdicts in stream.epochs:
            want = recompute_verdicts(engine, tokens, THRESHOLD, schedule.stride)
            assert [(v.window_index, v.probability) for v in verdicts] == [
                (v.window_index, v.probability) for v in want
            ], key
            assert [v.is_ransomware for v in verdicts] == [
                v.is_ransomware for v in want
            ], key
    for name, manager in managers.items():
        stats = manager.stats()
        assert stats["tokens"] == fed[name]
        assert stats["verdicts"] == received[name]


#: A fixed schedule that walks every op kind under all three pressures.
PINNED = Schedule(
    level="FIXED_POINT", backend="fused", keys=4, stride=3, max_resident=2,
    idle_after=3, checkpoint_slots=6,
    ops=(("burst", (0, 1, 2, 3), 20, 1), ("migrate", 1), ("idle", 3),
         ("burst", (3, 1, 0), 15, 2), ("close", 0), ("migrate", 1),
         ("burst", (0, 2, 1), 14, 3)),
)


class TestGeneratedSchedules:
    @given(schedule=schedules())
    @example(schedule=PINNED)
    @example(schedule=dataclasses.replace(PINNED, level="VANILLA", backend="reference"))
    @settings(max_examples=_SCHEDULES, deadline=None)
    def test_verdicts_match_recompute_under_any_interleaving(self, schedule):
        run_schedule(schedule)
