"""Kernel-backend tests (see ``docs/performance.md``).

The backends' contract: every backend is **bit-exact** with the
``reference`` per-kernel NumPy pipeline at every optimisation level, on
both the whole-window inference path and the incremental session path;
degradations (missing accelerator, unsafe bounds, mid-run overflow
guard) fall back gracefully and are *counted*, never silent.  A
backend is the engine's (``EngineConfig.backend``), so its fallbacks
count per engine: a test that records one builds a fresh engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.kernels import backends as backends_mod
from repro.core.config import DEFAULT_BACKEND, EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels.backends import (
    FALLBACK_JIT_ERROR,
    FALLBACK_OVERFLOW_GUARD,
    METRIC_FALLBACK,
    METRIC_TICKS,
    FusedOverflow,
    available_backends,
    resolve_backend,
)
from repro.core.sessions import SessionConfig, SessionManager
from repro.core.weights import HostWeights
from repro.nn.model import SequenceClassifier

WINDOW = 12
VOCAB = 278

_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=7))
_ENGINES: dict = {}


def new_engine(level, backend=DEFAULT_BACKEND) -> CSDInferenceEngine:
    config = EngineConfig(
        dimensions=dataclasses.replace(
            _WEIGHTS.dimensions, sequence_length=WINDOW
        ),
        optimization=level,
        backend=backend,
    )
    return CSDInferenceEngine(config, _WEIGHTS)


def engine_for(level, backend=DEFAULT_BACKEND) -> CSDInferenceEngine:
    engine = _ENGINES.get((level, backend))
    if engine is None:
        engine = new_engine(level, backend)
        _ENGINES[(level, backend)] = engine
    return engine


def manager_verdicts(manager, keys, tokens) -> list:
    """Step ``tokens`` (streams x ticks) through ``manager``; flat verdicts."""
    out = []
    for tick in range(tokens.shape[1]):
        batch = {keys[i]: int(tokens[i, tick]) for i in range(len(keys))}
        out.extend(
            (v.session, v.window_index, v.probability)
            for v in manager.step(batch)
        )
    return out


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(available_backends()) >= {"reference", "fused"}
        assert DEFAULT_BACKEND == "reference"
        assert EngineConfig().backend == DEFAULT_BACKEND

    def test_unknown_backend_rejected(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT)
        with pytest.raises(ValueError, match="nope"):
            resolve_backend("nope", engine)

    def test_engine_caches_step_backend(self):
        engine = engine_for(OptimizationLevel.FIXED_POINT, backend="fused")
        assert engine.step_backend is engine.step_backend
        assert engine.step_backend.name == "fused"

    def test_fused_accel_tier_is_known(self):
        backend = engine_for(
            OptimizationLevel.FIXED_POINT, backend="fused"
        ).step_backend
        assert backend.accel_tier in (None, "cc")


class TestInferenceParity:
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_infer_batch_bit_exact_with_reference(self, level):
        rng = np.random.default_rng(17)
        batch = rng.integers(0, VOCAB, size=(8, WINDOW))
        want = engine_for(level).infer_batch(batch).probabilities
        got = engine_for(level, backend="fused").infer_batch(batch).probabilities
        np.testing.assert_array_equal(got, want)

    def test_fused_numpy_tier_also_bit_exact(self):
        """With the compiled step disabled, the vectorised-NumPy fused
        path must still match the reference bit for bit."""
        level = OptimizationLevel.FIXED_POINT
        engine = new_engine(level, backend="fused")
        if engine.step_backend._math is not None:
            engine.step_backend._math.disable_jit()
        rng = np.random.default_rng(19)
        batch = rng.integers(0, VOCAB, size=(6, WINDOW))
        want = engine_for(level).infer_batch(batch).probabilities
        np.testing.assert_array_equal(
            engine.infer_batch(batch).probabilities, want
        )


class TestSessionParity:
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_manager_verdicts_bit_exact_with_reference(self, level):
        rng = np.random.default_rng(23)
        keys = [f"s{i}" for i in range(6)]
        tokens = rng.integers(0, VOCAB, size=(6, 3 * WINDOW))
        config = SessionConfig(stride=3)
        want = manager_verdicts(
            SessionManager(engine_for(level), config), keys, tokens
        )
        got = manager_verdicts(
            SessionManager(engine_for(level, "fused"), config), keys, tokens
        )
        assert want and got == want

    def test_parity_under_eviction_and_restore(self):
        level = OptimizationLevel.FIXED_POINT
        rng = np.random.default_rng(29)
        keys = [f"s{i}" for i in range(8)]
        tokens = rng.integers(0, VOCAB, size=(8, 3 * WINDOW))
        config = SessionConfig(stride=2, max_resident_sessions=3)
        want = manager_verdicts(
            SessionManager(engine_for(level), config), keys, tokens
        )
        fused = SessionManager(engine_for(level, "fused"), config)
        got = manager_verdicts(fused, keys, tokens)
        assert want and got == want
        assert fused.stats()["restores"] > 0  # the pressure was real

    def test_checkpoints_cross_backends(self):
        """A fused manager's checkpoint resumes on a reference manager
        (and back) with the verdict stream unchanged — the external
        checkpoint format is backend-neutral."""
        level = OptimizationLevel.FIXED_POINT
        rng = np.random.default_rng(31)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        split = WINDOW + 5
        config = SessionConfig(stride=2)

        oracle = SessionManager(engine_for(level), config)
        want = [
            (v.window_index, v.probability)
            for t in tokens for v in [oracle.observe("p", int(t))]
            if v is not None
        ]
        for first, second in (("fused", "reference"), ("reference", "fused")):
            source = SessionManager(engine_for(level, first), config)
            got = [
                (v.window_index, v.probability)
                for t in tokens[:split] for v in [source.observe("p", int(t))]
                if v is not None
            ]
            target = SessionManager(engine_for(level, second), config)
            target.import_checkpoint(source.export_checkpoint("p"))
            got += [
                (v.window_index, v.probability)
                for t in tokens[split:] for v in [target.observe("p", int(t))]
                if v is not None
            ]
            assert got == want, f"{first} -> {second} checkpoint diverged"


class TestDegradation:
    def test_broken_compiled_step_is_caught_at_build_time(self, monkeypatch):
        """A compiled step producing wrong bits is rejected by the
        build-time self-check (counted as ``jit_error``) and the NumPy
        rung takes over: inference output never changes."""

        def broken(pre, bias, c, out_h, out_c):
            out_h.fill(0.0)
            out_c.fill(0.0)
            return 0.0

        monkeypatch.setattr(
            backends_mod, "_cc_step", lambda hidden, scale, eps: broken
        )
        level = OptimizationLevel.FIXED_POINT
        engine = new_engine(level, backend="fused")
        backend = engine.step_backend
        assert backend.accel_tier is None
        assert backend.fallback_reasons == {FALLBACK_JIT_ERROR: 1}
        assert backend.accelerates_inference()
        rng = np.random.default_rng(41)
        batch = rng.integers(0, VOCAB, size=(6, WINDOW))
        np.testing.assert_array_equal(
            engine.infer_batch(batch).probabilities,
            engine_for(level).infer_batch(batch).probabilities,
        )

    def test_mid_run_overflow_degrades_to_reference(self, monkeypatch):
        """An injected ``FusedOverflow`` mid-stream moves the manager onto
        the reference kernels exactly: the verdict stream is unchanged,
        the fallback is counted under ``overflow_guard``, and the fused
        math is never called again."""
        level = OptimizationLevel.FIXED_POINT
        rng = np.random.default_rng(37)
        keys = [f"s{i}" for i in range(5)]
        tokens = rng.integers(0, VOCAB, size=(5, 3 * WINDOW))
        config = SessionConfig(stride=3)
        want = manager_verdicts(
            SessionManager(engine_for(level), config), keys, tokens
        )

        fused = SessionManager(new_engine(level, "fused"), config)
        math_impl = fused.backend.fused_math
        original = math_impl.step_rows
        overflow_at = WINDOW + 3
        calls = []

        def flaky(h, c, x_rows):
            calls.append(len(h))
            if len(calls) == overflow_at:
                raise FusedOverflow("injected")
            return original(h, c, x_rows)

        monkeypatch.setattr(math_impl, "step_rows", flaky)
        got = manager_verdicts(fused, keys, tokens)
        assert want and got == want
        stats = fused.stats()
        assert stats["backend_fallbacks"].get(FALLBACK_OVERFLOW_GUARD) == 1
        assert len(calls) == overflow_at  # never called after the overflow

    def test_restored_state_beyond_the_guard_degrades_to_reference(self):
        """A checkpoint whose cell state sits past the fused guard is
        restored on the reference kernels: counted once under
        ``overflow_guard``, with verdicts equal to a reference manager's."""
        level = OptimizationLevel.FIXED_POINT
        rng = np.random.default_rng(43)
        tokens = rng.integers(0, VOCAB, size=3 * WINDOW)
        split = WINDOW + 4
        config = SessionConfig(stride=2)

        source = SessionManager(engine_for(level), config)
        for token in tokens[:split]:
            source.observe("p", int(token))
        checkpoint = source.export_checkpoint("p")
        fused = SessionManager(new_engine(level, "fused"), config)
        limit = fused.backend.fused_math.cell_limit
        start, filled, hidden, cell = checkpoint.slots[0]
        cell = cell.copy()
        cell[0] = int(limit) + 5
        hot = dataclasses.replace(
            checkpoint, slots=((start, filled, hidden, cell),)
            + checkpoint.slots[1:],
        )

        verdicts = {}
        for name, manager in (
            ("reference", SessionManager(engine_for(level), config)),
            ("fused", fused),
        ):
            manager.import_checkpoint(hot)
            verdicts[name] = [
                (v.window_index, v.probability)
                for t in tokens[split:] for v in [manager.observe("p", int(t))]
                if v is not None
            ]
        assert verdicts["reference"] and verdicts["fused"] == verdicts["reference"]
        assert fused.stats()["backend_fallbacks"].get(FALLBACK_OVERFLOW_GUARD) == 1

    def test_fallbacks_and_ticks_are_observable(self):
        from repro.telemetry import Telemetry

        engine = new_engine(OptimizationLevel.FIXED_POINT, backend="fused")
        telemetry = Telemetry()
        engine.attach_telemetry(telemetry)
        manager = SessionManager(engine, SessionConfig(stride=2))
        for tick in range(WINDOW):
            manager.step({"a": tick % VOCAB})
        backend = manager.backend
        assert backend is engine.step_backend
        backend.record_fallback("self_check_failed")
        assert backend.fallback_reasons["self_check_failed"] == 1
        assert telemetry.metrics.counter(
            METRIC_FALLBACK, reason="self_check_failed"
        ).value == 1
        assert telemetry.metrics.counter(
            METRIC_TICKS, backend=backend.name
        ).value == WINDOW
