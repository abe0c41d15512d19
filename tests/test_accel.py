"""The shared compile ladder (``repro.accel``) seen through both backends.

The fused inference backend and the fused training kernel build their C
kernels through :func:`repro.accel.load_library`.  With a compiler, a
build reports the ``cc`` tier, counts no fallback and leaves no build
directory behind; without one, each backend counts ``no_compiler`` once
and stays bit-exact on its NumPy rung.
"""

import dataclasses
import tempfile

import numpy as np
import pytest

from repro import accel
from repro.core.config import EngineConfig, OptimizationLevel
from repro.core.engine import CSDInferenceEngine
from repro.core.kernels.backends import FALLBACK_NO_COMPILER
from repro.core.weights import HostWeights
from repro.nn import kernels
from repro.nn.model import SequenceClassifier

WINDOW = 12

_WEIGHTS = HostWeights.from_model(SequenceClassifier(seed=7))

needs_compiler = pytest.mark.skipif(
    accel.find_compiler() is None, reason="no C compiler on this host"
)


def _engine(backend="fused") -> CSDInferenceEngine:
    config = EngineConfig(
        dimensions=dataclasses.replace(
            _WEIGHTS.dimensions, sequence_length=WINDOW
        ),
        optimization=OptimizationLevel.FIXED_POINT,
        backend=backend,
    )
    return CSDInferenceEngine(config, _WEIGHTS)


def _model(seed=0) -> SequenceClassifier:
    return SequenceClassifier(
        vocab_size=41, embedding_dim=5, hidden_size=16, seed=seed
    )


@pytest.fixture
def fresh_cache(monkeypatch):
    """Forget every library built so far, so the next build compiles."""
    monkeypatch.setattr(accel, "_LIBRARIES", {})


@needs_compiler
def test_builds_leave_no_directory_behind(tmp_path, monkeypatch, fresh_cache):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    backend = _engine().step_backend
    kernel = kernels.resolve_training_backend("fused", _model())
    assert backend.accel_tier == "cc"
    assert kernel.accel_tier == "cc"
    assert list(tmp_path.iterdir()) == []


@needs_compiler
def test_compiled_builds_record_no_fallback():
    backend = _engine().step_backend
    kernel = kernels.resolve_training_backend("fused", _model())
    assert (backend.accel_tier, backend.fallback_reasons) == ("cc", {})
    assert (kernel.accel_tier, kernel.fallback_reasons) == ("cc", {})


def test_no_compiler_is_counted_once_and_stays_exact(monkeypatch, fresh_cache):
    monkeypatch.setattr(accel, "find_compiler", lambda: None)

    engine = _engine()
    backend = engine.step_backend
    assert backend.accel_tier is None
    assert backend.fallback_reasons == {FALLBACK_NO_COMPILER: 1}
    assert backend.accelerates_inference()
    rng = np.random.default_rng(43)
    vocab = _WEIGHTS.dimensions.vocab_size
    batch = rng.integers(0, vocab, size=(6, WINDOW))
    np.testing.assert_array_equal(
        engine.infer_batch(batch).probabilities,
        _engine("reference").infer_batch(batch).probabilities,
    )

    kernel = kernels.resolve_training_backend("fused", _model(seed=3))
    assert kernel.accel_tier is None
    assert kernel.fallback_reasons == {kernels.FALLBACK_NO_COMPILER: 1}
    token_ids = rng.integers(0, 41, size=(4, 6))
    labels = (rng.random(4) < 0.5).astype(np.float64)
    got_loss, got_grads = kernel.train_batch(token_ids, labels)
    want_loss, want_grads = _model(seed=3).train_batch(token_ids, labels)
    assert got_loss == want_loss
    for key, want in want_grads.items():
        np.testing.assert_array_equal(got_grads[key], want)
