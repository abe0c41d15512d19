"""Bit-exact parity between ``infer_batch`` and the sequential path.

The batched forward pass must produce *identical* float64 probabilities —
not approximately equal ones — to per-sequence ``infer_sequence`` calls at
every optimisation level: the fixed-point path accumulates the same int64
dot products before the single rescale, and the float path uses a
batch-stable ``np.sum`` reduction instead of shape-dependent BLAS calls.
"""

import numpy as np
import pytest

from repro.core.config import OptimizationLevel
from repro.core.engine import engine_at_level
from repro.core.sessions import SessionManager
from repro.nn.model import SequenceClassifier
from repro.telemetry import Telemetry

SEQ_LEN = 12
VOCAB = 278
BATCH_SIZES = (1, 2, 7, 64)


@pytest.fixture(scope="module")
def model():
    return SequenceClassifier(seed=11)


@pytest.fixture(scope="module", params=list(OptimizationLevel),
                ids=lambda level: level.name)
def level(request):
    return request.param


def make_engine(model, level):
    return engine_at_level(model, level, sequence_length=SEQ_LEN)


def make_batch(batch_size: int) -> np.ndarray:
    rng = np.random.default_rng(100 + batch_size)
    return rng.integers(0, VOCAB, size=(batch_size, SEQ_LEN))


class TestBitExactParity:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_probabilities_identical(self, model, level, batch_size):
        engine = make_engine(model, level)
        batch = make_batch(batch_size)
        batched = engine.infer_batch(batch).probabilities
        sequential = np.array(
            [engine.infer_sequence(row).probability for row in batch]
        )
        assert batched.shape == (batch_size,)
        # Bit-exact: == on float64, no tolerance.
        assert np.array_equal(batched, sequential)

    def test_batch_of_batches_identical(self, model, level):
        # Rows must not influence each other: the same sequence classified
        # alone and inside a mixed batch yields the same bits.
        engine = make_engine(model, level)
        batch = make_batch(7)
        whole = engine.infer_batch(batch).probabilities
        for index in range(batch.shape[0]):
            alone = engine.infer_batch(batch[index:index + 1]).probabilities
            assert alone[0] == whole[index]

    def test_predict_proba_chunking_identical(self, model, level):
        engine = make_engine(model, level)
        batch = make_batch(11)
        unchunked = engine.predict_proba(batch)
        chunked = engine.predict_proba(batch, chunk_size=3)
        assert np.array_equal(unchunked, chunked)

    def test_timing_matches_sequential(self, model, level):
        engine = make_engine(model, level)
        batch = make_batch(2)
        batch_timing = engine.infer_batch(batch).timing
        sequential_timing = engine.infer_sequence(batch[0]).timing
        assert batch_timing == sequential_timing


class TestBatchAccounting:
    def test_counters_match_sequential(self, model, level):
        batched_engine = make_engine(model, level)
        sequential_engine = make_engine(model, level)
        batch = make_batch(7)
        batched_engine.infer_batch(batch)
        for row in batch:
            sequential_engine.infer_sequence(row)
        assert batched_engine.statistics() == sequential_engine.statistics()

    def test_timing_queries_move_no_data(self, model, level):
        """Pricing the embedding fetch is not a fetch: timing queries and
        session-manager construction leave every AXI counter at zero,
        and an inference call then counts one burst per sequence."""
        engine = make_engine(model, level)
        telemetry = Telemetry()
        engine.attach_telemetry(telemetry)
        for _ in range(3):
            SessionManager(engine)
        engine.per_item_microseconds()
        engine.sequence_microseconds()
        stats = engine.statistics()
        assert (stats["axi_transfers"], stats["axi_bytes_read"]) == (0, 0)
        assert not [r for r in telemetry.metrics.snapshot()
                    if r["name"].startswith("repro_axi_")]

        engine.infer_batch(make_batch(4))
        port = engine.preprocess.axi.name
        transfers = telemetry.counter(
            "repro_axi_transfers_total", port=port, op="read")
        cycles = telemetry.histogram(
            "repro_axi_transfer_cycles", port=port, op="read")
        assert engine.statistics()["axi_transfers"] == transfers.value == 4
        assert cycles.count == 4

    def test_results_views(self, model, level):
        engine = make_engine(model, level)
        result = engine.infer_batch(make_batch(3))
        assert result.batch_size == 3
        lazy = result.results()
        assert iter(lazy) is lazy  # generator: nothing materialised eagerly
        views = list(lazy)
        assert [v.probability for v in views] == result.probabilities.tolist()
        assert all(v.timing == result.timing for v in views)
        assert result.result_at(1) == views[1]


class TestBatchValidation:
    def test_rejects_wrong_length(self, model, level):
        engine = make_engine(model, level)
        with pytest.raises(ValueError):
            engine.infer_batch(np.zeros((4, SEQ_LEN + 1), dtype=np.int64))

    def test_rejects_wrong_ndim(self, model, level):
        engine = make_engine(model, level)
        with pytest.raises(ValueError):
            engine.infer_batch(np.zeros(SEQ_LEN, dtype=np.int64))

    def test_rejects_empty_batch(self, model, level):
        engine = make_engine(model, level)
        with pytest.raises(ValueError):
            engine.infer_batch(np.zeros((0, SEQ_LEN), dtype=np.int64))

    def test_rejects_out_of_vocabulary(self, model, level):
        engine = make_engine(model, level)
        batch = make_batch(2)
        batch[1, 3] = VOCAB  # one past the table
        with pytest.raises(ValueError, match="out of range"):
            engine.infer_batch(batch)

    @pytest.mark.parametrize("bad", [1.9, float("nan")], ids=["fraction", "nan"])
    def test_rejects_non_integer_token_ids(self, model, level, bad):
        engine = make_engine(model, level)
        batch = make_batch(2).astype(np.float64)
        batch[1, 3] = bad
        with pytest.raises(ValueError, match="must be integers"):
            engine.infer_batch(batch)
        with pytest.raises(ValueError, match="must be integers"):
            engine.predict_proba([[bad] * SEQ_LEN])
        with pytest.raises(ValueError, match="must be integers"):
            engine.infer_sequence(batch[1])

    def test_accepts_whole_float_token_ids(self, model, level):
        engine = make_engine(model, level)
        batch = make_batch(3)
        assert np.array_equal(
            engine.predict_proba(batch.astype(np.float64)),
            engine.predict_proba(batch),
        )

    def test_empty_predict_proba(self, model, level):
        engine = make_engine(model, level)
        out = engine.predict_proba(np.zeros((0, SEQ_LEN), dtype=np.int64))
        assert out.shape == (0,)
