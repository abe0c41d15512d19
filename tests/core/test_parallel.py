"""parallel_map: the fork-based fold-parallel task pool.

The contract under test: results come back in index order, bit-identical
to the serial run, and worker telemetry merges exactly — including when
the environment cannot fork and every task runs in-process.
"""

import pytest

from repro.core import parallel
from repro.core.parallel import _pool_supported
from repro.telemetry import Telemetry

pool_required = pytest.mark.skipif(
    not _pool_supported()[0], reason="fork unavailable here"
)


def _square_task(index, telemetry):
    if telemetry is not None:
        telemetry.counter("repro_gen_folds_total", modality="test").inc()
    return index * index


class TestParallelMap:
    def test_serial_runs_in_order_on_parent_telemetry(self):
        telemetry = Telemetry()
        results = parallel.parallel_map(
            _square_task, 5, workers=1, telemetry=telemetry
        )
        assert results == [0, 1, 4, 9, 16]
        counts = {
            (record["name"], record["labels"].get("modality")): record["value"]
            for record in telemetry.metrics.snapshot()
            if record["type"] == "counter"
        }
        assert counts[("repro_gen_folds_total", "test")] == 5
        assert counts[("repro_parallel_tasks_total", None)] == 5

    @pool_required
    def test_pool_results_in_index_order_with_merged_telemetry(self):
        telemetry = Telemetry()
        results = parallel.parallel_map(
            _square_task, 7, workers=3, telemetry=telemetry
        )
        assert results == [0, 1, 4, 9, 16, 25, 36]
        counts = {
            record["labels"].get("mode", record["labels"].get("modality")):
                record["value"]
            for record in telemetry.metrics.snapshot()
            if record["type"] == "counter"
        }
        assert counts["test"] == 7    # merged from worker snapshots
        assert counts["pool"] == 7

    @pool_required
    def test_pool_matches_serial(self):
        assert parallel.parallel_map(_square_task, 6, workers=2) == \
            parallel.parallel_map(_square_task, 6, workers=1)

    def test_count_zero(self):
        assert parallel.parallel_map(_square_task, 0, workers=4) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            parallel.parallel_map(_square_task, -1)
        with pytest.raises(ValueError):
            parallel.parallel_map(_square_task, 3, workers=0)

    def test_task_error_raised_after_all_tasks(self):
        def sometimes_boom(index, telemetry):
            if index == 2:
                raise ValueError("boom")
            return index

        with pytest.raises(RuntimeError, match="parallel task 2 failed"):
            parallel.parallel_map(sometimes_boom, 4, workers=1)

    @pool_required
    def test_pool_error_propagates(self):
        with pytest.raises(RuntimeError, match="parallel task 1 failed"):
            parallel.parallel_map(_boom_task, 3, workers=2)

    def test_unsupported_environment_counts_fallback(self, monkeypatch):
        telemetry = Telemetry()
        monkeypatch.setattr(
            parallel, "_pool_supported", lambda: (False, "no_fork")
        )
        results = parallel.parallel_map(
            _square_task, 4, workers=2, telemetry=telemetry
        )
        assert results == [0, 1, 4, 9]
        fallbacks = {
            record["labels"]["reason"]: record["value"]
            for record in telemetry.metrics.snapshot()
            if record["name"] == "repro_parallel_fallback_total"
        }
        assert fallbacks.get("no_fork") == 1


def _boom_task(index, telemetry):
    if index == 1:
        raise ValueError("boom")
    return index
