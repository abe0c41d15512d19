"""Tests for the sandbox trace synthesiser and dataset construction."""

import collections

import numpy as np
import pytest

from repro.ransomware.api_vocabulary import API_TO_CATEGORY
from repro.ransomware.benign import ALL_BENIGN_PROFILES
from repro.ransomware.dataset import (
    Dataset,
    DEFAULT_STRIDE,
    _distribute,
    build_dataset,
    extract_windows,
    load_csv,
    save_csv,
)
from repro.ransomware.families import CERBER, RYUK, WANNACRY
from repro.ransomware.sandbox import CuckooSandbox, draw_weighted, weighted_cdf


class TestSandbox:
    def test_trace_is_reproducible(self):
        a = CuckooSandbox(seed=3).execute_ransomware(RYUK, 0)
        b = CuckooSandbox(seed=3).execute_ransomware(RYUK, 0)
        assert a.calls == b.calls

    def test_variants_differ(self):
        a = CuckooSandbox(seed=3).execute_ransomware(RYUK, 0)
        b = CuckooSandbox(seed=3).execute_ransomware(RYUK, 1)
        assert a.calls != b.calls

    def test_os_versions_differ(self):
        win10 = CuckooSandbox(os_version="windows10", seed=3).execute_ransomware(RYUK, 0)
        win11 = CuckooSandbox(os_version="windows11", seed=3).execute_ransomware(RYUK, 0)
        assert win10.calls != win11.calls

    def test_rejects_unknown_os(self):
        with pytest.raises(ValueError):
            CuckooSandbox(os_version="windows95")

    def test_rejects_bad_variant_index(self):
        with pytest.raises(ValueError):
            CuckooSandbox().execute_ransomware(RYUK, RYUK.variant_count)

    def test_trace_metadata(self):
        trace = CuckooSandbox().execute_ransomware(CERBER, 2)
        assert trace.source == "Cerber"
        assert trace.variant == 2
        assert trace.is_ransomware

    def test_ransomware_trace_is_crypto_heavy(self):
        trace = CuckooSandbox().execute_ransomware(CERBER, 0)
        categories = collections.Counter(API_TO_CATEGORY[c] for c in trace.calls)
        crypto_fraction = categories["crypto"] / len(trace)
        benign = CuckooSandbox().execute_benign(ALL_BENIGN_PROFILES[0], 0, 2000)
        benign_counter = collections.Counter(API_TO_CATEGORY[c] for c in benign.calls)
        benign_fraction = benign_counter["crypto"] / len(benign)
        assert crypto_fraction > 0.04
        assert crypto_fraction > 3 * benign_fraction

    def test_worm_trace_is_network_heavy(self):
        worm = CuckooSandbox().execute_ransomware(WANNACRY, 0)
        benign_app = CuckooSandbox().execute_benign(ALL_BENIGN_PROFILES[0], 0, 2000)
        def network_fraction(trace):
            counter = collections.Counter(API_TO_CATEGORY[c] for c in trace.calls)
            return counter["network"] / len(trace)
        assert network_fraction(worm) > network_fraction(benign_app)

    def test_benign_trace_reaches_target_length(self):
        trace = CuckooSandbox().execute_benign(ALL_BENIGN_PROFILES[0], 0, target_length=2500)
        assert len(trace) >= 2500
        assert not trace.is_ransomware

    def test_benign_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CuckooSandbox().execute_benign(ALL_BENIGN_PROFILES[0], 0, target_length=0)

    def test_all_calls_in_vocabulary(self):
        trace = CuckooSandbox().execute_ransomware(RYUK, 1)
        for call in trace.calls:
            assert call in API_TO_CATEGORY


class TestWeightedDraw:
    """``draw_weighted`` over ``weighted_cdf(w)`` is
    ``rng.choice(n, p=w / w.sum())``."""

    def test_same_draws_as_choice(self):
        vectors = [
            [1.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [0.0, 3.0, 0.0, 1.0, 0.0],
            [0.5, 0.5],
            [1e-12, 1.0, 1e-12],
            list(range(1, 40)),
        ]
        shapes = np.random.default_rng(99)
        for _ in range(20):
            weights = shapes.random(int(shapes.integers(2, 30)))
            weights[shapes.random(weights.size) < 0.3] = 0.0
            weights[int(shapes.integers(0, weights.size))] += 0.1
            vectors.append(weights)
        for seed in range(25):
            for weights in vectors:
                weights = np.asarray(weights, dtype=np.float64)
                p = weights / weights.sum()
                cdf = weighted_cdf(weights)
                expected_rng = np.random.default_rng(seed)
                rng = np.random.default_rng(seed)
                for _ in range(40):
                    expected = expected_rng.choice(len(p), p=p)
                    got = draw_weighted(rng, cdf)
                    assert got == expected
                    assert p[got] > 0.0
                assert rng.random() == expected_rng.random()


class TestExtractWindows:
    def _trace(self, length=500):
        return CuckooSandbox(seed=1).execute_benign(
            ALL_BENIGN_PROFILES[1], 0, target_length=length
        )

    def test_window_count_and_length(self):
        windows = extract_windows(self._trace(), length=50, count=10)
        assert len(windows) == 10
        assert all(len(w) == 50 for w in windows)

    def test_first_window_starts_at_call_zero(self):
        # "beginning with the first API call made to promote early
        # detection" (Appendix A).
        trace = self._trace()
        from repro.ransomware.api_vocabulary import encode

        windows = extract_windows(trace, length=50, count=3)
        assert windows[0] == encode(trace.calls[:50])

    def test_stride_adapts_to_short_trace(self):
        trace = self._trace(length=200)
        windows = extract_windows(trace, length=100, count=40, max_stride=12)
        assert len(windows) == 40  # stride had to shrink below 12

    def test_single_window(self):
        windows = extract_windows(self._trace(200), length=100, count=1)
        assert len(windows) == 1

    def test_impossible_request_raises(self):
        trace = self._trace(200)
        with pytest.raises(ValueError):
            extract_windows(trace, length=100, count=100000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            extract_windows(self._trace(200), length=0, count=1)


class TestDistribute:
    def test_even(self):
        assert _distribute(10, 5) == [2, 2, 2, 2, 2]

    def test_remainder_spread(self):
        assert _distribute(11, 3) == [4, 4, 3]

    def test_sum_preserved(self):
        assert sum(_distribute(13340, 78)) == 13340

    def test_rejects_impossible(self):
        with pytest.raises(ValueError):
            _distribute(2, 5)


class TestBuildDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset(scale=0.02, sequence_length=50, seed=11)

    def test_class_balance_near_paper(self, dataset):
        # Paper: 46% ransomware.
        assert dataset.ransomware_fraction == pytest.approx(0.46, abs=0.01)

    def test_scaled_counts(self, dataset):
        assert len(dataset) == round(13340 * 0.02) + round(15660 * 0.02)

    def test_all_sources_present(self, dataset):
        sources = set(dataset.sources)
        assert "Ryuk" in sources
        assert any(s.startswith("7-Zip") for s in sources)

    def test_token_range(self, dataset):
        assert dataset.sequences.min() >= 0
        assert dataset.sequences.max() < 278

    def test_reproducible(self):
        a = build_dataset(scale=0.01, sequence_length=30, seed=5)
        b = build_dataset(scale=0.01, sequence_length=30, seed=5)
        np.testing.assert_array_equal(a.sequences, b.sequences)

    def test_seed_changes_shuffle(self):
        a = build_dataset(scale=0.01, sequence_length=30, seed=5)
        b = build_dataset(scale=0.01, sequence_length=30, seed=6)
        assert not np.array_equal(a.sequences, b.sequences)

    def test_split_stratified(self, dataset):
        train, test = dataset.train_test_split(test_fraction=0.25, seed=0)
        assert len(train) + len(test) == len(dataset)
        assert train.ransomware_fraction == pytest.approx(
            test.ransomware_fraction, abs=0.03
        )

    def test_split_by_source_no_leakage(self, dataset):
        train, test = dataset.split_by_source({"Ryuk", "Wannacry"})
        assert set(test.sources) == {"Ryuk", "Wannacry"}
        assert not ({"Ryuk", "Wannacry"} & set(train.sources))

    def test_split_by_source_unknown_raises(self, dataset):
        with pytest.raises(ValueError, match="unknown sources.*NotAFamily"):
            dataset.split_by_source({"NotAFamily"})

    def test_split_by_source_unknown_named_even_with_known(self, dataset):
        # A typo'd name must not silently fall through because a valid
        # one was also supplied.
        with pytest.raises(ValueError, match="NotAFamily"):
            dataset.split_by_source({"Ryuk", "NotAFamily"})

    def test_split_by_source_empty_raises(self, dataset):
        with pytest.raises(ValueError, match="empty"):
            dataset.split_by_source(set())
        with pytest.raises(ValueError, match="empty"):
            dataset.split_by_source([])

    def test_split_by_source_all_sources_raises(self, dataset):
        with pytest.raises(ValueError, match="training side would be empty"):
            dataset.split_by_source(set(dataset.sources))

    def test_split_by_source_single_source_boundary(self, dataset):
        train, test = dataset.split_by_source({"Ryuk"})
        assert set(test.sources) == {"Ryuk"}
        assert len(train) + len(test) == len(dataset)
        assert len(test) > 0

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            build_dataset(scale=0.0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(
                sequences=np.zeros((3, 5), dtype=np.int64),
                labels=np.zeros(2, dtype=np.int64),
                sources=("a", "b", "c"),
            )


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        dataset = build_dataset(scale=0.01, sequence_length=20, seed=2)
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.sequences, dataset.sequences)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)

    def test_csv_has_n_plus_one_columns(self, tmp_path):
        dataset = build_dataset(scale=0.01, sequence_length=20, seed=2)
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        with open(path) as handle:
            first = handle.readline().strip().split(",")
        assert len(first) == 21

    def test_load_rejects_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,7\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    def test_load_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3,1\n1,2,1\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_csv(path)

    def test_load_rejects_non_integer(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,x,3,1\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_csv(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)
