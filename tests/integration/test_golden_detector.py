"""Golden regression test on detector scores.

Pins the exact ransomware probability the deployed detector produces for
a fixed set of held-out sequences at every optimisation level.  Any
numerical drift — a changed rounding mode, a reordered accumulation, an
activation-table tweak — shows up here as a hard failure even when the
thresholded accuracy metrics stay identical.

When a change is *intentional*, regenerate the file and commit the diff
alongside the change:

.. code-block:: bash

    PYTHONPATH=src python scripts/refresh_golden_scores.py
"""

import json
import pathlib

import pytest

from repro.core.config import OptimizationLevel
from repro.core.kernels.backends import available_backends
from tests.reference import GOLDEN_SAMPLE_COUNT, golden_detector_scores

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "detector_scores.json"

#: Far below the fixed-point resolution (1e-6) and the sigmoid's output
#: granularity, but tolerant of last-ulp differences between BLAS
#: backends on the float levels.
ATOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def live_scores(trained_model, tiny_split):
    _, test_split = tiny_split
    return golden_detector_scores(trained_model, test_split)


class TestGoldenScores:
    def test_golden_file_covers_every_level(self, golden):
        assert set(golden["scores"]) == {l.name for l in OptimizationLevel}
        for values in golden["scores"].values():
            assert len(values) == GOLDEN_SAMPLE_COUNT
            assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("level", [l.name for l in OptimizationLevel])
    def test_scores_match_golden(self, golden, live_scores, level):
        expected = golden["scores"][level]
        actual = live_scores[level]
        assert len(actual) == len(expected)
        for index, (want, got) in enumerate(zip(expected, actual)):
            assert got == pytest.approx(want, abs=ATOL), (
                f"{level} sequence {index}: golden {want!r} vs live {got!r} "
                "— if this drift is intentional, run "
                "scripts/refresh_golden_scores.py and commit the diff"
            )

    def test_levels_agree_on_verdicts(self, live_scores):
        # The optimisation rungs approximate each other: scores may
        # differ in the low decimals but the thresholded verdicts on the
        # pinned subset must agree between float and fixed-point.
        verdicts = {
            level: [score >= 0.5 for score in scores]
            for level, scores in live_scores.items()
        }
        baseline = verdicts[OptimizationLevel.VANILLA.name]
        for level, decided in verdicts.items():
            assert decided == baseline, f"{level} disagrees with VANILLA"


#: Every backend beyond the one the golden file was
#: generated with; each must reproduce the golden scores bit-exactly.
_EXTRA_BACKENDS = [b for b in available_backends() if b != "reference"]


@pytest.fixture(scope="module", params=_EXTRA_BACKENDS)
def backend_scores(request, trained_model, tiny_split):
    _, test_split = tiny_split
    return request.param, golden_detector_scores(
        trained_model, test_split, backend=request.param
    )


class TestBackendParityMatrix:
    """Backend × optimisation-level golden matrix.

    The ``reference`` backend *is* the pipeline the golden file pins
    (covered by :class:`TestGoldenScores`); every other registered
    backend must hit the same scores at every level, through the full
    deployed detector path.
    """

    @pytest.mark.parametrize("level", [l.name for l in OptimizationLevel])
    def test_backend_matches_golden(self, golden, backend_scores, level):
        backend, scores = backend_scores
        expected = golden["scores"][level]
        actual = scores[level]
        assert len(actual) == len(expected)
        for index, (want, got) in enumerate(zip(expected, actual)):
            assert got == pytest.approx(want, abs=ATOL), (
                f"backend {backend} at {level}, sequence {index}: "
                f"golden {want!r} vs live {got!r}"
            )
