"""Shared fixtures.

Training fixtures are session-scoped and deliberately small: the goal is
exercising every code path, not reproducing the paper's numbers (the
benchmarks do that).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from tests.reference import (
    REFERENCE_SEQUENCE_LENGTH,
    build_reference_dataset,
    build_reference_split,
    train_reference_model,
)

#: Kept as the historical name; the value lives in ``tests.reference``
#: because the golden-score tooling must use the identical recipe.
TEST_SEQUENCE_LENGTH = REFERENCE_SEQUENCE_LENGTH

#: Opt-in soak profile (``--hypothesis-profile=long``).  Tests with their
#: own ``max_examples`` keep it; the generated-schedule parity test in
#: ``tests/core/test_session_schedules.py`` draws this many schedules.
settings.register_profile("long", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but class-balanced synthetic dataset (shared, read-only)."""
    return build_reference_dataset()


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return build_reference_split(tiny_dataset)


@pytest.fixture(scope="session")
def trained_model(tiny_split):
    """A classifier trained well enough to be clearly better than chance.

    Built by :func:`tests.reference.train_reference_model` — the same
    recipe the golden detector scores are pinned against.
    """
    train, test = tiny_split
    return train_reference_model(train, test)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
