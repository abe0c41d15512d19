"""Shared fixtures and reporting for the benchmark harness.

Every bench regenerates one of the paper's tables/figures (or an ablation
of a design choice) and *prints* the paper-vs-measured rows in the pytest
terminal summary, so ``pytest benchmarks/ --benchmark-only`` produces a
readable reproduction report even with output capture on.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — dataset scale (default 0.1; 1.0 = paper size).
* ``REPRO_BENCH_EPOCHS`` — training epochs for the convergence/metric
  benches (default 25).
* ``REPRO_BENCH_TELEMETRY`` — path; when set, the harness records
  structured telemetry in the ``docs/observability.md`` JSON-lines
  schema: every ``record_report`` block is streamed as a
  ``bench_report`` event, engine-driving benches attach the shared
  session :class:`~repro.telemetry.Telemetry` (``bench_telemetry``
  fixture), and the final metric/span snapshot is appended at session
  end — so benchmark result files are self-describing.
"""

from __future__ import annotations

import os

import pytest

from repro.nn.model import SequenceClassifier
from repro.nn.trainer import Trainer, TrainingConfig
from repro.ransomware.dataset import build_dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "25"))
BENCH_TELEMETRY_PATH = os.environ.get("REPRO_BENCH_TELEMETRY", "")

#: Collected report blocks, printed in the terminal summary.
_REPORT_BLOCKS: list = []

#: The session Telemetry (or None when REPRO_BENCH_TELEMETRY is unset).
_TELEMETRY = None
if BENCH_TELEMETRY_PATH:
    from repro.telemetry import JsonLinesExporter, Telemetry

    _TELEMETRY = Telemetry(exporters=[JsonLinesExporter(BENCH_TELEMETRY_PATH)])


def record_report(title: str, lines) -> None:
    """Queue a titled block of result lines for the final summary."""
    _REPORT_BLOCKS.append((title, list(lines)))
    if _TELEMETRY is not None:
        _TELEMETRY.emit(
            {"type": "bench_report", "title": title,
             "lines": [str(line) for line in lines]}
        )


def pytest_terminal_summary(terminalreporter):
    if _TELEMETRY is not None:
        _TELEMETRY.close()
    if not _REPORT_BLOCKS:
        return
    terminalreporter.section("paper reproduction results")
    for title, lines in _REPORT_BLOCKS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title} ---")
        for line in lines:
            terminalreporter.write_line(str(line))


@pytest.fixture(scope="session")
def bench_telemetry():
    """The session Telemetry, or ``None`` when the knob is unset.

    Benches that build engines attach it so kernel latency histograms
    and span trees land next to the bench_report events.
    """
    return _TELEMETRY


@pytest.fixture(scope="session")
def bench_dataset():
    """The synthetic dataset at benchmark scale."""
    return build_dataset(scale=BENCH_SCALE, seed=1)


@pytest.fixture(scope="session")
def bench_split(bench_dataset):
    return bench_dataset.train_test_split(test_fraction=0.2, seed=0)


@pytest.fixture(scope="session")
def bench_history_and_model(bench_split):
    """One shared training run: Fig. 4's curve plus the deployed model."""
    train, test = bench_split
    model = SequenceClassifier(seed=0)
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=BENCH_EPOCHS, batch_size=64, learning_rate=0.005,
            eval_every=max(1, BENCH_EPOCHS // 10),
            restore_best_weights=True,  # the paper reports peak metrics
        ),
    )
    history = trainer.fit(train.sequences, train.labels, test.sequences, test.labels)
    return history, model


@pytest.fixture(scope="session")
def bench_model(bench_history_and_model):
    return bench_history_and_model[1]


@pytest.fixture(scope="session")
def bench_history(bench_history_and_model):
    return bench_history_and_model[0]
