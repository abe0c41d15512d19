"""Fork-based task pool for coarse-grained host parallelism.

:func:`parallel_map` runs whole independent tasks — one leave-k-out
generalization fold each — across forked OS processes and merges the
results deterministically.  Inference itself runs in one process: the
paper's parallelism lives on the drive (four ``kernel_gates`` compute
units and a dataflow pipeline), which the analytic clock model already
accounts for, and on the host a forked inference pool did not beat one
fused-backend process (``docs/performance.md``).

Determinism and exactness
-------------------------
* **Results** come back in index order regardless of completion order;
  tasks are independent, so each is bit-identical to the serial run's.
* **Telemetry** — each forked task runs under a private
  :class:`~repro.telemetry.Telemetry`; the parent folds the metric
  snapshots in **index order** through
  :meth:`~repro.telemetry.metrics.MetricRegistry.merge_snapshot` (the
  exact-merge counter/histogram semantics of the ``repro.telemetry/v1``
  contract), so merged counters and histograms equal the ``workers=1``
  values.
* **Fault tolerance** — a worker killed mid-run is detected by liveness
  polling and its missing tasks run in-process
  (``repro_parallel_retries_total``).
* **Graceful degradation** — without ``fork`` (restricted sandboxes,
  non-POSIX hosts) or when a worker fails to start, every task runs
  in-process (``repro_parallel_fallback_total{reason=...}``); the call
  never raises for environmental reasons.

The pool's metrics (``repro_parallel_*``) are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import queue as queue_module

#: Seconds between liveness checks while waiting on task results.
_POLL_SECONDS = 0.05

#: Seconds to wait for finished workers to exit before terminating them.
_SHUTDOWN_GRACE_SECONDS = 2.0


def _pool_supported() -> tuple:
    """``(supported, reason)`` — can a fork-based pool run here?

    Probed per call, not at import, so restricted environments degrade at
    runtime and tests can monkeypatch the probe.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return False, "no_fork"
    return True, ""


def _task_worker_main(task_fn, indices, result_queue) -> None:
    """Run this worker's pre-assigned task indices and ship the results.

    ``task_fn`` and its closure (datasets, configs) are inherited through
    ``fork`` — nothing is pickled on the way in; only the (plain-data)
    results and telemetry snapshots ride back through the queue.  Each task
    runs under a fresh private Telemetry so the parent can fold the
    snapshots deterministically.
    """
    from repro.telemetry import Telemetry

    for index in indices:
        try:
            telemetry = Telemetry()
            result = task_fn(index, telemetry)
            result_queue.put((index, "ok", result, telemetry.metrics.snapshot()))
        except Exception as exc:  # ship the failure, keep serving
            result_queue.put((index, "error", f"{type(exc).__name__}: {exc}", None))


def parallel_map(task_fn, count: int, workers: int = 1, telemetry=None) -> list:
    """Run ``task_fn(index, telemetry)`` for every index, forked when possible.

    Runs whole independent tasks — e.g. one leave-k-out generalization
    fold each — across forked workers.  Tasks are pre-assigned round-robin
    (worker ``w`` gets indices ``w, w+workers, ...``), results must be
    picklable, and determinism is exact:

    * the returned list is in **index order** regardless of completion
      order (tasks are independent, so each result is bit-identical to the
      serial run's);
    * worker telemetry snapshots fold into ``telemetry`` in index order
      via :meth:`~repro.telemetry.metrics.MetricRegistry.merge_snapshot`,
      so merged counters/histograms equal the ``workers=1`` values;
    * degradation is graceful and counted
      (``repro_parallel_fallback_total{reason=...}``): no ``fork``, a
      start failure, or a worker death mid-run fall back to running the
      affected tasks in-process on the parent's telemetry — construction
      never raises for environmental reasons.

    A task that *raises* (rather than dies) is reported after every other
    task has resolved, as a ``RuntimeError`` naming the lowest failed index.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if count == 0:
        return []

    def count_task(mode: str) -> None:
        if telemetry is not None:
            telemetry.counter("repro_parallel_tasks_total", mode=mode).inc()

    def count_fallback(reason: str) -> None:
        if telemetry is not None:
            telemetry.counter("repro_parallel_fallback_total", reason=reason).inc()

    def run_inprocess(indices, outcomes) -> None:
        for index in indices:
            count_task("inprocess")
            try:
                outcomes[index] = ("ok", task_fn(index, telemetry), None)
            except Exception as exc:  # report after the rest resolve
                outcomes[index] = ("error", f"{type(exc).__name__}: {exc}", None)

    def finish(outcomes) -> list:
        for index, (status, payload, _) in enumerate(outcomes):
            if status == "error":
                raise RuntimeError(f"parallel task {index} failed: {payload}")
        return [payload for _, payload, _ in outcomes]

    outcomes: list = [None] * count
    workers = min(int(workers), count)
    supported, reason = _pool_supported()
    if workers <= 1 or not supported:
        if workers > 1:
            count_fallback(reason)
        run_inprocess(range(count), outcomes)
        return finish(outcomes)

    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.Queue()
    assignments = [list(range(start, count, workers)) for start in range(workers)]
    processes: list = []
    try:
        for start, indices in enumerate(assignments):
            process = ctx.Process(
                target=_task_worker_main,
                args=(task_fn, indices, result_queue),
                daemon=True,
                name=f"repro-task-worker-{start}",
            )
            process.start()
            processes.append(process)
    except OSError:
        for process in processes:
            if process.is_alive():
                process.terminate()
        count_fallback("start_failure")
        run_inprocess(range(count), outcomes)
        return finish(outcomes)

    pending = set(range(count))
    dead_handled: set = set()
    while pending:
        try:
            index, status, payload, snapshot = result_queue.get(
                timeout=_POLL_SECONDS
            )
        except queue_module.Empty:
            for worker_index, process in enumerate(processes):
                if worker_index in dead_handled or process.is_alive():
                    continue
                dead_handled.add(worker_index)
                if telemetry is not None:
                    telemetry.counter("repro_parallel_worker_deaths_total").inc()
                # Drain results the worker flushed before dying, then run
                # only its genuinely missing tasks in-process.
                while True:
                    try:
                        done = result_queue.get_nowait()
                    except queue_module.Empty:
                        break
                    if done[0] in pending:
                        count_task("pool")
                        outcomes[done[0]] = tuple(done[1:])
                        pending.discard(done[0])
                missing = [i for i in assignments[worker_index] if i in pending]
                for i in missing:
                    if telemetry is not None:
                        telemetry.counter("repro_parallel_retries_total").inc()
                    run_inprocess([i], outcomes)
                    pending.discard(i)
            continue
        if index in pending:
            count_task("pool")
            outcomes[index] = (status, payload, snapshot)
            pending.discard(index)

    import time

    deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
    for process in processes:
        process.join(timeout=max(0.01, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.terminate()

    if telemetry is not None:
        for status, _, snapshot in outcomes:
            if status == "ok" and snapshot is not None:
                telemetry.metrics.merge_snapshot(snapshot)
    return finish(outcomes)
