"""Process monitoring on the streaming session subsystem.

:class:`ProcessMonitor` is the ransomware-layer face of
:class:`~repro.core.sessions.SessionManager`: it speaks the detector's
vocabulary (API-call *names*, :class:`~repro.ransomware.detector.Verdict`
objects, per-process lifecycle) while the manager underneath carries the
incremental LSTM state and does the cross-process batched stepping.

Compared to one :class:`~repro.ransomware.detector.RansomwareDetector`
per process (the pre-sessions design), this:

* replaces the O(window) ``infer_sequence`` recompute burst at every
  stride with one smooth incremental step per call — bit-exact with the
  recompute at every :class:`~repro.core.config.OptimizationLevel`;
* batches all processes observed in a tick through one stacked gate
  matmul instead of one kernel invocation per process;
* bounds memory: idle or excess processes are evicted (checkpointed, so
  a process that wakes up resumes exactly where it left off), and exited
  processes can be :meth:`close`\\ d — the fix for the unbounded
  per-process detector growth.
"""

from __future__ import annotations

from repro.core.sessions import SessionConfig, SessionManager
from repro.ransomware.api_vocabulary import to_token_id
from repro.ransomware.detector import Verdict


class ProcessMonitor:
    """Per-process streaming detection over a shared :class:`SessionManager`.

    Parameters
    ----------
    engine:
        A loaded :class:`~repro.core.engine.CSDInferenceEngine`.
    threshold / stride:
        Detector semantics, identical to :class:`RansomwareDetector`.
    memory_budget_bytes / max_resident / idle_after_steps / early_exit:
        Session-layer policy, passed through to :class:`SessionConfig`.
    """

    def __init__(self, engine, threshold: float = 0.5, stride: int = 1,
                 memory_budget_bytes: int | None = None,
                 max_resident: int | None = None,
                 idle_after_steps: int | None = None,
                 early_exit: bool = False):
        self.sessions = SessionManager(
            engine,
            SessionConfig(
                threshold=threshold,
                stride=stride,
                memory_budget_bytes=memory_budget_bytes,
                max_resident_sessions=max_resident,
                idle_after_steps=idle_after_steps,
                early_exit=early_exit,
            ),
        )
        self.engine = engine
        self._vocabulary_size = engine.config.dimensions.vocab_size

    @staticmethod
    def _verdict(session_verdict) -> Verdict:
        return Verdict(
            window_index=session_verdict.window_index,
            probability=session_verdict.probability,
            is_ransomware=session_verdict.is_ransomware,
            inference_microseconds=session_verdict.inference_microseconds,
        )

    def observe(self, process_id, call) -> Verdict | None:
        """Feed one API call (name or token id) from one process.

        A bad call raises ``ValueError`` and leaves the process's window
        untouched (see :func:`~repro.ransomware.api_vocabulary.to_token_id`).
        """
        session_verdict = self.sessions.observe(
            process_id, to_token_id(call, self._vocabulary_size)
        )
        if session_verdict is None:
            return None
        return self._verdict(session_verdict)

    def observe_tick(self, calls) -> dict:
        """Feed one call from *each* of many processes, batched.

        ``calls`` maps process id → API call (name or token id); all the
        streams advance through one stacked gate matmul.  Returns process
        id → :class:`Verdict` for every window completed this tick.
        """
        tokens = {
            pid: to_token_id(call, self._vocabulary_size)
            for pid, call in calls.items()
        }
        return {
            session_verdict.session: self._verdict(session_verdict)
            for session_verdict in self.sessions.step(tokens)
        }

    def close(self, process_id) -> None:
        """Forget a process entirely (it exited); frees its state."""
        self.sessions.close(process_id)

    @property
    def monitored_processes(self) -> tuple:
        """Process ids with live state, resident or checkpointed."""
        return self.sessions.known_keys()

    def stats(self) -> dict:
        """Session-layer operational counters (see ``docs/streaming.md``)."""
        return self.sessions.stats()
