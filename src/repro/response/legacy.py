"""The retired mitigation surface, reimplemented on the response subsystem.

The original single-drive mitigation engine grew into
:mod:`repro.response`: the quarantine-on-confirmed-verdict behaviour is
now one rung of the graduated escalation ladder, and every quarantine
leaves a hash-chained audit trail.  This module keeps the old classes
with their exact historical semantics:

* :class:`ProtectedStorage` — per-process write admission in front of an
  :class:`~repro.hw.ssd.NvmeSsd` (the modern equivalent is the
  per-stream ``allow``/``cow``/``block`` modes on
  :class:`~repro.hw.smartssd.SmartSSD`);
* :class:`MitigationEngine` — a quarantine-only
  :class:`~repro.response.policy.ResponsePolicy` driven through a
  :class:`~repro.response.policy.ResponseEngine`, preserving the
  original ``handle_verdict``/``events``/``summary`` contract bit for
  bit;
* :class:`QuarantineEvent` / :data:`WriteBlocked` — the old record and
  exception types (``WriteBlocked`` is now an alias of
  :class:`~repro.hw.smartssd.WriteRefused`).

New code should use :class:`~repro.response.policy.ResponseEngine`
directly.
"""

from __future__ import annotations

import dataclasses

from repro.hw.smartssd import WriteRefused
from repro.hw.ssd import NvmeSsd
from repro.response.audit import AuditLog
from repro.response.policy import (
    ACTION_QUARANTINE,
    ResponseEngine,
    ResponsePolicy,
)

#: Legacy alias — the exception :meth:`ProtectedStorage.write` raises.
WriteBlocked = WriteRefused


@dataclasses.dataclass(frozen=True)
class QuarantineEvent:
    """Record of a process being quarantined."""

    process_id: int
    window_index: int
    probability: float


class ProtectedStorage:
    """Per-process write admission in front of an NVMe SSD model.

    Parameters
    ----------
    ssd:
        The underlying drive.
    """

    def __init__(self, ssd: NvmeSsd):
        self.ssd = ssd
        self._quarantined: set = set()
        self.blocked_writes = 0
        self.blocked_bytes = 0
        self.allowed_writes = 0

    @property
    def quarantined_processes(self) -> frozenset:
        return frozenset(self._quarantined)

    def quarantine(self, process_id: int) -> None:
        """Refuse all further writes from ``process_id``."""
        self._quarantined.add(process_id)

    def release(self, process_id: int) -> None:
        """Lift a quarantine (operator action after triage)."""
        self._quarantined.discard(process_id)

    def write(self, process_id: int, key: str, num_bytes: int) -> float:
        """Admit or refuse one write; returns the simulated write seconds.

        Raises
        ------
        WriteBlocked
            If the process is quarantined.  The write never reaches the
            drive — this is the "immediately thwart any subsequent
            encryption" behaviour.
        """
        if process_id in self._quarantined:
            self.blocked_writes += 1
            self.blocked_bytes += num_bytes
            raise WriteBlocked(
                f"process {process_id} is quarantined; write of {num_bytes} "
                f"bytes to {key!r} refused"
            )
        self.allowed_writes += 1
        return self.ssd.write_object(key, num_bytes)


class _QuarantineOnlyEnforcer:
    """Bridges the escalation ladder onto :class:`ProtectedStorage`."""

    def __init__(self, storage: ProtectedStorage):
        self.storage = storage

    def quarantine(self, process_id) -> None:
        self.storage.quarantine(process_id)


class MitigationEngine:
    """Turns detector verdicts into storage quarantine.

    Parameters
    ----------
    storage:
        The protected storage front end.
    quarantine_threshold:
        Verdict probability required to count toward quarantine; defaults
        to acting on any positive verdict (the detector already
        thresholds).
    confirmations:
        Number of *consecutive* qualifying verdicts required before the
        process is quarantined.  1 (the default) quarantines on the first
        alarm; higher values trade a few windows of reaction time for
        robustness against isolated borderline windows — ransomware's
        encryption phase produces long runs of positives, benign blips do
        not.
    audit:
        Optional :class:`~repro.response.audit.AuditLog` to chain
        transitions into (a fresh one by default; the historical surface
        did not expose this).
    """

    def __init__(
        self,
        storage: ProtectedStorage,
        quarantine_threshold: float = 0.0,
        confirmations: int = 1,
        audit: AuditLog | None = None,
    ):
        if not 0.0 <= quarantine_threshold < 1.0:
            raise ValueError(
                f"quarantine_threshold must be in [0, 1), got {quarantine_threshold}"
            )
        if confirmations < 1:
            raise ValueError(f"confirmations must be >= 1, got {confirmations}")
        self.storage = storage
        self.quarantine_threshold = quarantine_threshold
        self.confirmations = confirmations
        self.events: list = []
        self.responder = ResponseEngine(
            policy=ResponsePolicy(
                observe_threshold=quarantine_threshold,
                write_block_threshold=None,
                quarantine_threshold=quarantine_threshold,
                kill_threshold=None,
                confirmations=confirmations,
                attribute=False,
            ),
            enforcer=_QuarantineOnlyEnforcer(storage),
            audit=audit,
        )

    @property
    def audit(self) -> AuditLog:
        """The hash-chained audit log behind this engine (new surface)."""
        return self.responder.audit

    def handle_verdict(self, process_id: int, verdict) -> bool:
        """Apply one verdict; returns True if the process is quarantined.

        Negative (or below-threshold) verdicts reset the process's
        confirmation streak.
        """
        qualifying = (
            verdict.is_ransomware
            and verdict.probability >= self.quarantine_threshold
        )
        decision = self.responder.on_verdict(process_id, verdict)
        if decision.escalated and decision.action == ACTION_QUARANTINE:
            self.events.append(
                QuarantineEvent(
                    process_id=process_id,
                    window_index=verdict.window_index,
                    probability=verdict.probability,
                )
            )
        if not qualifying:
            return process_id in self.storage.quarantined_processes
        return self.responder.streak_of(process_id) >= self.confirmations

    def summary(self) -> dict:
        """Mitigation statistics for reporting."""
        return {
            "quarantined_processes": len(self.storage.quarantined_processes),
            "quarantine_events": len(self.events),
            "blocked_writes": self.storage.blocked_writes,
            "blocked_bytes": self.storage.blocked_bytes,
            "allowed_writes": self.storage.allowed_writes,
        }
