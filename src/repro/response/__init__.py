"""Verdict-driven response and recovery subsystem (ROADMAP items 2–3).

The paper's argument for storage-resident detection is that the drive
can mitigate "near-instantaneously".  This package closes that loop: it
consumes streaming verdicts (:class:`~repro.core.sessions.SessionManager`
/ :class:`~repro.ransomware.monitor.ProcessMonitor` /
:class:`~repro.core.serving.FleetServer`) and turns them into graduated,
audited storage actions — see ``docs/response.md``.

* :mod:`repro.response.attribution` — bit-exact occlusion attribution:
  which tokens of the firing window triggered the verdict;
* :mod:`repro.response.audit` — tamper-evident hash-chained audit log;
* :mod:`repro.response.policy` — the :class:`ResponsePolicy` state
  machine mapping verdict confidence to the escalation ladder
  (observe → write-block → quarantine-stream → kill → restore), with
  destructive rungs gated behind explicit policy flags.
"""

from __future__ import annotations

from repro.hw.smartssd import IntegrityError, WriteRefused
from repro.response.attribution import (
    TokenAttribution,
    WindowAttribution,
    attribute_window,
)
from repro.response.audit import GENESIS_HASH, AuditLog, AuditRecord, AuditTamperError
from repro.response.policy import (
    ACTION_KILL,
    ACTION_OBSERVE,
    ACTION_QUARANTINE,
    ACTION_RESTORE,
    ACTION_WRITE_BLOCK,
    ESCALATION_LADDER,
    FleetResponder,
    ResponseDecision,
    ResponseEngine,
    ResponsePolicy,
    SmartSsdEnforcer,
)

__all__ = [
    "ACTION_KILL",
    "ACTION_OBSERVE",
    "ACTION_QUARANTINE",
    "ACTION_RESTORE",
    "ACTION_WRITE_BLOCK",
    "ESCALATION_LADDER",
    "GENESIS_HASH",
    "AuditLog",
    "AuditRecord",
    "AuditTamperError",
    "FleetResponder",
    "IntegrityError",
    "ResponseDecision",
    "ResponseEngine",
    "ResponsePolicy",
    "SmartSsdEnforcer",
    "TokenAttribution",
    "WindowAttribution",
    "WriteRefused",
    "attribute_window",
]
