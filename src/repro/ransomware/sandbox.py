"""Cuckoo-like sandbox trace synthesiser.

The paper executed each ransomware variant (and each benign workload) in a
Cuckoo Sandbox on Windows 10 and 11 and recorded "all API calls that were
made, in the order in which they would be observed on a system housing a
CSD" (Appendix A).  We cannot run malware, so :class:`CuckooSandbox`
*synthesises* those traces: it walks a profile's behaviour phases, emitting
weighted filler calls and characteristic motifs, with per-variant jitter so
the 78 variants differ the way real variants of a family do (reordered
phases lengths, shifted motif rates, perturbed category mixes).

A small rate of cross-category noise models the scheduler interleaving
other activity into the observed call stream.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.ransomware.api_vocabulary import API_NAMES, CATEGORY_TOKEN_IDS
from repro.ransomware.benign import BenignProfile
from repro.ransomware.families import FamilyProfile, Phase

#: Supported guest environments (Appendix A uses both).
OS_VERSIONS = ("windows10", "windows11")

#: Probability of an unrelated interleaved call at any position.
BACKGROUND_NOISE_RATE = 0.03

#: Process-startup calls every trace begins with (loader activity).
_STARTUP_CALLS = {
    "windows10": (
        "LdrLoadDll", "LdrGetProcedureAddress", "GetModuleHandleW",
        "GetProcAddress", "NtAllocateVirtualMemory", "GetSystemTimeAsFileTime",
        "GetCurrentProcessId", "QueryPerformanceCounter",
    ),
    "windows11": (
        "LdrLoadDll", "LdrGetProcedureAddress", "LdrLoadDll", "GetModuleHandleW",
        "GetProcAddress", "NtAllocateVirtualMemory", "NtQuerySystemInformation",
        "GetSystemTimeAsFileTime", "GetTickCount64", "QueryPerformanceCounter",
    ),
}


@dataclasses.dataclass(frozen=True)
class ApiTrace:
    """One sandbox execution's ordered API-call record."""

    calls: tuple
    source: str          # family or application name
    variant: int         # variant / run index
    os_version: str
    is_ransomware: bool

    def __len__(self) -> int:
        return len(self.calls)


@dataclasses.dataclass(frozen=True)
class _VariantJitter:
    """Per-variant perturbation of a profile's nominal behaviour."""

    length_scale: float
    motif_shift: float
    weight_noise: dict   # category -> multiplicative factor


def weighted_cdf(weights: np.ndarray) -> np.ndarray:
    """The cumulative table :func:`draw_weighted` draws from.

    It is the table ``rng.choice(n, p=weights / weights.sum())`` builds
    on every call; build it once per weight vector instead.
    """
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_weighted(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One weighted draw: ``rng.choice`` without re-validating ``p``.

    For ``cdf = weighted_cdf(weights)`` it returns the index
    ``rng.choice(n, p=weights / weights.sum())`` would, and leaves the
    generator in the same state: it is the same arithmetic (one uniform,
    a right-sided search of the cumulative table).  ``choice``'s
    validation of ``p`` dominated trace synthesis when repeated per
    emitted call.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


class CuckooSandbox:
    """Synthesises API-call traces from behaviour profiles.

    Parameters
    ----------
    os_version:
        Guest environment, ``"windows10"`` or ``"windows11"``.
    seed:
        Base seed; every (profile, variant) pair derives its own
        deterministic stream, so the full dataset is reproducible.
    """

    def __init__(self, os_version: str = "windows10", seed: int = 0):
        if os_version not in OS_VERSIONS:
            raise ValueError(
                f"unknown os_version {os_version!r}; expected one of {OS_VERSIONS}"
            )
        self.os_version = os_version
        self.seed = seed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute_ransomware(self, family: FamilyProfile, variant_index: int) -> ApiTrace:
        """Run one ransomware variant; returns its full trace."""
        if not 0 <= variant_index < family.variant_count:
            raise ValueError(
                f"{family.name} has {family.variant_count} variants, "
                f"requested index {variant_index}"
            )
        rng = self._rng_for(family.name, variant_index)
        jitter = self._variant_jitter(rng, family.phases)
        calls = list(_STARTUP_CALLS[self.os_version])
        if family.masquerade_length:
            # Benign-identical prelude: the dropper behaves as its host
            # application until the payload fires (Appendix A's
            # near-indistinguishable early sub-sequences).
            from repro.ransomware.benign import startup_phase

            prelude = startup_phase(family.masquerade_length)
            calls.extend(self._emit_phase(rng, prelude, jitter))
        for phase in family.phases:
            calls.extend(self._emit_phase(rng, phase, jitter))
        return ApiTrace(
            calls=tuple(calls),
            source=family.name,
            variant=variant_index,
            os_version=self.os_version,
            is_ransomware=True,
        )

    def execute_benign(
        self, profile: BenignProfile, run_index: int, target_length: int = 3000
    ) -> ApiTrace:
        """Run one benign workload session of roughly ``target_length`` calls."""
        if target_length < 1:
            raise ValueError(f"target_length must be positive, got {target_length}")
        rng = self._rng_for(profile.name, run_index)
        all_phases = (profile.startup,) + profile.work_phases
        jitter = self._variant_jitter(rng, all_phases)
        calls = list(_STARTUP_CALLS[self.os_version])
        calls.extend(self._emit_phase(rng, profile.startup, jitter))
        phase_index = 0
        while len(calls) < target_length:
            phase = profile.work_phases[phase_index % len(profile.work_phases)]
            calls.extend(self._emit_phase(rng, phase, jitter))
            phase_index += 1
        return ApiTrace(
            calls=tuple(calls),
            source=profile.name,
            variant=run_index,
            os_version=self.os_version,
            is_ransomware=False,
        )

    # ------------------------------------------------------------------
    # Emission machinery
    # ------------------------------------------------------------------

    def _rng_for(self, source: str, variant_index: int) -> np.random.Generator:
        # hashlib, not hash(): Python string hashing is salted per process
        # and would make traces irreproducible across runs.
        material = f"{self.seed}/{self.os_version}/{source}/{variant_index}"
        digest = hashlib.sha256(material.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    @staticmethod
    def _variant_jitter(rng: np.random.Generator, phases) -> _VariantJitter:
        categories = set()
        for phase in phases:
            categories.update(phase.category_weights)
        return _VariantJitter(
            length_scale=float(rng.uniform(0.75, 1.3)),
            motif_shift=float(rng.uniform(-0.08, 0.08)),
            # Sorted: set iteration order depends on the per-process hash
            # seed, and the rng draws must not.
            weight_noise={
                category: float(np.exp(rng.normal(0.0, 0.2)))
                for category in sorted(categories)
            },
        )

    def _emit_phase(self, rng: np.random.Generator, phase: Phase, jitter: _VariantJitter) -> list:
        length = max(5, int(round(phase.length * jitter.length_scale)))
        motif_probability = float(
            np.clip(phase.motif_probability + jitter.motif_shift, 0.0, 0.9)
        )
        categories = list(phase.category_weights)
        weights = np.array(
            [
                phase.category_weights[category] * jitter.weight_noise.get(category, 1.0)
                for category in categories
            ]
        )
        cdf = weighted_cdf(weights)

        calls: list = []
        while len(calls) < length:
            if rng.random() < BACKGROUND_NOISE_RATE:
                calls.append(API_NAMES[rng.integers(0, len(API_NAMES))])
                continue
            if phase.motifs and rng.random() < motif_probability:
                motif = phase.motifs[rng.integers(0, len(phase.motifs))]
                calls.extend(motif.calls)
            else:
                category = categories[draw_weighted(rng, cdf)]
                token_ids = CATEGORY_TOKEN_IDS[category]
                calls.append(API_NAMES[token_ids[rng.integers(0, len(token_ids))]])
        return calls
