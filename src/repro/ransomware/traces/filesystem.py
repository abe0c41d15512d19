"""Synthetic filesystem-event trace generation (SHIELD's signal source).

SHIELD (arXiv 2501.16619) detects ransomware from deep filesystem
features rather than API hooks: which operations hit which file classes,
rename/extension churn, deletion bursts.  This module renders the
repository's shared behaviour profiles as that event stream: every
event is ``(operation, extension-class[, rename-target class])``.

The telltale structure at this level is *extension churn*: ransomware
opens a user document, reads it, writes it back, and renames it to the
family's ransom extension (``crypt``), then moves on — thousands of
``doc → crypt`` renames.  Benign bulk jobs produce overlapping-but-
different churn: an atomic-replace backup writes ``tmp`` files and
renames them *back* to the original extension, an archiver appends
``arc`` containers without touching the originals.  As with the other
modalities, the phase → event mapping is a pure function of the phase's
contents, so the benign hard negatives carry over by construction.

Determinism matches :class:`~repro.ransomware.sandbox.CuckooSandbox`:
one ``(seed, source, variant)`` triple, one byte-identical trace.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.ransomware.benign import BenignProfile
from repro.ransomware.families import FamilyProfile, Phase
from repro.ransomware.sandbox import draw_weighted, weighted_cdf

#: File-extension classes (coarse, the way a filesystem filter would bin
#: them): user documents, images, media, databases, executables/system,
#: configuration, temporaries/archives, and the ransom extension.
EXTENSIONS = ("doc", "img", "media", "db", "exe", "cfg", "tmp", "crypt")

#: Filesystem operations observed by the event tap.
FS_OPS = ("open", "create", "read", "write", "rename", "delete", "close", "stat")

#: User-content extensions a bulk file pass walks over.
_USER_EXTS = ("doc", "img", "media", "db")

#: Probability of an unrelated interleaved event (other processes).
BACKGROUND_NOISE_RATE = 0.03


@dataclasses.dataclass(frozen=True)
class FsEvent:
    """One filesystem event.

    ``new_ext`` is only set for ``rename`` and records the extension
    class the file was renamed *to* — the churn signal.
    """

    op: str
    ext: str
    new_ext: str | None = None

    def __post_init__(self) -> None:
        if self.op not in FS_OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {FS_OPS}")
        if self.ext not in EXTENSIONS:
            raise ValueError(f"unknown extension class {self.ext!r}")
        if (self.new_ext is not None) != (self.op == "rename"):
            raise ValueError("new_ext is set exactly for rename events")
        if self.new_ext is not None and self.new_ext not in EXTENSIONS:
            raise ValueError(f"unknown rename target class {self.new_ext!r}")


@dataclasses.dataclass(frozen=True)
class FsEventTrace:
    """One execution's ordered filesystem-event record."""

    events: tuple
    source: str
    variant: int
    is_ransomware: bool

    def __len__(self) -> int:
        return len(self.events)


@dataclasses.dataclass(frozen=True)
class _VariantJitter:
    length_scale: float
    mix_noise: dict


#: Burst kinds a phase mixes over.
_KINDS = (
    "config_probe",      # stat/open/read/close of cfg files (startup, recon)
    "walk",              # stat storms over user extensions (enumeration)
    "doc_session",       # open/read/write/close of one document, no churn
    "encrypt_file",      # open/read/write/rename(ext -> crypt)[/delete]
    "replace_file",      # benign atomic replace: create tmp, write, rename tmp -> ext
    "archive_file",      # read user file, append to tmp container, originals untouched
    "note_drop",         # create doc, write, close (ransom notes, exports)
    "delete_burst",      # delete db/tmp files (shadow/backup destruction)
    "media_stream",      # long read runs on media files
    "temp_churn",        # browser-ish tmp create/write/delete cycles
)

_PHASE_MIXES = {
    "encryption": {"encrypt_file": 6.0, "walk": 1.5, "doc_session": 0.5},
    "infect_and_encrypt": {"encrypt_file": 4.0, "replace_file": 1.5, "walk": 1.0},
    "enumeration": {"walk": 6.0, "config_probe": 1.0},
    "threaded_enumeration": {"walk": 5.0, "doc_session": 1.0},
    "targeted_enumeration": {"walk": 6.0, "config_probe": 1.0},
    "shadow_deletion": {"delete_burst": 5.0, "walk": 1.5},
    "ransom_note": {"note_drop": 5.0, "config_probe": 1.0},
    "spoken_note": {"note_drop": 4.0, "config_probe": 1.5},
    "exfiltration": {"doc_session": 3.0, "walk": 2.0, "media_stream": 1.0},
    "backup_pass": {"replace_file": 4.0, "walk": 2.0, "doc_session": 1.0},
    "archive_job": {"archive_file": 4.5, "walk": 2.0},
    "sync": {"archive_file": 2.0, "walk": 2.5, "doc_session": 1.5},
    "playback": {"media_stream": 6.0, "config_probe": 1.0},
    "browsing": {"temp_churn": 4.0, "config_probe": 1.5},
    "document_work": {"doc_session": 4.0, "config_probe": 1.0},
    "vault_session": {"doc_session": 2.0, "config_probe": 2.0},
    "utility_work": {"config_probe": 3.0, "doc_session": 1.5, "walk": 1.0},
    "ui_session": {"config_probe": 2.0, "temp_churn": 0.5},
    "desktop_misc": {"config_probe": 2.0, "doc_session": 1.5, "temp_churn": 1.0},
}

_LOW_IO_CATEGORIES = ("network", "process", "memory", "synchronization", "service")


def _segment_mix(phase: Phase) -> tuple:
    """``(mix, length_scale)`` — same contract as the block-I/O mapper."""
    mix = _PHASE_MIXES.get(phase.name)
    if mix is not None:
        return dict(mix), 1.0
    weights = phase.category_weights
    total = sum(weights.values())
    file_share = weights.get("file", 0.0) / total
    crypto_share = weights.get("crypto", 0.0) / total
    low_io_share = sum(weights.get(c, 0.0) for c in _LOW_IO_CATEGORIES) / total
    mix = {
        "config_probe": 3.0,
        "walk": 0.5 + 3.0 * file_share,
        "doc_session": 0.5 + 2.0 * file_share,
        "temp_churn": 0.5 + low_io_share,
    }
    if crypto_share > 0.15 and file_share > 0.2:
        mix["encrypt_file"] = 8.0 * crypto_share
    return mix, 1.0 - 0.6 * low_io_share


class FsEventSynthesizer:
    """Renders behaviour profiles as deterministic filesystem-event traces."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def synthesize_ransomware(
        self, family: FamilyProfile, variant_index: int
    ) -> FsEventTrace:
        """Render one ransomware variant's full filesystem trace."""
        if not 0 <= variant_index < family.variant_count:
            raise ValueError(
                f"{family.name} has {family.variant_count} variants, "
                f"requested index {variant_index}"
            )
        rng = self._rng_for(family.name, variant_index)
        jitter = self._jitter(rng)
        events: list = []
        if family.masquerade_length:
            from repro.ransomware.benign import startup_phase

            self._emit_phase(
                rng, startup_phase(family.masquerade_length), jitter, events
            )
        for phase in family.phases:
            self._emit_phase(rng, phase, jitter, events)
        return FsEventTrace(
            events=tuple(events),
            source=family.name,
            variant=variant_index,
            is_ransomware=True,
        )

    def synthesize_benign(
        self, profile: BenignProfile, run_index: int, target_length: int = 3000
    ) -> FsEventTrace:
        """Render one benign session of roughly ``target_length`` events."""
        if target_length < 1:
            raise ValueError(f"target_length must be positive, got {target_length}")
        rng = self._rng_for(profile.name, run_index)
        jitter = self._jitter(rng)
        events: list = []
        self._emit_phase(rng, profile.startup, jitter, events)
        phase_index = 0
        while len(events) < target_length:
            phase = profile.work_phases[phase_index % len(profile.work_phases)]
            self._emit_phase(rng, phase, jitter, events)
            phase_index += 1
        return FsEventTrace(
            events=tuple(events),
            source=profile.name,
            variant=run_index,
            is_ransomware=False,
        )

    # ------------------------------------------------------------------

    def _rng_for(self, source: str, variant_index: int) -> np.random.Generator:
        material = f"{self.seed}/filesystem/{source}/{variant_index}"
        digest = hashlib.sha256(material.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    @staticmethod
    def _jitter(rng: np.random.Generator) -> _VariantJitter:
        return _VariantJitter(
            length_scale=float(rng.uniform(0.75, 1.3)),
            mix_noise={
                kind: float(np.exp(rng.normal(0.0, 0.2))) for kind in _KINDS
            },
        )

    def _emit_phase(self, rng, phase: Phase, jitter: _VariantJitter,
                    events: list) -> None:
        mix, io_scale = _segment_mix(phase)
        length = max(5, int(round(phase.length * io_scale * jitter.length_scale)))
        kinds = sorted(mix)
        weights = np.array([mix[k] * jitter.mix_noise.get(k, 1.0) for k in kinds])
        cdf = weighted_cdf(weights)
        emitted = 0
        while emitted < length:
            if rng.random() < BACKGROUND_NOISE_RATE:
                burst = _noise(rng)
            else:
                kind = kinds[draw_weighted(rng, cdf)]
                burst = _EMITTERS[kind](rng)
            events.extend(burst)
            emitted += len(burst)


def _user_ext(rng) -> str:
    return _USER_EXTS[int(rng.integers(0, len(_USER_EXTS)))]


def _config_probe(rng) -> list:
    events = [FsEvent("stat", "cfg"), FsEvent("open", "cfg")]
    events.extend(FsEvent("read", "cfg") for _ in range(int(rng.integers(1, 4))))
    events.append(FsEvent("close", "cfg"))
    return events


def _walk(rng) -> list:
    return [FsEvent("stat", _user_ext(rng)) for _ in range(int(rng.integers(2, 7)))]


def _doc_session(rng) -> list:
    ext = _user_ext(rng)
    events = [FsEvent("open", ext)]
    events.extend(FsEvent("read", ext) for _ in range(int(rng.integers(1, 4))))
    if rng.random() < 0.5:
        events.append(FsEvent("write", ext))
    events.append(FsEvent("close", ext))
    return events


def _encrypt_file(rng) -> list:
    """The ransomware burst: rewrite a user file, churn it to ``crypt``."""
    ext = _user_ext(rng)
    events = [
        FsEvent("open", ext),
        FsEvent("read", ext),
        FsEvent("write", ext),
        FsEvent("rename", ext, new_ext="crypt"),
        FsEvent("close", "crypt"),
    ]
    if rng.random() < 0.3:
        events.append(FsEvent("delete", ext))
    return events


def _replace_file(rng) -> list:
    """The benign hard negative: atomic-replace rewrite, churn back."""
    ext = _user_ext(rng)
    return [
        FsEvent("open", ext),
        FsEvent("read", ext),
        FsEvent("create", "tmp"),
        FsEvent("write", "tmp"),
        FsEvent("rename", "tmp", new_ext=ext),
        FsEvent("close", ext),
    ]


def _archive_file(rng) -> list:
    ext = _user_ext(rng)
    return [
        FsEvent("open", ext),
        FsEvent("read", ext),
        FsEvent("write", "tmp"),
        FsEvent("close", ext),
    ]


def _note_drop(rng) -> list:
    return [FsEvent("create", "doc"), FsEvent("write", "doc"), FsEvent("close", "doc")]


def _delete_burst(rng) -> list:
    ext = "db" if rng.random() < 0.6 else "tmp"
    return [FsEvent("delete", ext) for _ in range(int(rng.integers(2, 6)))]


def _media_stream(rng) -> list:
    events = [FsEvent("open", "media")]
    events.extend(FsEvent("read", "media") for _ in range(int(rng.integers(3, 8))))
    return events


def _temp_churn(rng) -> list:
    return [
        FsEvent("create", "tmp"),
        FsEvent("write", "tmp"),
        FsEvent("delete", "tmp"),
    ]


def _noise(rng) -> list:
    op = FS_OPS[int(rng.integers(0, len(FS_OPS)))]
    ext = EXTENSIONS[int(rng.integers(0, len(EXTENSIONS)))]
    if op == "rename":
        return [FsEvent("rename", ext,
                        new_ext=EXTENSIONS[int(rng.integers(0, len(EXTENSIONS)))])]
    return [FsEvent(op, ext)]


_EMITTERS = {
    "config_probe": _config_probe,
    "walk": _walk,
    "doc_session": _doc_session,
    "encrypt_file": _encrypt_file,
    "replace_file": _replace_file,
    "archive_file": _archive_file,
    "note_drop": _note_drop,
    "delete_burst": _delete_burst,
    "media_stream": _media_stream,
    "temp_churn": _temp_churn,
}
