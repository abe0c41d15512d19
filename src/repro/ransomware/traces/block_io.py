"""Synthetic block-I/O trace generation (IBM block-storage study's signal).

A drive cannot hook Windows APIs; what it *can* see is the block stream:
logical block addresses, transfer sizes, the read/write mix, and — with
inline entropy estimation, as several CSD designs propose — a payload
entropy proxy per write.  Ransomware has a famous signature at this
level: read an extent, write the same extent back at near-maximal
entropy, discard (trim) originals, hop to the next file.  Benign traffic
that *shares* parts of the signature (encrypted backups write
high-entropy data too, but append to a fresh target region instead of
overwriting in place) supplies the hard negatives.

:class:`BlockIoSynthesizer` mirrors
:class:`~repro.ransomware.sandbox.CuckooSandbox`: it walks the *same*
behaviour profiles from :mod:`repro.ransomware.families` /
:mod:`repro.ransomware.benign`, but renders each phase as block-level
activity instead of API calls.  The mapping from phase to I/O behaviour
is a pure function of the phase's name, category weights, and motif
rate — never of the ransomware/benign label — so the per-family
structure (and the deliberate benign overlap, e.g. the shared
``encryption`` phase of backup tools) carries over to this modality.
Traces are deterministic per ``(seed, source, variant)`` via the same
hashed-stream construction the sandbox uses.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.ransomware.benign import BenignProfile
from repro.ransomware.families import FamilyProfile, Phase
from repro.ransomware.sandbox import draw_weighted, weighted_cdf

#: One logical block is 4 KiB; LBAs index these blocks.
BLOCK_BYTES = 4096

#: Modeled disk size in blocks (1 TiB at 4 KiB/block).
DISK_BLOCKS = 1 << 28

#: Probability of an unrelated interleaved request (other tenants of the
#: drive), mirroring the sandbox's scheduler-noise rate.
BACKGROUND_NOISE_RATE = 0.03

#: Block-I/O operations.
OPS = ("read", "write", "trim", "flush")


@dataclasses.dataclass(frozen=True)
class BlockIoEvent:
    """One block-layer request.

    ``entropy`` is the inline payload-entropy proxy in ``[0, 1]``
    (normalised bytes-of-Shannon-entropy per byte); reads, trims, and
    flushes carry 0.0 by convention.
    """

    op: str
    lba: int
    blocks: int
    entropy: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {OPS}")
        if not 0 <= self.lba < DISK_BLOCKS:
            raise ValueError(f"lba {self.lba} outside the {DISK_BLOCKS}-block disk")
        if self.blocks < 1 and self.op != "flush":
            raise ValueError(f"{self.op}: blocks must be positive")
        if not 0.0 <= self.entropy <= 1.0:
            raise ValueError(f"entropy {self.entropy} outside [0, 1]")


@dataclasses.dataclass(frozen=True)
class BlockIoTrace:
    """One execution's ordered block-request record."""

    events: tuple
    source: str
    variant: int
    is_ransomware: bool

    def __len__(self) -> int:
        return len(self.events)


@dataclasses.dataclass(frozen=True)
class _DiskLayout:
    """Per-variant disk geometry: where metadata/data/target live."""

    metadata_base: int
    data_base: int
    target_base: int
    extent_blocks: int      # nominal file-extent size


@dataclasses.dataclass(frozen=True)
class _VariantJitter:
    """Per-variant perturbation, mirroring the sandbox's."""

    length_scale: float
    loop_shift: float            # shifts the per-extent loop rate
    mix_noise: dict              # emission kind -> multiplicative factor


#: Emission kinds a phase's I/O segment mixes over.
_KINDS = (
    "meta_read",        # small metadata/registry-backing reads
    "meta_write",       # small low-entropy metadata writes
    "data_read",        # medium sequential reads within an extent
    "stream_read",      # long sequential reads (playback, exfiltration)
    "encrypt_extent",   # read extent -> overwrite in place at high entropy -> trim
    "pack_extent",      # read extent -> append high-entropy copy to target region
    "log_append",       # small sequential low-entropy writes
    "trim_burst",       # large trims + flush (shadow-copy deletion)
    "flush",            # lone flush barrier
)

#: Phase-name → emission mix.  Derived from what the named behaviour does
#: to storage; phases absent here fall back to a category-weight rule.
_PHASE_MIXES = {
    # Encrypting work: the headline pattern.  Note that benign profiles
    # reuse the *same* phase name ("encryption") for AES archive/backup
    # passes, so those benign windows stay indistinguishable by design.
    "encryption": {"encrypt_extent": 6.0, "meta_read": 1.5, "data_read": 1.0},
    "infect_and_encrypt": {"encrypt_extent": 5.0, "data_read": 2.0, "meta_write": 1.0},
    # Directory walks: metadata-read storms.
    "enumeration": {"meta_read": 6.0, "data_read": 1.0},
    "threaded_enumeration": {"meta_read": 5.0, "data_read": 2.0},
    "targeted_enumeration": {"meta_read": 6.0, "data_read": 1.5},
    # Shadow-copy / backup destruction: trims.
    "shadow_deletion": {"trim_burst": 5.0, "meta_read": 2.0, "flush": 1.0},
    # Notes and screen furniture: small writes.
    "ransom_note": {"log_append": 5.0, "meta_write": 2.0, "meta_read": 1.0},
    "spoken_note": {"log_append": 4.0, "meta_read": 2.0},
    "screen_lock": {"meta_read": 3.0, "log_append": 1.0},
    # Exfiltration: bulk reads.
    "exfiltration": {"stream_read": 6.0, "meta_read": 2.0},
    # Benign work phases.
    "backup_pass": {"pack_extent": 5.0, "meta_read": 2.0, "data_read": 1.5},
    "archive_job": {"pack_extent": 4.5, "meta_read": 2.0, "data_read": 1.5},
    "sync": {"pack_extent": 2.0, "stream_read": 3.0, "meta_read": 2.0},
    "playback": {"stream_read": 6.0, "meta_read": 1.0},
    "browsing": {"log_append": 2.5, "meta_read": 2.5, "stream_read": 1.5},
    "document_work": {"meta_read": 2.5, "data_read": 2.0, "log_append": 2.0},
    "vault_session": {"meta_read": 3.0, "data_read": 1.5, "meta_write": 1.0},
    "utility_work": {"meta_read": 4.0, "meta_write": 1.5, "log_append": 1.0},
    "ui_session": {"meta_read": 2.0, "log_append": 1.0},
    "desktop_misc": {"meta_read": 3.0, "log_append": 1.5, "data_read": 1.0},
}

#: Network-dominated phases touch storage barely at all; scale their
#: event budget down instead of inventing disk traffic.
_LOW_IO_CATEGORIES = ("network", "process", "memory", "synchronization", "service")


def _segment_mix(phase: Phase) -> tuple:
    """``(mix, length_scale)`` for one behaviour phase.

    A pure function of the phase's contents, shared by every profile
    (ransomware and benign) so the modality inherits the API dataset's
    hard-negative construction instead of leaking the label.
    """
    mix = _PHASE_MIXES.get(phase.name)
    if mix is not None:
        return dict(mix), 1.0
    weights = phase.category_weights
    total = sum(weights.values())
    file_share = weights.get("file", 0.0) / total
    crypto_share = weights.get("crypto", 0.0) / total
    low_io_share = sum(weights.get(c, 0.0) for c in _LOW_IO_CATEGORIES) / total
    mix = {
        "meta_read": 3.0 + 2.0 * (1.0 - file_share),
        "meta_write": 1.0,
        "log_append": 0.5 + low_io_share,
        "data_read": 0.5 + 4.0 * file_share,
    }
    if crypto_share > 0.15 and file_share > 0.2:
        mix["encrypt_extent"] = 8.0 * crypto_share
    # Phases that live on the network/process side produce sparse I/O.
    length_scale = 1.0 - 0.6 * low_io_share
    return mix, length_scale


class BlockIoSynthesizer:
    """Renders behaviour profiles as deterministic block-I/O traces.

    Parameters
    ----------
    seed:
        Base seed; every ``(source, variant)`` pair derives its own
        stream, so traces are reproducible independent of call order.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    # ------------------------------------------------------------------
    # Public API (mirrors CuckooSandbox)
    # ------------------------------------------------------------------

    def synthesize_ransomware(
        self, family: FamilyProfile, variant_index: int
    ) -> BlockIoTrace:
        """Render one ransomware variant's full block-I/O trace."""
        if not 0 <= variant_index < family.variant_count:
            raise ValueError(
                f"{family.name} has {family.variant_count} variants, "
                f"requested index {variant_index}"
            )
        rng = self._rng_for(family.name, variant_index)
        layout = self._layout(rng)
        jitter = self._jitter(rng)
        state = _EmitState(layout)
        events: list = []
        if family.masquerade_length:
            # The dropper's benign-identical prelude, rendered at this
            # level too: ordinary metadata traffic before the payload.
            from repro.ransomware.benign import startup_phase

            self._emit_phase(
                rng, startup_phase(family.masquerade_length), jitter, state, events
            )
        for phase in family.phases:
            self._emit_phase(rng, phase, jitter, state, events)
        return BlockIoTrace(
            events=tuple(events),
            source=family.name,
            variant=variant_index,
            is_ransomware=True,
        )

    def synthesize_benign(
        self, profile: BenignProfile, run_index: int, target_length: int = 3000
    ) -> BlockIoTrace:
        """Render one benign session of roughly ``target_length`` events."""
        if target_length < 1:
            raise ValueError(f"target_length must be positive, got {target_length}")
        rng = self._rng_for(profile.name, run_index)
        layout = self._layout(rng)
        jitter = self._jitter(rng)
        state = _EmitState(layout)
        events: list = []
        self._emit_phase(rng, profile.startup, jitter, state, events)
        phase_index = 0
        while len(events) < target_length:
            phase = profile.work_phases[phase_index % len(profile.work_phases)]
            self._emit_phase(rng, phase, jitter, state, events)
            phase_index += 1
        return BlockIoTrace(
            events=tuple(events),
            source=profile.name,
            variant=run_index,
            is_ransomware=False,
        )

    # ------------------------------------------------------------------
    # Emission machinery
    # ------------------------------------------------------------------

    def _rng_for(self, source: str, variant_index: int) -> np.random.Generator:
        material = f"{self.seed}/block_io/{source}/{variant_index}"
        digest = hashlib.sha256(material.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    @staticmethod
    def _layout(rng: np.random.Generator) -> _DiskLayout:
        quarter = DISK_BLOCKS // 4
        return _DiskLayout(
            metadata_base=int(rng.integers(0, quarter // 2)),
            data_base=int(quarter + rng.integers(0, quarter)),
            target_base=int(3 * quarter + rng.integers(0, quarter // 2)),
            extent_blocks=int(rng.integers(48, 320)),
        )

    @staticmethod
    def _jitter(rng: np.random.Generator) -> _VariantJitter:
        return _VariantJitter(
            length_scale=float(rng.uniform(0.75, 1.3)),
            loop_shift=float(rng.uniform(-0.08, 0.08)),
            mix_noise={
                kind: float(np.exp(rng.normal(0.0, 0.2))) for kind in _KINDS
            },
        )

    def _emit_phase(self, rng, phase: Phase, jitter: _VariantJitter,
                    state: "_EmitState", events: list) -> None:
        mix, io_scale = _segment_mix(phase)
        length = max(5, int(round(phase.length * io_scale * jitter.length_scale)))
        kinds = sorted(mix)
        weights = np.array([mix[k] * jitter.mix_noise.get(k, 1.0) for k in kinds])
        cdf = weighted_cdf(weights)
        emitted = 0
        while emitted < length:
            if rng.random() < BACKGROUND_NOISE_RATE:
                burst = state.noise(rng)
            else:
                kind = kinds[draw_weighted(rng, cdf)]
                burst = getattr(state, kind)(rng)
            events.extend(burst)
            emitted += len(burst)


class _EmitState:
    """Mutable cursor over the modeled disk while one trace renders."""

    def __init__(self, layout: _DiskLayout):
        self.layout = layout
        self.meta_cursor = layout.metadata_base
        self.data_cursor = layout.data_base
        self.target_cursor = layout.target_base

    # Every emitter returns a short list of events (a "burst"); the
    # synthesiser counts events, not bursts, so phase lengths stay
    # comparable to the API modality's call counts.

    def _extent(self, rng) -> tuple:
        """Pick the next file extent to operate on: ``(lba, blocks)``."""
        hop = int(rng.integers(1, 64)) * self.layout.extent_blocks
        self.data_cursor = (
            self.layout.data_base
            + (self.data_cursor - self.layout.data_base + hop) % (DISK_BLOCKS // 4)
        )
        blocks = max(8, int(self.layout.extent_blocks * rng.uniform(0.5, 1.5)))
        return self.data_cursor, blocks

    def meta_read(self, rng) -> list:
        self.meta_cursor = self.layout.metadata_base + int(
            rng.integers(0, DISK_BLOCKS // 64)
        )
        return [BlockIoEvent("read", self.meta_cursor, int(rng.integers(1, 9)))]

    def meta_write(self, rng) -> list:
        return [
            BlockIoEvent(
                "write",
                self.meta_cursor + int(rng.integers(0, 16)),
                int(rng.integers(1, 5)),
                entropy=float(rng.uniform(0.05, 0.45)),
            )
        ]

    def data_read(self, rng) -> list:
        lba, blocks = self._extent(rng)
        chunk = max(1, blocks // int(rng.integers(1, 4)))
        return [BlockIoEvent("read", lba, chunk)]

    def stream_read(self, rng) -> list:
        lba, blocks = self._extent(rng)
        chunks = int(rng.integers(2, 6))
        step = max(1, blocks // chunks)
        return [
            BlockIoEvent("read", lba + i * step, step) for i in range(chunks)
        ]

    def encrypt_extent(self, rng) -> list:
        """The ransomware loop: read, overwrite in place hot, trim tail."""
        lba, blocks = self._extent(rng)
        half = max(1, blocks // 2)
        burst = [
            BlockIoEvent("read", lba, half),
            BlockIoEvent("read", lba + half, blocks - half),
            BlockIoEvent("write", lba, half, entropy=float(rng.uniform(0.92, 1.0))),
            BlockIoEvent("write", lba + half, blocks - half,
                         entropy=float(rng.uniform(0.92, 1.0))),
        ]
        if rng.random() < 0.5:
            burst.append(BlockIoEvent("trim", lba, blocks))
        if rng.random() < 0.2:
            burst.append(BlockIoEvent("flush", lba, 1))
        return burst

    def pack_extent(self, rng) -> list:
        """The benign hard negative: read source, append hot to target."""
        lba, blocks = self._extent(rng)
        self.target_cursor += blocks
        if self.target_cursor >= DISK_BLOCKS:
            self.target_cursor = self.layout.target_base
        return [
            BlockIoEvent("read", lba, blocks),
            BlockIoEvent("write", self.target_cursor, blocks,
                         entropy=float(rng.uniform(0.85, 1.0))),
        ]

    def log_append(self, rng) -> list:
        self.target_cursor += 1
        if self.target_cursor >= DISK_BLOCKS:
            self.target_cursor = self.layout.target_base
        return [
            BlockIoEvent("write", self.target_cursor, int(rng.integers(1, 3)),
                         entropy=float(rng.uniform(0.2, 0.6)))
        ]

    def trim_burst(self, rng) -> list:
        lba, blocks = self._extent(rng)
        return [
            BlockIoEvent("trim", lba, blocks * int(rng.integers(2, 9))),
            BlockIoEvent("flush", lba, 1),
        ]

    def flush(self, rng) -> list:
        return [BlockIoEvent("flush", self.data_cursor, 1)]

    def noise(self, rng) -> list:
        """Another tenant's request interleaved by the drive scheduler."""
        lba = int(rng.integers(0, DISK_BLOCKS))
        if rng.random() < 0.5:
            return [BlockIoEvent("read", lba, int(rng.integers(1, 17)))]
        return [
            BlockIoEvent("write", lba, int(rng.integers(1, 17)),
                         entropy=float(rng.uniform(0.0, 1.0)))
        ]
