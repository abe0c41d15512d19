"""Model dimensions, optimisation levels, and engine configuration.

The paper's experimental setup (Section IV) fixes the model: embedding
dimension 8, hidden size 32, vocabulary 278 (so the embedding table holds
2,224 parameters and the LSTM 5,248), sequence length 100, and a
single-unit fully-connected head.  The optimisation rungs of Fig. 3 are an
ordered enum: each level includes everything below it.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.fixedpoint.qformat import PAPER_QFORMAT, QFormat
from repro.hw.clock import DEFAULT_KERNEL_CLOCK_HZ
from repro.hw.fpga import ALVEO_U200, FpgaPart


class OptimizationLevel(enum.IntEnum):
    """The paper's cumulative optimisation rungs (Fig. 3, x-axis).

    * ``VANILLA`` — kernel parallelisation only (Section III-C): four
      gates CUs, per-CU buffer copies, preemptive preprocessing.
    * ``II_OPTIMIZED`` — adds ``PIPELINE II=1``, ``UNROLL``, and complete
      ``ARRAY_PARTITION`` (Section III-D, "Initiation Interval").
    * ``FIXED_POINT`` — additionally moves all arithmetic to
      scale-10^6 integers on DSP slices (Section III-D).
    """

    VANILLA = 0
    II_OPTIMIZED = 1
    FIXED_POINT = 2

    @property
    def uses_ii_pragmas(self) -> bool:
        return self >= OptimizationLevel.II_OPTIMIZED

    @property
    def uses_fixed_point(self) -> bool:
        return self >= OptimizationLevel.FIXED_POINT


@dataclasses.dataclass(frozen=True)
class ModelDimensions:
    """Shapes of the deployed model.

    Defaults reproduce the paper's 7,472-parameter configuration.
    """

    vocab_size: int = 278
    embedding_dim: int = 8
    hidden_size: int = 32
    sequence_length: int = 100

    def __post_init__(self) -> None:
        for field_name in ("vocab_size", "embedding_dim", "hidden_size", "sequence_length"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @property
    def gate_input_size(self) -> int:
        """Width of the concatenated ``[h_{t-1}, x_t]`` gate input."""
        return self.hidden_size + self.embedding_dim

    @property
    def embedding_parameters(self) -> int:
        return self.vocab_size * self.embedding_dim

    @property
    def lstm_parameters(self) -> int:
        return 4 * (self.hidden_size * self.gate_input_size + self.hidden_size)

    @property
    def head_parameters(self) -> int:
        return self.hidden_size + 1

    @property
    def total_parameters(self) -> int:
        return self.embedding_parameters + self.lstm_parameters + self.head_parameters


#: The four gate kernels, in the paper's Fig. 2 order.
GATE_NAMES = ("i", "f", "o", "c")

#: The default kernel backend of :class:`EngineConfig`.
DEFAULT_BACKEND = "reference"


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Everything needed to instantiate a CSD inference engine.

    Parameters
    ----------
    dimensions:
        Model shapes (defaults to the paper's).
    optimization:
        Which Fig. 3 rung to build.
    num_gate_cus:
        Parallel ``kernel_gates`` compute units; the paper uses 4 (one per
        gate).  Values 1/2/4 are meaningful: with fewer CUs than gates the
        gate computations serialise onto the available CUs.
    preemptive_preprocess:
        Overlap the next item's embedding lookup with the current item's
        gate/hidden computation (Section III-C).  On by default; the
        pipeline ablation turns it off.
    ddr_banks:
        Global-memory banks to link against ("a conservative two").
    fpga_part:
        Target silicon; the Alveo u200 as in the paper's evaluation.
    kernel_clock_hz:
        Kernel clock; 300 MHz matches the paper's numbers.
    qformat:
        Fixed-point format used when ``optimization`` is ``FIXED_POINT``.
    backend:
        Kernel backend for the inference/session hot path (see
        :mod:`repro.core.kernels.backends`).  ``"reference"`` (the
        default) runs the per-kernel NumPy pipeline exactly as shipped;
        ``"fused"`` collapses each tick into one precompiled step over
        persistent state, bit-exact with ``reference`` at every
        optimisation level.  The engine is the only place a backend is
        chosen: its session managers and fleet devices all step on
        ``engine.step_backend``.  Validated lazily at first use (the
        backends live above this module in the import graph), never here.
    """

    dimensions: ModelDimensions = dataclasses.field(default_factory=ModelDimensions)
    optimization: OptimizationLevel = OptimizationLevel.FIXED_POINT
    num_gate_cus: int = 4
    preemptive_preprocess: bool = True
    ddr_banks: int = 2
    fpga_part: FpgaPart = ALVEO_U200
    kernel_clock_hz: float = DEFAULT_KERNEL_CLOCK_HZ
    qformat: QFormat = PAPER_QFORMAT
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.num_gate_cus not in (1, 2, 4):
            raise ValueError(
                f"num_gate_cus must be 1, 2, or 4 (gates per CU must divide "
                f"evenly), got {self.num_gate_cus}"
            )
        if self.ddr_banks < 1:
            raise ValueError(f"ddr_banks must be >= 1, got {self.ddr_banks}")

    @property
    def gates_per_cu(self) -> int:
        """How many of the four gate computations each CU serialises."""
        return len(GATE_NAMES) // self.num_gate_cus
