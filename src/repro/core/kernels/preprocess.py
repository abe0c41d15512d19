"""``kernel_preprocess`` — embedding generation (paper Section III-B).

Functionally: for each item of the sequence, produce its embedding by the
one-hot × (M × O) matrix product — i.e. a row lookup of the flattened
embedding buffer the kernel was initialised with — and make one copy of
the embedding per ``kernel_gates`` compute unit "such that each CU has its
own copies" (Section III-C).

Timing structure:

* a DDR row fetch through the kernel's AXI master (one burst, dominated
  by read latency — this is why the kernel's Fig. 3 bar "remained fairly
  fixed" across optimisation levels: there is nothing to pipeline in a
  single burst);
* a copy loop of ``O × num_cus`` element writes, which the II pragmas
  shave slightly (unroll 4 over pure wiring has no adder-tree penalty).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels.base import Kernel, KernelTiming
from repro.core.weights import HostWeights, QuantizedHostWeights
from repro.hw.axi import AxiMasterPort
from repro.hw.hls import HlsLoop, II_OPTIMIZED_PRAGMAS, LoopNest, PragmaSet, VANILLA_PRAGMAS


class PreprocessKernel(Kernel):
    """Embedding lookup + per-CU fan-out."""

    name = "kernel_preprocess"

    def __init__(self, config: EngineConfig):
        super().__init__(config)
        self.axi = AxiMasterPort(name=f"{self.name}/m_axi_gmem0")
        self._embedding_float: np.ndarray | None = None
        self._embedding_fixed: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Function
    # ------------------------------------------------------------------

    def load_embeddings(self, weights: HostWeights, quantized: QuantizedHostWeights | None) -> None:
        """Initialise the kernel's 1-D embedding buffer (host step).

        The paper initialises the kernel "with a 1-dimensional buffer
        consisting of the flattened embedding vector"; we retain the 2-D
        view for clarity but the contract is the same.
        """
        self._embedding_float = weights.embedding
        if self.config.optimization.uses_fixed_point:
            if quantized is None:
                raise ValueError("fixed-point mode requires quantised weights")
            self._embedding_fixed = quantized.embedding

    def run(self, token_id: int) -> list:
        """Embed one item and fan it out to the gate CUs.

        Returns a list of ``num_gate_cus`` *independent copies* of the
        embedding vector (float64 or int64 depending on the engine mode).
        """
        table = (
            self._embedding_fixed
            if self.config.optimization.uses_fixed_point
            else self._embedding_float
        )
        if table is None:
            raise RuntimeError("load_embeddings must be called before run")
        if not 0 <= token_id < table.shape[0]:
            raise ValueError(
                f"token id {token_id} out of range [0, {table.shape[0]})"
            )
        embedding = table[token_id]
        return [embedding.copy() for _ in range(self.config.num_gate_cus)]

    def run_batch(self, token_ids: np.ndarray) -> np.ndarray:
        """Embed a whole batch of sequences in one gather.

        ``token_ids`` may have any shape (typically ``(N, T)``); the result
        appends the embedding dimension: ``token_ids.shape + (E,)``.  The
        batch path needs no per-CU fan-out — the four gate affines collapse
        into one stacked matmul, so a single embedding view serves them all.
        Values are identical to :meth:`run`'s per-token lookups.
        """
        table = (
            self._embedding_fixed
            if self.config.optimization.uses_fixed_point
            else self._embedding_float
        )
        if table is None:
            raise RuntimeError("load_embeddings must be called before run_batch")
        tokens = np.asarray(token_ids, dtype=np.int64)
        if tokens.size:
            out_of_range = (tokens < 0) | (tokens >= table.shape[0])
            if np.any(out_of_range):
                bad = int(tokens[out_of_range].ravel()[0])
                raise ValueError(
                    f"token id {bad} out of range [0, {table.shape[0]})"
                )
        return table[tokens]

    def account_fetches(self, count: int) -> None:
        """Record the AXI reads of ``count`` sequences' embedding fetches.

        One embedding-row burst per sequence, priced as in
        :meth:`timing`; the engine calls this once per inference call
        with the whole batch, so the port counters read the same as
        ``count`` sequential calls.  Timing queries never count a fetch.
        """
        num_bytes = self._fetch_bytes()
        self.axi.record_transfers(
            "read", num_bytes, self.axi.burst_cycles(num_bytes), count=count
        )

    def _fetch_bytes(self) -> int:
        bytes_per_value = 8 if self.config.optimization.uses_fixed_point else 4
        return self.config.dimensions.embedding_dim * bytes_per_value

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def timing(self) -> KernelTiming:
        dims = self.config.dimensions
        fetch_cycles = self.axi.burst_cycles(self._fetch_bytes())

        if self.config.optimization.uses_ii_pragmas:
            copy_pragmas = PragmaSet(pipeline=True, target_ii=1, unroll=4, array_partition=True)
        else:
            copy_pragmas = VANILLA_PRAGMAS
        copy_loop = HlsLoop(
            name="embedding_copy",
            trip_count=dims.embedding_dim * self.config.num_gate_cus,
            iteration_depth=4,
            pragmas=copy_pragmas,
            unroll_depth_penalty=0,  # pure data movement: no arithmetic tree
        )
        nest = LoopNest(name=self.name, loops=(copy_loop,))
        latency = nest.latency_cycles + fetch_cycles
        return KernelTiming(
            kernel=self.name,
            fill_latency_cycles=latency,
            steady_ii_cycles=latency,
        )
