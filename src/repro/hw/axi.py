"""AXI master interface and burst transfer model.

Kernels reach the FPGA's global memory (DDR) through AXI master ports —
"high-performance, memory-mapped communications between the kernels and
the FPGA's memory resources" (paper Section III-C).  The kernel
implementation was explicitly devised "to support a balance between
parallelization while reducing pressure on AXI Master interfaces", so the
model must capture the thing that creates the pressure: several compute
units sharing a limited number of DDR banks.

A transfer is modelled as a fixed address/latency overhead plus one beat
per ``data_width_bits / 8`` bytes, inflated by a contention factor when
more readers share the port's bank than the bank can serve.
"""

from __future__ import annotations

import dataclasses
import math

#: Cycles from issuing a read address to the first data beat (DDR round trip).
DEFAULT_READ_LATENCY_CYCLES = 150

#: Cycles of overhead to set up a write burst.
DEFAULT_WRITE_LATENCY_CYCLES = 40

#: AXI data width used by Vitis-generated masters on the u200.
DEFAULT_DATA_WIDTH_BITS = 512


class TransferError(RuntimeError):
    """Raised when a fault-injected transfer fails irrecoverably."""


@dataclasses.dataclass
class AxiMasterPort:
    """One AXI master port binding a kernel to a DDR bank.

    Parameters
    ----------
    name:
        Port label (e.g. ``"gates_i/m_axi_gmem0"``).
    data_width_bits:
        Beat width; 512 bits = 64 bytes per beat is the Vitis default.
    read_latency_cycles / write_latency_cycles:
        Fixed per-burst overhead.
    """

    name: str
    data_width_bits: int = DEFAULT_DATA_WIDTH_BITS
    read_latency_cycles: int = DEFAULT_READ_LATENCY_CYCLES
    write_latency_cycles: int = DEFAULT_WRITE_LATENCY_CYCLES

    def __post_init__(self) -> None:
        if self.data_width_bits % 8 != 0 or self.data_width_bits <= 0:
            raise ValueError(
                f"data_width_bits must be a positive multiple of 8, got "
                f"{self.data_width_bits}"
            )
        self.bytes_transferred = 0
        self.transfer_count = 0
        #: Optional :class:`repro.telemetry.Telemetry`; when set, every
        #: transfer is mirrored into the ``repro_axi_*`` metrics (see
        #: docs/observability.md).  ``None`` keeps the port hook-free.
        self.telemetry = None

    @property
    def bytes_per_beat(self) -> int:
        return self.data_width_bits // 8

    def _beats(self, num_bytes: int) -> int:
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be non-negative, got {num_bytes}")
        return math.ceil(num_bytes / self.bytes_per_beat)

    def burst_cycles(self, num_bytes: int, op: str = "read",
                     contention_factor: float = 1.0) -> int:
        """Cycles for one ``num_bytes`` burst, priced without counting it.

        Timing models call this; :meth:`read_cycles`/:meth:`write_cycles`
        (and :meth:`record_transfers`) are the calls that move data.
        ``contention_factor`` >= 1 stretches the data phase when the
        target bank is shared (see :class:`repro.hw.memory.DdrBank`).
        """
        if contention_factor < 1.0:
            raise ValueError(f"contention_factor must be >= 1, got {contention_factor}")
        if num_bytes == 0:
            return 0
        latency = (self.read_latency_cycles if op == "read"
                   else self.write_latency_cycles)
        return latency + math.ceil(self._beats(num_bytes) * contention_factor)

    def record_transfers(self, op: str, num_bytes: int, cycles: int,
                         count: int = 1) -> None:
        """Count ``count`` identical ``num_bytes`` bursts of ``cycles`` each."""
        if num_bytes == 0:
            return
        self.bytes_transferred += count * num_bytes
        self.transfer_count += count
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.counter(
                "repro_axi_bytes_total", port=self.name, op=op
            ).inc(count * num_bytes)
            metrics.counter(
                "repro_axi_transfers_total", port=self.name, op=op
            ).inc(count)
            metrics.histogram(
                "repro_axi_transfer_cycles", port=self.name, op=op
            ).observe(cycles, count=count)

    def read_cycles(self, num_bytes: int, contention_factor: float = 1.0) -> int:
        """Cycles to read ``num_bytes`` as one burst, counting the transfer."""
        total = self.burst_cycles(num_bytes, "read", contention_factor)
        self.record_transfers("read", num_bytes, total)
        return total

    def write_cycles(self, num_bytes: int, contention_factor: float = 1.0) -> int:
        """Cycles to write ``num_bytes`` as one burst, counting the transfer."""
        total = self.burst_cycles(num_bytes, "write", contention_factor)
        self.record_transfers("write", num_bytes, total)
        return total
