"""The five-kernel decomposition of the LSTM forward pass (Fig. 2).

:mod:`repro.core.kernels.backends` layers two execution backends on
top, chosen only by ``EngineConfig.backend``: the per-kernel NumPy
pipeline is the ``reference`` backend (the bit-exactness oracle), and
the ``fused`` backend collapses each tick into one precompiled step over
persistent state.
"""

from repro.core.kernels.backends import (
    FusedOverflow,
    FusedUnavailable,
    KernelBackend,
    available_backends,
    resolve_backend,
)
from repro.core.kernels.base import Kernel, KernelTiming
from repro.core.kernels.gates import GATE_ACTIVATIONS, GatesKernel
from repro.core.kernels.hidden_state import HiddenStateKernel
from repro.core.kernels.preprocess import PreprocessKernel

__all__ = [
    "FusedOverflow",
    "FusedUnavailable",
    "GATE_ACTIVATIONS",
    "GatesKernel",
    "HiddenStateKernel",
    "Kernel",
    "KernelBackend",
    "KernelTiming",
    "PreprocessKernel",
    "available_backends",
    "resolve_backend",
]
