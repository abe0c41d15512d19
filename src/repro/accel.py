"""The compile ladder shared by the generated C kernels.

Both fused backends — the session/inference tick in
``core/kernels/backends.py`` and the BPTT step pair in ``nn/kernels.py`` —
render a small C source for their model shape and hand it to
:func:`load_library`, which finds the system compiler, walks the flag
ladder, loads the shared object with ``ctypes`` and caches it for the
process lifetime, keyed by the rendered source.  A ``None`` result means
no compiled tier could be built on this host; the caller runs its
vectorised NumPy rung and counts ``no_compiler``.

Every rung of the ladder pins ``-ffp-contract=off``: the kernels are
chains of IEEE ``+ - * /``, ``floor``/``fabs``/``copysign``, and a
contracted multiply-add would round once where the NumPy path rounds
twice.  ``-fno-math-errno -fno-trapping-math`` only drop errno stores and
FP-status ordering, which none of those operations touch.
``-march=native`` is tried first and dropped if the compiler rejects it.
Each backend still runs its own bit-exactness self-check on the loaded
code before trusting it.
"""

from __future__ import annotations

import ctypes
import shutil
import tempfile

#: The tier name backends report as ``accel_tier`` when a library loaded.
TIER = "cc"

_EXACT = ("-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")

#: Compiler flag rungs, most aggressive first.
_FLAG_LADDER = (
    ("-O3", "-march=native", *_EXACT),
    ("-O3", *_EXACT),
    ("-O2", "-ffp-contract=off"),
)

#: Rendered source -> loaded library, or ``None`` for a failed build
#: (compiling is ~100 ms and many engines share one model shape).
_LIBRARIES: dict = {}


def find_compiler() -> str | None:
    """Path of the system C compiler, or ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def load_library(source: str) -> ctypes.CDLL | None:
    """Compile ``source`` into a shared object and load it, or ``None``.

    The build runs in a temporary directory that is removed once the
    library is loaded (the loaded mapping outlives the file).  Any
    failure — no compiler, a compile error on every rung, a load error —
    returns ``None``, and the result is cached either way.
    """
    if source not in _LIBRARIES:
        compiler = find_compiler()
        _LIBRARIES[source] = (
            None if compiler is None else _compile(compiler, source)
        )
    return _LIBRARIES[source]


def _compile(compiler: str, source: str) -> ctypes.CDLL | None:
    import subprocess  # only builds pay for it (~0.7 MB resident)

    try:
        with tempfile.TemporaryDirectory(prefix="repro-accel-") as build_dir:
            source_path = f"{build_dir}/kernel.c"
            library_path = f"{build_dir}/kernel.so"
            with open(source_path, "w") as handle:
                handle.write(source)
            base = ["-fPIC", "-shared", "-o", library_path, source_path, "-lm"]
            for flags in _FLAG_LADDER:
                result = subprocess.run(
                    [compiler, *flags, *base], capture_output=True, timeout=120
                )
                if result.returncode == 0:
                    return ctypes.CDLL(library_path)
    except (OSError, subprocess.SubprocessError):
        pass
    return None
