"""Name the numerical kernels numpy runs on this host.

Usage:  python tools/kernel_fingerprint.py

An md5 pin of a float result holds for the kernels it was recorded with.
Numpy picks its SIMD loops by CPU at import, and OpenBLAS picks its core
at load, so the same code can give other bits on another CPU.  The
fingerprint names both, so a pin that breaks where the fingerprint differs
from `PINS_RECORDED_ON` points at the host before the code:

    numpy 2.4.6 baseline X86_V2 dispatch X86_V3 ...; OpenBLAS 0.3.31.188.0 SkylakeX

Each part reads "unknown" when its lookup fails, for instance for a numpy
that bundles no scipy-openblas.  `tests/` puts `pin_note()` in the failure
message of every md5 pin, and `tools/check_references.py` prints it.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

# the fingerprint of the host the md5 pins in tests/ and
# tools/check_references.py were recorded on
PINS_RECORDED_ON = (
    "numpy 2.4.6 baseline X86_V2 dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR; "
    "OpenBLAS 0.3.31.188.0 SkylakeX"
)


def _lookup(get) -> str:
    try:
        return get() or "unknown"
    # a missing module, library or symbol, no or two libraries, an odd string
    except (ImportError, AttributeError, OSError, ValueError, IndexError):
        return "unknown"


def _simd(which: str) -> str:
    """numpy's SIMD targets: the compiled-in baseline, or the dispatched ones this CPU runs."""
    from numpy._core import _multiarray_umath as umath

    if which == "baseline":
        return " ".join(umath.__cpu_baseline__)
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def _openblas(symbol: str) -> str:
    """A string from the scipy-openblas library bundled in numpy.libs."""
    (lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")
    func = getattr(ctypes.CDLL(str(lib)), symbol)
    func.argtypes, func.restype = [], ctypes.c_char_p
    return func().decode()


def fingerprint() -> str:
    """numpy's version and SIMD targets, and OpenBLAS's version and core."""
    baseline = _lookup(lambda: _simd("baseline"))
    dispatch = _lookup(lambda: _simd("dispatch"))
    version = _lookup(lambda: _openblas("scipy_openblas_get_config64_").split()[1])
    core = _lookup(lambda: _openblas("scipy_openblas_get_corename64_"))
    return (
        f"numpy {np.__version__} baseline {baseline} dispatch {dispatch}; "
        f"OpenBLAS {version} {core}"
    )


def pin_note() -> str:
    """This host's fingerprint beside the one the md5 pins were recorded on."""
    return f"kernels here: {fingerprint()}; pins recorded on: {PINS_RECORDED_ON}"


if __name__ == "__main__":
    print(pin_note())
