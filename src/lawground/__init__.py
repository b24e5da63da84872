"""Language-adaptive weight generation for box+mask grounding, desk scale."""

import ctypes
import os

# single-threaded BLAS: faster on these matrix sizes and trivially
# deterministic. It must be set before numpy loads, so it sits ahead of the
# first import that reaches numpy (.tensor); a process that imported numpy
# before lawground keeps the thread count it started with.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Arrays up to 32 MiB come from glibc's heap, and its free top goes back to
# the kernel only past 1 GiB: a training chunk frees its whole graph when it
# returns, so the top of a worker's heap is free at the end of every step,
# and trimming it made the next step fault its pages back in (about 16,000
# page faults, 63 MiB, per B=2 step at 128x128). Both are set because
# setting either one turns off glibc's own threshold adjustment. Worker
# processes are forked, so they inherit the settings.
# Skipped where the C library has no mallopt.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError):
    pass
else:
    _mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 1 << 30)

from .errors import (
    ConfigError,
    DataError,
    LawgroundError,
    NumericError,
    ShapeError,
    TapeError,
)
from .tensor import Tape, Tensor, grad_check

__all__ = [
    "ConfigError",
    "DataError",
    "LawgroundError",
    "NumericError",
    "ShapeError",
    "TapeError",
    "Tape",
    "Tensor",
    "grad_check",
]

__version__ = "0.1.0"
