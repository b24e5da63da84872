"""Language-adaptive weight generation for box+mask grounding, desk scale."""

import ctypes
import os

# single-threaded BLAS: faster on these matrix sizes and trivially
# deterministic. It must be set before numpy loads, so it sits ahead of the
# first import that reaches numpy (.tensor); a process that imported numpy
# before lawground keeps the thread count it started with.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# one glibc malloc arena for every thread: evaluation's worker threads would
# otherwise each allocate from an arena of their own, which cannot reuse the
# memory training freed into the main one, and peak RSS would grow by their
# working sets. Skipped where the C library has no mallopt.
_M_ARENA_MAX = -8
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError):
    pass
else:
    _mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_ARENA_MAX, 1)

from .errors import (
    ConfigError,
    DataError,
    LawgroundError,
    NumericError,
    ShapeError,
    TapeError,
)
from .tensor import Tape, Tensor, backward, grad_check

__all__ = [
    "ConfigError",
    "DataError",
    "LawgroundError",
    "NumericError",
    "ShapeError",
    "TapeError",
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
]

__version__ = "0.1.0"
