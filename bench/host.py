"""Host facts: CPU count, library versions and the effective BLAS threads.

The effective OpenBLAS thread count is read from the loaded library itself
(its get-num-threads symbol via ctypes), not from the environment, because a
pin set after numpy is imported has no effect.
"""

import ctypes
import os
import platform

import numpy
import scipy

# numpy bundles a 64-bit-integer OpenBLAS, scipy a 32-bit one; both load
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _loaded_openblas():
    """Paths of OpenBLAS builds mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = [line.split()[-1] for line in fh if "openblas" in line]
    except OSError:
        return []
    return list(dict.fromkeys(paths))


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def blas_libraries():
    """[{path, threads, config}] for each loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append({"path": os.path.basename(path),
                    "threads": threads() if threads else None,
                    "config": config().decode() if config else None})
    return out


def facts():
    libs = blas_libraries()
    threads = [lib["threads"] for lib in libs if lib["threads"] is not None]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [lib["config"] for lib in libs],
        "blas_threads": max(threads) if threads else None,
        "blas_pin_env": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }
