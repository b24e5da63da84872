"""Named parameter store with per-name seeded initialization.

Each parameter draws from its own RNG stream seeded by hash(global seed,
name). Adding or removing parameters (ablation arms) therefore never shifts
the initial values of the ones that remain.
"""

import hashlib

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


def seeded_rng(seed, name):
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


class ParamStore:
    def __init__(self, seed=0):
        self.seed = int(seed)
        self._params = {}  # name -> Tensor, insertion-ordered

    def _register(self, name, tensor):
        if name in self._params:
            raise ShapeError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def gaussian(self, name, shape, std=0.02):
        rng = seeded_rng(self.seed, name)
        return self._register(name, Tensor(rng.normal(0.0, std, shape),
                                           requires_grad=True))

    def zeros(self, name, shape):
        return self._register(name, Tensor(np.zeros(shape), requires_grad=True))

    def tensor(self, name, values):
        """Register a parameter with explicit (deterministic) init values."""
        return self._register(name, Tensor(np.array(values, dtype=np.float64),
                                           requires_grad=True))

    def ones(self, name, shape):
        return self._register(name, Tensor(np.ones(shape), requires_grad=True))

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def __getitem__(self, name):
        return self._params[name]

    def load_state_arrays(self, arrays):
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise ShapeError(
                f"parameter set mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, param in self._params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != param.data.shape:
                raise ShapeError(
                    f"shape mismatch for {name!r}: checkpoint {arr.shape}, "
                    f"model {param.data.shape}")
            param.data[...] = arr
