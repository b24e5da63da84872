"""Adam with decoupled weight decay, two step-size groups."""

import numpy as np


class AdamW:
    def __init__(self, groups, weight_decay=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        """groups: list of (params, lr) where params is [(name, Tensor), ...]."""
        self.groups = [(list(params), float(lr)) for params, lr in groups]
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = {}
        self._v = {}
        for params, _ in self.groups:
            for name, p in params:
                self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)

    def step(self, lr_scale=1.0):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for params, lr in self.groups:
            eta = lr * lr_scale
            for name, p in params:
                g = p.grad
                m = self._m[name]
                v = self._v[name]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                p.data -= eta * (update + self.weight_decay * p.data)
