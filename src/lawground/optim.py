"""Adam with decoupled weight decay, over flat ranges of parameters."""

import numpy as np

# values updated at a time: keeps the update's temporaries small
BLOCK = 1 << 14


class AdamW:
    def __init__(self, groups, weight_decay=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        """groups: list of (values, grad, lr): a flat range of parameter
        values, updated in place, its gradient and its step size."""
        self.groups = [(float(lr), values, grad, np.zeros_like(values),
                        np.zeros_like(values)) for values, grad, lr in groups]
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, lr_scale=1.0):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for lr, *arrays in self.groups:
            eta = lr * lr_scale
            for i in range(0, arrays[0].size, BLOCK):
                p, g, m, v = (a[i:i + BLOCK] for a in arrays)
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                p -= eta * (update + self.weight_decay * p)
