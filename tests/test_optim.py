import numpy as np
import pytest

from lawground import optim
from lawground.optim import AdamW
from lawground.tensor import Tensor
from lawground.workers import SharedParameters

# sizes off the 8-value padding and on either side of a 7-value block
SHAPES = {"a": [(3, 5), (7,), (1,), (2, 3, 4)], "b": [(9, 9), (8,), (2,)]}
WEIGHT_DECAY = 0.01


class PerParameterAdamW:
    """The update the flat AdamW must reproduce bit for bit: the same
    arithmetic, one parameter at a time, with moments per parameter name."""

    def __init__(self, groups, weight_decay, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        self.groups = [(list(params), float(lr)) for params, lr in groups]
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m, self._v = {}, {}
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


def named_groups(seed):
    rng = np.random.default_rng(seed)
    return [[(f"{group}.{k}", Tensor(rng.normal(size=shape),
                                     requires_grad=True))
             for k, shape in enumerate(shapes)]
            for group, shapes in SHAPES.items()]


@pytest.mark.parametrize("block", [7, 1 << 14])
def test_flat_update_is_bitwise_the_per_parameter_update(monkeypatch, block):
    monkeypatch.setattr(optim, "BLOCK", block)
    groups, ref_groups = named_groups(0), named_groups(0)
    shared = SharedParameters(groups, 1)
    assert shared.params == [p for group in groups for _, p in group]
    lrs = (1e-3, 3e-2)
    opt = AdamW([(values, grad, lr)
                 for (values, grad), lr in zip(shared.groups, lrs)],
                weight_decay=WEIGHT_DECAY)
    ref = PerParameterAdamW(list(zip(ref_groups, lrs)), WEIGHT_DECAY)
    rng = np.random.default_rng(1)
    for lr_scale in (1.0, 1.0, 0.1):
        for group, ref_group in zip(groups, ref_groups):
            for (_, p), (_, q) in zip(group, ref_group):
                q.grad = rng.normal(size=p.data.shape)
                p.grad[...] = q.grad
        opt.step(lr_scale)
        ref.step(lr_scale)
    moments = [np.concatenate([g[k] for g in opt.groups]) for k in (3, 4)]
    views = [shared._views(flat) for flat in moments]
    named = [pair for group in zip(groups, ref_groups)
             for pair in zip(*group)]
    for k, ((name, p), (_, q)) in enumerate(named):
        assert p.data.tobytes() == q.data.tobytes(), name
        assert views[0][k].tobytes() == ref._m[name].tobytes(), name
        assert views[1][k].tobytes() == ref._v[name].tobytes(), name
    # the padding between parameters has a zero gradient, so its values and
    # moments stay exactly zero
    padding = np.ones(shared.gradient.size, bool)
    for p, offset in zip(shared.params, shared._offsets):
        padding[offset:offset + p.data.size] = False
    assert padding.sum() == sum(-p.data.size % 8 for p in shared.params)
    values = np.concatenate([values for values, _ in shared.groups])
    for flat in (values, shared.gradient, *moments):
        assert flat[padding].tobytes() == bytes(8 * padding.sum())
