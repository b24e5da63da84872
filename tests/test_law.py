import math

import numpy as np

from lawground.law import (
    DecompositionParams,
    aggregate,
    generate_all,
    generate_weights,
    reduce,
    build_law_params,
)
from lawground.params import ParamStore
from lawground.tensor import Tape, Tensor, grad_check
from lawground.vit import VisualBackbone

RNG = np.random.default_rng(7)


def erf_gelu(x):
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def brute_aggregate(feats, embed, groups):
    """Independent per-group oracle: plain-float dot products and softmax."""
    n_tok, d_l = feats.shape
    gsize = d_l // groups
    alpha = np.zeros((groups, n_tok))
    pooled = np.zeros(d_l)
    for g in range(groups):
        e_g = embed[g * gsize:(g + 1) * gsize]
        logits = []
        for j in range(n_tok):
            f_gj = feats[j, g * gsize:(g + 1) * gsize]
            logits.append(sum(float(a) * float(b) for a, b in zip(e_g, f_gj)))
        m = max(logits)
        weights = [math.exp(v - m) for v in logits]
        z = sum(weights)
        for j in range(n_tok):
            alpha[g, j] = weights[j] / z
            pooled[g * gsize:(g + 1) * gsize] += alpha[g, j] * feats[j, g * gsize:(g + 1) * gsize]
    return pooled, alpha


def test_aggregate_singleton_mask():
    # a one-token sequence: all attention on it, pooled feature is that token
    feats = Tensor(RNG.normal(size=(1, 8)))
    embed = Tensor(RNG.normal(size=8))
    pooled, alpha = aggregate(feats, embed, groups=2)
    np.testing.assert_allclose(alpha.data, [[1.0], [1.0]], atol=0)
    np.testing.assert_allclose(pooled.data, feats.data[0], atol=0)


def test_aggregate_zero_embedding_is_mean():
    feats = Tensor(RNG.normal(size=(3, 8)))
    pooled, alpha = aggregate(feats, Tensor(np.zeros(8)), groups=4)
    np.testing.assert_allclose(alpha.data, np.full((4, 3), 1 / 3), atol=1e-15)
    np.testing.assert_allclose(pooled.data, feats.data.mean(axis=0), atol=1e-15)


def test_aggregate_matches_brute_force():
    for n_tok in RNG.integers(1, 8, size=5):
        feats = RNG.normal(size=(int(n_tok), 12))
        embed = RNG.normal(size=12)
        pooled, alpha = aggregate(Tensor(feats), Tensor(embed), groups=3)
        want_pooled, want_alpha = brute_aggregate(feats, embed, 3)
        np.testing.assert_allclose(alpha.data, want_alpha, atol=1e-12)
        np.testing.assert_allclose(pooled.data, want_pooled, atol=1e-12)


def test_aggregate_alpha_normalization_and_exact_zeros():
    feats = RNG.normal(size=(6, 8), scale=3.0)
    embed = RNG.normal(size=8)
    _, alpha = aggregate(Tensor(feats), Tensor(embed), groups=2)
    np.testing.assert_allclose(alpha.data.sum(axis=1), [1.0, 1.0], atol=1e-9)
    # a token whose logits trail the best by far more than exp's range
    # (-745) gets exactly zero attention in every group
    feats[4] = -1e3 * np.sign(embed)
    _, alpha = aggregate(Tensor(feats), Tensor(embed), groups=2)
    assert (alpha.data[:, 4] == 0.0).all() and (alpha.data[:, :4] > 0.0).all()
    np.testing.assert_allclose(alpha.data.sum(axis=1), [1.0, 1.0], atol=1e-9)


def test_reduce_zero_weights():
    out = reduce(Tensor(RNG.normal(size=8)), Tensor(np.zeros((2, 8))))
    np.testing.assert_allclose(out.data, [0.0, 0.0], atol=0)


def test_reduce_row_selection():
    reducer = Tensor([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    out = reduce(Tensor([2.0, -2.0, 9.0, 9.0]), reducer)
    np.testing.assert_allclose(out.data, [erf_gelu(2.0), erf_gelu(-2.0)], atol=1e-15)


def test_reduce_matches_direct_evaluation():
    w = RNG.normal(size=(3, 12))
    h = RNG.normal(size=12)
    got = reduce(Tensor(h), Tensor(w)).data
    want = np.array([erf_gelu(sum(float(w[i, j]) * float(h[j]) for j in range(12)))
                     for i in range(3)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def make_decomp(n_layers=2, d_l=8, d_h=4, d_w=2, d_in=4, d_model=4, zero_core=True,
                seed=3):
    rng = np.random.default_rng(seed)
    d_out = 3 * d_model
    scale = 0.5

    def t(shape, zero=False):
        return Tensor(np.zeros(shape) if zero else rng.normal(0, scale, shape),
                      requires_grad=True)

    return DecompositionParams(
        layer_embeds=[t((d_l,)) for _ in range(n_layers)],
        reducers=[t((d_h, d_l)) for _ in range(n_layers)],
        core_weights=[t((d_w * d_w, d_h), zero=zero_core) for _ in range(n_layers)],
        core_biases=[t((d_w * d_w,), zero=zero_core) for _ in range(n_layers)],
        out_factor=t((d_out, d_w)),
        in_factor=t((d_in, d_w)),
        static_fused=[t((d_out, d_in)) for _ in range(n_layers)],
        static_bias=[t((d_out,)) for _ in range(n_layers)],
        groups=2, rank_dw=d_w)


def test_generate_weights_zero_core_is_exactly_static():
    params = make_decomp(zero_core=True)
    out = generate_weights(Tensor(RNG.normal(size=4)), params, 0)
    assert np.array_equal(out.fused.data, params.static_fused[0].data)
    assert np.array_equal(out.bias.data, params.static_bias[0].data)


def test_generate_weights_zero_factor_annihilates():
    params = make_decomp(zero_core=False)
    params.out_factor.data[...] = 0.0
    out = generate_weights(Tensor(RNG.normal(size=4)), params, 1)
    assert np.array_equal(out.fused.data, params.static_fused[1].data)


def test_generate_weights_matches_triple_product_oracle():
    # 2x2 everything: entry-by-entry brute force of static + P @ core @ Q^T
    params = make_decomp(n_layers=1, d_l=4, d_h=2, d_w=2, d_in=2, d_model=2,
                         zero_core=False, seed=11)
    reduced = RNG.normal(size=2)
    got = generate_weights(Tensor(reduced), params, 0).fused.data

    core = np.zeros((2, 2))
    for r in range(4):
        core.flat[r] = sum(params.core_weights[0].data[r, j] * reduced[j]
                           for j in range(2)) + params.core_biases[0].data[r]
    want = params.static_fused[0].data.copy()
    p, q = params.out_factor.data, params.in_factor.data
    for i in range(6):
        for j in range(2):
            acc = 0.0
            for a in range(2):
                for b in range(2):
                    acc += p[i, a] * core[a, b] * q[j, b]
            want[i, j] += acc
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_generate_all_zero_core_ignores_expression():
    params = make_decomp(zero_core=True)
    w1, _ = generate_all(Tensor(RNG.normal(size=(3, 8))), params)
    w2, _ = generate_all(Tensor(RNG.normal(size=(5, 8))), params)
    for a, b in zip(w1, w2):
        assert np.array_equal(a.fused.data, b.fused.data)


def test_generate_all_deterministic():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(2, 8)))
    w1, _ = generate_all(feats, params)
    w2, _ = generate_all(feats, params)
    for a, b in zip(w1, w2):
        assert np.array_equal(a.fused.data, b.fused.data)


def test_generate_all_sensitive_to_any_token():
    # forward differencing: nudging one token moves every layer
    params = make_decomp(zero_core=False)
    feats = RNG.normal(size=(3, 8))
    base, _ = generate_all(Tensor(feats), params)
    bumped = feats.copy()
    bumped[2] += 1e-3
    moved, _ = generate_all(Tensor(bumped), params)
    for a, b in zip(base, moved):
        assert np.abs(a.fused.data - b.fused.data).max() > 0.0


def test_generate_all_layers_are_independent():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(3, 8)))
    base, _ = generate_all(feats, params)
    params.layer_embeds[1].data[...] += 0.37
    moved, _ = generate_all(feats, params)
    assert np.array_equal(base[0].fused.data, moved[0].fused.data)
    assert not np.array_equal(base[1].fused.data, moved[1].fused.data)


def test_generated_views_stack_back_to_fused():
    params = make_decomp(zero_core=False)
    out = generate_weights(Tensor(RNG.normal(size=4)), params, 0)
    d = out.fused.shape[0] // 3
    query, key, value = (out.fused[i * d:(i + 1) * d, :] for i in range(3))
    stacked = np.concatenate([query.data, key.data, value.data], axis=0)
    assert np.array_equal(stacked, out.fused.data)


def test_dynamic_delta_rank_bound():
    params = make_decomp(n_layers=1, d_l=8, d_h=4, d_w=2, d_in=6, d_model=6,
                         zero_core=False, seed=5)
    out = generate_weights(Tensor(RNG.normal(size=4)), params, 0)
    delta = out.fused.data - params.static_fused[0].data
    sv = np.linalg.svd(delta, compute_uv=False)
    assert (sv[params.rank_dw:] < 1e-10).all()


def test_count_dynamic_params_matches_parameter_store():
    n_layers, d_l, reduction, d_w, d_model = 12, 64, 16, 8, 64
    store = ParamStore(0)
    backbone = VisualBackbone(store, image_size=64, patch=8, d_model=d_model,
                              blocks=n_layers, heads=4)
    build_law_params(store, backbone, d_l=d_l, groups=4, reduction=reduction,
                     rank_dw=d_w)
    # closed form. Per layer: embedding (d_l) + reducer (d_h*d_l) + core
    # affine map (d_h*d_w^2 weights, d_w^2 bias); shared: the two rank
    # factors, (d_in + 3*d_model) * d_w
    d_h = d_l // reduction
    per_layer = d_l + d_h * d_l + d_h * d_w * d_w + d_w * d_w
    want = n_layers * per_layer + d_w * (d_model + 3 * d_model)
    assert store.num_values("law.") == want == 9728


def test_gradients_reach_every_generator_parameter():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(3, 8)), requires_grad=True)
    leaves = [feats, params.out_factor, params.in_factor,
              *params.layer_embeds, *params.reducers,
              *params.core_weights, *params.core_biases,
              *params.static_fused]

    def loss_fn(*_):
        weights, _ = generate_all(feats, params)
        total = None
        for w in weights:
            term = (w.fused * w.fused).sum()
            total = term if total is None else total + term
        return total

    assert grad_check(loss_fn, leaves) <= 1e-4


def test_shared_factor_grad_is_sum_of_per_layer_clones():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(3, 8)))

    def readout(weight_list):
        total = None
        for w in weight_list:
            term = (w.fused * w.fused).sum()
            total = term if total is None else total + term
        return total

    params.out_factor.zero_grad()
    with Tape() as tape:
        weights, _ = generate_all(feats, params)
        loss = readout(weights)
    tape.backward(loss)
    shared_grad = params.out_factor.grad.copy()

    # clone the shared factor per layer; the sum of clone grads must match
    clone_grads = np.zeros_like(shared_grad)
    for layer in range(params.n_layers):
        clone = Tensor(params.out_factor.data.copy(), requires_grad=True)
        cloned_params = DecompositionParams(
            layer_embeds=params.layer_embeds, reducers=params.reducers,
            core_weights=params.core_weights, core_biases=params.core_biases,
            out_factor=clone, in_factor=params.in_factor,
            static_fused=params.static_fused, static_bias=params.static_bias,
            groups=params.groups, rank_dw=params.rank_dw)
        with Tape() as tape:
            pooled, _ = aggregate(feats, params.layer_embeds[layer],
                                  params.groups)
            reduced = reduce(pooled, params.reducers[layer])
            w = generate_weights(reduced, cloned_params, layer)
            loss = (w.fused * w.fused).sum()
        tape.backward(loss)
        clone_grads += clone.grad
    np.testing.assert_allclose(shared_grad, clone_grads, rtol=1e-12, atol=1e-12)
