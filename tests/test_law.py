import math

import numpy as np

from lawground.law import (
    DecompositionParams,
    build_law_params,
    fused_weights,
    generate_all,
    layer_cores,
)
from lawground.params import ParamStore
from lawground.tensor import (
    Tape,
    Tensor,
    _record,
    _softmax_,
    as_tensor,
    gelu,
    gelu_cdf,
    gelu_slope,
    grad_check,
    layer_norm,
    layer_norm_linear,
    linear,
    reshape,
    softmax,
    transpose,
    tsum,
)
from lawground.vit import VisualBackbone

RNG = np.random.default_rng(7)


def taped(weights):
    """A Rebuilt weight stack as a Tensor on the active tape, with the
    record that folds into the projection reading it, on its own."""
    return _record(Tensor(weights.build()), weights.parents, weights.backfn)


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


def brute_cores(feats, params):
    """Plain-float chain per layer: brute_aggregate, the GeLU reduction and
    the core affine map. Returns (N, d_w, d_w) cores and (N, G, L) alphas."""
    cores, alphas = [], []
    for i in range(params.n_layers):
        pooled, alpha = brute_aggregate(feats, params.layer_embeds[i].data,
                                        params.groups)
        reducer = params.reducers[i].data
        reduced = [erf_gelu(sum(float(reducer[h, j]) * float(pooled[j])
                                for j in range(len(pooled))))
                   for h in range(reducer.shape[0])]
        w, b = params.core_weights[i].data, params.core_biases[i].data
        flat = [sum(float(w[r, h]) * reduced[h] for h in range(len(reduced)))
                + float(b[r]) for r in range(len(b))]
        cores.append(np.reshape(flat, (params.rank_dw, params.rank_dw)))
        alphas.append(alpha)
    return np.array(cores), np.array(alphas)


# composed reference: the generator as taped primitives, one layer at a time


def composed_aggregate(feats, layer_embed, groups):
    n_tok, d_l = feats.shape
    gsize = d_l // groups
    grouped = transpose(reshape(feats, (n_tok, groups, gsize)), (1, 0, 2))
    emb = reshape(layer_embed, (groups, 1, gsize))
    alpha = softmax(tsum(grouped * emb, axis=2), axis=1)                  # (G,L)
    pooled = tsum(reshape(alpha, (groups, n_tok, 1)) * grouped, axis=1)   # (G,gs)
    return reshape(pooled, (d_l,)), alpha


def row_matvec(w, v):
    """(m, k) @ (k,) -> (m,), as a one-row linear."""
    return reshape(linear(reshape(v, (1, -1)), w), (w.shape[0],))


def composed_generate_all(feats, params):
    d_w = params.rank_dw
    weights, alphas = [], []
    for i in range(params.n_layers):
        pooled, alpha = composed_aggregate(feats, params.layer_embeds[i],
                                           params.groups)
        reduced = gelu(row_matvec(params.reducers[i], pooled))
        core = reshape(row_matvec(params.core_weights[i], reduced)
                       + params.core_biases[i], (d_w, d_w))
        # out_factor @ core @ in_factor^T
        delta = linear(linear(params.out_factor, transpose(core, (1, 0))),
                       params.in_factor)
        weights.append(params.static_fused[i] + delta)
        alphas.append(alpha.data)
    return weights, alphas


def one_layer(groups=2):
    params = make_decomp(n_layers=1, zero_core=False)
    params.groups = groups
    return params


def test_aggregate_singleton_mask():
    # a one-token sequence: all attention on it, pooled feature is that token
    params = one_layer()
    feats = RNG.normal(size=(1, 8))
    cores, alphas = layer_cores(Tensor(feats), params, [len(feats)])
    np.testing.assert_allclose(alphas[0], [[[1.0], [1.0]]], atol=0)
    want, _ = brute_cores(feats, params)
    np.testing.assert_allclose(cores.data[0], want, rtol=1e-13, atol=1e-15)


def test_aggregate_zero_embedding_is_mean():
    params = one_layer(groups=4)
    params.layer_embeds[0].data[...] = 0.0
    feats = RNG.normal(size=(3, 8))
    cores, alphas = layer_cores(Tensor(feats), params, [len(feats)])
    np.testing.assert_allclose(alphas[0], np.full((1, 4, 3), 1 / 3), atol=1e-15)
    want, _ = brute_cores(feats, params)
    np.testing.assert_allclose(cores.data[0], want, rtol=1e-13, atol=1e-15)


def test_aggregate_matches_brute_force():
    for n_tok in RNG.integers(1, 8, size=5):
        params = make_decomp(n_layers=3, d_l=12, d_h=3, zero_core=False,
                             seed=int(n_tok))
        params.groups = 3
        feats = RNG.normal(size=(int(n_tok), 12))
        cores, alphas = layer_cores(Tensor(feats), params, [len(feats)])
        want_cores, want_alpha = brute_cores(feats, params)
        np.testing.assert_allclose(alphas[0], want_alpha, atol=1e-12)
        np.testing.assert_allclose(cores.data[0], want_cores, atol=1e-12)


def test_aggregate_alpha_normalization_and_exact_zeros():
    params = one_layer()
    feats = RNG.normal(size=(6, 8), scale=3.0)
    embed = params.layer_embeds[0].data
    _, (alpha,) = layer_cores(Tensor(feats), params, [len(feats)])
    np.testing.assert_allclose(alpha[0].sum(axis=1), [1.0, 1.0], atol=1e-9)
    # a token whose logits trail the best by far more than exp's range
    # (-745) gets exactly zero attention in every group
    feats[4] = -1e3 * np.sign(embed)
    _, (alpha,) = layer_cores(Tensor(feats), params, [len(feats)])
    assert (alpha[0][:, 4] == 0.0).all() and (alpha[0][:, :4] > 0.0).all()
    np.testing.assert_allclose(alpha[0].sum(axis=1), [1.0, 1.0], atol=1e-9)


def identity_cores(reducer, d_l):
    """One layer whose core map copies the reduced vector (d_h = d_w^2)."""
    d_h = reducer.shape[0]
    params = make_decomp(n_layers=1, d_l=d_l, d_h=d_h, d_w=int(d_h ** 0.5),
                         zero_core=True)
    params.reducers[0].data[...] = reducer
    params.core_weights[0].data[...] = np.eye(d_h)
    return params


def test_reduce_zero_weights():
    params = one_layer()
    params.reducers[0].data[...] = 0.0
    cores, _ = layer_cores(Tensor(RNG.normal(size=(3, 8))), params, [3])
    # gelu(0) = 0: only the core bias is left
    assert np.array_equal(cores.data.reshape(-1), params.core_biases[0].data)


def test_reduce_row_selection():
    reducer = np.zeros((4, 8))
    reducer[0, 0] = reducer[1, 1] = 1.0
    params = identity_cores(reducer, 8)
    token = np.array([[2.0, -2.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]])
    cores, _ = layer_cores(Tensor(token), params, [1])
    np.testing.assert_allclose(cores.data.reshape(-1),
                               [erf_gelu(2.0), erf_gelu(-2.0), 0.0, 0.0],
                               atol=1e-15)


def test_reduce_matches_direct_evaluation():
    w = RNG.normal(size=(4, 12))
    h = RNG.normal(size=(1, 12))
    params = identity_cores(w, 12)
    got = layer_cores(Tensor(h), params, [1])[0].data.reshape(-1)
    want = np.array([erf_gelu(sum(float(w[i, j]) * float(h[0, j])
                                  for j in range(12)))
                     for i in range(4)])
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
        groups=2, rank_dw=d_w)


def test_generate_weights_zero_core_is_exactly_static():
    params = make_decomp(zero_core=True)
    feats = Tensor(RNG.normal(size=(3, 8)))
    cores, _ = layer_cores(feats, params, [3])
    assert not cores.data.any()
    weights, _ = generate_all(feats, params, [3])
    for i, out in enumerate(weights):
        assert np.array_equal(out.build()[0], params.static_fused[i].data)


def test_generate_weights_zero_factor_annihilates():
    params = make_decomp(zero_core=False)
    params.out_factor.data[...] = 0.0
    out = fused_weights(params, Tensor(RNG.normal(size=(1, 2, 2, 2))), 1)
    assert np.array_equal(out.build()[0], params.static_fused[1].data)


def test_generate_weights_matches_triple_product_oracle():
    # 2x2 everything: entry-by-entry brute force of static + P @ core @ Q^T
    params = make_decomp(n_layers=1, d_l=4, d_h=2, d_w=2, d_in=2, d_model=2,
                         zero_core=False, seed=11)
    core = RNG.normal(size=(2, 2))
    got = fused_weights(params, Tensor(core[None, None]), 0).build()[0]

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
    w1, _ = generate_all(Tensor(RNG.normal(size=(3, 8))), params, [3])
    w2, _ = generate_all(Tensor(RNG.normal(size=(5, 8))), params, [5])
    for a, b in zip(w1, w2):
        assert np.array_equal(a.build(), b.build())


def test_generate_all_deterministic():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(2, 8)))
    w1, _ = generate_all(feats, params, [2])
    w2, _ = generate_all(feats, params, [2])
    for a, b in zip(w1, w2):
        assert np.array_equal(a.build(), b.build())


def test_generate_all_sensitive_to_any_token():
    # forward differencing: nudging one token moves every layer
    params = make_decomp(zero_core=False)
    feats = RNG.normal(size=(3, 8))
    base, _ = generate_all(Tensor(feats), params, [3])
    bumped = feats.copy()
    bumped[2] += 1e-3
    moved, _ = generate_all(Tensor(bumped), params, [3])
    for a, b in zip(base, moved):
        assert np.abs(a.build() - b.build()).max() > 0.0


def test_generate_all_layers_are_independent():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(3, 8)))
    base, _ = generate_all(feats, params, [3])
    params.layer_embeds[1].data[...] += 0.37
    moved, _ = generate_all(feats, params, [3])
    assert np.array_equal(base[0].build(), moved[0].build())
    assert not np.array_equal(base[1].build(), moved[1].build())


def test_generated_views_stack_back_to_fused():
    params = make_decomp(zero_core=False)
    cores = RNG.normal(size=(1, 2, 2, 2))
    fused = fused_weights(params, Tensor(cores), 0).build()[0]
    # each of the query, key and value blocks is its own low-rank update
    d = fused.shape[0] // 3
    static, out = params.static_fused[0].data, params.out_factor.data
    views = [static[i * d:(i + 1) * d] + out[i * d:(i + 1) * d] @ cores[0, 0]
             @ params.in_factor.data.T for i in range(3)]
    np.testing.assert_allclose(np.concatenate(views), fused, rtol=0,
                               atol=1e-12)


def test_dynamic_delta_rank_bound():
    params = make_decomp(n_layers=1, d_l=8, d_h=4, d_w=2, d_in=6, d_model=6,
                         zero_core=False, seed=5)
    fused = fused_weights(params, Tensor(RNG.normal(size=(1, 1, 2, 2))), 0)
    delta = fused.build()[0] - params.static_fused[0].data
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
    got = sum(p.data.size for name, p in store.items() if name.startswith("law."))
    assert got == want == 9728


def test_gradients_reach_every_generator_parameter():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(3, 8)), requires_grad=True)
    leaves = [feats, params.out_factor, params.in_factor,
              *params.layer_embeds, *params.reducers,
              *params.core_weights, *params.core_biases,
              *params.static_fused]

    def loss_fn(*_):
        weights, _ = generate_all(feats, params, [3])
        total = None
        for w in map(taped, weights):
            term = tsum(w * w)
            total = term if total is None else total + term
        return total

    assert grad_check(loss_fn, leaves) <= 1e-4


def test_shared_factor_grad_is_sum_of_per_layer_clones():
    params = make_decomp(zero_core=False)
    feats = Tensor(RNG.normal(size=(3, 8)))

    def readout(weight_list):
        total = None
        for w in weight_list:
            term = tsum(w * w)
            total = term if total is None else total + term
        return total

    params.out_factor.zero_grad()
    with Tape() as tape:
        weights, _ = generate_all(feats, params, [3])
        loss = readout([taped(w) for w in weights])
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
            static_fused=params.static_fused,
            groups=params.groups, rank_dw=params.rank_dw)
        with Tape() as tape:
            cores, _ = layer_cores(feats, params, [3])
            w = taped(fused_weights(cloned_params, cores, layer))
            loss = tsum(w * w)
        tape.backward(loss)
        clone_grads += clone.grad
    np.testing.assert_allclose(shared_grad, clone_grads, rtol=1e-12, atol=1e-12)


def run_generator(fn, feats, params, upstream):
    """Fused weights, alphas and d<weights, upstream>/d every leaf."""
    leaves = [feats, params.out_factor, params.in_factor, *params.layer_embeds,
              *params.reducers, *params.core_weights, *params.core_biases,
              *params.static_fused]
    for leaf in leaves:
        leaf.zero_grad()
    with Tape() as tape:
        weights, alphas = fn(feats, params)
        loss = None
        for w, u in zip(weights, upstream):
            term = tsum(w * Tensor(u))
            loss = term if loss is None else loss + term
    tape.backward(loss)
    return ([w.data for w in weights], list(alphas),
            [leaf.grad.copy() for leaf in leaves])


def generate_one(feats, params):
    """generate_all on one expression: its weights and its (N, G, L) alpha."""
    weights, (alpha,) = generate_all(feats, params, [len(feats.data)])
    return [reshape(taped(w), w.shape[1:]) for w in weights], alpha


def test_generate_all_matches_composed_oracle():
    for seed, n_tok in ((0, 1), (1, 4), (2, 9)):
        params = make_decomp(n_layers=3, d_l=8, d_h=4, d_w=2, zero_core=False,
                             seed=seed)
        feats = Tensor(RNG.normal(size=(n_tok, 8)), requires_grad=True)
        upstream = [RNG.normal(size=w.shape) for w in params.static_fused]
        got = run_generator(generate_one, feats, params, upstream)
        want = run_generator(composed_generate_all, feats, params, upstream)
        for g_list, w_list in zip(got, want):
            for g, w in zip(g_list, w_list):
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_generate_all_records_only_the_core_op():
    # each layer's stack is recorded by the projection that reads it
    params = make_decomp(n_layers=3, zero_core=False)
    with Tape() as tape:
        generate_all(Tensor(RNG.normal(size=(4, 8)), requires_grad=True),
                     params, [4])
    assert len(tape._entries) == 1


# ---------------------------------------------------------------------------
# packed expressions


def unpacked_layer_cores(feats, params):
    """law.layer_cores as it was before packing: one expression, (N, d_w,
    d_w) cores, kept verbatim so the one-expression case can be checked bit
    for bit."""
    feats = as_tensor(feats)
    n_tok, d_l = feats.shape
    groups, n_layers, d_w = params.groups, params.n_layers, params.rank_dw
    gsize = d_l // groups
    embeds = np.stack([e.data for e in params.layer_embeds])
    reducers = np.stack([r.data for r in params.reducers])
    core_ws = np.stack([w.data for w in params.core_weights])
    core_bs = np.stack([b.data for b in params.core_biases])
    grouped = feats.data.reshape(n_tok, groups, gsize)
    emb = embeds.reshape(n_layers, groups, gsize)
    alpha = _softmax_(np.einsum("lgk,ngk->ngl", grouped, emb))
    pooled = np.einsum("ngl,lgk->ngk", alpha, grouped).reshape(n_layers, d_l)
    pre = np.einsum("nhd,nd->nh", reducers, pooled)
    cdf = gelu_cdf(pre)
    reduced = pre * cdf
    cores = np.einsum("nch,nh->nc", core_ws, reduced) + core_bs
    out = Tensor(cores.reshape(n_layers, d_w, d_w))

    def backfn(g):
        g_flat = g.reshape(n_layers, d_w * d_w)
        g_cw = g_flat[:, :, None] * reduced[:, None, :]
        g_pre = np.einsum("nch,nc->nh", core_ws, g_flat) * gelu_slope(pre, cdf)
        g_red = g_pre[:, :, None] * pooled[:, None, :]
        g_pool = np.einsum("nhd,nh->nd", reducers, g_pre).reshape(
            n_layers, groups, gsize)
        g_alpha = np.einsum("ngk,lgk->ngl", g_pool, grouped)
        g_logit = alpha * (g_alpha - np.sum(g_alpha * alpha, axis=-1,
                                            keepdims=True))
        g_emb = np.einsum("ngl,lgk->ngk", g_logit, grouped)
        g_feats = (np.einsum("ngl,ngk->lgk", alpha, g_pool)
                   + np.einsum("ngl,ngk->lgk", g_logit, emb))
        return (g_feats.reshape(n_tok, d_l), *g_emb.reshape(n_layers, d_l),
                *g_red, *g_cw, *g_flat)

    parents = (feats, *params.layer_embeds, *params.reducers,
               *params.core_weights, *params.core_biases)
    return _record(out, parents, backfn), alpha


def core_leaves(feats, params):
    return [feats, *params.layer_embeds, *params.reducers,
            *params.core_weights, *params.core_biases]


def run_cores(fn, feats, params, upstream):
    """Cores, alphas and d<cores, upstream>/d every leaf of layer_cores."""
    leaves = core_leaves(feats, params)
    for leaf in leaves:
        leaf.zero_grad()
    with Tape() as tape:
        cores, alphas = fn()
        loss = tsum(cores * Tensor(upstream))
    tape.backward(loss)
    return cores.data, alphas, [leaf.grad.copy() for leaf in leaves]


def test_layer_cores_one_expression_is_bit_identical_to_unpacked_code():
    for seed, n_tok in ((0, 1), (1, 4), (2, 7), (3, 40)):
        params = make_decomp(n_layers=4, d_l=16, d_h=4, d_w=3,
                             zero_core=False, seed=seed)
        params.groups = 4
        rng = np.random.default_rng(100 + seed)
        feats = Tensor(rng.normal(size=(n_tok, 16)), requires_grad=True)
        upstream = rng.normal(size=(4, 3, 3))
        got = run_cores(lambda: layer_cores(feats, params, [n_tok]), feats, params,
                        upstream[None])
        want = run_cores(lambda: unpacked_layer_cores(feats, params), feats,
                         params, upstream)
        assert np.array_equal(got[0][0], want[0])
        assert len(got[1]) == 1 and np.array_equal(got[1][0], want[1])
        for g, w in zip(got[2], want[2]):
            assert np.array_equal(g, w)


def test_packed_layer_cores_match_one_expression_at_a_time():
    lengths = (3, 1, 6, 2)
    params = make_decomp(n_layers=3, d_l=12, d_h=3, d_w=2, zero_core=False,
                         seed=8)
    params.groups = 3
    rng = np.random.default_rng(18)
    feats_np = rng.normal(size=(sum(lengths), 12))
    upstream = rng.normal(size=(len(lengths), 3, 2, 2))
    feats = Tensor(feats_np, requires_grad=True)
    packed = run_cores(lambda: layer_cores(feats, params, lengths), feats,
                       params, upstream)
    assert packed[0].shape == (len(lengths), 3, 2, 2)
    grad_sum = [np.zeros_like(g) for g in packed[2]]
    lo = 0
    for b, n in enumerate(lengths):
        one = Tensor(feats_np[lo:lo + n], requires_grad=True)
        cores, alphas, grads = run_cores(lambda: layer_cores(one, params, [n]),
                                         one, params, upstream[b:b + 1])
        np.testing.assert_allclose(packed[0][b], cores[0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(packed[1][b], alphas[0], rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(packed[2][0][lo:lo + n], grads[0], rtol=0,
                                   atol=1e-13)
        for total, g in zip(grad_sum[1:], grads[1:]):
            total += g
        lo += n
    # each parameter gradient is one product over all the batch's tokens,
    # which equals the sum of the per-expression gradients up to rounding
    for g, want in zip(packed[2][1:], grad_sum[1:]):
        np.testing.assert_allclose(g, want, rtol=0,
                                   atol=1e-13 * max(1.0, np.abs(want).max()))


def test_generate_all_packed_records_only_the_core_op():
    params = make_decomp(n_layers=3, zero_core=False)
    lengths = (2, 5, 1)
    with Tape() as tape:
        weights, alphas = generate_all(
            Tensor(RNG.normal(size=(8, 8)), requires_grad=True), params,
            lengths)
    assert len(tape._entries) == 1
    assert [w.shape for w in weights] == [
        (len(lengths), *s.shape) for s in params.static_fused]
    assert [a.shape[-1] for a in alphas] == list(lengths)


# ---------------------------------------------------------------------------
# fused weights for a batch of expressions


def per_sample_fused_weight(params, cores, sample, layer):
    """law.fused_weight as it was before the batched op: one expression's
    (d_out, d_in) weight, kept verbatim so B=1 can be checked bit for bit."""
    static, out_f, in_f = (params.static_fused[layer], params.out_factor,
                           params.in_factor)
    core = cores.data[sample, layer]
    left = out_f.data @ core
    out = Tensor(static.data + left @ in_f.data.T)

    def backfn(g):
        g_left = g @ in_f.data
        g_cores = np.zeros(cores.shape)
        g_cores[sample, layer] = out_f.data.T @ g_left
        return (g, g_left @ core.T, g_cores, g.T @ left)

    return _record(out, (static, out_f, cores, in_f), backfn)


def run_fused(fn, params, cores, upstream):
    """Weights and d<weights, upstream>/d (static, out, cores, in)."""
    leaves = [params.static_fused[1], params.out_factor, cores,
              params.in_factor]
    for leaf in leaves:
        leaf.zero_grad()
    with Tape() as tape:
        w = fn()
        loss = tsum(w * Tensor(upstream))
    tape.backward(loss)
    return w.data, [leaf.grad.copy() for leaf in leaves]


def test_fused_weights_one_expression_is_bit_identical_to_per_sample_code():
    # desk shapes: d_model 64, rank 8
    params = make_decomp(n_layers=2, d_l=16, d_h=4, d_w=8, d_in=64,
                         d_model=64, zero_core=False, seed=4)
    rng = np.random.default_rng(40)
    cores = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
    upstream = rng.normal(size=(192, 64))
    got = run_fused(lambda: taped(fused_weights(params, cores, 1)), params,
                    cores, upstream[None])
    want = run_fused(lambda: per_sample_fused_weight(params, cores, 0, 1),
                     params, cores, upstream)
    assert np.array_equal(got[0][0], want[0])
    for g, w in zip(got[1], want[1]):
        assert np.array_equal(g, w)


def test_batched_fused_weights_match_one_expression_at_a_time():
    params = make_decomp(n_layers=2, d_l=8, d_h=4, d_w=3, d_in=5, d_model=5,
                         zero_core=False, seed=6)
    rng = np.random.default_rng(41)
    cores = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
    upstream = rng.normal(size=(4, 15, 5))
    weights, grads = run_fused(lambda: taped(fused_weights(params, cores, 1)),
                               params, cores, upstream)
    assert weights.shape == (4, 15, 5)
    summed = [np.zeros_like(g) for g in grads]
    for b in range(4):
        w, gs = run_fused(lambda: per_sample_fused_weight(params, cores, b, 1),
                          params, cores, upstream[b])
        np.testing.assert_allclose(weights[b], w, rtol=0, atol=1e-13)
        for total, g in zip(summed, gs):
            total += g
    for g, want in zip(grads, summed):
        np.testing.assert_allclose(g, want, rtol=0,
                                   atol=1e-13 * max(1.0, np.abs(want).max()))


def test_projection_of_generated_stack_is_bit_identical_to_composed_ops():
    # desk shapes: d_model 64, rank 8, three images of 4 tokens
    params = make_decomp(n_layers=2, d_l=16, d_h=4, d_w=8, d_in=64,
                         d_model=64, zero_core=False, seed=9)
    rng = np.random.default_rng(42)
    cores = Tensor(rng.normal(size=(3, 2, 8, 8)), requires_grad=True)
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((12, 64), (64,), (64,), (192,))]
    upstream = rng.normal(size=(12, 192))
    grads_of = [*leaves, params.static_fused[1], params.out_factor, cores,
                params.in_factor]

    def run(project):
        for leaf in grads_of:
            leaf.zero_grad()
        with Tape() as tape:
            x, gain, bias, b = leaves
            y = project(x, gain, bias, fused_weights(params, cores, 1), b)
            loss = tsum(y * Tensor(upstream))
        tape.backward(loss)
        return [y.data] + [leaf.grad.copy() for leaf in grads_of]

    got = run(layer_norm_linear)
    want = run(lambda x, gain, bias, w, b: linear(layer_norm(x, gain, bias),
                                                  taped(w), b))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
