import itertools

import numpy as np
import pytest

from lawground.errors import ConfigError
from lawground.head import MultitaskHead, binarize
from lawground.params import ParamStore
from lawground.tensor import Tape, Tensor, grad_check, tmean, tsum


RNG = np.random.default_rng(33)


def make_tokens(d_model=8, side=2, tokens=None):
    """(B, T, d) batch tokens from (T, d) tokens (one image) or (B, T, d)
    tokens."""
    if tokens is None:
        tokens = RNG.normal(size=(side * side, d_model))
    return Tensor(tokens.reshape(-1, side * side, d_model))


def row(v):
    """A (d,) summary feature as the (1, d) summary rows of a batch of one."""
    return Tensor(np.asarray(v)[None])


def make_head(d_model=8, d_text=8, pool_dim=4, stride=8, seed=0, **kw):
    store = ParamStore(seed)
    return MultitaskHead(store, d_model=d_model, d_text=d_text,
                         pool_dim=pool_dim, stride=stride, **kw), store


def test_lap_constant_features_pool_uniformly():
    head, _ = make_head()
    const = np.tile(RNG.normal(size=8), (4, 1))
    visual = make_tokens(tokens=const)
    pooled, attn = head.lap_pool(visual, row(RNG.normal(size=8)))
    np.testing.assert_allclose(attn, np.full((1, 2, 2), 0.25), atol=1e-12)
    np.testing.assert_allclose(pooled.data, const[:1], atol=1e-12)


def test_lap_saturated_similarity_picks_single_position():
    head, store = make_head()
    visual = make_tokens()
    cls = RNG.normal(size=8)
    # force one spatial position to dominate by a huge logit margin
    pv = visual.data[0] @ store["head.pool.visual.weight"].data.T
    pt = store["head.pool.text.weight"].data @ cls
    logits = pv @ pt
    winner = int(np.argmax(logits))
    boosted = visual.data[0].copy()
    boosted[winner] *= 1e3 / max(abs(logits[winner]), 1e-9)
    visual = make_tokens(tokens=boosted)
    pooled, attn = head.lap_pool(visual, row(cls))
    assert attn.reshape(-1)[winner] > 1.0 - 1e-6
    np.testing.assert_allclose(pooled.data[0], boosted[winner], atol=1e-6)


def test_lap_matches_explicit_four_position_oracle():
    head, store = make_head()
    visual = make_tokens()
    cls = RNG.normal(size=8)
    pooled, attn = head.lap_pool(visual, row(cls))

    wv = store["head.pool.visual.weight"].data
    wt = store["head.pool.text.weight"].data
    tokens = visual.data[0]
    logits = np.array([np.dot(wv @ tokens[t], wt @ cls) for t in range(4)])
    e = np.exp(logits - logits.max())
    a = e / e.sum()
    want = sum(a[t] * tokens[t] for t in range(4))
    np.testing.assert_allclose(attn.reshape(-1), a, atol=1e-12)
    np.testing.assert_allclose(pooled.data[0], want, atol=1e-12)


def test_lap_attention_normalized_and_shift_invariant():
    head, _ = make_head()
    visual = make_tokens()
    cls = row(RNG.normal(size=8))
    _, attn = head.lap_pool(visual, cls)
    assert abs(attn.sum() - 1.0) < 1e-9
    # adding a constant vector to every token's projected feature shifts all
    # logits equally; softmax is invariant to that
    shifted = make_tokens(tokens=visual.data + 0.0)
    _, attn2 = head.lap_pool(shifted, cls)
    np.testing.assert_allclose(attn, attn2, atol=0)


def test_average_pool_is_token_mean():
    head, _ = make_head(lap_enabled=False, mask_enabled=False)
    visual = make_tokens()
    box, mask, pool_map = head.forward(visual, row(RNG.normal(size=8)))
    want = head.predict_box(Tensor(visual.data.mean(axis=1)))
    np.testing.assert_allclose(box.data, want.data, rtol=0, atol=1e-15)
    assert mask is None and pool_map is None


def test_predict_box_zero_weights_centers():
    head, store = make_head()
    for name in ("head.box.fc1.weight", "head.box.fc2.weight", "head.box.fc3.weight"):
        store[name].data[...] = 0.0
    box = head.predict_box(row(RNG.normal(size=8)))
    np.testing.assert_allclose(box.data, [[0.5] * 4], atol=0)


def test_predict_box_saturates_toward_one():
    head, store = make_head()
    store["head.box.fc3.weight"].data[...] = 0.0
    store["head.box.fc3.bias"].data[...] = 40.0
    box = head.predict_box(row(RNG.normal(size=8)))
    assert (box.data > 1 - 1e-12).all() and (box.data < 1).all()


def test_predict_box_matches_three_matmul_oracle():
    from scipy.special import erf, expit

    head, store = make_head()
    pooled = RNG.normal(size=8)
    got = head.predict_box(row(pooled)).data[0]

    def g(v):
        return v * 0.5 * (1 + erf(v / np.sqrt(2)))

    h = g(store["head.box.fc1.weight"].data @ pooled + store["head.box.fc1.bias"].data)
    h = g(store["head.box.fc2.weight"].data @ h + store["head.box.fc2.bias"].data)
    want = expit(store["head.box.fc3.weight"].data @ h + store["head.box.fc3.bias"].data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_predict_mask_zero_cls_is_half_everywhere():
    head, _ = make_head()
    visual = make_tokens()
    pred = head.predict_mask(visual, row(np.zeros(8)))
    np.testing.assert_allclose(pred.quarter_logits.data, np.zeros((1, 4, 4)),
                               atol=0)
    np.testing.assert_allclose(pred.probs.data, np.full((1, 16, 16), 0.5),
                               atol=0)


def test_predict_mask_one_hot_channel_projection():
    # single upsample stage rigged to copy channel 2 through; cls = e_2
    head, store = make_head()
    kernel = store["head.up0.kernel"]
    kernel.data[...] = 0.0
    kernel.data[2, 2, :, :] = 1.0
    store["head.up0.bias"].data[...] = 0.0
    tokens = np.zeros((4, 8))
    tokens[:, 2] = 1.0
    visual = make_tokens(tokens=tokens)
    cls = np.zeros(8)
    cls[2] = 1.0
    pred = head.predict_mask(visual, row(cls))
    np.testing.assert_allclose(pred.quarter_logits.data, np.ones((1, 4, 4)),
                               atol=0)


def test_predict_mask_matches_per_pixel_dot_oracle():
    head, store = make_head()
    visual = make_tokens()
    cls = RNG.normal(size=8)
    pred = head.predict_mask(visual, row(cls))

    k = store["head.up0.kernel"].data
    b = store["head.up0.bias"].data
    up = np.zeros((8, 4, 4))
    for c in range(8):
        for o in range(8):
            for i in range(2):
                for j in range(2):
                    for a in range(2):
                        for bb in range(2):
                            up[o, 2 * i + a, 2 * j + bb] += visual.data[0, 2 * i + j, c] * k[c, o, a, bb]
    up += b[:, None, None]
    want = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            want[i, j] = np.dot(cls, up[:, i, j])
    np.testing.assert_allclose(pred.quarter_logits.data[0], want, atol=1e-12)


def test_batch_head_matches_single_image_calls():
    # each image's rows of the batch outputs are what a batch of one gives
    head, _ = make_head(seed=3)
    rng = np.random.default_rng(4)
    tokens, cls = rng.normal(size=(3, 4, 8)), rng.normal(size=(3, 8))
    visual = make_tokens(tokens=tokens)
    pooled, attn = head.lap_pool(visual, Tensor(cls))
    box = head.predict_box(pooled).data
    probs = head.predict_mask(visual, Tensor(cls)).probs.data
    assert attn.shape == (3, 2, 2) and probs.shape == (3, 16, 16)
    for b in range(3):
        one = make_tokens(tokens=tokens[b])
        pooled_b, attn_b = head.lap_pool(one, row(cls[b]))
        for got, want in (
                (pooled.data[b], pooled_b.data[0]), (attn[b], attn_b[0]),
                (box[b], head.predict_box(pooled_b).data[0]),
                (probs[b], head.predict_mask(one, row(cls[b])).probs.data[0])):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("lap,mth", itertools.product((True, False),
                                                     repeat=2))
def test_forward_equals_direct_branch_calls(lap, mth):
    head, _ = make_head(seed=6, lap_enabled=lap, mask_enabled=mth)
    rng = np.random.default_rng(9)
    visual = make_tokens(tokens=rng.normal(size=(3, 4, 8)))
    cls = Tensor(rng.normal(size=(3, 8)))
    box, mask, pool_map = head.forward(visual, cls)
    if lap:
        pooled, want_map = head.lap_pool(visual, cls)
        assert np.array_equal(pool_map, want_map)
        assert pool_map.shape == (3, 2, 2)
    else:
        pooled = tmean(visual, axis=1)
        assert pool_map is None
    assert np.array_equal(box.data, head.predict_box(pooled).data)
    if mth:
        want = head.predict_mask(visual, cls)
        assert np.array_equal(mask.quarter_logits.data,
                              want.quarter_logits.data)
        assert np.array_equal(mask.probs.data, want.probs.data)
    else:
        assert mask is None


def old_order_mask_logits(tokens, cls, stages, upstream):
    """Reference for the mask branch in the order it once ran: per image,
    stride-2 2x2 transposed convs on the channel-first map (GELU between),
    then the per-pixel dot with the summary row. Returns the quarter logits
    and the adjoints of sum(logits * upstream) w.r.t. tokens, cls and each
    stage's kernel and bias, all as numpy arrays."""
    from scipy.special import erf

    n, t, c = tokens.shape
    side = round(t ** 0.5)
    logits, d_tokens, d_cls = [], np.zeros_like(tokens), np.zeros_like(cls)
    d_stages = [(np.zeros_like(k), np.zeros_like(b)) for k, b in stages]
    for img in range(n):
        feat = tokens[img].reshape(side, side, c).transpose(2, 0, 1)
        inputs, pres = [], []
        for j, (k, b) in enumerate(stages):
            inputs.append(feat)
            _, h, w = feat.shape
            pre = np.einsum("cij,coab->oiajb", feat, k).reshape(
                k.shape[1], 2 * h, 2 * w) + b[:, None, None]
            pres.append(pre)
            last = j == len(stages) - 1
            feat = pre if last else pre * 0.5 * (1 + erf(pre / np.sqrt(2)))
        logits.append(np.einsum("o,oij->ij", cls[img], feat))
        g = upstream[img]
        d_cls[img] = np.einsum("oij,ij->o", feat, g)
        d_feat = cls[img][:, None, None] * g
        for j in reversed(range(len(stages))):
            k, pre, x = stages[j][0], pres[j], inputs[j]
            if j < len(stages) - 1:
                cdf = 0.5 * (1 + erf(pre / np.sqrt(2)))
                d_feat = d_feat * (cdf + pre * np.exp(-pre ** 2 / 2)
                                   / np.sqrt(2 * np.pi))
            _, h, w = x.shape
            blocks = d_feat.reshape(k.shape[1], h, 2, w, 2)
            d_stages[j][0][...] += np.einsum("cij,oiajb->coab", x, blocks)
            d_stages[j][1][...] += d_feat.sum(axis=(1, 2))
            d_feat = np.einsum("coab,oiajb->cij", k, blocks)
        d_tokens[img] = d_feat.transpose(1, 2, 0).reshape(t, c)
    return [np.array(logits), d_tokens, d_cls,
            *[a for pair in d_stages for a in pair]]


@pytest.mark.parametrize("stride,d_text", [(4, 6), (8, 5), (16, 5)],
                         ids=["0-stages", "1-stage", "2-stages"])
def test_mask_branch_matches_old_order_oracle(stride, d_text):
    # 0, 1 and 2 upsampling stages; own stream
    rng = np.random.default_rng(stride)
    head, _ = make_head(d_model=6, d_text=d_text, stride=stride)
    for kernel, bias in head.up_stages:
        kernel.data[...] = rng.normal(0, 0.5, kernel.shape)
        bias.data[...] = rng.normal(0, 0.5, bias.shape)
    tokens = Tensor(rng.normal(size=(2, 9, 6)), requires_grad=True)
    cls = Tensor(rng.normal(size=(2, d_text)), requires_grad=True)
    quarter = 3 * stride // 4
    upstream = rng.normal(size=(2, quarter, quarter))
    with Tape() as tape:
        logits = head.predict_mask(tokens, cls).quarter_logits
        loss = tsum(logits * Tensor(upstream))
    tape.backward(loss)
    want = old_order_mask_logits(
        tokens.data, cls.data,
        [(k.data, b.data) for k, b in head.up_stages], upstream)
    got = [logits.data, tokens.grad, cls.grad,
           *[p.grad for stage in head.up_stages for p in stage]]
    assert len(got) == len(want) == 3 + 2 * len(head.up_stages)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_mask_branch_stride_validation():
    with pytest.raises(ConfigError):
        make_head(stride=6)
    with pytest.raises(ConfigError):
        make_head(stride=4, d_model=8, d_text=16)  # no stage to change width
    head, _ = make_head(stride=16)  # two stages
    assert len(head.up_stages) == 2


def test_mask_disabled_removes_only_upsampler_params():
    full, store_full = make_head()
    rec, store_rec = make_head(mask_enabled=False)
    names_full = {name for name, _ in store_full.items()}
    names_rec = {name for name, _ in store_rec.items()}
    assert names_full - names_rec == {"head.up0.kernel", "head.up0.bias"}
    # shared parameters initialize identically (hash-seeded streams)
    for name in names_rec:
        assert np.array_equal(store_full[name].data, store_rec[name].data)


def test_rec_path_bitwise_unchanged_without_mask_branch():
    full, _ = make_head(seed=5)
    rec, _ = make_head(seed=5, mask_enabled=False)
    visual = make_tokens()
    cls = row(RNG.normal(size=8))
    pooled_a, _ = full.lap_pool(visual, cls)
    pooled_b, _ = rec.lap_pool(visual, cls)
    assert np.array_equal(full.predict_box(pooled_a).data,
                          rec.predict_box(pooled_b).data)


def test_head_grad_checks():
    head, store = make_head(d_model=4, d_text=4, pool_dim=2, stride=8, seed=2)
    tokens = Tensor(RNG.normal(size=(1, 4, 4)), requires_grad=True)
    cls = Tensor(RNG.normal(size=(1, 4)), requires_grad=True)

    def box_loss(tokens_t, cls_t):
        pooled, _ = head.lap_pool(tokens_t, cls_t)
        box = head.predict_box(pooled)
        return tsum(box * box)

    assert grad_check(box_loss, [tokens, cls]) <= 1e-4

    mask_tokens = Tensor(RNG.normal(size=(1, 4, 4)), requires_grad=True)

    def mask_loss(tokens_t, cls_t):
        probs = head.predict_mask(tokens_t, cls_t).probs
        return tmean(probs * probs)

    assert grad_check(mask_loss, [mask_tokens, cls]) <= 1e-4

    # two images: every batch op's gradient, own stream
    rng = np.random.default_rng(8)
    tokens2 = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    cls2 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def batch_loss(tokens_t, cls_t):
        box, mask, _ = head.forward(tokens_t, cls_t)
        return tsum(box * box) + tmean(mask.probs * mask.probs)

    assert grad_check(batch_loss, [tokens2, cls2]) <= 1e-4


def test_binarize_conventions():
    probs = np.full((3, 3), 0.5)
    assert binarize(probs, 0.35).all()
    assert binarize(probs, 0.5).all()  # >= convention
    mixed = np.array([[0.1, 0.34], [0.35, 0.9]])
    want = np.array([[False, False], [True, True]])
    assert np.array_equal(binarize(mixed, 0.35), want)
    with pytest.raises(ConfigError):
        binarize(probs, 0.0)
    with pytest.raises(ConfigError):
        binarize(probs, 1.0)
