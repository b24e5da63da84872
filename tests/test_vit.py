import numpy as np
import pytest

from lawground.errors import ShapeError
from lawground.params import ParamStore
from lawground.tensor import Tensor, grad_check, tmean
from lawground.vit import VisualBackbone, attention_rollout

RNG = np.random.default_rng(21)


def build(image_size=64, patch=8, d_model=16, blocks=2, heads=2, seed=0):
    store = ParamStore(seed)
    return VisualBackbone(store, image_size=image_size, patch=patch,
                          d_model=d_model, blocks=blocks, heads=heads), store


def test_patch_embed_token_count():
    bb, _ = build()
    img = Tensor(RNG.uniform(0, 1, (3, 64, 64)))
    assert bb.patch_embed([img]).shape == (64, 16)
    assert bb.patch_embed([img, img, img]).shape == (3 * 64, 16)


def test_patch_embed_zero_image_gives_positions():
    bb, _ = build()
    tokens = bb.patch_embed([Tensor(np.zeros((3, 64, 64)))])
    assert np.array_equal(tokens.data, bb.pos.data)  # patch bias is zero-init


def test_patch_embed_matches_gather_loop():
    # two images: image b's tokens are rows 4b to 4b + 3
    bb, _ = build(image_size=16, patch=8)
    imgs = RNG.uniform(0, 1, (2, 3, 16, 16))
    got = bb.patch_embed([Tensor(img) for img in imgs]).data
    s = 8
    for b, img in enumerate(imgs):
        for t, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            vec = img[:, i * s:(i + 1) * s, j * s:(j + 1) * s].reshape(-1)
            want = bb.patch_w.data @ vec + bb.patch_b.data + bb.pos.data[t]
            np.testing.assert_allclose(got[4 * b + t], want, atol=1e-12)


def test_patch_embed_rejects_indivisible():
    store = ParamStore(0)
    with pytest.raises(ShapeError):
        VisualBackbone(store, image_size=60, patch=8)


def test_block_single_token_reduces_to_residual_stack():
    bb, _ = build(image_size=8, patch=8, d_model=8, blocks=1, heads=2)
    x = Tensor(RNG.normal(size=(1, 8)))
    out, (probs,) = bb.attention_block(x, bb.static_weights()[0], 0, [1],
                                       True)
    np.testing.assert_allclose(probs, np.ones((2, 1, 1)), atol=0)
    assert out.shape == (1, 8)


def test_block_matches_brute_force_attention():
    # T=3, one head: explicit score matrix, softmax, weighted sum
    bb, _ = build(image_size=24, patch=8, d_model=4, blocks=1, heads=1)
    x = RNG.normal(size=(3, 4))
    w = bb.static_weights()[0]
    got, (probs,) = bb.attention_block(Tensor(x), w, 0, [3], True)

    blk = bb.blocks[0]

    def ln(v, g, b):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    h = np.stack([ln(row, blk["ln1_g"].data, blk["ln1_b"].data) for row in x])
    qkv = h @ w.data.T + blk["qkv_b"].data
    q, k, v = qkv[:, :4], qkv[:, 4:8], qkv[:, 8:]
    scores = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            scores[i, j] = np.dot(q[i], k[j]) / 2.0  # sqrt(d_head)=2
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs[0], att, atol=1e-12)
    ctx = att @ v
    mid = x + ctx @ blk["out_w"].data.T + blk["out_b"].data
    h2 = np.stack([ln(row, blk["ln2_g"].data, blk["ln2_b"].data) for row in mid])
    from scipy.special import erf
    act = h2 @ blk["mlp_w1"].data.T + blk["mlp_b1"].data
    act = act * 0.5 * (1 + erf(act / np.sqrt(2)))
    want = mid + act @ blk["mlp_w2"].data.T + blk["mlp_b2"].data
    np.testing.assert_allclose(got.data, want, atol=1e-10)


def test_block_static_reference_identical_when_delta_zero():
    bb, _ = build(image_size=16, patch=8, d_model=8, blocks=1, heads=2)
    static = bb.static_weights()[0]
    zero_delta = static + Tensor(np.zeros(static.shape))
    x = Tensor(RNG.normal(size=(4, 8)))
    a, _ = bb.attention_block(x, static, 0, [4])
    b, _ = bb.attention_block(x, zero_delta, 0, [4])
    assert np.array_equal(a.data, b.data)


def test_forward_deterministic_and_length_checked():
    bb, _ = build(image_size=16, patch=8, d_model=8, blocks=2, heads=2)
    img = Tensor(RNG.uniform(0, 1, (3, 16, 16)))
    w = bb.static_weights()
    f1, _ = bb.forward([img], w)
    f2, _ = bb.forward([img], w)
    assert np.array_equal(f1.data, f2.data)
    assert f1.shape == (1, 4, 8)
    other = Tensor(np.random.default_rng(7).uniform(0, 1, (3, 16, 16)))
    pair, _ = bb.forward([img, other], w)
    assert pair.shape == (2, 4, 8)
    with pytest.raises(ShapeError):
        bb.forward([img], w[:1])
    stacked = [Tensor(np.stack([x.data] * 2)) for x in w]
    with pytest.raises(ShapeError):  # two images' weights for three images
        bb.forward([img] * 3, stacked)


def test_forward_attention_rows_sum_to_one():
    bb, _ = build(image_size=32, patch=8, d_model=8, blocks=2, heads=2)
    img = Tensor(RNG.uniform(0, 1, (3, 32, 32)))
    _, (attn,) = bb.forward([img], bb.static_weights(),
                            collect_attention=True)
    for layer in attn:
        np.testing.assert_allclose(layer.sum(axis=-1),
                                   np.ones(layer.shape[:2]), atol=1e-9)


def test_forward_grad_check_through_two_blocks():
    # images are inputs: the gradient reaches the patch embedding and both
    # blocks' QKV weights
    bb, _ = build(image_size=8, patch=4, d_model=4, blocks=2, heads=2)
    img = Tensor(RNG.uniform(0, 1, (3, 8, 8)))

    def readout(*_):
        feats, _ = bb.forward([img], bb.static_weights())
        return tmean(feats * feats)

    assert grad_check(readout, [bb.patch_w, *bb.static_weights()]) <= 1e-4


def test_forward_grad_check_two_images_with_per_image_weights():
    # stacked rows: each image projected by its own QKV weights, gradients
    # reach the patch embedding and both weight stacks
    bb, _ = build(image_size=8, patch=4, d_model=4, blocks=2, heads=2)
    imgs = [Tensor(RNG.uniform(0, 1, (3, 8, 8))) for _ in range(2)]
    weights = [Tensor(np.stack([w.data + RNG.normal(0, 0.3, w.shape)
                                for _ in imgs]), requires_grad=True)
               for w in bb.static_weights()]

    per_image = Tensor(np.array([1.0, 2.0])[:, None, None])

    def readout(*_):
        feats, _ = bb.forward(imgs, weights)
        return tmean(feats * feats * per_image)

    assert grad_check(readout, [bb.patch_w, *weights]) <= 1e-4


def test_block_permutation_equivariance():
    bb, _ = build(image_size=32, patch=8, d_model=8, blocks=1, heads=2)
    x = RNG.normal(size=(16, 8))
    perm = RNG.permutation(16)
    w = bb.static_weights()[0]
    base, _ = bb.attention_block(Tensor(x), w, 0, [16])
    shuffled, _ = bb.attention_block(Tensor(x[perm]), w, 0, [16])
    np.testing.assert_allclose(shuffled.data, base.data[perm], rtol=1e-12,
                               atol=1e-12)


def test_rollout_uniform_attention_is_flat():
    probs = np.full((2, 4, 4), 0.25)
    grid = attention_rollout([probs], side=2)
    np.testing.assert_allclose(grid, np.ones((2, 2)), atol=1e-12)


def test_rollout_identity_attention_is_flat():
    eye = np.broadcast_to(np.eye(4), (2, 4, 4)).copy()
    grid = attention_rollout([eye], side=2)
    np.testing.assert_allclose(grid, np.ones((2, 2)), atol=1e-12)


def test_rollout_two_layers_matches_hand_product():
    def stochastic(shape):
        m = RNG.uniform(0.1, 1.0, shape)
        return m / m.sum(axis=-1, keepdims=True)

    a1 = stochastic((2, 4, 4))
    a2 = stochastic((2, 4, 4))
    got = attention_rollout([a1, a2], side=2)

    def augment(a):
        m = a.mean(axis=0) + np.eye(4)
        return m / m.sum(axis=1, keepdims=True)

    rolled = augment(a2) @ augment(a1)
    want = rolled.mean(axis=0).reshape(2, 2)
    want = want / want.max()
    np.testing.assert_allclose(got, want, atol=1e-12)

