import math
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit as scipy_expit

from lawground.attention import block_params, transformer_block
from lawground.errors import NumericError, ShapeError, TapeError
from lawground import serial
from lawground.params import ParamStore
from lawground.tensor import (
    Tape,
    Tensor,
    _BLOCK_SCORES,
    _head_blocks,
    _libm_ufunc,
    _record,
    _softmax_,
    attention,
    bilinear_upsample,
    erf,
    expit,
    gelu,
    gelu_linear,
    grad_check,
    layer_norm,
    layer_norm_linear,
    linear,
    reshape,
    segment_bounds,
    sigmoid,
    softmax,
    take_rows,
    tmean,
    transpose,
    tsum,
)

RNG = np.random.default_rng(1234)


def rand_tensor(shape, requires_grad=False, scale=1.0):
    return Tensor(RNG.normal(0.0, scale, shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_constant_is_uniform():
    for c in (-3.5, 0.0, 42.0):
        out = softmax(Tensor([c, c, c]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_analytic_quarter():
    out = softmax(Tensor([0.0, np.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_shift_stable():
    big = softmax(Tensor([1000.0, 1001.0])).data
    # naive formula only works at the shifted inputs
    e = np.exp([0.0, 1.0])
    np.testing.assert_allclose(big, e / e.sum(), atol=1e-15)
    assert np.isfinite(big).all()


def test_softmax_rows_sum_to_one_and_open_interval():
    x = rand_tensor((6, 9), scale=4.0)
    y = softmax(x, axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(6), atol=1e-9)
    assert (y > 0).all() and (y < 1).all()


def test_softmax_monotone():
    x = RNG.normal(size=12)
    y = softmax(Tensor(x)).data
    assert np.array_equal(np.argsort(x), np.argsort(y))


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        softmax(Tensor([0.0, np.nan]))


def test_softmax_rejects_all_neg_inf_row():
    # one live row is not enough: a row with no finite logit has no softmax
    with pytest.raises(NumericError, match="NaN or"):
        softmax(Tensor([[0.0, 1.0], [-np.inf, -np.inf]]), axis=-1)


# ---------------------------------------------------------------------------
# fused attention


def matmul(a, b):
    """Batched matrix product over the last two axes, as a taped primitive."""
    out = Tensor(a.data @ b.data)

    def backfn(g):
        return (g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g)

    return _record(out, (a, b), backfn)


def columns(x, lo, hi):
    """The column slice x[:, lo:hi], as a taped primitive."""
    out = Tensor(x.data[:, lo:hi])

    def backfn(g):
        gx = np.zeros(x.shape)
        gx[:, lo:hi] = g
        return (gx,)

    return _record(out, (x,), backfn)


def composed_attention(qkv, heads, key_bias=None):
    """Reference: the same attention built from taped primitives; key_bias,
    when given, is a (T,) additive logit bias per key."""
    n_tok, d = qkv.shape[0], qkv.shape[1] // 3
    dh = d // heads

    def split(block):
        return transpose(reshape(block, (n_tok, heads, dh)), (1, 0, 2))

    q, k, v = (split(columns(qkv, i * d, (i + 1) * d)) for i in range(3))
    scores = matmul(q, transpose(k, (0, 2, 1))) * (1.0 / np.sqrt(dh))
    if key_bias is not None:
        scores = scores + Tensor(key_bias[None, None, :])
    probs = softmax(scores, axis=-1)
    ctx = matmul(probs, v)
    return reshape(transpose(ctx, (1, 0, 2)), (n_tok, d)), probs.data


def one_segment(qkv, heads):
    """attention over one sequence: its context and (H, T, T) probabilities."""
    ctx, (probs,) = attention(qkv, heads, [qkv.shape[0]], True)
    return ctx, probs


def run_attention(fn, qkv, heads, upstream):
    """Forward context and probabilities, plus d<ctx, upstream>/d qkv."""
    x = Tensor(qkv.copy(), requires_grad=True)
    with Tape() as tape:
        ctx, probs = fn(x, heads)
        loss = tsum(ctx * Tensor(upstream))
    tape.backward(loss)
    return ctx.data, probs, x.grad


@pytest.mark.parametrize("n_tok,heads,dh", [(7, 2, 16), (9, 4, 16), (6, 3, 3)])
def test_attention_matches_composed_primitives(n_tok, heads, dh):
    d = heads * dh
    qkv = RNG.normal(size=(n_tok, 3 * d))
    upstream = RNG.normal(size=(n_tok, d))
    got = run_attention(one_segment, qkv, heads, upstream)
    want = run_attention(composed_attention, qkv, heads, upstream)
    for g, w in zip(got, want):
        if dh == 16:  # scale 1/4 is exact: same arithmetic, same bits
            assert np.array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=1e-15, atol=0)


def test_transformer_block_records_seven_entries():
    blk = block_params(ParamStore(0), "b.", 4, 16)
    with Tape() as tape:
        out, (probs,) = transformer_block(rand_tensor((5, 4)), blk,
                                          blk["qkv_w"], 2, [5], True)
    # ln + qkv, attention, linear, add, ln + fc1, gelu + fc2, add
    assert len(tape._entries) == 7
    assert out.shape == (5, 4)
    assert isinstance(probs, np.ndarray) and probs.shape == (2, 5, 5)
    # probabilities are built only when collected
    assert transformer_block(rand_tensor((5, 4)), blk, blk["qkv_w"], 2,
                             [5])[1] is None


def test_attention_nan_raises_and_records_nothing():
    qkv = RNG.normal(size=(4, 6))
    qkv[2, 1] = np.nan
    with Tape() as tape:
        with pytest.raises(NumericError, match="NaN or"):
            attention(Tensor(qkv, requires_grad=True), 1, [4])
        assert tape._entries == []


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((4, 8))), 1, [4])  # width not a multiple of 3
    with pytest.raises(ShapeError, match="head count"):
        attention(Tensor(np.zeros((4, 12))), 3, [4])  # 3 heads do not divide 4


def unpacked_attention(qkv, heads):
    """tensor.attention as it was before packed sequences: one sequence,
    kept verbatim so the one-segment case can be checked bit for bit."""
    n_tok, d = qkv.shape[0], qkv.shape[1] // 3
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    q, k, v = qkv.data.reshape(n_tok, 3, heads, dh).transpose(1, 2, 0, 3)
    p = q @ np.swapaxes(k, -1, -2)
    p *= scale
    _softmax_(p)
    ctx = p @ v  # (H, T, dh)
    out = Tensor(ctx.transpose(1, 0, 2).reshape(n_tok, d))

    def backfn(g, p=p, q=q, k=k, v=v):
        gctx = g.reshape(n_tok, heads, dh).transpose(1, 0, 2)
        gqkv = np.empty((n_tok, 3 * d))
        gq, gk, gv = gqkv.reshape(n_tok, 3, heads, dh).transpose(1, 2, 0, 3)
        gv[...] = np.swapaxes(p, -1, -2) @ gctx
        gs = gctx @ np.swapaxes(v, -1, -2)
        dot = np.sum(gs * p, axis=-1, keepdims=True)
        gs -= dot
        gs *= p
        gs *= scale
        gq[...] = gs @ k
        gk[...] = np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2)
        return (gqkv,)

    return _record(out, (qkv,), backfn), p


@pytest.mark.parametrize("n_tok,heads,dh", [(7, 4, 16), (64, 4, 16),
                                            (1, 2, 8), (6, 3, 3)])
def test_one_segment_attention_is_bit_identical_to_unpacked_op(n_tok, heads, dh):
    rng = np.random.default_rng(n_tok)
    qkv = rng.normal(size=(n_tok, 3 * heads * dh))
    upstream = rng.normal(size=(n_tok, heads * dh))
    got = run_attention(one_segment, qkv, heads, upstream)
    want = run_attention(unpacked_attention, qkv, heads, upstream)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_segmented_attention_matches_each_segment_alone():
    # unequal segments, one of them a single token; a row never sees
    # another segment, so each segment equals attention over it alone
    rng = np.random.default_rng(21)
    lengths, heads, d = (3, 1, 5, 2), 2, 8
    qkv = rng.normal(size=(sum(lengths), 3 * d))
    upstream = rng.normal(size=(sum(lengths), d))
    x = Tensor(qkv.copy(), requires_grad=True)
    with Tape() as tape:
        ctx, probs = attention(x, heads, lengths, True)
        loss = tsum(ctx * Tensor(upstream))
    tape.backward(loss)
    assert [p.shape for p in probs] == [(heads, n, n) for n in lengths]
    lo = 0
    for n, p in zip(lengths, probs):
        rows = slice(lo, lo + n)
        want_ctx, want_p, want_g = run_attention(one_segment, qkv[rows], heads,
                                                 upstream[rows])
        np.testing.assert_allclose(ctx.data[rows], want_ctx, rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(p, want_p, rtol=0, atol=1e-15)
        np.testing.assert_allclose(x.grad[rows], want_g, rtol=0, atol=1e-15)
        lo += n
    assert np.array_equal(probs[1], np.ones((heads, 1, 1)))


def kept_probs_attention(qkv, heads, lengths):
    """tensor.attention as it was while its tape entry kept each segment's
    probabilities, kept verbatim as the oracle of the rebuilding backward."""
    n_tok, d = qkv.shape[0], qkv.shape[1] // 3
    spans = segment_bounds(lengths, n_tok)
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    q, k, v = qkv.data.reshape(n_tok, 3, heads, dh).transpose(1, 2, 0, 3)
    kt = k.swapaxes(1, 2)
    ctx = np.empty((heads, n_tok, dh))
    probs = []
    for lo, hi in spans:
        p = q[:, lo:hi] @ kt[:, :, lo:hi]
        p *= scale
        _softmax_(p)
        ctx[:, lo:hi] = p @ v[:, lo:hi]
        probs.append(p)
    out = Tensor(ctx.transpose(1, 0, 2).reshape(n_tok, d))

    def backfn(g, q=q, k=k, v=v):
        gctx = g.reshape(n_tok, heads, dh).transpose(1, 0, 2)
        gqkv = np.empty((n_tok, 3 * d))
        gq, gk, gv = gqkv.reshape(n_tok, 3, heads, dh).transpose(1, 2, 0, 3)
        qt, vt = q.swapaxes(1, 2), v.swapaxes(1, 2)
        for (lo, hi), p in zip(spans, probs):
            gc = gctx[:, lo:hi]
            gv[:, lo:hi] = p.swapaxes(1, 2) @ gc
            gs = gc @ vt[:, :, lo:hi]
            dot = np.sum(gs * p, axis=-1, keepdims=True)
            gs -= dot
            gs *= p
            gs *= scale
            gq[:, lo:hi] = gs @ k[:, lo:hi]
            gk[:, lo:hi] = (qt[:, :, lo:hi] @ gs).swapaxes(1, 2)
        return (gqkv,)

    return _record(out, (qkv,), backfn), probs


@pytest.mark.parametrize("lengths,heads,dh", [
    ((7, 3, 12, 1, 9, 5, 10, 4), 4, 16),  # packed text-like expressions
    ((256,), 4, 16),                       # one 128x128 image's tokens
    ((6, 2, 9), 3, 3),                     # a scale that is not exact
    ((256, 256), 4, 16),                   # two 128x128 images
    ((256, 3, 256), 4, 16),                # one-block segment between them
    ((256,), 3, 12),                       # head blocks, inexact scale
])
def test_rebuilt_probabilities_give_the_kept_probabilities_gradients(
        lengths, heads, dh):
    # forward and backward run each segment one block of heads at a time and
    # backward rebuilds each block's probabilities with the forward's ops
    # from the row maxima and normalisers, so every output, collected
    # probability and gradient equals the keep-the-probabilities formula's
    # bit for bit
    rng = np.random.default_rng(sum(lengths))
    qkv = 2.0 * rng.normal(size=(sum(lengths), 3 * heads * dh))
    upstream = rng.normal(size=(sum(lengths), heads * dh))
    got = run_attention(lambda x, h: attention(x, h, lengths, True), qkv,
                        heads, upstream)
    want = run_attention(lambda x, h: kept_probs_attention(x, h, lengths),
                         qkv, heads, upstream)
    assert np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1]) == len(lengths)
    assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))
    assert np.array_equal(got[2], want[2])


def test_head_blocks_hold_at_most_the_score_budget():
    # one head of a 256-token segment fills the budget; a 64-token image or
    # a text segment runs all its heads in one block
    spans = segment_bounds((256, 64, 7), 327)
    assert _head_blocks(spans, 4) == [
        (0, 256, 0, 1), (0, 256, 1, 2), (0, 256, 2, 3), (0, 256, 3, 4),
        (256, 320, 0, 4), (320, 327, 0, 4)]
    assert _BLOCK_SCORES == 256 * 256
    # a head bigger than the budget is a block by itself
    assert _head_blocks([(0, 300)], 2) == [(0, 300, 0, 1), (0, 300, 1, 2)]


def test_attention_rejects_bad_segments():
    qkv = Tensor(np.zeros((5, 6)))
    for lengths in ((2, 2), (2, 4), (5, 0), ()):
        with pytest.raises(ShapeError, match="segment lengths"):
            attention(qkv, 1, lengths)


# ---------------------------------------------------------------------------
# gelu


def test_gelu_zero_and_limits():
    assert gelu(Tensor(0.0)).item() == 0.0
    assert abs(gelu(Tensor(12.0)).item() - 12.0) < 1e-12
    assert abs(gelu(Tensor(-12.0)).item()) < 1e-12


def test_gelu_matches_quadrature():
    # independent oracle: numeric integration of the standard normal pdf
    def normal_cdf(t):
        val, _ = quad(lambda u: np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi), -30.0, t)
        return val

    for x in (1.0, -0.7, 0.3, 2.5):
        want = x * normal_cdf(x)
        got = gelu(Tensor(x)).item()
        assert abs(got - want) < 1e-10


@pytest.mark.parametrize("n,k,m", [
    (512, 256, 64),  # a desk64 chunk's ViT fc2: 8 images of 64 tokens
    (23, 256, 64),   # the text encoder's fc2 over packed expressions
    (5, 7, 3),       # an odd shape
])
def test_gelu_linear_is_bit_identical_to_gelu_then_linear(n, k, m):
    # backward rebuilds the GELU output and slope from its input with the
    # forward's helpers, so the output and every gradient equal the
    # composed ops' bit for bit
    rng = np.random.default_rng(n + k)
    u, w, b = rng.normal(size=(n, k)), rng.normal(size=(m, k)), rng.normal(
        size=m)
    upstream = rng.normal(size=(n, m))

    def run(fn):
        ts = [Tensor(a.copy(), requires_grad=True) for a in (u, w, b)]
        with Tape() as tape:
            y = fn(*ts)
            loss = tsum(y * Tensor(upstream))
        tape.backward(loss)
        return [y.data] + [t.grad for t in ts]

    got = run(gelu_linear)
    want = run(lambda u, w, b: linear(gelu(u), w, b))
    for g, w_ in zip(got, want):
        assert np.array_equal(g, w_)


# ---------------------------------------------------------------------------
# erf and expit: C-library ufuncs


def special_grid(*extra):
    """2e5 + 1 points over [-8, 8], then normals, subnormals, signed zeros,
    infinities and nan."""
    tiny = np.finfo(np.float64).tiny
    edges = [1e-300, tiny, np.nextafter(tiny, 0.0), 5e-324, 1e-310, 0.0,
             1.0, 6.0, 27.0, 1e300, np.inf, *extra]
    return np.concatenate([np.linspace(-8.0, 8.0, 200_001), edges,
                           np.negative(edges), [np.nan]])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_erf_is_bitwise_math_erf():
    grid = special_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = erf(grid)
    assert np.array_equal(bits(got), bits([math.erf(v) for v in grid]))


def test_expit_is_bitwise_scipy_expit():
    grid = special_grid(800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(grid)
    assert np.array_equal(bits(got), bits(scipy_expit(grid)))


@pytest.mark.parametrize("fn, oracle", [(erf, math.erf), (expit, scipy_expit)],
                         ids=["erf", "expit"])
def test_erf_and_expit_take_0d_strided_and_out(fn, oracle):
    x = RNG.normal(0.0, 3.0, (6, 8))
    assert bits(fn(np.array(0.75))) == bits(oracle(0.75))
    view = x[1::2, ::3]
    want = np.array([[oracle(v) for v in row] for row in view])
    assert np.array_equal(bits(fn(view)), bits(want))
    if fn is erf:
        out = np.empty((3, 3))
        assert erf(view, out=out) is out and np.array_equal(bits(out), bits(want))
        erf(view, out=view)  # in place, as gelu_cdf calls it
        assert np.array_equal(bits(view), bits(want))


def test_erf_and_expit_on_two_threads_match_one():
    x = RNG.normal(0.0, 3.0, 400_000)
    want = [bits(erf(x)), bits(expit(x))]
    got = [None, None]

    def work(i):
        got[i] = [bits(erf(x)), bits(expit(x))]

    workers = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert not any(w.is_alive() for w in workers)
    for each in got:
        assert all(np.array_equal(a, b) for a, b in zip(each, want))


def test_missing_c_library_function_is_import_error():
    with pytest.raises(ImportError, match="no_such_function"):
        _libm_ufunc("no_such_function")


# ---------------------------------------------------------------------------
# bilinear upsampling


def test_bilinear_constant_any_factor():
    x = Tensor(np.full((3, 5), 5.0))
    for f in (1, 2, 3, 4):
        np.testing.assert_allclose(
            bilinear_upsample(x, f).data, np.full((3 * f, 5 * f), 5.0), atol=0)


def test_bilinear_factor_one_identity():
    x = rand_tensor((4, 6))
    assert np.array_equal(bilinear_upsample(x, 1).data, x.data)


def test_bilinear_hand_evaluated_2x2():
    x = Tensor([[0.0, 1.0], [0.0, 1.0]])
    got = bilinear_upsample(x, 2).data
    # per-pixel closed form at centers (j+0.5)/2-0.5 with edge clamping
    row = [0.0, 0.25, 0.75, 1.0]
    want = np.array([row, row, row, row])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_bilinear_stack_upsamples_each_map():
    stack = Tensor(np.random.default_rng(6).normal(size=(3, 4, 5)))
    got = bilinear_upsample(stack, 4).data
    assert got.shape == (3, 16, 20)
    for one, want in zip(stack.data, got):
        assert np.array_equal(bilinear_upsample(Tensor(one), 4).data, want)
    with pytest.raises(ShapeError):
        bilinear_upsample(Tensor(np.zeros((1, 2, 2, 2))), 2)


def test_bilinear_rejects_factor_below_one():
    with pytest.raises(ShapeError):
        bilinear_upsample(Tensor(np.zeros((2, 2))), 0)


def test_bilinear_linear_ramp_interior():
    x = Tensor(np.arange(4, dtype=np.float64)[None, :].repeat(2, axis=0))
    got = bilinear_upsample(x, 2).data
    # interior samples of a linear ramp are reproduced exactly
    np.testing.assert_allclose(got[0, 1:-1], np.arange(0.25, 3.0, 0.5), atol=1e-12)


# ---------------------------------------------------------------------------
# backward and the tape


def test_backward_sum_gives_ones():
    x = rand_tensor((3, 4), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, np.ones((3, 4)), atol=0)


def test_backward_quadratic():
    x = rand_tensor((5,), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * x)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


def test_backward_accumulates_on_reuse():
    x = rand_tensor((4,), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x) + tsum(x)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, np.full(4, 2.0), atol=0)


def test_backward_twice_is_error():
    x = rand_tensor((2,), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_non_scalar_is_error():
    x = rand_tensor((2,), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_detached_is_error():
    x = rand_tensor((2,), requires_grad=True)
    loss = tsum(x)  # no tape active
    with pytest.raises(TapeError):
        Tape().backward(loss)


def test_grads_merge_across_tapes():
    x = rand_tensor((3,), requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = tsum(x)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, np.full(3, 2.0), atol=0)


def test_backward_empties_the_tape():
    x = rand_tensor((3, 4), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * x)
    assert len(tape._entries) == 2
    tape.backward(loss)
    assert tape._entries == []
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


def test_nonfinite_loss_drops_entries():
    x = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(x * np.inf)
    with pytest.raises(NumericError):
        tape.backward(loss)
    assert tape._entries == []
    assert not x.grad.any()


def test_failed_forward_drops_entries():
    x = rand_tensor((3,), requires_grad=True)
    with pytest.raises(NumericError):
        with Tape() as tape:
            loss = tsum(x)
            softmax(x * np.nan)
    assert tape._entries == []
    with pytest.raises(TapeError):
        tape.backward(loss)
    with Tape() as fresh:
        again = tsum(x)
    fresh.backward(again)
    np.testing.assert_allclose(x.grad, np.ones(3), atol=0)


# ---------------------------------------------------------------------------
# gradient checking


def square_sum(y):
    return tsum(y * y)


def test_grad_check_sum_is_zero_error():
    # exact up to central-difference rounding
    x = rand_tensor((6,), requires_grad=True)
    assert grad_check(tsum, x) < 1e-10


@pytest.mark.parametrize("name,fn,shape", [
    ("mul", lambda x: tsum(x * x * 0.5), (7,)),
    ("add_broadcast", lambda x: tsum((x + tsum(x, axis=0, keepdims=True))
                                     * (x + tsum(x, axis=0, keepdims=True))),
     (5, 2)),
    ("softmax", lambda x: tsum(softmax(x, axis=-1) * softmax(x, axis=-1)), (4, 5)),
    ("gelu", lambda x: tsum(gelu(x)), (11,)),
    ("sigmoid", lambda x: tsum(sigmoid(x) * sigmoid(x)), (9,)),
    ("mean_axis", lambda x: tsum(tmean(x, axis=0) * tmean(x, axis=0)), (4, 3)),
    ("sum_axis", lambda x: tsum(tsum(x, axis=1, keepdims=True) * x), (3, 4)),
    ("mean", lambda x: tmean(x), (3, 4)),
    ("reshape_t", lambda x: tsum(transpose(reshape(x, (6, 2)), (1, 0)) * 2.0),
     (3, 4)),
])
def test_grad_check_elementwise_ops(name, fn, shape):
    x = rand_tensor(shape, requires_grad=True)
    assert grad_check(fn, x) <= 1e-4, name


def test_grad_check_layernorm():
    rand_tensor((4, 6)), rand_tensor((6,))  # former inputs: later draws stay put
    g = Tensor(np.ones(6), requires_grad=True)
    b = Tensor(np.zeros(6), requires_grad=True)
    x = rand_tensor((5, 6), requires_grad=True)
    assert grad_check(lambda x, g, b: square_sum(layer_norm(x, g, b)),
                      [x, g, b]) <= 1e-4


def run_projection(fn, leaves, upstream):
    """fn's output and d<output, upstream>/d every leaf."""
    for leaf in leaves:
        leaf.zero_grad()
    with Tape() as tape:
        y = fn(*leaves)
        loss = tsum(y * Tensor(upstream))
    tape.backward(loss)
    return [y.data] + [leaf.grad.copy() for leaf in leaves]


@pytest.mark.parametrize("w_shape", [(5, 6), (3, 5, 6)])
def test_layer_norm_linear_is_bit_identical_to_composed_ops(w_shape):
    # a shared (m, k) weight, and a (B, m, k) stack over B row blocks; own
    # stream, so the tests after this one keep their inputs
    rng = np.random.default_rng(len(w_shape))
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((6, 6), (6,), (6,), w_shape, (5,))]
    upstream = rng.normal(size=(6, 5))
    got = run_projection(layer_norm_linear, leaves, upstream)
    want = run_projection(
        lambda x, g, b, w, c: linear(layer_norm(x, g, b), w, c), leaves,
        upstream)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_grad_check_spatial_ops():
    m = rand_tensor((3, 4), requires_grad=True)
    assert grad_check(lambda m: square_sum(bilinear_upsample(m, 2)), m) <= 1e-4
    stack = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)),
                   requires_grad=True)
    assert grad_check(lambda s: square_sum(bilinear_upsample(s, 2)),
                      stack) <= 1e-4


def test_grad_check_take_rows():
    table = rand_tensor((5, 3), requires_grad=True)
    ids = np.array([0, 2, 2, 4])
    assert grad_check(lambda t: square_sum(take_rows(t, ids)), table) <= 1e-4


def test_grad_check_detects_wrong_rule():
    # negative control: an op with a deliberately wrong gradient
    from lawground.tensor import _record

    def bad_square(x):
        out = Tensor(x.data * x.data)
        return _record(out, (x,), lambda g: (3.0 * g * x.data,))  # should be 2x

    x = rand_tensor((5,), requires_grad=True)
    assert grad_check(lambda t: tsum(bad_square(t)), x) > 1e-2


# ---------------------------------------------------------------------------
# invariants and serialization


def test_tensor_shape_data_invariant():
    t = rand_tensor((2, 3, 4), requires_grad=True)
    assert int(np.prod(t.shape)) == t.data.size
    assert t.grad.shape == t.data.shape


def test_sigmoid_stays_in_open_interval():
    p = sigmoid(Tensor([-1e4, -40.0, 0.0, 40.0, 1e4])).data
    assert (p > 0.0).all() and (p < 1.0).all()


def test_serial_round_trip_is_byte_identical(tmp_path):
    arrays = {
        "weights/a": RNG.normal(size=(3, 4)),
        "counts": np.array([1, 2, 3], dtype=np.int64),
        "blob": np.frombuffer(b"hello", dtype=np.uint8).copy(),
        "scalar": np.array(2.5),
    }
    p1, p2 = tmp_path / "a.narr", tmp_path / "b.narr"
    serial.write_arrays(p1, arrays)
    loaded = serial.read_arrays(p1)
    assert list(loaded) == list(arrays)
    for k in arrays:
        assert np.array_equal(loaded[k], np.asarray(arrays[k]))
        assert loaded[k].dtype.kind == np.asarray(arrays[k]).dtype.kind
    serial.write_arrays(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_serial_rejects_garbage(tmp_path):
    from lawground.errors import DataError

    p = tmp_path / "bad.narr"
    p.write_bytes(b"not a container")
    with pytest.raises(DataError):
        serial.read_arrays(p)


def test_serial_failed_write_keeps_previous_file(tmp_path):
    from lawground.errors import DataError

    path = tmp_path / "best.ckpt"
    serial.write_arrays(path, {"a": RNG.normal(size=(2, 3)),
                               "b": np.arange(4, dtype=np.int64)})
    before = path.read_bytes()
    bad = {"a": RNG.normal(size=(50, 50)),
           "c": np.array([1 + 2j, 3 - 1j])}  # complex: no dtype tag
    with pytest.raises(DataError):
        serial.write_arrays(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]
    assert list(serial.read_arrays(path)) == ["a", "b"]
