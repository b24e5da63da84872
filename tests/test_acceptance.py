"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `python -m pytest tests/test_acceptance.py -v -s` to see the
criterion lines. The training-analog criteria build their dataset and train
real models, so this module dominates the suite's runtime.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from lawground import losses
from lawground.config import TrainConfig, load_config
from lawground.head import MultitaskHead, binarize
from lawground.law import (
    DecompositionParams,
    fused_weights,
    generate_all,
    layer_cores,
)
from lawground.model import GroundingModel
from lawground.params import ParamStore
from lawground.synthground import generate_dataset
from lawground.tensor import (
    Tensor,
    _record,
    attention,
    bilinear_upsample,
    gelu,
    grad_check,
    layer_norm,
    layer_norm_linear,
    linear,
    sigmoid,
    softmax,
    take_rows,
    transpose,
    transposed_conv2x,
    tsum,
)
from lawground.text import Vocabulary
from lawground.train import evaluate_checkpoint, train
from lawground.vit import VisualBackbone

RNG = np.random.default_rng(2024)

# thresholds and budgets, straight from the acceptance contract
GRAD_TOL = 1e-4
GRAD_SUITE_BUDGET_S = 60.0
ORACLE_BUDGET_S = 120.0
ORACLE_TOL_CLOSED = 1e-10
ORACLE_TOL_ARITH = 1e-12
TRAIN_PREC_TARGET = 0.90
TRAIN_MIOU_TARGET = 0.70
TRAIN_STEP_BUDGET = 3000
TRAIN_WALL_BUDGET_S = 30 * 60

WORDS = ["red", "green", "blue", "yellow", "purple", "white", "circle",
         "square", "triangle", "small", "large", "left", "right", "above",
         "below", "of", "the", "leftmost", "rightmost", "topmost"]


def taped(weights):
    """A Rebuilt weight stack as a Tensor on the active tape, with the
    record that folds into the projection reading it, on its own."""
    return _record(Tensor(weights.build()), weights.parents, weights.backfn)


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def toy_model(seed=0, **kw):
    cfg = dict(image_size=16, patch=8, d_model=8, blocks=2, heads=2,
               mlp_ratio=2, text_width=8, text_layers=1, text_heads=2,
               max_len=6, groups=2, rank_dw=2, reduction_r=2, pool_dim=4,
               seed=seed)
    cfg.update(kw)
    return GroundingModel(TrainConfig(**cfg), Vocabulary(WORDS))


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    generate_dataset(root, seed=0, n_train=4000, n_val=500, n_test=500,
                     resolution=64)
    return root


# ---------------------------------------------------------------------------
# criterion 1: full-scale benchmark numbers are declared out of reach


def test_criterion_1_nonreproducibility_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = ("not reproducible" in text
          and "86.6" in text
          and "pre-trained" in text
          and "property-based" in text)
    report("criterion-1 scope statement", ok,
           "README declares full-scale numbers unreachable and verification "
           "property-based")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite


def test_criterion_2_gradient_suite():
    t0 = time.time()
    worst = {}

    def check(name, fn, tensors):
        err = grad_check(fn, tensors)
        worst[name] = err
        assert err <= GRAD_TOL, f"{name}: {err}"

    def rt(shape, scale=1.0):
        return Tensor(RNG.normal(0, scale, shape), requires_grad=True)

    def sq(y):
        return (y * y).sum()

    # every differentiable op, randomized small shapes
    check("linear", lambda x, w, b: sq(linear(x, w, b)),
          [rt((3, 4)), rt((5, 4)), rt((5,))])
    rt((4, 6)), rt((6,))  # the draws of the former matvec arm: inputs stay put
    check("add_mul_neg",
          lambda a, b: ((a + b) * (a + -b) * (b * b + 1.0)).sum(),
          [rt((3, 4)), rt((3, 4))])
    check("sigmoid", lambda x: sq(sigmoid(x)), [rt((8,))])
    check("gelu", lambda x: gelu(x).sum(), [rt((8,))])
    check("softmax", lambda x: sq(softmax(x, -1)), [rt((4, 6))])
    check("sum_mean", lambda x: (x.sum(axis=0) * x.sum(axis=0)).mean(),
          [rt((4, 5))])
    check("reshape_transpose", lambda x: sq(transpose(x.reshape((6, 2)))),
          [rt((3, 4))])
    check("getitem", lambda x: sq(x[1:3, ::2]), [rt((4, 5))])
    check("take_rows", lambda t: sq(take_rows(t, np.array([0, 2, 2]))),
          [rt((4, 3))])
    check("layer_norm", lambda x, g, b: sq(layer_norm(x, g, b)),
          [rt((4, 6)), rt((6,)), rt((6,))])
    check("transposed_conv2x", lambda x, k, b: sq(transposed_conv2x(x, k, b)),
          [rt((2, 3, 3)), rt((2, 2, 2, 2)), rt((2,))])
    check("bilinear_upsample", lambda x: sq(bilinear_upsample(x, 2)),
          [rt((3, 4))])
    # own streams, so every other check keeps its inputs
    att_rng = np.random.default_rng(11)
    check("attention", lambda qkv: sq(attention(qkv, 2)[0]),
          [Tensor(att_rng.normal(size=(5, 12)), requires_grad=True)])
    op_rng = np.random.default_rng(12)

    def ot(shape, scale=0.5):
        return Tensor(op_rng.normal(0, scale, shape), requires_grad=True)

    law = DecompositionParams(
        layer_embeds=[ot((4,)), ot((4,))], reducers=[ot((2, 4)), ot((2, 4))],
        core_weights=[ot((4, 2)), ot((4, 2))], core_biases=[ot((4,)), ot((4,))],
        out_factor=ot((6, 2)), in_factor=ot((2, 2)),
        static_fused=[ot((6, 2)), ot((6, 2))], groups=2, rank_dw=2)
    ot((6,)), ot((6,))  # the draws of the former static biases: inputs stay put
    feats = ot((3, 4), 1.0)
    check("layer_cores", lambda *_: sq(layer_cores(feats, law)[0]),
          [feats, *law.layer_embeds, *law.reducers, *law.core_weights,
           *law.core_biases])
    cores = ot((1, 2, 2, 2))
    check("fused_weights", lambda *_: sq(taped(fused_weights(law, cores, 1))),
          [law.static_fused[1], law.out_factor, cores, law.in_factor])
    box_true = op_rng.uniform([0.3, 0.3, 0.1, 0.1], [0.7, 0.7, 0.4, 0.4])
    check("box_loss",
          lambda b: losses.box_loss(box_true, b, losses.LossWeights())[0],
          [Tensor(op_rng.uniform([0.3, 0.3, 0.1, 0.1], [0.7, 0.7, 0.4, 0.4]),
                  requires_grad=True)])
    mask_true = (op_rng.uniform(size=(3, 3)) > 0.5).astype(float)
    check("mask_loss",
          lambda z: losses.mask_loss(mask_true, sigmoid(z),
                                     losses.LossWeights())[0],
          [ot((3, 3), 1.0)])

    # packed sequences, own streams: unequal segments, one a single token
    seg_rng = np.random.default_rng(13)
    check("segmented_attention",
          lambda qkv: sq(attention(qkv, 2, (3, 1, 2))[0]),
          [Tensor(seg_rng.normal(size=(6, 12)), requires_grad=True)])
    pack_rng = np.random.default_rng(14)

    def pt(shape, scale=0.5):
        return Tensor(pack_rng.normal(0, scale, shape), requires_grad=True)

    packed = DecompositionParams(
        layer_embeds=[pt((4,)), pt((4,))], reducers=[pt((2, 4)), pt((2, 4))],
        core_weights=[pt((4, 2)), pt((4, 2))], core_biases=[pt((4,)), pt((4,))],
        out_factor=pt((6, 2)), in_factor=pt((2, 2)),
        static_fused=[pt((6, 2)), pt((6, 2))], groups=2, rank_dw=2)
    packed_feats = pt((6, 4), 1.0)
    check("packed_layer_cores",
          lambda *_: sq(layer_cores(packed_feats, packed, (2, 1, 3))[0]),
          [packed_feats, *packed.layer_embeds, *packed.reducers,
           *packed.core_weights, *packed.core_biases])

    # stacked image rows, own streams: three expressions' fused weights as
    # one op, and per-image projections of equal row blocks
    batch_rng = np.random.default_rng(15)
    batch_cores = Tensor(batch_rng.normal(0, 0.5, (3, 2, 2, 2)),
                         requires_grad=True)
    check("batched_fused_weights",
          lambda *_: sq(taped(fused_weights(law, batch_cores, 1))),
          [law.static_fused[1], law.out_factor, batch_cores, law.in_factor])
    rows_rng = np.random.default_rng(16)
    check("per_image_linear", lambda x, w, b: sq(linear(x, w, b)),
          [Tensor(rows_rng.normal(size=(6, 4)), requires_grad=True),
           Tensor(rows_rng.normal(size=(3, 5, 4)), requires_grad=True),
           Tensor(rows_rng.normal(size=(5,)), requires_grad=True)])
    # pre-norm projections, own stream: a shared weight, and a generated
    # stack whose record folds into the projection's
    norm_rng = np.random.default_rng(18)

    def nt(shape, scale=1.0):
        return Tensor(norm_rng.normal(0, scale, shape), requires_grad=True)

    check("layer_norm_linear",
          lambda x, g, b, w, c: sq(layer_norm_linear(x, g, b, w, c)),
          [nt((4, 6)), nt((6,)), nt((6,)), nt((5, 6)), nt((5,))])
    gen = DecompositionParams(
        layer_embeds=[], reducers=[], core_weights=[], core_biases=[],
        out_factor=nt((5, 2), 0.5), in_factor=nt((4, 2), 0.5),
        static_fused=[nt((5, 4), 0.5)], groups=2, rank_dw=2)
    gen_cores = nt((3, 1, 2, 2), 0.5)
    check("generated_layer_norm_linear",
          lambda x, g, b, c, *_: sq(layer_norm_linear(
              x, g, b, fused_weights(gen, gen_cores, 0), c)),
          [nt((6, 4)), nt((4,)), nt((4,)), nt((5,)), gen.static_fused[0],
           gen.out_factor, gen_cores, gen.in_factor])
    # batch means of the joint loss's two ops, own stream
    loss_rng = np.random.default_rng(17)
    boxes_true = loss_rng.uniform([0.3, 0.3, 0.1, 0.1], [0.7, 0.7, 0.4, 0.4],
                                  (3, 4))
    check("batched_box_loss",
          lambda b: losses.box_loss(boxes_true, b, losses.LossWeights())[0],
          [Tensor(loss_rng.uniform([0.3, 0.3, 0.1, 0.1],
                                   [0.7, 0.7, 0.4, 0.4], (3, 4)),
                  requires_grad=True)])
    masks_true = (loss_rng.uniform(size=(3, 3, 3)) > 0.5).astype(float)
    check("batched_mask_loss",
          lambda z: losses.mask_loss(masks_true, sigmoid(z),
                                     losses.LossWeights())[0],
          [Tensor(loss_rng.normal(size=(3, 3, 3)), requires_grad=True)])

    # full multitask loss through a 2-block toy model, grads w.r.t. all params
    model = toy_model(seed=5)
    n_params = sum(p.size for _, p in model.store.items())
    assert n_params <= 5000, f"toy model has {n_params} parameters"
    for i in range(model.config.blocks):  # nonzero cores so the dynamic path counts
        core = model.store[f"law.layer{i}.core.weight"]
        core.data[...] = RNG.normal(0, 0.3, core.shape)
    image = Tensor(RNG.uniform(0, 1, (3, 16, 16)))
    tokens = model.tokenize("red circle left of the square")
    gt_box = np.array([0.3, 0.6, 0.25, 0.25])
    gt_mask = np.zeros((16, 16))
    gt_mask[6:12, 2:8] = 1.0

    def full_loss(*_):
        pred = model.forward(image, tokens)
        value, _ = losses.total_loss(gt_box, pred.box, gt_mask,
                                     pred.mask.probs)
        return value

    params = [p for _, p in model.store.items()]
    err = grad_check(full_loss, params)
    worst["full-model"] = err
    elapsed = time.time() - t0
    ok = err <= GRAD_TOL and elapsed <= GRAD_SUITE_BUDGET_S
    report("criterion-2 gradient suite", ok,
           f"max rel err {max(worst.values()):.2e} over {len(worst)} checks, "
           f"{n_params} toy params, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: zero-initialized dynamic term is exactly inert


def test_criterion_3_zero_core_equivalence():
    model = GroundingModel(TrainConfig(seed=3), Vocabulary(WORDS))
    image = model.image_tensor(
        RNG.integers(0, 255, (64, 64, 3), dtype=np.uint8))
    tok_a = model.tokenize("red circle")
    tok_b = model.tokenize("leftmost triangle above the blue square")

    pred_a = model.forward(image, tok_a)
    pred_b = model.forward(image, tok_b)
    feats_equal = np.array_equal(pred_a.visual.data, pred_b.visual.data)

    model.law = None  # the backbone's own static projections
    static = model.forward(image, tok_a)
    static_equal = (
        np.array_equal(pred_a.visual.data, static.visual.data)
        and np.array_equal(pred_a.box.data, static.box.data)
        and np.array_equal(pred_a.mask.probs.data, static.mask.probs.data))

    report("criterion-3 zero-init equivalence", feats_equal and static_equal,
           "backbone features expression-independent and bit-equal to the "
           "static-weights path")


# ---------------------------------------------------------------------------
# criterion 4: oracle equivalence, >= 100 randomized cases per operation


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    n_cases = 100
    failures = []

    def close(tag, got, want, tol):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if err > tol:
            failures.append((tag, err))

    def erf_gelu(v):
        return v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))

    def one_layer(rng, groups, embed, reducer, core_w, core_b, d_w, d_out,
                  d_in):
        params = DecompositionParams(
            layer_embeds=[Tensor(embed)], reducers=[Tensor(reducer)],
            core_weights=[Tensor(core_w)], core_biases=[Tensor(core_b)],
            out_factor=Tensor(rng.normal(size=(d_out, d_w))),
            in_factor=Tensor(rng.normal(size=(d_in, d_w))),
            static_fused=[Tensor(rng.normal(size=(d_out, d_in)))],
            groups=groups, rank_dw=d_w)
        rng.normal(size=d_out)  # the former static bias's draw: inputs stay put
        return params

    # token aggregation vs per-group plain-float loops; an identity reducer
    # and core map expose gelu(pooled) in the first d_l core entries
    for case in range(n_cases):
        rng = np.random.default_rng(case)
        n_tok, groups, gsize = int(rng.integers(1, 6)), int(rng.integers(1, 4)), 3
        d_l = groups * gsize
        feats = rng.normal(size=(n_tok, d_l))
        embed = rng.normal(size=d_l)
        params = one_layer(rng, groups, embed, np.eye(d_l), np.eye(9, d_l),
                           np.zeros(9), 3, 3, 3)
        cores, (alpha,) = layer_cores(Tensor(feats), params)
        want_alpha = np.zeros((groups, n_tok))
        want_pooled = np.zeros(d_l)
        for g in range(groups):
            sl = slice(g * gsize, (g + 1) * gsize)
            logits = [float(np.dot(embed[sl], feats[j, sl]))
                      for j in range(n_tok)]
            top = max(logits)
            z = sum(math.exp(v - top) for v in logits)
            for j in range(n_tok):
                want_alpha[g, j] = math.exp(logits[j] - top) / z
                want_pooled[sl] += want_alpha[g, j] * feats[j, sl]
        close("aggregate", alpha[0], want_alpha, ORACLE_TOL_CLOSED)
        close("aggregate-pooled", cores.data.reshape(-1)[:d_l],
              [erf_gelu(v) for v in want_pooled], ORACLE_TOL_CLOSED)

    # weight generation from one token (pooled = the token) vs the reducer,
    # the core map and the triple product entry by entry
    for case in range(n_cases):
        rng = np.random.default_rng(1000 + case)
        groups, d_l, d_h, d_w, d_in, d_model = 2, 6, 3, 2, 3, 3
        d_out = 3 * d_model
        params = one_layer(rng, groups, rng.normal(size=d_l),
                           rng.normal(size=(d_h, d_l)),
                           rng.normal(size=(d_w * d_w, d_h)),
                           rng.normal(size=d_w * d_w), d_w, d_out, d_in)
        token = rng.normal(size=d_l)
        (weights,), _ = generate_all(Tensor(token[None]), params)
        got = weights.build()[0]
        reduced = [erf_gelu(sum(params.reducers[0].data[h, j] * token[j]
                                for j in range(d_l)))
                   for h in range(d_h)]
        core = np.zeros((d_w, d_w))
        for r in range(d_w * d_w):
            core.flat[r] = (sum(params.core_weights[0].data[r, j] * reduced[j]
                                for j in range(d_h))
                            + params.core_biases[0].data[r])
        want = params.static_fused[0].data.copy()
        for i in range(d_out):
            for j in range(d_in):
                acc = 0.0
                for a in range(d_w):
                    for b in range(d_w):
                        acc += (params.out_factor.data[i, a] * core[a, b]
                                * params.in_factor.data[j, b])
                want[i, j] += acc
        close("generate", got, want, ORACLE_TOL_CLOSED)

    # attention block vs explicit scores/softmax/weighted sum
    def ln_oracle(v, g, b):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    for case in range(n_cases):
        store = ParamStore(case)
        bb = VisualBackbone(store, image_size=24, patch=8, d_model=4,
                            blocks=1, heads=1)
        rng = np.random.default_rng(case)
        x = rng.normal(size=(3, 4))
        w = bb.static_weights()[0]
        got, _ = bb.attention_block(Tensor(x), w, 0)
        blk = bb.blocks[0]
        h = np.stack([ln_oracle(r, blk["ln1_g"].data, blk["ln1_b"].data)
                      for r in x])
        qkv = h @ w.data.T + blk["qkv_b"].data
        q, k, v = qkv[:, :4], qkv[:, 4:8], qkv[:, 8:]
        scores = np.array([[np.dot(q[i], k[j]) / 2.0 for j in range(3)]
                           for i in range(3)])
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        mid = x + att @ v @ blk["out_w"].data.T + blk["out_b"].data
        h2 = np.stack([ln_oracle(r, blk["ln2_g"].data, blk["ln2_b"].data)
                       for r in mid])
        act = h2 @ blk["mlp_w1"].data.T + blk["mlp_b1"].data
        act = act * 0.5 * (1 + erf(act / np.sqrt(2)))
        want = mid + act @ blk["mlp_w2"].data.T + blk["mlp_b2"].data
        close("attention-block", got.data, want, ORACLE_TOL_CLOSED)

    # similarity pooling vs explicit per-position evaluation
    for case in range(n_cases):
        store = ParamStore(10_000 + case)
        head = MultitaskHead(store, d_model=6, d_text=6, pool_dim=3, stride=8)
        rng = np.random.default_rng(case)
        tokens = rng.normal(size=(4, 6))
        cls = rng.normal(size=6)
        pooled, attn = head.lap_pool(Tensor(tokens[None]), Tensor(cls[None]))
        wv = store["head.pool.visual.weight"].data
        wt = store["head.pool.text.weight"].data
        logits = np.array([np.dot(wv @ tokens[t], wt @ cls) for t in range(4)])
        e = np.exp(logits - logits.max())
        a = e / e.sum()
        close("lap-attn", attn.reshape(-1), a, ORACLE_TOL_CLOSED)
        close("lap-pooled", pooled.data[0],
              sum(a[t] * tokens[t] for t in range(4)), ORACLE_TOL_CLOSED)

    # dynamic mask projection vs per-pixel dot loop
    for case in range(n_cases):
        rng = np.random.default_rng(case)
        feat = rng.normal(size=(5, 3, 3))
        cls = rng.normal(size=5)
        got = tsum(Tensor(cls).reshape((5, 1, 1)) * Tensor(feat), axis=0)
        want = np.array([[np.dot(cls, feat[:, i, j]) for j in range(3)]
                         for i in range(3)])
        close("mask-projection", got.data, want, ORACLE_TOL_ARITH)

    # losses and metrics vs plain-float oracles
    for case in range(n_cases):
        rng = np.random.default_rng(case)
        bt = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                       rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)])
        bp = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                       rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)])
        _, l1, giou = losses.box_loss(bt, bp, losses.LossWeights())
        close("l1", l1,
              sum(abs(bt[i] - bp[i]) for i in range(4)) / 4.0,
              ORACLE_TOL_ARITH)

        def corners(b):
            w, h = max(b[2], 0.0), max(b[3], 0.0)
            return b[0] - w / 2, b[1] - h / 2, b[0] + w / 2, b[1] + h / 2, w * h

        ax1, ay1, ax2, ay2, aa = corners(bt)
        bx1, by1, bx2, by2, ba = corners(bp)
        iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
        ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
        inter = iw * ih
        union = aa + ba - inter
        c = (max(ax2, bx2) - min(ax1, bx1)) * (max(ay2, by2) - min(ay1, by1))
        want_giou = 1.0 - (inter / union - (c - union) / c)
        close("giou", giou, want_giou,
              ORACLE_TOL_ARITH)

        s = (rng.uniform(size=(4, 4)) > 0.5).astype(float)
        p = rng.uniform(0.05, 0.95, (4, 4))
        p_t = p * s + (1 - p) * (1 - s)
        want_focal = float(np.mean(-0.25 * (1 - p_t) ** 2 * np.log(p_t)))
        _, focal, dice = losses.mask_loss(s, p, losses.LossWeights())
        close("focal", focal, want_focal,
              ORACLE_TOL_ARITH)
        want_dice = 1.0 - (2 * float((s * p).sum()) + 1.0) / (
            float(s.sum()) + float(p.sum()) + 1.0)
        close("dice", dice, want_dice,
              ORACLE_TOL_ARITH)

    for case in range(n_cases):
        rng = np.random.default_rng(5000 + case)
        gts = [np.array([rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                         rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)])
               for _ in range(6)]
        preds = [g + rng.normal(0, 0.1, 4) for g in gts]
        want = sum(1 for p, g in zip(preds, gts)
                   if losses.box_iou(p, g) > 0.5) / 6.0
        close("prec", losses.prec_at_05(preds, gts), want, 0.0)
        masks_p = [rng.uniform(size=(5, 5)) > 0.5 for _ in range(4)]
        masks_g = [rng.uniform(size=(5, 5)) > 0.5 for _ in range(4)]
        ious = []
        for mp, mg in zip(masks_p, masks_g):
            u = np.logical_or(mp, mg).sum()
            ious.append(1.0 if u == 0 else np.logical_and(mp, mg).sum() / u)
        close("miou", losses.miou(masks_p, masks_g), float(np.mean(ious)),
              ORACLE_TOL_ARITH)

    elapsed = time.time() - t0
    ok = not failures and elapsed <= ORACLE_BUDGET_S
    report("criterion-4 oracle equivalence", ok,
           f"{n_cases} cases per op, worst failures {failures[:3]}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: the shipped desk protocol reaches the training target.
# It trains for 15 minutes or more, so it is opt-in: python -m pytest -m desk


@pytest.mark.desk
def test_criterion_5_desk_training_target(desk_dataset, tmp_path):
    root = Path(__file__).resolve().parent.parent
    cfg = load_config(root / "configs" / "desk64.cfg")
    cfg.data_path = str(desk_dataset)
    t0 = time.time()
    train(cfg, tmp_path / "run")
    wall = time.time() - t0
    rep = evaluate_checkpoint(tmp_path / "run" / "best.ckpt", desk_dataset,
                              "test")
    ok = (rep["prec_at_05"] >= TRAIN_PREC_TARGET
          and rep["miou"] >= TRAIN_MIOU_TARGET
          and cfg.steps <= TRAIN_STEP_BUDGET
          and wall <= TRAIN_WALL_BUDGET_S)
    report("criterion-5 desk training target", ok,
           f"best.ckpt on test: prec@0.5 {rep['prec_at_05']:.4f} (target "
           f"{TRAIN_PREC_TARGET}), mIoU {rep['miou']:.4f} (target "
           f"{TRAIN_MIOU_TARGET}); {cfg.steps} steps (budget "
           f"{TRAIN_STEP_BUDGET}) in {wall:.0f} s (budget "
           f"{TRAIN_WALL_BUDGET_S} s)")


# ---------------------------------------------------------------------------
# criterion 7: multi-task additivity is exact


def test_criterion_7_multitask_additivity():
    exact = True
    for case in range(100):
        rng = np.random.default_rng(case)
        bt = rng.uniform(0.1, 0.9, 4)
        bp = rng.uniform(0.1, 0.9, 4)
        s = (rng.uniform(size=(6, 6)) > 0.5).astype(float)
        p = rng.uniform(0.05, 0.95, (6, 6))
        rec, _ = losses.total_loss(bt, bp, s, p, mode="rec")
        res, _ = losses.total_loss(bt, bp, s, p, mode="res")
        multi, _ = losses.total_loss(bt, bp, s, p, mode="multitask")
        exact &= multi.item() == rec.item() + res.item()
    report("criterion-7 additivity", exact,
           "multitask == rec + res bitwise on 100 random cases")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism at the byte level


def test_criterion_8_byte_determinism(tmp_path):
    data = tmp_path / "ds"
    generate_dataset(data, seed=7, n_train=24, n_val=10, n_test=4,
                     resolution=32)
    cfg = TrainConfig(data_path=str(data), image_size=32, patch=8, d_model=16,
                      blocks=2, heads=2, mlp_ratio=2, text_width=16,
                      text_layers=1, text_heads=2, max_len=10, groups=4,
                      rank_dw=4, reduction_r=4, pool_dim=8, steps=40,
                      batch_size=4, eval_every=20, log_every=10,
                      lr_backbone=5e-4, lr_rest=1e-3, seed=11)
    for run_dir in ("a", "b"):
        train(cfg, tmp_path / run_dir)
        evaluate_checkpoint(tmp_path / run_dir / "best.ckpt", data, "val",
                            out_dir=tmp_path / run_dir / "eval")
    files = ("best.ckpt", "last.ckpt", "metrics.csv", "batches.log",
             "eval/eval_metrics.csv", "eval/length_buckets.csv")
    same = all((tmp_path / "a" / f).read_bytes() ==
               (tmp_path / "b" / f).read_bytes() for f in files)
    report("criterion-8 determinism", same,
           f"two train+eval runs byte-identical across {len(files)} artifacts")


# ---------------------------------------------------------------------------
# criterion 9: binarization threshold vs mask sparsity, by pixel counting


def test_criterion_9_threshold_monotonicity():
    gt = np.zeros((8, 8), dtype=bool)
    gt[2:5, 2:6] = True  # 12 pixels
    soft = np.full((8, 8), 0.1)
    soft[2:5, 2:6] = 0.6     # confident referent interior
    soft[2:5, 2:4] = 0.4     # its weaker left half
    soft[6, 0:4] = 0.4       # 4 spurious background pixels

    low = binarize(soft, 0.35)
    high = binarize(soft, 0.5)
    nested = bool(np.all(high <= low))  # higher threshold => sparser mask

    # pixel counting: low = 12 gt + 4 spurious, high = right half of gt only
    iou_low = losses.mask_iou(low, gt)
    iou_high = losses.mask_iou(high, gt)
    ok = (nested
          and low.sum() == 16 and high.sum() == 6
          and abs(iou_low - 12 / 16) < 1e-15
          and abs(iou_high - 6 / 12) < 1e-15)
    report("criterion-9 threshold monotonicity", ok,
           f"masks nested ({int(high.sum())} <= {int(low.sum())} px), "
           f"IoU 0.35->{iou_low:.3f}, 0.5->{iou_high:.3f}, hand-counted")
