import functools
import itertools
import re
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from lawground import attention, losses, tensor, vit
from lawground.attention import transformer_block
from lawground.config import TrainConfig
from lawground.law import layer_cores
from lawground.model import GroundingModel
from lawground.synthground import LEXICON, generate_dataset
from lawground.tensor import (Tape, Tensor, bilinear_upsample, gelu,
                              gelu_cdf, gelu_slope, layer_norm, linear,
                              reshape, sigmoid, softmax, tmean, transpose)
from lawground.text import Vocabulary
from lawground.train import train

RNG = np.random.default_rng(3)


def tiny_config(**kw):
    base = dict(image_size=16, patch=8, d_model=8, blocks=2, heads=2,
                mlp_ratio=2, text_width=8, text_layers=1, text_heads=2,
                max_len=8, groups=2, rank_dw=2, reduction_r=2, pool_dim=4)
    base.update(kw)
    return TrainConfig(**base)


def readme_text():
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")


@pytest.fixture
def vocab():
    return Vocabulary(LEXICON)


@pytest.fixture
def image():
    return RNG.integers(0, 255, (16, 16, 3), dtype=np.uint8)


def test_zero_init_visual_features_ignore_expression(vocab, image):
    # the dynamic-core maps start at exactly zero: the backbone features
    # cannot depend on the expression
    model = GroundingModel(tiny_config(seed=4), vocab)
    x = model.image_tensor(image)
    a = model.forward(x, model.tokenize("red circle"))
    b = model.forward(x, model.tokenize("leftmost triangle above the blue square"))
    assert np.array_equal(a.visual.data, b.visual.data)
    # ... while the head output legitimately differs (it reads the summary feature)
    assert not np.array_equal(a.box.data, b.box.data)


def test_zero_init_equals_static_backbone_exactly(vocab, image):
    model = GroundingModel(tiny_config(seed=4), vocab)
    x = model.image_tensor(image)
    toks = model.tokenize("small green square")
    generated = model.forward(x, toks)
    model.law = None  # the backbone's own static projections
    static = model.forward(x, toks)
    assert np.array_equal(generated.visual.data, static.visual.data)
    assert np.array_equal(generated.box.data, static.box.data)
    assert np.array_equal(generated.mask.probs.data, static.mask.probs.data)


def test_nonzero_core_makes_features_expression_sensitive(vocab, image):
    model = GroundingModel(tiny_config(seed=4), vocab)
    for i in range(model.config.blocks):
        core = model.store[f"law.layer{i}.core.weight"]
        core.data[...] = RNG.normal(0, 0.5, core.shape)
    x = model.image_tensor(image)
    a = model.forward(x, model.tokenize("red circle"))
    b = model.forward(x, model.tokenize("blue square"))
    assert not np.array_equal(a.visual.data, b.visual.data)
    # same expression still reproduces bit-identically
    c = model.forward(x, model.tokenize("red circle"))
    assert np.array_equal(a.visual.data, c.visual.data)


def test_pad_length_invariance_end_to_end(vocab, image):
    # same expression, two different max_len: outputs bit-identical
    short = GroundingModel(tiny_config(max_len=6, seed=9), vocab)
    long = GroundingModel(tiny_config(max_len=8, seed=9), vocab)
    # force identical shared parameters: copy the short model's params; the
    # position table differs only in rows the short model lacks
    for name, p in short.store.items():
        q = long.store[name]
        if p.data.shape == q.data.shape:
            q.data[...] = p.data
        elif name == "text.pos":
            q.data[:6] = p.data
        else:
            raise AssertionError(f"unexpected shape change for {name}")
    x_short = short.image_tensor(image)
    x_long = long.image_tensor(image)
    a = short.forward(x_short, short.tokenize("red circle"))
    b = long.forward(x_long, long.tokenize("red circle"))
    assert np.array_equal(a.box.data, b.box.data)
    assert np.array_equal(a.mask.probs.data, b.mask.probs.data)


def test_ablation_toggles_isolate_parameters(vocab):
    full = GroundingModel(tiny_config(seed=1), vocab)
    no_lawg = GroundingModel(tiny_config(lawg_enabled=False, seed=1), vocab)
    no_lap = GroundingModel(tiny_config(lap_enabled=False, seed=1), vocab)
    no_mth = GroundingModel(tiny_config(mth_enabled=False, seed=1), vocab)

    assert not any(n.startswith("law.") for n, _ in no_lawg.store.items())
    assert not any(n.startswith("head.pool.") for n, _ in no_lap.store.items())
    assert not any(n.startswith("head.up") for n, _ in no_mth.store.items())

    # shared parameters initialize identically across arms
    for name, p in no_lawg.store.items():
        assert np.array_equal(p.data, full.store[name].data)


def test_parameter_groups_split_backbone_and_rest(vocab):
    model = GroundingModel(tiny_config(seed=1), vocab)
    backbone, rest = model.parameter_groups()
    backbone_names = {n for n, _ in backbone}
    rest_names = {n for n, _ in rest}
    assert all(n.startswith(("text.", "vit.")) for n in backbone_names)
    assert all(n.startswith(("law.", "head.")) for n in rest_names)
    assert backbone_names | rest_names == {n for n, _ in model.store.items()}
    assert not (backbone_names & rest_names)


def test_full_model_grad_check_small(vocab, image):
    from lawground import losses
    from lawground.tensor import grad_check

    model = GroundingModel(tiny_config(seed=7), vocab)
    toks = model.tokenize("red circle")
    gt_box = np.array([0.4, 0.5, 0.3, 0.3])
    gt_mask = np.zeros((16, 16))
    gt_mask[4:9, 3:8] = 1.0
    params = [p for _, p in model.store.items()]
    x = model.image_tensor(image)

    def loss_fn(*_):
        pred = model.forward(x, toks)
        loss, _ = losses.total_loss(gt_box, pred.box, gt_mask, pred.mask.probs)
        return loss

    # spot-check a subset with randomized values in the zero-init cores so
    # gradients flow through the dynamic path too
    for i in range(model.config.blocks):
        core = model.store[f"law.layer{i}.core.weight"]
        core.data[...] = RNG.normal(0, 0.3, core.shape)
    subset = [model.store["law.layer0.core.weight"],
              model.store["law.out_factor"],
              model.store["law.layer1.embed"],
              model.store["head.pool.text.weight"],
              model.store["vit.block0.attn.qkv.weight"],
              model.store["text.embed"]]
    assert grad_check(loss_fn, subset) <= 1e-4


def test_tape_entries_per_sample_match_readme(vocab):
    # the default config has the desk64 shapes
    model = GroundingModel(TrainConfig(), vocab)
    x = model.image_tensor(RNG.integers(0, 255, (64, 64, 3), dtype=np.uint8))
    mask = np.zeros((64, 64))
    mask[10:30, 20:40] = 1.0
    with Tape() as tape:
        pred = model.forward(x, model.tokenize("red circle left of the square"))
        losses.total_loss(np.array([0.4, 0.3, 0.3, 0.3]), pred.box, mask,
                          pred.mask.probs)
    stated = re.search(r"records (\d+)\s+tape\s+entries\s+per\s+sample",
                       readme_text())
    assert stated and len(tape._entries) == int(stated.group(1))


def desk64_chunk(vocab, n=8):
    """A default-config (desk64) model and the inputs of one n-sample
    training chunk."""
    rng = np.random.default_rng(5)
    model = GroundingModel(TrainConfig(), vocab)
    images = [model.image_tensor(rng.integers(0, 255, (64, 64, 3),
                                              dtype=np.uint8))
              for _ in range(n)]
    exprs = ("red circle left of the square", "small green triangle",
             "the leftmost blue square", "large circle")
    tokens = [model.tokenize(exprs[i % len(exprs)]) for i in range(n)]
    boxes = rng.uniform(0.2, 0.6, (n, 4))
    masks = (rng.uniform(size=(n, 64, 64)) > 0.5).astype(np.float64)
    return model, images, tokens, boxes, masks


def record_chunk(model, images, tokens, boxes, masks):
    """The chunk's taped forward and joint loss: (tape, loss)."""
    with Tape() as tape:
        pred = model.forward_batch(images, tokens)
        loss, _ = losses.total_loss(boxes, pred.box, masks, pred.mask.probs)
    return tape, loss


def reachable(backfn):
    """Every object a backward closure can reach through nested functions,
    partials, closure cells, defaults, containers and object attributes
    (slotted ones too). Tensors and arrays are reached, not walked into."""
    found, seen, todo = [], set(), [backfn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (Tensor, np.ndarray)):
            continue
        if isinstance(obj, functools.partial):
            todo += [obj.func, *obj.args, *obj.keywords.values()]
        elif isinstance(obj, types.FunctionType):
            todo += [c.cell_contents for c in obj.__closure__ or ()
                     if c.cell_contents is not None]
            todo += [*(obj.__defaults__ or ()),
                     *(obj.__kwdefaults__ or {}).values()]
        elif isinstance(obj, (list, tuple, set)):
            todo += obj
        elif isinstance(obj, dict):
            todo += obj.values()
        elif hasattr(obj, "__dict__"):
            todo += vars(obj).values()
        elif hasattr(obj, "__slots__"):
            todo += [getattr(obj, name) for name in obj.__slots__
                     if hasattr(obj, name)]
    return found


def held_tensors(backfn):
    """Every Tensor a backward closure can reach (see reachable)."""
    return [t for t in reachable(backfn) if isinstance(t, Tensor)]


def held_arrays(backfn):
    """Every array a backward closure can reach, and the arrays they are
    views of."""
    found = []
    for a in reachable(backfn):
        while isinstance(a, np.ndarray):
            found.append(a)
            a = a.base
    return found


def test_backward_closures_hold_no_graph_tensor(vocab, monkeypatch):
    # an intermediate's array lives only as long as a backward formula
    # reads it: a block's residual output is dead once the forward is done
    residual = []
    original = vit.VisualBackbone.attention_block

    def keeping_block0(self, x, qkv_w, layer, lengths, collect=False):
        out, probs = original(self, x, qkv_w, layer, lengths, collect)
        if layer == 0:
            residual.append(weakref.ref(out))
        return out, probs

    monkeypatch.setattr(vit.VisualBackbone, "attention_block", keeping_block0)
    tape, loss = record_chunk(*desk64_chunk(vocab))
    assert len(residual) == 1 and residual[0]() is None
    held = [t for *_, backfn in tape._entries for t in held_tensors(backfn)
            if t._tape is tape]
    assert held == []
    # the walk does see a Tensor captured by a closure
    assert held_tensors(lambda g: (g * loss.data, loss)) == [loss]
    tape.backward(loss)


def test_backward_closures_hold_no_weight_stack_or_layer_norm_output(
        vocab, monkeypatch):
    # each activation is kept once: a pre-norm projection keeps its LN's
    # normalised input, not the LN output, and rebuilds a generated stack
    model, images, tokens, boxes, masks = desk64_chunk(vocab)
    rng = np.random.default_rng(6)
    for name, param in model.store.items():
        if ".ln" in name:  # so that no LN output equals its normalised input
            param.data[...] = rng.normal(size=param.shape)
    ln_outputs = []
    fused = attention.layer_norm_linear

    def spying(x, gain, bias, w, b):
        with Tape():  # off the chunk's tape
            ln_outputs.append(layer_norm(x, gain, bias).data)
        return fused(x, gain, bias, w, b)

    monkeypatch.setattr(attention, "layer_norm_linear", spying)
    tape, loss = record_chunk(model, images, tokens, boxes, masks)
    cfg = model.config
    assert len(ln_outputs) == 2 * (cfg.text_layers + cfg.blocks)
    held = [a for *_, backfn in tape._entries for a in held_arrays(backfn)]
    stack = (len(images), 3 * cfg.d_model, cfg.d_model)
    assert not [a.shape for a in held if a.shape == stack]
    assert not [a.shape for a in held for h in ln_outputs
                if a.shape == h.shape and np.array_equal(a, h)]
    tape.backward(loss)


def test_backward_closures_hold_no_attention_probabilities(vocab,
                                                          monkeypatch):
    # attention keeps each probability row's max and normaliser, and its
    # backward rebuilds every segment's (H, L, L) probabilities
    probs = []
    original = attention.attention

    def spying(qkv, heads, lengths, collect=False):
        ctx, maps = original(qkv, heads, lengths, True)
        probs.extend(maps)
        return ctx, maps

    monkeypatch.setattr(attention, "attention", spying)
    model, images, tokens, boxes, masks = desk64_chunk(vocab)
    tape, loss = record_chunk(model, images, tokens, boxes, masks)
    cfg, t = model.config, model.backbone.n_tokens
    assert len(probs) == (cfg.text_layers + cfg.blocks) * len(images)
    assert (cfg.heads, t, t) in {p.shape for p in probs}
    held = [a for *_, backfn in tape._entries for a in held_arrays(backfn)]
    assert held and not [p.shape for p in probs for a in held
                         if a.shape == p.shape and np.array_equal(a, p)]
    tape.backward(loss)


def res128_sample(vocab):
    """A 128x128 default-config model and the inputs of one taped sample
    (256 visual tokens, so attention runs one head per block)."""
    rng = np.random.default_rng(8)
    model = GroundingModel(TrainConfig(image_size=128), vocab)
    image = model.image_tensor(rng.integers(0, 255, (128, 128, 3),
                                            dtype=np.uint8))
    tokens = model.tokenize("the leftmost blue square")
    mask = np.zeros((1, 128, 128))
    mask[0, 20:60, 40:80] = 1.0
    return model, [image], [tokens], np.array([[0.4, 0.3, 0.3, 0.3]]), mask


def test_backward_closures_hold_no_attention_scratch_or_gelu_hidden(
        vocab, monkeypatch):
    # attention's score blocks live in a scratch buffer of the forward call,
    # and fc2's entry keeps only the GELU's input: no tape entry reaches a
    # scratch buffer, a GELU output or a GELU slope
    buffers, hidden = [], []
    scratch = tensor._scratch

    def recording_scratch(blocks):
        buffers.append(scratch(blocks))
        return buffers[-1]

    fused = attention.gelu_linear

    def recording_gelu_linear(u, w, b):
        cdf = gelu_cdf(u.data)
        hidden.extend([u.data * cdf, gelu_slope(u.data, cdf)])
        return fused(u, w, b)

    monkeypatch.setattr(tensor, "_scratch", recording_scratch)
    monkeypatch.setattr(attention, "gelu_linear", recording_gelu_linear)
    model, images, tokens, boxes, masks = res128_sample(vocab)
    tape, loss = record_chunk(model, images, tokens, boxes, masks)
    cfg = model.config
    assert len(buffers) == cfg.text_layers + cfg.blocks
    assert len(hidden) == 2 * (cfg.text_layers + cfg.blocks)
    assert buffers[-1].size == 2 ** 16  # one 256-token head's scores
    held = [a for *_, backfn in tape._entries for a in held_arrays(backfn)]
    assert held and not [a for a in held for b in buffers if a is b]
    assert not [a.shape for a in held for h in hidden
                if a.shape == h.shape and np.array_equal(a, h)]
    tape.backward(loss)


# tracemalloc peak of one taped 128x128 sample's forward, joint loss and
# backward: 7.38 MiB measured with attention in head blocks through
# per-call scratch buffers, probabilities built only when collected and
# fc2's entry keeping only the GELU input (13.03 MiB before). The 0.5 MiB
# margin is one ViT block's (256, 256) GELU hidden array, so an (H, T, T)
# array or a kept hidden fails it.
SAMPLE_128_PEAK_MIB = 7.38 + 0.5


def test_128_sample_peak_is_pinned(vocab):
    model, images, tokens, boxes, masks = res128_sample(vocab)
    model.forward_batch(images, tokens)  # fills the upsampling cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, loss = record_chunk(model, images, tokens, boxes, masks)
        tape.backward(loss)
        del tape, loss
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= SAMPLE_128_PEAK_MIB * 2 ** 20, peak / 2 ** 20


# tracemalloc bytes one 8-sample desk64 chunk's tape holds after its forward
# and joint loss: 13.38 MiB measured with each activation kept once, the
# mask branch on token rows, attention probabilities rebuilt in backward
# and fc2's entry keeping only the GELU input (17.53 MiB while the GELU
# slope and output were kept too). The 0.5 MiB margin is half of one ViT
# block's GELU hidden array, so a closure that keeps a block's activation
# by accident fails it.
CHUNK_GRAPH_MIB = 13.38 + 0.5


def test_chunk_graph_size_is_pinned(vocab):
    model, images, tokens, boxes, masks = desk64_chunk(vocab)
    model.forward_batch(images, tokens)  # fills the upsampling cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape, loss = record_chunk(model, images, tokens, boxes, masks)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= CHUNK_GRAPH_MIB * 2 ** 20, held / 2 ** 20


def step_tape_entries(tmp_path, monkeypatch, **overrides):
    """Tape entries of one real training step at the default (desk64)
    shapes and batch size."""
    generate_dataset(tmp_path / "ds", seed=2, n_train=16, n_val=1, n_test=0)
    cfg = TrainConfig(data_path=str(tmp_path / "ds"), steps=1, **overrides)
    recorded = []
    original = Tape.record

    def counting(tape, out, parents, backfn):
        recorded.append(out)
        return original(tape, out, parents, backfn)

    monkeypatch.setattr(Tape, "record", counting)
    train(cfg, tmp_path / "run")
    return len(recorded)


def test_tape_entries_per_step_match_readme(tmp_path, monkeypatch):
    recorded = step_tape_entries(tmp_path, monkeypatch)
    stated = re.search(r"B=(\d+)\s+training\s+step\s+records\s+([\d,]+)\s+tape"
                       r"\s+entries", readme_text())
    assert stated and int(stated.group(1)) == TrainConfig().batch_size
    assert recorded == int(stated.group(2).replace(",", ""))


@pytest.mark.parametrize("key", ["mth_enabled", "lap_enabled"])
def test_tape_entries_per_ablated_step_match_readme(tmp_path, monkeypatch,
                                                    key):
    # the same B=16 step with one head branch off
    recorded = step_tape_entries(tmp_path, monkeypatch, **{key: False})
    stated = re.search(rf"`ablation\.{key}\s+=\s+false`,\s+(\d+)",
                       readme_text())
    assert stated and recorded == int(stated.group(1))


# the three arms `lawground ablate` trains, as config overrides and loss mode
TRAINED_ARMS = {
    "all": (dict(), "multitask"),
    "average-pool": (dict(lap_enabled=False), "multitask"),
    "rec": (dict(mth_enabled=False), "rec"),
}


@pytest.mark.parametrize("arm", sorted(TRAINED_ARMS))
def test_packed_step_gradients_match_per_sample_forwards(vocab, arm):
    overrides, mode = TRAINED_ARMS[arm]
    rng = np.random.default_rng(11)
    model = GroundingModel(tiny_config(seed=7, **overrides), vocab)
    for i in range(model.config.blocks):  # the dynamic path carries gradient
        core = model.store[f"law.layer{i}.core.weight"]
        core.data[...] = rng.normal(0, 0.3, core.shape)
    exprs = ("red circle", "leftmost triangle above the blue square", "small",
             "green square left of the red circle")
    images = [model.image_tensor(rng.integers(0, 255, (16, 16, 3),
                                              dtype=np.uint8)) for _ in exprs]
    tokens = [model.tokenize(e) for e in exprs]
    boxes = rng.uniform(0.2, 0.6, (len(exprs), 4))
    masks = (rng.uniform(size=(len(exprs), 16, 16)) > 0.5).astype(np.float64)

    def gradients(predict, box, mask):
        for _, p in model.store.items():
            p.zero_grad()
        with Tape() as tape:
            pred = predict()
            probs = pred.mask.probs if pred.mask is not None else None
            loss, _ = losses.total_loss(box, pred.box, mask, probs, mode=mode)
        tape.backward(loss)
        return {name: p.grad.copy() for name, p in model.store.items()}

    packed = gradients(lambda: model.forward_batch(images, tokens), boxes,
                       masks)
    single = [gradients(lambda: model.forward(x, t), box, mask)
              for x, t, box, mask in zip(images, tokens, boxes, masks)]
    for name in packed:
        want = np.mean([grads[name] for grads in single], axis=0)
        scale = np.abs(want).max()
        assert scale > 0.0, name
        assert np.abs(packed[name] - want).max() <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# stacked image rows


def per_sample_head(head, tokens, cls, side):
    """MultitaskHead as it ran per sample before it ran once per batch, its
    matrix-vector products written out in numpy, so the B=1 case can be
    checked bit for bit. The mask branch runs in the head's token-row order:
    the last upsampling stage meets the summary row before the pixels.
    tokens (T, d) and cls (d_text,) are arrays; returns the box, the mask
    probabilities (or None) and the pooling map (or None)."""
    x, pool_map, probs = Tensor(tokens), None, None
    if head.lap_enabled:
        proj_v = linear(x, head.pool_vis).data
        attn = softmax(Tensor(proj_v @ (head.pool_txt.data @ cls)), axis=-1)
        pooled = tokens.T @ attn.data
        pool_map = attn.data.reshape(side, side)
    else:
        pooled = tmean(x, axis=0).data
    h = gelu(Tensor(head.box_w1.data @ pooled) + head.box_b1)
    h = gelu(Tensor(head.box_w2.data @ h.data) + head.box_b2)
    box = sigmoid(Tensor(head.box_w3.data @ h.data) + head.box_b3)
    if head.mask_enabled:
        rows, stages = tokens, [(k.data, b.data) for k, b in head.up_stages]
        for k, b in stages[:-1]:
            w = k.transpose(2, 3, 1, 0).reshape(-1, k.shape[0])
            rows = gelu(Tensor((rows @ w.T).reshape(-1, k.shape[1]) + b)).data
        if stages:
            k, b = stages[-1]
            kernel = (k.transpose(2, 3, 0, 1).reshape(-1, k.shape[1])
                      @ cls).reshape(4, -1)
            logits = rows @ kernel.T + b @ cls
        else:
            logits = rows @ cls
        n_up = len(stages)
        axes = (0, *range(2, 2 + 2 * n_up, 2), 1, *range(3, 2 + 2 * n_up, 2))
        logits = logits.reshape((side, side) + (2, 2) * n_up).transpose(
            axes).reshape(side << n_up, -1)
        probs = sigmoid(bilinear_upsample(Tensor(logits), 4)).data
    return box.data, probs, pool_map


def per_sample_forward(model, image, tokens):
    """GroundingModel.forward as it was before the image half ran on
    stacked rows and the head per batch: one fused-weight op per layer, one
    ViT pass and the per-sample head for the single image, kept verbatim so
    the B=1 case can be checked bit for bit. Returns the visual tokens, the
    per-layer attention maps, the box, the mask probabilities and the
    pooling map."""
    law, bb = model.law, model.backbone
    feats = model.text.encode([tokens])
    cores, _ = layer_cores(feats, law, [len(tokens)])
    weights = []
    for layer in range(law.n_layers):
        core = cores.data[0, layer]
        left = law.out_factor.data @ core
        weights.append(Tensor(law.static_fused[layer].data
                              + left @ law.in_factor.data.T))
    s, hp = bb.patch, bb.side
    patches = transpose(reshape(image, (3, hp, s, hp, s)), (1, 3, 0, 2, 4))
    flat = reshape(patches, (bb.n_tokens, 3 * s * s))
    x = linear(flat, bb.patch_w, bb.patch_b) + bb.pos
    maps = []
    for layer in range(bb.n_blocks):
        x, probs = transformer_block(x, bb.blocks[layer], weights[layer],
                                     bb.heads, [bb.n_tokens], True)
        maps.append(probs[0])
    x = layer_norm(x, bb.final_g, bb.final_b)
    return (x.data, maps,
            *per_sample_head(model.head, x.data, feats.data[0], hp))


@pytest.mark.parametrize("size", [64, 128])
def test_b1_forward_bit_identical_to_per_sample_backbone(vocab, size):
    for lap, mth in itertools.product((True, False), repeat=2):
        rng = np.random.default_rng(size)
        model = GroundingModel(TrainConfig(image_size=size, seed=3,
                                           lap_enabled=lap, mth_enabled=mth),
                               vocab)
        for i in range(model.config.blocks):
            core = model.store[f"law.layer{i}.core.weight"]
            core.data[...] = rng.normal(0, 0.3, core.shape)
        image = model.image_tensor(rng.integers(0, 255, (size, size, 3),
                                                dtype=np.uint8))
        tokens = model.tokenize("red circle left of the blue square")
        pred = model.forward(image, tokens, collect_attention=True)
        tok, maps, box, probs, pool_map = per_sample_forward(model, image,
                                                             tokens)
        assert np.array_equal(pred.visual.data[0], tok)
        assert all(np.array_equal(a, b) for a, b in zip(pred.attention, maps))
        assert np.array_equal(pred.box.data, box)
        if mth:
            assert np.array_equal(pred.mask.probs.data, probs)
        else:
            assert pred.mask is None
        if lap:
            assert np.array_equal(pred.pool_attention, pool_map)
        else:
            assert pred.pool_attention is None


def test_static_batch_forward_keeps_images_apart(vocab):
    # without the generator one static weight projects all rows at once;
    # attention must still stay inside each image
    rng = np.random.default_rng(5)
    model = GroundingModel(tiny_config(lawg_enabled=False, seed=2), vocab)
    images = [model.image_tensor(rng.integers(0, 255, (16, 16, 3),
                                              dtype=np.uint8))
              for _ in range(2)]
    tokens = [model.tokenize("red circle"), model.tokenize("small square")]
    batch = model.forward_batch(images, tokens, collect_attention=True)
    for b, (image, toks) in enumerate(zip(images, tokens)):
        one = model.forward(image, toks, collect_attention=True)
        for got, want in ((batch.visual.data[b],
                           one.visual.data[0]),
                          (batch.box.data[b], one.box.data),
                          (batch.mask.probs.data[b], one.mask.probs.data),
                          (batch.pool_attention[b], one.pool_attention)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert len(batch.attention[b]) == model.config.blocks
        for got, want in zip(batch.attention[b], one.attention):
            assert got.shape == want.shape == (2, 4, 4)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
