import re
from pathlib import Path

import numpy as np
import pytest

from lawground import losses
from lawground.attention import transformer_block
from lawground.config import TrainConfig
from lawground.law import layer_cores
from lawground.model import GroundingModel
from lawground.synthground import LEXICON, generate_dataset
from lawground.tensor import (Tape, Tensor, layer_norm, linear, reshape,
                              transpose)
from lawground.text import Vocabulary
from lawground.train import train
from lawground.vit import VisualFeatures

RNG = np.random.default_rng(3)


def tiny_config(**kw):
    base = dict(image_size=16, patch=8, d_model=8, blocks=2, heads=2,
                mlp_ratio=2, text_width=8, text_layers=1, text_heads=2,
                max_len=8, groups=2, rank_dw=2, reduction_r=2, pool_dim=4)
    base.update(kw)
    return TrainConfig(**base)


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
    assert np.array_equal(a.visual.tokens.data, b.visual.tokens.data)
    # ... while the head output legitimately differs (it reads the summary feature)
    assert not np.array_equal(a.box.data, b.box.data)


def test_zero_init_equals_static_backbone_exactly(vocab, image):
    model = GroundingModel(tiny_config(seed=4), vocab)
    x = model.image_tensor(image)
    toks = model.tokenize("small green square")
    generated = model.forward(x, toks)
    model.law = None  # the backbone's own static projections
    static = model.forward(x, toks)
    assert np.array_equal(generated.visual.tokens.data, static.visual.tokens.data)
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
    assert not np.array_equal(a.visual.tokens.data, b.visual.tokens.data)
    # same expression still reproduces bit-identically
    c = model.forward(x, model.tokenize("red circle"))
    assert np.array_equal(a.visual.tokens.data, c.visual.tokens.data)


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

    assert no_lawg.store.num_values("law.") == 0
    assert not any(n.startswith("law.") for n in no_lawg.store.names())
    assert not any(n.startswith("head.pool.") for n in no_lap.store.names())
    assert not any(n.startswith("head.up") for n in no_mth.store.names())

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
    assert backbone_names | rest_names == set(model.store.names())
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
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    stated = re.search(r"records (\d+)\s+tape\s+entries\s+per\s+sample", readme)
    assert stated and len(tape._entries) == int(stated.group(1))


def test_tape_entries_per_step_match_readme(tmp_path, monkeypatch):
    # one real training step at the default (desk64) shapes and B=16
    generate_dataset(tmp_path / "ds", seed=2, n_train=16, n_val=1, n_test=0)
    cfg = TrainConfig(data_path=str(tmp_path / "ds"), steps=1)
    recorded = []
    original = Tape.record

    def counting(tape, out, parents, backfn):
        recorded.append(out)
        return original(tape, out, parents, backfn)

    monkeypatch.setattr(Tape, "record", counting)
    train(cfg, tmp_path / "run")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    stated = re.search(r"B=(\d+)\s+training\s+step\s+records\s+([\d,]+)\s+tape"
                       r"\s+entries", readme)
    assert stated and int(stated.group(1)) == cfg.batch_size
    assert len(recorded) == int(stated.group(2).replace(",", ""))


def test_packed_step_gradients_match_per_sample_forwards(vocab):
    rng = np.random.default_rng(11)
    model = GroundingModel(tiny_config(seed=7), vocab)
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

    def gradients(predict):
        for _, p in model.store.items():
            p.zero_grad()
        with Tape() as tape:
            total = None
            for pred, box, mask in zip(predict(), boxes, masks):
                loss, _ = losses.total_loss(box, pred.box, mask,
                                            pred.mask.probs)
                total = loss if total is None else total + loss
        tape.backward(total)
        return {name: p.grad.copy() for name, p in model.store.items()}

    packed = gradients(lambda: model.forward_batch(images, tokens))
    single = gradients(lambda: [model.forward(x, t)
                                for x, t in zip(images, tokens)])
    for name, want in single.items():
        scale = np.abs(want).max()
        assert scale > 0.0, name
        assert np.abs(packed[name] - want).max() <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# stacked image rows


def per_sample_forward(model, image, tokens):
    """GroundingModel.forward as it was before the image half ran on
    stacked rows: one fused-weight op per layer and one ViT pass for the
    single image, kept verbatim so the B=1 case can be checked bit for
    bit. Returns the visual tokens, the box and the mask probabilities."""
    law, bb, head = model.law, model.backbone, model.head
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
    for layer in range(bb.n_blocks):
        x, _ = transformer_block(x, bb.blocks[layer], weights[layer], bb.heads)
    x = layer_norm(x, bb.final_g, bb.final_b)
    grid = transpose(reshape(x, (hp, hp, bb.d_model)), (2, 0, 1))
    visual = VisualFeatures(tokens=x, grid=grid, side=hp)
    pooled, _ = head.lap_pool(visual, feats[0])
    box = head.predict_box(pooled)
    mask = head.predict_mask(visual, feats[0])
    return x.data, box.data, mask.probs.data


@pytest.mark.parametrize("size", [64, 128])
def test_b1_forward_bit_identical_to_per_sample_backbone(vocab, size):
    rng = np.random.default_rng(size)
    model = GroundingModel(TrainConfig(image_size=size, seed=3), vocab)
    for i in range(model.config.blocks):
        core = model.store[f"law.layer{i}.core.weight"]
        core.data[...] = rng.normal(0, 0.3, core.shape)
    image = model.image_tensor(rng.integers(0, 255, (size, size, 3),
                                            dtype=np.uint8))
    tokens = model.tokenize("red circle left of the blue square")
    pred = model.forward(image, tokens)
    tok, box, probs = per_sample_forward(model, image, tokens)
    assert np.array_equal(pred.visual.tokens.data, tok)
    assert np.array_equal(pred.box.data, box)
    assert np.array_equal(pred.mask.probs.data, probs)


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
    for pred, image, toks in zip(batch, images, tokens):
        one = model.forward(image, toks, collect_attention=True)
        for got, want in ((pred.visual.tokens, one.visual.tokens),
                          (pred.box, one.box), (pred.mask.probs,
                                                one.mask.probs)):
            np.testing.assert_allclose(got.data, want.data, rtol=0,
                                       atol=1e-13)
        assert len(pred.attention) == model.config.blocks
        for got, want in zip(pred.attention, one.attention):
            assert got.shape == want.shape == (2, 4, 4)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
