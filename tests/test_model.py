import re
from pathlib import Path

import numpy as np
import pytest

from lawground import losses
from lawground.model import GroundingModel, ModelConfig
from lawground.synthground import LEXICON
from lawground.tensor import Tape
from lawground.text import Vocabulary

RNG = np.random.default_rng(3)


def tiny_config(**kw):
    base = dict(image_size=16, patch=8, d_model=8, blocks=2, heads=2,
                mlp_ratio=2, d_text=8, text_layers=1, text_heads=2, max_len=8,
                groups=2, rank_dw=2, reduction=2, pool_dim=4)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def vocab():
    return Vocabulary(LEXICON)


@pytest.fixture
def image():
    return RNG.integers(0, 255, (16, 16, 3), dtype=np.uint8)


def test_zero_init_visual_features_ignore_expression(vocab, image):
    # the dynamic-core maps start at exactly zero: the backbone features
    # cannot depend on the expression
    model = GroundingModel(tiny_config(), vocab, seed=4)
    x = model.image_tensor(image)
    a = model.forward(x, model.tokenize("red circle"))
    b = model.forward(x, model.tokenize("leftmost triangle above the blue square"))
    assert np.array_equal(a.visual.tokens.data, b.visual.tokens.data)
    # ... while the head output legitimately differs (it reads the summary feature)
    assert not np.array_equal(a.box.data, b.box.data)


def test_zero_init_equals_static_backbone_exactly(vocab, image):
    model = GroundingModel(tiny_config(), vocab, seed=4)
    x = model.image_tensor(image)
    toks = model.tokenize("small green square")
    generated = model.forward(x, toks)
    model.law = None  # the backbone's own static projections
    static = model.forward(x, toks)
    assert np.array_equal(generated.visual.tokens.data, static.visual.tokens.data)
    assert np.array_equal(generated.box.data, static.box.data)
    assert np.array_equal(generated.mask.probs.data, static.mask.probs.data)


def test_nonzero_core_makes_features_expression_sensitive(vocab, image):
    model = GroundingModel(tiny_config(), vocab, seed=4)
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
    short = GroundingModel(tiny_config(max_len=6), vocab, seed=9)
    long = GroundingModel(tiny_config(max_len=8), vocab, seed=9)
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
    full = GroundingModel(tiny_config(), vocab, seed=1)
    no_lawg = GroundingModel(tiny_config(lawg_enabled=False), vocab, seed=1)
    no_lap = GroundingModel(tiny_config(lap_enabled=False), vocab, seed=1)
    no_mth = GroundingModel(tiny_config(mth_enabled=False), vocab, seed=1)

    assert no_lawg.store.num_values("law.") == 0
    assert not any(n.startswith("law.") for n in no_lawg.store.names())
    assert not any(n.startswith("head.pool.") for n in no_lap.store.names())
    assert not any(n.startswith("head.up") for n in no_mth.store.names())

    # shared parameters initialize identically across arms
    for name, p in no_lawg.store.items():
        assert np.array_equal(p.data, full.store[name].data)


def test_parameter_groups_split_backbone_and_rest(vocab):
    model = GroundingModel(tiny_config(), vocab, seed=1)
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

    model = GroundingModel(tiny_config(), vocab, seed=7)
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
    model = GroundingModel(ModelConfig(), vocab, seed=0)
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
