import contextlib
import gc
import hashlib
import json
import os
import pickle
import platform
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lawground import netpbm
from lawground import train as training
from lawground.cli import main
from lawground.config import (
    TrainConfig,
    config_to_text,
    load_config,
    parse_config_text,
    validate,
)
from lawground.errors import ConfigError, DataError, NumericError, ShapeError
from lawground.losses import total_loss
from lawground.model import GroundingModel
from lawground.optim import AdamW
from lawground.serial import read_arrays, write_arrays
from lawground.synthground import (GroundingSample, flip_sample,
                                   generate_dataset, load_dataset,
                                   load_vocab)
from lawground.tensor import Tape, Tensor, active_tape
from lawground.workers import SharedParameters, Workers


def tiny_cfg(data_path, **kw):
    base = dict(data_path=str(data_path), image_size=32, patch=8, d_model=16,
                blocks=2, heads=2, mlp_ratio=2, text_width=16, text_layers=1,
                text_heads=2, max_len=10, groups=4, rank_dw=4, reduction_r=4,
                pool_dim=8, steps=8, batch_size=2, eval_every=4, log_every=2,
                lr_backbone=1e-3, lr_rest=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    generate_dataset(root, seed=4, n_train=8, n_val=6, n_test=4, resolution=32)
    return root


def forward_sample(model, sample):
    """The B=1 tape-free Prediction for one sample."""
    return model.forward(model.image_tensor(sample.image()),
                         model.tokenize(sample.expression))


def append_record(path, record):
    """Append one pickled record to path in a single write, so that records
    appended by worker processes at once do not interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, pickle.dumps(record))
    finally:
        os.close(fd)


def read_records(path):
    """The records append_record wrote to path, in file order."""
    records = []
    if not path.exists():
        return records
    with open(path, "rb") as fh:
        while fh.peek(1):
            records.append(pickle.load(fh))
    return records


# ---------------------------------------------------------------------------
# config


def test_config_defaults_follow_protocol():
    cfg = TrainConfig()
    assert (cfg.lr_backbone, cfg.lr_rest) == (4e-5, 4e-4)
    assert cfg.weight_decay == 1e-4
    assert cfg.reduction_r == 16
    assert cfg.threshold == 0.35
    assert cfg.max_len == 40
    assert (cfg.loss_l1, cfg.loss_giou, cfg.loss_focal, cfg.loss_dice) == (1, 1, 4, 4)


def test_config_parse_and_overrides():
    text = """
    # comment line
    train.steps = 12
    optim.lr_backbone = 1e-3
    ablation.lawg_enabled = false
    train.mode = rec
    """
    cfg = parse_config_text(text)
    assert cfg.steps == 12
    assert cfg.lr_backbone == 1e-3
    assert cfg.lawg_enabled is False
    assert cfg.mode == "rec"


def test_config_rejects_unknown_key_and_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("train.stepz = 5")
    with pytest.raises(ConfigError):
        parse_config_text("train.steps = soon")


def test_config_round_trips_through_text():
    cfg = TrainConfig(steps=77, lawg_enabled=False, mode="rec", seed=3)
    again = parse_config_text(config_to_text(cfg))
    assert again == cfg


# the checkpoint's meta/config echo and config.cfg; readers of old
# checkpoints depend on every key, value and line position
DEFAULT_CONFIG_LINES = (
    "data.path = ",
    "model.image_size = 64",
    "model.patch = 8",
    "model.d_model = 64",
    "model.blocks = 4",
    "model.heads = 4",
    "model.mlp_ratio = 4",
    "text.width = 64",
    "text.layers = 2",
    "text.heads = 4",
    "text.max_len = 40",
    "law.groups = 4",
    "law.rank_dw = 8",
    "law.reduction_r = 16",
    "head.pool_dim = 32",
    "head.threshold = 0.35",
    "loss.l1 = 1.0",
    "loss.giou = 1.0",
    "loss.focal = 4.0",
    "loss.dice = 4.0",
    "loss.focal_alpha = 0.25",
    "loss.focal_gamma = 2.0",
    "optim.lr_backbone = 4e-05",
    "optim.lr_rest = 0.0004",
    "optim.weight_decay = 0.0001",
    "optim.decay_factor = 0.1",
    "optim.decay_step = 0",
    "train.steps = 3000",
    "train.batch_size = 16",
    "train.seed = 0",
    "train.mode = multitask",
    "train.eval_every = 250",
    "train.log_every = 50",
    "train.flip_prob = 0.5",
    "ablation.lawg_enabled = true",
    "ablation.lap_enabled = true",
    "ablation.mth_enabled = true",
)


def test_config_echo_of_defaults_is_pinned():
    text = "\n".join(DEFAULT_CONFIG_LINES) + "\n"
    assert config_to_text(TrainConfig()) == text


def test_shipped_config_files_parse_and_validate():
    root = Path(__file__).resolve().parent.parent
    desk = validate(load_config(root / "configs" / "desk64.cfg"))
    assert (desk.steps, desk.batch_size, desk.lr_rest) == (3000, 16, 2e-3)
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config files", 1)[1].split("```", 2)[1]
    cfg = validate(parse_config_text(example))
    assert (cfg.data_path, cfg.lr_backbone, cfg.threshold) == (
        "data/shapes", 5e-4, 0.35)


def test_validate_forces_rec_without_mask_branch():
    cfg = validate(TrainConfig(mth_enabled=False, mode="multitask"))
    assert cfg.mode == "rec"


def test_validate_decay_default_two_thirds():
    cfg = validate(TrainConfig(steps=3000))
    assert cfg.decay_step == 2000


# ---------------------------------------------------------------------------
# training loop


def test_zero_steps_checkpoint_equals_initialization(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=0)
    training.train(cfg, tmp_path / "run")
    model, _, step, _ = training.load_checkpoint(tmp_path / "run" / "last.ckpt",
                                                 dataset)
    assert step == 0
    fresh = GroundingModel(validate(tiny_cfg(dataset, steps=0)),
                           training.load_vocab(dataset))
    for name, p in fresh.store.items():
        assert np.array_equal(p.data, model.store[name].data), name


def test_overfit_smoke_loss_strictly_decreases(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=50, batch_size=4, log_every=1, eval_every=50,
                   flip_prob=0.0, lr_backbone=5e-4, lr_rest=1e-3)
    training.train(cfg, tmp_path / "run")
    rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    train_rows = [r.split(",") for r in rows[1:] if r.split(",")[1] == "train"]
    first = float(train_rows[0][4])
    last = float(train_rows[-1][4])
    assert last < first


def test_two_runs_identical_bytes(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=6)
    training.train(cfg, tmp_path / "a")
    training.train(cfg, tmp_path / "b")
    for rel in ("metrics.csv", "batches.log", "last.ckpt", "best.ckpt",
                "config.cfg"):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel


def test_checkpoint_save_load_save_byte_identical(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=4)
    training.train(cfg, tmp_path / "run")
    ckpt = tmp_path / "run" / "last.ckpt"
    arrays = read_arrays(ckpt)
    resaved = tmp_path / "resaved.ckpt"
    write_arrays(resaved, arrays)
    assert ckpt.read_bytes() == resaved.read_bytes()


def test_checkpoint_restores_forward_outputs_bitwise(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=5)
    training.train(cfg, tmp_path / "run")
    model, _, _, _ = training.load_checkpoint(tmp_path / "run" / "last.ckpt",
                                              dataset)
    sample = load_dataset(dataset, "val")[0]
    pred1 = forward_sample(model, sample)
    model2, _, _, _ = training.load_checkpoint(tmp_path / "run" / "last.ckpt",
                                               dataset)
    pred2 = forward_sample(model2, sample)
    assert np.array_equal(pred1.box.data, pred2.box.data)
    assert np.array_equal(pred1.mask.probs.data, pred2.mask.probs.data)


def test_checkpoint_entry_order_does_not_matter(dataset, tmp_path):
    # older checkpoints list each ViT block's attn.qkv.* ahead of its ln1.*
    cfg = tiny_cfg(dataset, steps=2)
    training.train(cfg, tmp_path / "run")
    ckpt = tmp_path / "run" / "last.ckpt"
    arrays = read_arrays(ckpt)
    order = list(arrays)
    for i in range(cfg.blocks):
        p = f"param/vit.block{i}."
        for suffix in ("attn.qkv.weight", "attn.qkv.bias"):
            order.remove(p + suffix)
            order.insert(order.index(p + "ln1.gain"), p + suffix)
    assert order != list(arrays)
    old_order = tmp_path / "old_order.ckpt"
    write_arrays(old_order, {name: arrays[name] for name in order})

    model, _, _, _ = training.load_checkpoint(ckpt, dataset)
    permuted, _, _, _ = training.load_checkpoint(old_order, dataset)
    assert ([n for n, _ in permuted.store.items()]
            == [n for n, _ in model.store.items()])
    for name, p in model.store.items():
        assert np.array_equal(permuted.store[name].data, p.data)
    sample = load_dataset(dataset, "val")[0]
    pred1 = forward_sample(model, sample)
    pred2 = forward_sample(permuted, sample)
    assert np.array_equal(pred1.box.data, pred2.box.data)
    assert np.array_equal(pred1.mask.probs.data, pred2.mask.probs.data)


def test_checkpoint_shape_mismatch_rejected(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=1)
    training.train(cfg, tmp_path / "run")
    ckpt = tmp_path / "run" / "last.ckpt"
    arrays = read_arrays(ckpt)
    arrays["param/text.embed"] = arrays["param/text.embed"][:, :-1]
    write_arrays(ckpt, arrays)
    with pytest.raises(DataError, match="text.embed"):
        training.load_checkpoint(ckpt, dataset)


def test_nan_loss_aborts_with_dump(dataset, tmp_path, monkeypatch):
    real = training.total_loss

    def poisoned(*args, **kwargs):
        loss, parts = real(*args, **kwargs)
        return loss * np.inf, parts

    monkeypatch.setattr(training, "total_loss", poisoned)
    cfg = tiny_cfg(dataset, steps=3)
    with pytest.raises(NumericError):
        training.train(cfg, tmp_path / "run")
    dump = json.loads((tmp_path / "run" / "nan_dump.json").read_text())
    assert dump["step"] == 1 and len(dump["scene_ids"]) == cfg.batch_size


def graph_garbage():
    """Collect, and count the Tensor and Tape objects that the collector
    found unreachable: under DEBUG_SAVEALL it keeps them in gc.garbage."""
    gc.collect()
    found = {"Tensor": 0, "Tape": 0}
    for obj in gc.garbage:
        if isinstance(obj, (Tensor, Tape)):
            found[type(obj).__name__] += 1
    gc.garbage.clear()
    return found


@contextlib.contextmanager
def unreachable_graph_objects(monkeypatch, log):
    """Count the Tensor and Tape objects that only the cyclic garbage
    collector could free, among those left over by the managed block: in
    each worker process after each chunk it runs, and in this process at
    the block's end.

    The collector is off across the block, and the workers fork with it off.
    After each training or evaluation chunk, the worker pickles the chunk's
    result, as it does to send it back, drops it and counts; each chunk's
    counts are appended to `log`. The yielded dict gets the totals and, as
    "chunks", the number of chunks counted."""

    def counted(real):
        def chunk(*args):
            payload = pickle.dumps(real(*args))
            append_record(log, graph_garbage())
            return pickle.loads(payload)
        return chunk

    monkeypatch.setattr(training, "step_chunk", counted(training.step_chunk))
    monkeypatch.setattr(training, "forward_chunk",
                        counted(training.forward_chunk))
    gc.collect()
    counts = {}
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield counts
        records = read_records(log)
        for found in records + [graph_garbage()]:
            for key, value in found.items():
                counts[key] = counts.get(key, 0) + value
        counts["chunks"] = len(records)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_train_frees_step_graphs_without_cyclic_gc(dataset, tmp_path,
                                                   monkeypatch):
    cfg = tiny_cfg(dataset, steps=3, eval_every=3, log_every=1)
    with unreachable_graph_objects(monkeypatch, tmp_path / "gc") as counts:
        training.train(cfg, tmp_path / "run")
    # three steps of two 1-sample chunks and a val round of two 3-sample
    # chunks
    assert counts == {"Tensor": 0, "Tape": 0, "chunks": 8}


def test_failed_step_frees_its_graph_without_cyclic_gc(dataset, tmp_path,
                                                       monkeypatch):
    real = training.total_loss

    def poisoned(*args, **kwargs):
        loss, parts = real(*args, **kwargs)
        return loss * np.inf, parts

    monkeypatch.setattr(training, "total_loss", poisoned)
    cfg = tiny_cfg(dataset, steps=3)
    with unreachable_graph_objects(monkeypatch, tmp_path / "gc") as counts:
        with pytest.raises(NumericError, match="nan_dump.json"):
            training.train(cfg, tmp_path / "run")
    # both 1-sample chunks of step 1 run, and both fail
    assert counts == {"Tensor": 0, "Tape": 0, "chunks": 2}
    assert (tmp_path / "run" / "nan_dump.json").exists()


def test_failing_second_chunk_dumps_the_whole_batch(dataset, tmp_path,
                                                   monkeypatch):
    # chunks of 2 samples: a B=3 step is a 2-sample chunk and a 1-sample
    # one, and only the 1-sample chunk's loss is not finite. The chunks run
    # on worker processes, which record each chunk's parts in a file.
    real = training.total_loss
    log = tmp_path / "parts"

    def poisoned(box_true, *args, **kwargs):
        loss, parts = real(box_true, *args, **kwargs)
        append_record(log, (len(box_true), parts))
        return (loss * np.inf if len(box_true) == 1 else loss), parts

    monkeypatch.setattr(training, "STEP_ROWS", 32)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "total_loss", poisoned)
    cfg = tiny_cfg(dataset, steps=3, batch_size=3)
    with unreachable_graph_objects(monkeypatch, tmp_path / "gc") as counts:
        with pytest.raises(NumericError, match="nan_dump.json"):
            training.train(cfg, tmp_path / "run")
    assert counts == {"Tensor": 0, "Tape": 0, "chunks": 2}
    dump = json.loads((tmp_path / "run" / "nan_dump.json").read_text())
    assert dump["step"] == 1 and len(dump["scene_ids"]) == 3
    parts_of = dict(read_records(log))
    assert sorted(parts_of) == [1, 2]
    assert dump["loss_parts"] == {
        key: 2 / 3 * parts_of[2][key] + 1 / 3 * parts_of[1][key]
        for key in parts_of[1]}


def chunk_key(chunk):
    """A chunk's (sample, flip) pairs as (scene_id, flip), comparable across
    processes."""
    return [(sample.scene_id, flip) for sample, flip in chunk]


def one_step(monkeypatch, cfg, out):
    """Train one step; returns each parameter's gradient as AdamW saw it,
    the train row's loss parts and the chunks the step ran, in chunk order,
    as (sample, flip) pairs. The chunks are recorded as the step splits its
    batch, and the worker processes record each chunk they run: the two
    must be the same."""
    grads, chunks, models = {}, [], []
    samples = load_dataset(cfg.data_path, "train")
    real_step, real_split = AdamW.step, training.split_batch
    real_chunk, real_build = training.step_chunk, training.build_model
    log = out.parent / f"{out.name}.chunks"

    def build_model(cfg, vocab):
        models.append(real_build(cfg, vocab))
        return models[-1]

    def step(opt, lr_scale=1.0):
        (model,) = models
        grads.update((name, p.grad.copy()) for name, p in model.store.items())
        return real_step(opt, lr_scale)

    def split_batch(batch, tokens):
        # only the step splits a list of (sample index, flip) pairs: train
        # also splits a range to count its workers, and the val round
        # splits range(len(val))
        split = real_split(batch, tokens)
        if not isinstance(batch, range):
            chunks[:] = [[(samples[i], flip) for i, flip in pairs]
                         for pairs in split]
        return split

    def step_chunk(model, weights, mode, chunk, share):
        append_record(log, chunk)
        return real_chunk(model, weights, mode, chunk, share)

    with monkeypatch.context() as patch:
        patch.setattr(AdamW, "step", step)
        patch.setattr(training, "build_model", build_model)
        patch.setattr(training, "split_batch", split_batch)
        patch.setattr(training, "step_chunk", step_chunk)
        training.train(replace(cfg, steps=1, log_every=1), out)
    ran = read_records(log)
    assert sorted(map(chunk_key, ran)) == sorted(map(chunk_key, chunks))
    row = next(r for r in (out / "metrics.csv").read_text().splitlines()
               if r.split(",")[1] == "train")
    parts = [float(v) for v in row.split(",")[4:]]
    return grads, parts, chunks


def one_tape_step(cfg, batch):
    """Each parameter's gradient and the loss parts of the whole batch of
    (sample, flip) pairs on one tape in this process, from the model train
    starts from."""
    model = GroundingModel(cfg, load_vocab(cfg.data_path))
    items = []
    for sample, flip in batch:
        item = (*sample.arrays(cfg.image_size), sample.box, sample.expression)
        items.append(flip_sample(*item) if flip else item)
    images, masks, boxes, exprs = zip(*items)
    with Tape() as tape:
        pred = model.forward_batch(
            [model.image_tensor(image) for image in images],
            [model.tokenize(expr) for expr in exprs])
        loss, parts = total_loss(np.stack(boxes), pred.box,
                                 np.stack(masks).astype(np.float64),
                                 pred.mask.probs,
                                 training.loss_weights_from(cfg), cfg.mode)
    tape.backward(loss)
    return {name: p.grad for name, p in model.store.items()}, parts


def test_split_step_matches_one_chunk_step(dataset, tmp_path, monkeypatch):
    """A split step's gradients and loss parts match one chunk of the whole
    batch on one tape in this process, to rounding."""
    cfg = validate(tiny_cfg(dataset, batch_size=16))
    # 16 visual tokens an image: at 512 rows two chunks of ceil(B / 2), at
    # 64 rows four chunks of 4, more than there are workers
    for rows, sizes in ((512, [8, 8]), (64, [4, 4, 4, 4])):
        monkeypatch.setattr(training, "STEP_ROWS", rows)
        grads, parts, chunks = one_step(monkeypatch, cfg,
                                        tmp_path / str(rows))
        assert [len(c) for c in chunks] == sizes
        ref, ref_parts = one_tape_step(cfg, sum(chunks, []))
        assert grads.keys() == ref.keys()
        for name, grad in ref.items():
            assert np.abs(grads[name] - grad).max() <= \
                1e-12 * np.abs(grad).max(), (rows, name)
        assert len(parts) == 5
        for key, b in zip(("total", "l1", "giou", "focal", "dice"), parts):
            a = ref_parts[key]
            assert abs(b - a) <= 1e-12 * abs(a), (rows, key)


def test_one_chunk_step_equals_one_tape_over_the_batch(dataset, tmp_path,
                                                       monkeypatch):
    # only a B=1 step is one chunk: its backward runs straight into the
    # step gradient that AdamW reads
    cfg = validate(tiny_cfg(dataset, batch_size=1))
    grads, _, chunks = one_step(monkeypatch, cfg, tmp_path / "run")
    assert len(chunks) == 1
    ref, _ = one_tape_step(cfg, chunks[0])
    assert grads.keys() == ref.keys()
    for name, grad in ref.items():
        assert np.array_equal(grads[name], grad), name


@pytest.mark.parametrize("rows,batch,sizes", [
    (32, 2, [1, 1]),
    (32, 1, [1]),
    (64, 3, [2, 1]),  # 48 rows split too: chunks of ceil(B / 2)
])
def test_step_splits_every_batch_of_two_or_more(dataset, tmp_path,
                                                monkeypatch, rows, batch,
                                                sizes):
    # the tiny config's images have 16 visual tokens
    monkeypatch.setattr(training, "STEP_ROWS", rows)
    cfg = tiny_cfg(dataset, batch_size=batch)
    _, _, chunks = one_step(monkeypatch, cfg, tmp_path / "run")
    assert [len(c) for c in chunks] == sizes


def test_calling_process_reads_no_training_pixels(dataset, tmp_path,
                                                  monkeypatch):
    # a step's chunks name their samples, and the worker processes read
    # them: this process reads one image only, check_resolution's
    real, pid, reads = GroundingSample.image, os.getpid(), []

    def image(sample):
        if os.getpid() == pid:
            reads.append(sample.scene_id)
        return real(sample)

    monkeypatch.setattr(GroundingSample, "image", image)
    training.train(tiny_cfg(dataset, steps=2, batch_size=2), tmp_path / "run")
    assert len(reads) == 1


@pytest.mark.parametrize("batch,tokens,sizes", [
    (2, 256, [1, 1]),   # B=2 at 128x128
    (3, 256, [2, 1]),
    (8, 64, [4, 4]),    # B=8 at 64x64
    (16, 64, [8, 8]),
    (4, 64, [2, 2]),    # B=4 at 64x64: 256 rows, split all the same
    (1, 1024, [1]),     # one image past STEP_ROWS alone
    (500, 64, [8] * 62 + [4]),  # an evaluation of 500 samples at 64x64
    (100, 256, [2] * 50),       # of 100 at 128x128
    (1, 64, [1]),               # of one sample
])
def test_split_batch_at_step_rows_512(batch, tokens, sizes):
    assert training.STEP_ROWS == 512
    chunks = training.split_batch(list(range(batch)), tokens)
    assert [len(c) for c in chunks] == sizes
    assert sum(chunks, []) == list(range(batch))


def test_chunked_run_does_not_depend_on_worker_count(dataset, tmp_path,
                                                     monkeypatch):
    # at 32 rows, chunks of 2 samples: a B=5 step is 3 chunks, the last one
    # short, and a B=2 step two 1-sample chunks; at the default 512 rows a
    # B=3 step (48 rows) is chunks of 2 and 1. So 1, 2 and 4 workers run
    # more chunks than workers, as many, and fewer than the CPUs allowed.
    for rows, batch in ((32, 5), (32, 2), (512, 3)):
        monkeypatch.setattr(training, "STEP_ROWS", rows)
        cfg = tiny_cfg(dataset, steps=4, batch_size=batch, log_every=1,
                       eval_every=2)
        # more worker processes than this host may have cores
        for workers in (1, 2, 4):
            monkeypatch.setattr(training, "usable_cpus", lambda: workers)
            training.train(cfg, tmp_path / f"{batch}-{workers}")
        for workers in (2, 4):
            for rel in ("metrics.csv", "batches.log", "last.ckpt",
                        "best.ckpt"):
                assert (tmp_path / f"{batch}-1" / rel).read_bytes() == \
                    (tmp_path / f"{batch}-{workers}" / rel).read_bytes(), \
                    (batch, workers, rel)


def test_step_gradient_is_summed_in_the_shared_mapping(dataset, tmp_path,
                                                       monkeypatch):
    """AdamW reads each parameter's grad where the step's chunks summed it,
    in the shared mapping. A B=4 step on two workers is two chunks, one a
    worker: chunk 0's backward writes the step gradient itself, so worker
    0's slot is never touched, and only worker 1's slot is added in."""
    made, steps = [], []

    class Recorded(SharedParameters):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    real_step = AdamW.step

    def step(opt, lr_scale=1.0):
        (shared,) = made
        for k, p in enumerate(shared.params):
            assert np.shares_memory(p.grad, shared.gradient), k
        for _, _, grad, *_ in opt.groups:
            assert np.shares_memory(grad, shared.gradient)
        steps.append(shared.gradient.any())
        return real_step(opt, lr_scale)

    monkeypatch.setattr(training, "SharedParameters", Recorded)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(AdamW, "step", step)
    training.train(tiny_cfg(dataset, steps=2, batch_size=4), tmp_path / "run")
    (shared,) = made
    assert steps == [True, True]
    assert len(shared.slots) == 2
    assert not shared.slots[0].any()
    assert shared.slots[1].any()


def test_arm_without_weight_generator_trains_over_two_ranges(dataset,
                                                             tmp_path,
                                                             monkeypatch):
    """With no weight generator there is no law.* range: the backbone's
    range holds the text and ViT parameters and the rest's the head's, one
    after the other, and both train. The padding between parameters keeps
    zero values and a zero gradient."""
    made, models = [], []
    real_build = training.build_model

    class Recorded(SharedParameters):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def build_model(cfg, vocab):
        models.append(real_build(cfg, vocab))
        return models[-1]

    monkeypatch.setattr(training, "SharedParameters", Recorded)
    monkeypatch.setattr(training, "build_model", build_model)
    cfg = tiny_cfg(dataset, steps=2, lawg_enabled=False)
    training.train(cfg, tmp_path / "run")
    (shared,), (model,) = made, models
    (backbone, _), (rest, _) = shared.groups
    assert backbone.size + rest.size == shared.gradient.size
    init = GroundingModel(cfg, load_vocab(dataset))
    moved = [False, False]
    for name, p in model.store.items():
        assert not name.startswith("law."), name
        k = 0 if name.startswith(("text.", "vit.")) else 1
        assert np.shares_memory(p.data, shared.groups[k][0]), name
        moved[k] |= not np.array_equal(p.data, init.store[name].data)
    assert moved == [True, True]
    padding = np.ones(shared.gradient.size, bool)
    for p, offset in zip(shared.params, shared._offsets):
        padding[offset:offset + p.data.size] = False
    values = np.concatenate([backbone, rest])
    assert padding.any()
    assert not values[padding].any() and not shared.gradient[padding].any()


def test_package_import_pins_openblas_to_one_thread():
    """The pin applies only if set before numpy loads, so it is checked in a
    fresh interpreter, reading the thread count from OpenBLAS itself."""
    probe = textwrap.dedent("""
        import ctypes, json
        import lawground.cli
        names = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                libs = {l.split()[-1] for l in fh if "openblas" in l}
        except OSError:
            libs = set()
        counts = []
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts.append(fn())
        print(json.dumps(counts))
    """)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    src = str(Path(training.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    counts = json.loads(done.stdout.strip().splitlines()[-1])
    if not counts:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    assert counts == [1] * len(counts)


def test_runtime_imports_no_scipy(dataset, tmp_path):
    """scipy is a test-only dependency. In a fresh interpreter, importing
    the CLI loads no scipy module, and with scipy blocked a 2-step train,
    eval and inspect all succeed."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2, eval_every=2)))
    sample = load_dataset(dataset, "val")[0].scene_id
    probe = textwrap.dedent("""
        import sys
        import lawground.cli
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        sys.modules["scipy"] = None
        cfg, run, sample = sys.argv[1:]
        main = lawground.cli.main
        assert main(["train", "--config", cfg, "--out", run + "/run"]) == 0
        ckpt = run + "/run/last.ckpt"
        assert main(["eval", "--ckpt", ckpt, "--split", "val",
                     "--out", run + "/ev"]) == 0
        assert main(["inspect", "--ckpt", ckpt, "--sample-id", sample,
                     "--out", run + "/insp"]) == 0
    """)
    src = str(Path(training.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", probe, str(cfg), str(tmp_path), str(sample)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_training_steps_do_not_fault_freed_memory_back_in(tmp_path):
    """A step frees its whole graph when its chunks return; the package's
    malloc settings keep that memory mapped for the next step, in the
    worker process that ran the chunk as in the parent. Run in a fresh
    interpreter, so the import applies them before anything else
    allocates."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the malloc settings are glibc's")
    generate_dataset(tmp_path / "ds", seed=2, n_train=8, n_val=1, n_test=0)
    probe = textwrap.dedent("""
        import json, os, resource, sys
        from lawground import optim, train
        from lawground.config import TrainConfig
        faults = []
        real_step, real_chunk = optim.AdamW.step, train.step_chunk

        def minflt():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        def step(opt, lr_scale=1.0):
            real_step(opt, lr_scale)
            faults.append(minflt())

        def step_chunk(*args):
            # on the worker: its fault count after each chunk, one line a
            # chunk in a file of its own
            out = real_chunk(*args)
            with open(f"{sys.argv[2]}.{os.getpid()}", "a") as fh:
                fh.write(f"{minflt()}\\n")
            return out

        optim.AdamW.step = step
        train.step_chunk = step_chunk
        # two workers, whatever this host has: one runs chunk 0 of each
        # step, the other chunk 1
        train.usable_cpus = lambda: 2
        train.train(TrainConfig(data_path=sys.argv[1], steps=6, batch_size=4,
                                eval_every=6, log_every=6), sys.argv[2])
        print(json.dumps([b - a for a, b in zip(faults, faults[1:])]))
    """)
    src = str(Path(training.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "ds"),
         str(tmp_path / "run")], env=env, capture_output=True, text=True,
        timeout=300, check=True)
    per_step = json.loads(done.stdout.strip().splitlines()[-1])
    # a B=4 desk64 step is two chunks of 2, so each worker runs six
    logs = sorted(tmp_path.glob("run.*"))
    assert len(logs) == 2, logs
    per_chunk = []
    for log in logs:
        counts = [int(line) for line in log.read_text().split()]
        per_chunk.append([b - a for a, b in zip(counts, counts[1:])])
    # a desk64 B=4 step re-faulted about 5,700 pages (22 MiB) when the top
    # of the heap went back to the kernel after each step
    for faults in (per_step, *per_chunk):
        assert len(faults) == 5 and sorted(faults)[2] < 1000, faults


def test_resolution_mismatch_is_config_error(dataset, tmp_path):
    cfg = tiny_cfg(dataset, image_size=64)
    with pytest.raises(ConfigError):
        training.train(cfg, tmp_path / "run")


# ---------------------------------------------------------------------------
# evaluation


# a stand-in model whose chunks hold at most 512 // 64 = 8 samples
STUB_MODEL = SimpleNamespace(backbone=SimpleNamespace(n_tokens=64))


def stub_forward(monkeypatch, predict):
    """Make each chunk's forward hand back the chunk's samples, and
    predict_sample return predict(sample) for each of them."""
    monkeypatch.setattr(training, "forward_chunk", lambda model, chunk: chunk)
    monkeypatch.setattr(training, "predict_sample",
                        lambda chunk, b, thr: predict(chunk[b]))


def test_evaluate_gt_stub_is_perfect(dataset, monkeypatch):
    samples = load_dataset(dataset, "val")
    stub_forward(monkeypatch, lambda s: (s.box.copy(), s.mask().copy()))
    report = training.evaluate_model(STUB_MODEL, samples, 0.35)
    assert report["prec_at_05"] == 1.0
    assert report["miou"] == 1.0
    assert report["relational"]["prec_at_05"] == 1.0


def test_evaluate_constant_box_stub_matches_loop(dataset, monkeypatch):
    from lawground.losses import box_iou

    samples = load_dataset(dataset, "val")
    const = np.array([0.5, 0.5, 0.25, 0.25])
    stub_forward(monkeypatch, lambda s: (const.copy(), None))
    report = training.evaluate_model(STUB_MODEL, samples, 0.35)
    want = sum(1 for s in samples if box_iou(const, s.box) > 0.5) / len(samples)
    assert report["prec_at_05"] == want
    assert report["miou"] is None


@pytest.fixture(scope="module")
def eval_model(dataset, tmp_path_factory):
    """A trained model with 64 visual tokens per image: at most 8 samples
    a chunk."""
    run = tmp_path_factory.mktemp("eval_run")
    training.train(tiny_cfg(dataset, patch=4, steps=4), run)
    model, cfg, _, _ = training.load_checkpoint(run / "last.ckpt", dataset)
    return model, cfg.threshold


def test_evaluate_report_does_not_depend_on_worker_count(dataset, eval_model,
                                                         monkeypatch):
    model, threshold = eval_model
    samples = load_dataset(dataset, "val")
    real = training.predict_sample
    runs = {}
    # more worker processes than this host may have cores
    for workers in (1, 2, 4):
        outputs = []

        def record(out, b, thr):
            outputs.append(real(out, b, thr))
            return outputs[-1]

        monkeypatch.setattr(training, "usable_cpus", lambda: workers)
        monkeypatch.setattr(training, "predict_sample", record)
        report = training.evaluate_model(model, samples, threshold)
        runs[workers] = report, outputs
    report, outputs = runs[1]
    assert len(outputs) == len(samples)
    for other, other_outputs in (runs[2], runs[4]):
        assert other == report
        for (box, mask), (other_box, other_mask) in zip(outputs,
                                                        other_outputs):
            assert np.array_equal(box, other_box)
            assert np.array_equal(mask, other_mask)


@pytest.mark.parametrize("split,count", [("val", 6), ("val", 5), ("test", 4),
                                         ("val", 1)])
def test_evaluate_matches_per_sample_forward(dataset, eval_model, monkeypatch,
                                             split, count):
    # chunks of ceil(n / 2): 6 samples make two 3-sample chunks, 5 a
    # 3-sample and a short 2-sample one, 4 two 2-sample chunks, 1 one chunk
    model, threshold = eval_model
    samples = load_dataset(dataset, split)[:count]
    assert len(samples) == count
    seen = []
    real = training.predict_sample

    def record(out, b, thr):
        seen.append((out[0][b].copy(), out[1][b].copy()))
        return real(out, b, thr)

    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "predict_sample", record)
    training.evaluate_model(model, samples, threshold)
    assert len(seen) == count
    for sample, (box, probs) in zip(samples, seen):
        single = forward_sample(model, sample)
        assert np.abs(box - single.box.data).max() <= 1e-13
        assert np.abs(probs - single.mask.probs.data).max() <= 1e-13


def test_predict_sample_runs_in_calling_process_in_sample_order(dataset,
                                                                monkeypatch):
    samples = load_dataset(dataset, "val")
    forward_pids, calls = set(), []

    def forward(model, chunk):
        return os.getpid(), chunk

    def predict(out, b, thr):
        pid, chunk = out
        forward_pids.add(pid)
        calls.append((os.getpid(), chunk[b].scene_id))
        return chunk[b].box.copy(), None

    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "forward_chunk", forward)
    monkeypatch.setattr(training, "predict_sample", predict)
    training.evaluate_model(STUB_MODEL, samples, 0.35)
    assert calls == [(os.getpid(), s.scene_id) for s in samples]
    assert forward_pids and os.getpid() not in forward_pids


def test_evaluate_records_nothing_on_callers_tape(dataset, eval_model,
                                                  tmp_path, monkeypatch):
    model, threshold = eval_model
    real = training.forward_chunk
    log = tmp_path / "tapes"

    def forward(model, chunk):
        # on a worker process, forked while the caller's tape was open
        append_record(log, active_tape() is None)
        return real(model, chunk)

    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "forward_chunk", forward)
    with Tape() as tape:
        training.evaluate_model(model, load_dataset(dataset, "val"), threshold)
    assert tape._entries == []
    assert read_records(log) == [True, True]


def test_evaluate_failing_chunk_raises_and_cancels_the_rest(dataset,
                                                            tmp_path,
                                                            monkeypatch):
    samples = load_dataset(dataset, "val")
    log = tmp_path / "started"

    def forward(model, chunk):
        # on a worker process: the parent reads the starts from the file
        append_record(log, chunk[0].scene_id)
        raise NumericError(f"chunk at scene {chunk[0].scene_id} failed")

    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "forward_chunk", forward)
    # images of STEP_ROWS visual tokens: one sample a chunk
    one_per_chunk = SimpleNamespace(backbone=SimpleNamespace(n_tokens=512))
    with pytest.raises(NumericError, match=f"scene {samples[0].scene_id} "):
        training.evaluate_model(one_per_chunk, samples, 0.35)
    # 6 chunks, of which at most one per worker was ever handed out
    started = read_records(log)
    assert 1 <= len(started) <= 2 and samples[0].scene_id in started


def test_rerun_evaluation_identical(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=3)
    training.train(cfg, tmp_path / "run")
    a = training.evaluate_checkpoint(tmp_path / "run" / "last.ckpt", dataset,
                                     "val", out_dir=tmp_path / "ev1")
    b = training.evaluate_checkpoint(tmp_path / "run" / "last.ckpt", dataset,
                                     "val", out_dir=tmp_path / "ev2")
    assert a == b
    assert (tmp_path / "ev1" / "eval_metrics.csv").read_bytes() == \
        (tmp_path / "ev2" / "eval_metrics.csv").read_bytes()
    buckets = (tmp_path / "ev1" / "length_buckets.csv").read_text().splitlines()
    assert buckets[0] == "bucket,count,prec_at_05"
    assert [row.split(",")[0] for row in buckets[1:]] == \
        ["1-5", "6-7", "8-10", "11+"]


# ---------------------------------------------------------------------------
# worker processes


@contextlib.contextmanager
def forked(monkeypatch):
    """The pids os.fork returns to this process inside the block. Any of
    them still running afterwards is killed but not waited for, so
    `reaped` still tells whether the code under test waited for it."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    try:
        yield pids
    finally:
        monkeypatch.setattr(os, "fork", real)
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def unreaped(pids):
    """The children among pids that the code under test had not waited
    for; waits for each of them, a killed leftover included."""
    left = []
    for pid in pids:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        if not done:
            os.waitpid(pid, 0)
        left.append(pid)
    return left


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_worker_outlives_train_or_evaluate(dataset, tmp_path, monkeypatch,
                                              cpus):
    # chunks of 2 samples: a B=3 step is two chunks
    monkeypatch.setattr(training, "STEP_ROWS", 32)
    monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
    with forked(monkeypatch) as pids:
        training.train(tiny_cfg(dataset, steps=2, batch_size=3,
                                eval_every=1), tmp_path / "run")
        training.evaluate_checkpoint(tmp_path / "run" / "last.ckpt", dataset,
                                     "val")
    # the step pool's workers, which also run both val rounds, and as many
    # for the eval: 6 val samples are three chunks of 2 at 16 visual tokens
    # an image
    assert len(pids) == 2 * cpus
    assert unreaped(pids) == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_worker_outlives_a_chunk_that_raises(dataset, tmp_path,
                                                monkeypatch, cpus):
    real = training.step_chunk

    def step_chunk(model, weights, mode, chunk, share):
        if len(chunk) == 1:
            raise ShapeError("the 1-sample chunk failed")
        return real(model, weights, mode, chunk, share)

    def forward(model, chunk):
        raise ShapeError(f"chunk at scene {chunk[0].scene_id} failed")

    monkeypatch.setattr(training, "STEP_ROWS", 32)
    monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
    training.train(tiny_cfg(dataset, steps=1), tmp_path / "ok")
    monkeypatch.setattr(training, "step_chunk", step_chunk)
    monkeypatch.setattr(training, "forward_chunk", forward)
    with forked(monkeypatch) as pids:
        with pytest.raises(ShapeError, match="1-sample chunk failed"):
            training.train(tiny_cfg(dataset, steps=2, batch_size=3),
                           tmp_path / "run")
        with pytest.raises(ShapeError, match="chunk at scene"):
            # chunks of 2: the step runs, and its val round's chunk raises
            training.train(tiny_cfg(dataset, steps=1, batch_size=4),
                           tmp_path / "val")
        with pytest.raises(ShapeError, match="chunk at scene"):
            training.evaluate_checkpoint(tmp_path / "ok" / "last.ckpt",
                                         dataset, "val")
    # each of the three calls forks one worker per CPU: every step and val
    # round is two chunks or more
    assert len(pids) == 3 * cpus
    assert unreaped(pids) == []


def test_non_finite_loss_dumps_every_scene_and_leaves_no_worker(
        dataset, tmp_path, monkeypatch):
    real = training.total_loss

    def poisoned(box_true, *args, **kwargs):
        loss, parts = real(box_true, *args, **kwargs)
        return (loss * np.inf if len(box_true) == 1 else loss), parts

    monkeypatch.setattr(training, "STEP_ROWS", 32)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "total_loss", poisoned)
    with forked(monkeypatch) as pids:
        with pytest.raises(NumericError, match="nan_dump.json"):
            training.train(tiny_cfg(dataset, steps=2, batch_size=3),
                           tmp_path / "run")
    assert len(pids) == 2 and unreaped(pids) == []
    dump = json.loads((tmp_path / "run" / "nan_dump.json").read_text())
    # the dumped batch is the one batches.log hashed for step 1
    logged = (tmp_path / "run" / "batches.log").read_text().split()
    digest = hashlib.sha256(",".join(
        f"{scene}:{int(flip)}" for scene, flip in zip(
            dump["scene_ids"], dump["flips"])).encode()).hexdigest()
    assert len(dump["scene_ids"]) == 3 and logged == [f"1,{digest}"]


def test_worker_killed_mid_chunk_is_exit_3_naming_the_chunk(
        dataset, tmp_path, monkeypatch, capsys):
    real = training.step_chunk

    def step_chunk(model, weights, mode, chunk, share):
        if len(chunk) == 1:
            os._exit(7)
        return real(model, weights, mode, chunk, share)

    monkeypatch.setattr(training, "STEP_ROWS", 32)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(training, "step_chunk", step_chunk)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2, batch_size=3)))
    capsys.readouterr()
    with forked(monkeypatch) as pids:
        code = main(["train", "--config", str(cfg), "--out",
                     str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert "ended with exit code 7 while running chunk 1" in err, err
    assert len(pids) == 2 and unreaped(pids) == []


def test_worker_exits_when_its_parent_closes_the_pipe():
    pool = Workers(1, lambda task: task)
    try:
        assert [r for _, r in pool.in_order(["ping"])] == ["ping"]
        pool._conns[0].close()
        pid = pool._pids[0]
        deadline = time.monotonic() + 60
        done = 0, 0
        while done[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
            done = os.waitpid(pid, os.WNOHANG)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
        pool._pids[0] = None
    finally:
        pool.close(kill=True)


# ---------------------------------------------------------------------------
# inspect


def test_inspect_writes_artifact_bundle(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=3)
    training.train(cfg, tmp_path / "run")
    sample = load_dataset(dataset, "val")[0]
    out = training.inspect(tmp_path / "run" / "last.ckpt", dataset,
                           sample.scene_id, tmp_path / "insp")
    for name in ("rollout.pgm", "rollout.csv", "lap.pgm", "lap.csv",
                 "overlay.json", "word_layer_affinity.csv"):
        assert (out / name).exists(), name

    overlay = json.loads((out / "overlay.json").read_text())
    assert overlay["scene_id"] == sample.scene_id
    assert len(overlay["pred_box"]) == 4
    rle = overlay["mask_rle"]
    assert sum(rle["counts"]) == rle["size"][0] * rle["size"][1]

    rows = (out / "word_layer_affinity.csv").read_text().splitlines()
    assert rows[0] == "word,layer0,layer1"
    for row in rows[1:]:
        cols = row.split(",")
        total = sum(float(v) for v in cols[1:])
        assert abs(total - 1.0) < 1e-9  # softmax across layers


def test_inspect_affinity_empty_when_lawg_disabled(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=2, lawg_enabled=False)
    training.train(cfg, tmp_path / "run")
    sample = load_dataset(dataset, "val")[0]
    out = training.inspect(tmp_path / "run" / "last.ckpt", dataset,
                           sample.scene_id, tmp_path / "insp")
    lines = (out / "word_layer_affinity.csv").read_text().splitlines()
    assert lines[0].startswith("#")  # explanatory header
    assert len(lines) == 2  # comment + column header, no data rows


def test_inspect_missing_sample_is_error(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=1)
    training.train(cfg, tmp_path / "run")
    with pytest.raises(ConfigError):
        training.inspect(tmp_path / "run" / "last.ckpt", dataset, 999999,
                         tmp_path / "insp")


def test_word_affinity_matches_manual_trace(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=2)
    training.train(cfg, tmp_path / "run")
    model, _, _, _ = training.load_checkpoint(tmp_path / "run" / "last.ckpt",
                                              dataset)
    tokens = model.tokenize("red circle left of the red square")
    image = model.image_tensor(np.zeros((32, 32, 3), dtype=np.uint8))
    pred = model.forward(image, tokens)
    table = training.word_layer_affinity(model.vocab, tokens, pred.alphas)
    assert list(table) == ["red", "circle", "left", "of", "the", "square"]

    from lawground.law import generate_all

    _, (alphas,) = generate_all(model.text.encode([tokens]), model.law,
                                [len(tokens)])
    # manual trace for the duplicated word "red" (positions 1 and 6)
    per_layer = np.array([a.mean(axis=0)[[1, 6]].mean() for a in alphas])
    want = np.exp(per_layer - per_layer.max())
    want /= want.sum()
    np.testing.assert_allclose(table["red"], want, atol=1e-12)


# ---------------------------------------------------------------------------
# ablation


def test_ablate_four_arms_table_and_shared_batches(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=4, eval_every=4)
    rows = training.ablate(cfg, tmp_path / "abl")
    toggles = [(r["lawg"], r["lap"], r["mth"]) for r in rows]
    assert toggles == [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]
    csv = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
    assert csv[0] == "lawg,lap,mth,prec_at_05,prec_at_05_relational,miou"
    assert len(csv) == 5
    logs = {(tmp_path / "abl" / f"arm_{n}" / "batches.log").read_text()
            for n in ("lawg", "lap", "lawg_lap", "lawg_lap_mth")}
    assert len(logs) == 1  # identical data order across arms


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["gen", "--out", str(out), "--seed", "3", "--n-train", "4",
                 "--n-val", "2", "--n-test", "2", "--res", "32"])
    assert code == 0
    assert (out / "index.jsonl").exists()
    assert (out / "manifest.sha").exists()
    assert "wrote dataset" in capsys.readouterr().out


def test_cli_train_eval_inspect_round_trip(dataset, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(
        f"data.path = {dataset}\n"
        "model.image_size = 32\nmodel.d_model = 16\nmodel.blocks = 2\n"
        "model.heads = 2\nmodel.mlp_ratio = 2\ntext.width = 16\n"
        "text.layers = 1\ntext.heads = 2\ntext.max_len = 10\n"
        "law.groups = 4\nlaw.rank_dw = 4\nlaw.reduction_r = 4\n"
        "head.pool_dim = 8\ntrain.steps = 4\ntrain.batch_size = 2\n"
        "train.eval_every = 4\ntrain.log_every = 2\n"
        "optim.lr_backbone = 1e-3\noptim.lr_rest = 1e-3\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(run)]) == 0
    assert (run / "best.ckpt").exists() and (run / "metrics.csv").exists()

    assert main(["eval", "--ckpt", str(run / "last.ckpt"), "--split", "val",
                 "--out", str(tmp_path / "ev")]) == 0
    assert (tmp_path / "ev" / "length_buckets.csv").exists()

    sample = load_dataset(dataset, "val")[0]
    assert main(["inspect", "--ckpt", str(run / "last.ckpt"),
                 "--sample-id", str(sample.scene_id),
                 "--out", str(tmp_path / "insp")]) == 0
    assert (tmp_path / "insp" / "overlay.json").exists()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.stepz = 5\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2


def test_cli_missing_dataset_exit_code(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"data.path = {tmp_path / 'nowhere'}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_cli_train_empty_val_split_fails_before_step_one(tmp_path, capsys):
    data = tmp_path / "ds"
    assert main(["gen", "--out", str(data), "--seed", "3", "--n-train", "8",
                 "--n-val", "0", "--n-test", "0", "--res", "32"]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(data, steps=2)))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 2
    assert "no validation samples" in capsys.readouterr().err
    assert not (run / "batches.log").exists()


def test_cli_eval_split_without_relational_samples(dataset, tmp_path, capsys):
    # a test split of one attribute sample: the relational subset is empty
    training.train(tiny_cfg(dataset, steps=1), tmp_path / "run")
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    records = [json.loads(line) for line in
               (data / "index.jsonl").read_text().splitlines()]
    pick = next(r for r in records if r["template"] == "attribute")
    kept = [r for r in records if r["split"] != "test" and r is not pick]
    kept.append(dict(pick, split="test"))
    (data / "index.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in kept))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"data.path = {data}\n")
    assert main(["eval", "--ckpt", str(tmp_path / "run" / "last.ckpt"),
                 "--split", "test", "--config", str(cfg),
                 "--out", str(tmp_path / "ev")]) == 0
    out = capsys.readouterr().out
    assert "test: n=1 prec@0.5=" in out
    assert "test/relational: n=0 prec@0.5=n/a miou=n/a" in out
    assert (tmp_path / "ev" / "eval_metrics.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "inspect"])
@pytest.mark.parametrize("kind", ["image", "mask"])
def test_cli_sample_of_another_resolution_is_data_error(dataset, tmp_path,
                                                        capsys, command, kind):
    # the split's first sample has the model's size, so only the per-sample
    # check can see the last one's 16x16 file; inspect reads that one sample
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    split = "train" if command == "train" else "test"
    sample = load_dataset(data, split)[-1]
    if kind == "image":
        path = sample.image_path
        netpbm.write_ppm(path, np.zeros((16, 16, 3), dtype=np.uint8))
    else:
        path = sample.mask_path
        netpbm.write_pbm(path, np.zeros((16, 16), dtype=bool))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(data, steps=8, eval_every=8)))
    run = tmp_path / "run"
    if command == "train":
        argv = ["train", "--config", str(cfg), "--out", str(run)]
    else:
        training.train(tiny_cfg(data, steps=0), run)
        argv = [command, "--ckpt", str(run / "last.ckpt")] + (
            ["--split", "test"] if command == "eval" else
            ["--sample-id", str(sample.scene_id),
             "--out", str(tmp_path / "insp")])
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{path}: 16x16 pixels, expected 32x32" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["train.eval_every", "train.log_every"])
def test_cli_zero_interval_is_config_error(dataset, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2)) + f"{key} = 0\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 2
    assert key in capsys.readouterr().err
    assert not (run / "batches.log").exists()


def test_cli_heads_not_dividing_width_is_config_error(dataset, tmp_path,
                                                      capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2))
                   + "model.heads = 3\n")
    assert main(["train", "--config", str(cfg),
                 "--out", str(tmp_path / "run")]) == 2
    assert "model.heads" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "model.heads = 0", "law.groups = 0", "law.reduction_r = 0",
    "model.patch = 0", "text.heads = 0", "model.blocks = 0",
    "model.d_model = 0", "text.heads = 3", "train.flip_prob = 1.5",
    "train.flip_prob = -0.5", "train.seed = -1", "optim.decay_step = -1"])
def test_cli_bad_shape_or_flip_prob_is_config_error(dataset, tmp_path, capsys,
                                                    line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2)) + line + "\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (run / "batches.log").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("line", [
    "optim.lr_rest = nan", "optim.lr_backbone = inf",
    "optim.weight_decay = inf", "optim.decay_factor = nan",
    "loss.l1 = nan", "loss.dice = -inf"])
def test_cli_non_finite_float_is_config_error(dataset, tmp_path, capsys,
                                              command, line):
    # caught before any step runs, not as a numeric error steps later
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2)) + line + "\n")
    run = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(run)]) == 2
    assert f"{line.split(' = ')[0]} must be finite" in capsys.readouterr().err
    assert not run.exists()


def test_cli_ablate_val_split_without_relational_samples(tmp_path, capsys):
    data = tmp_path / "ds"
    assert main(["gen", "--out", str(data), "--seed", "3", "--n-train", "8",
                 "--n-val", "1", "--n-test", "0", "--res", "32"]) == 0
    (val,) = load_dataset(data, "val")
    assert val.template not in ("relation", "superlative")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(data, steps=1)))
    capsys.readouterr()
    assert main(["ablate", "--config", str(cfg),
                 "--out", str(tmp_path / "abl")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:5]
    assert len(rows) == 4 and all(r.endswith("n/a") for r in rows)
    assert (tmp_path / "abl" / "ablation.csv").exists()


def test_cli_eval_truncated_image_exit_code(dataset, tmp_path, capsys):
    training.train(tiny_cfg(dataset, steps=1), tmp_path / "run")
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    victim = load_dataset(data, "val")[0].image_path
    victim.write_bytes(victim.read_bytes()[:-5])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"data.path = {data}\n")
    assert main(["eval", "--ckpt", str(tmp_path / "run" / "last.ckpt"),
                 "--config", str(cfg)]) == 2
    assert victim.name in capsys.readouterr().err


@pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "val")])
def test_cli_unreadable_image_is_data_error(dataset, tmp_path, capsys,
                                            command, split):
    # a directory where the split's last image should be
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    victim = load_dataset(data, split)[-1].image_path
    victim.unlink()
    victim.mkdir()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(data, steps=8, eval_every=8)))
    run = tmp_path / "run"
    if command == "train":
        argv = ["train", "--config", str(cfg), "--out", str(run)]
    else:
        training.train(tiny_cfg(dataset, steps=0), run)
        argv = ["eval", "--ckpt", str(run / "last.ckpt"), "--config",
                str(cfg)]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"cannot read {victim}" in capsys.readouterr().err


@pytest.mark.parametrize("res", [8, 0, -4])
def test_cli_gen_resolution_too_small_is_data_error(tmp_path, capsys, res):
    out = tmp_path / "ds"
    assert main(["gen", "--out", str(out), "--n-train", "2", "--n-val", "1",
                 "--n-test", "1", "--res", str(res)]) == 2
    assert f"resolution {res} leaves no centre" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("res", [11, 16])
def test_cli_gen_resolution_that_keeps_no_sample_is_data_error(tmp_path,
                                                               capsys, res):
    # a large object fits, but every scene is skipped: no split is written
    out = tmp_path / "ds"
    assert main(["gen", "--out", str(out), "--n-train", "20", "--n-val", "4",
                 "--n-test", "0", "--res", str(res)]) == 2
    err = capsys.readouterr().err
    assert f"resolution {res} kept no sample in the requested train, val " \
           f"splits" in err
    assert not (out / "index.jsonl").exists()


@pytest.mark.parametrize("command", ["gen", "train", "eval", "inspect",
                                     "ablate"])
def test_cli_out_naming_a_file_is_data_error(tmp_path, capsys, command):
    # --out that is a file, or lies under one, fails before any work: the
    # missing dataset and checkpoint below are never read
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    missing = str(tmp_path / "missing")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(missing)))
    args = {"gen": ["--n-train", "2", "--n-val", "1", "--n-test", "1",
                    "--res", "32"],
            "train": ["--config", str(cfg)],
            "eval": ["--ckpt", missing],
            "inspect": ["--ckpt", missing, "--sample-id", "0"],
            "ablate": ["--config", str(cfg)]}[command]
    for out in (afile, afile / "sub"):
        assert main([command, *args, "--out", str(out)]) == 2
        assert (f"error: cannot create output directory {out}"
                in capsys.readouterr().err)
    assert afile.read_text() == "kept\n"


def test_cli_eval_non_checkpoint_container_exit_code(tmp_path, capsys):
    container = tmp_path / "x.ckpt"
    write_arrays(container, {"param/w": np.zeros(3)})
    assert main(["eval", "--ckpt", str(container)]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("meta/config", "meta/step", "meta/rng"))


def test_cli_eval_missing_checkpoint_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.ckpt"
    with pytest.raises(DataError):
        read_arrays(missing)
    assert main(["eval", "--ckpt", str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_eval_other_resolution_is_config_error(tmp_path, capsys,
                                                   monkeypatch):
    ds64, ds128 = tmp_path / "ds64", tmp_path / "ds128"
    for root, res in ((ds64, 64), (ds128, 128)):
        assert main(["gen", "--out", str(root), "--seed", "3", "--n-train",
                     "1", "--n-val", "2", "--n-test", "0",
                     "--res", str(res)]) == 0
    cfg = tiny_cfg(ds64, image_size=64)
    ckpt = tmp_path / "64.ckpt"
    training.save_checkpoint(ckpt, GroundingModel(cfg, load_vocab(ds64)), cfg,
                             0, np.random.Generator(np.random.PCG64(0)))

    def forward(model, chunk):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(training, "forward_chunk", forward)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"data.path = {ds128}\n")
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--config", str(cfg_file)]) == 2
    assert "dataset resolution 128 != model.image_size 64" in \
        capsys.readouterr().err


@pytest.mark.parametrize("missing", ["directory", "vocab"])
def test_cli_eval_missing_data_directory_or_vocab_exit_code(dataset, tmp_path,
                                                            capsys, missing):
    training.train(tiny_cfg(dataset, steps=0), tmp_path / "run")
    data = tmp_path / "ds"
    if missing == "vocab":
        shutil.copytree(dataset, data)
        (data / "vocab.txt").unlink()
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"data.path = {data}\n")
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(tmp_path / "run" / "last.ckpt"),
                 "--config", str(cfg_file)]) == 2
    assert str(data / "vocab.txt") in capsys.readouterr().err


def rename_entry(blob, old, new):
    """A container's bytes with one entry name swapped for another of the
    same length."""
    assert len(old) == len(new) and blob.count(old) == 1
    return blob.replace(old, new)


@pytest.mark.parametrize("case", ["extra_vocab_word", "entry_name_not_utf8",
                                  "config_not_utf8", "config_unparsable",
                                  "rng_not_utf8", "rng_not_json",
                                  "rng_wrong_state"])
def test_cli_eval_checkpoint_that_does_not_fit_exit_code(dataset, tmp_path,
                                                         capsys, case):
    training.train(tiny_cfg(dataset, steps=1), tmp_path / "run")
    ckpt = tmp_path / "run" / "last.ckpt"
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    arrays = read_arrays(ckpt)
    if case == "extra_vocab_word":
        with open(data / "vocab.txt", "a", encoding="utf-8") as fh:
            fh.write("zebra\n")
    elif case == "entry_name_not_utf8":
        ckpt.write_bytes(rename_entry(ckpt.read_bytes(), b"meta/step",
                                      b"meta/st\xffp"))
    else:
        key, payload = {
            "config_not_utf8": ("meta/config", b"\xff\xfe"),
            "config_unparsable": ("meta/config", b"model.blocks = many\n"),
            "rng_not_utf8": ("meta/rng", b"\xff\xfe"),
            "rng_not_json": ("meta/rng", b"{not json"),
            "rng_wrong_state": ("meta/rng", b'{"state": 1}'),
        }[case]
        arrays[key] = np.frombuffer(payload, dtype=np.uint8)
        write_arrays(ckpt, arrays)
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"data.path = {data}\n")
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err
    if case == "extra_vocab_word":
        assert "text.embed" in err
