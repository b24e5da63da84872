import contextlib
import gc
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

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
from lawground.model import GroundingModel
from lawground.serial import read_arrays, write_arrays
from lawground.synthground import generate_dataset, load_dataset
from lawground.tensor import Tape, Tensor


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
    model, loaded_cfg, _, _ = training.load_checkpoint(
        tmp_path / "run" / "last.ckpt", dataset)
    sample = load_dataset(dataset, "val")[0]
    box1, mask1 = training.predict_sample(model, sample, loaded_cfg.threshold)
    model2, _, _, _ = training.load_checkpoint(tmp_path / "run" / "last.ckpt",
                                               dataset)
    box2, mask2 = training.predict_sample(model2, sample, loaded_cfg.threshold)
    assert np.array_equal(box1, box2) and np.array_equal(mask1, mask2)


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
    assert permuted.store.names() == model.store.names()
    for name, p in model.store.items():
        assert np.array_equal(permuted.store[name].data, p.data)
    sample = load_dataset(dataset, "val")[0]
    box1, mask1 = training.predict_sample(model, sample, cfg.threshold)
    box2, mask2 = training.predict_sample(permuted, sample, cfg.threshold)
    assert np.array_equal(box1, box2) and np.array_equal(mask1, mask2)


def test_checkpoint_shape_mismatch_rejected(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=1)
    training.train(cfg, tmp_path / "run")
    ckpt = tmp_path / "run" / "last.ckpt"
    arrays = read_arrays(ckpt)
    arrays["param/text.embed"] = arrays["param/text.embed"][:, :-1]
    write_arrays(ckpt, arrays)
    with pytest.raises(ShapeError):
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


@contextlib.contextmanager
def unreachable_graph_objects():
    """Count the Tensor and Tape objects that only the cyclic garbage
    collector could free, among those left over by the managed block."""
    gc.collect()
    counts = {"Tensor": 0, "Tape": 0}
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield counts
        gc.collect()
        for obj in gc.garbage:
            if isinstance(obj, (Tensor, Tape)):
                counts[type(obj).__name__] += 1
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_train_frees_step_graphs_without_cyclic_gc(dataset, tmp_path):
    cfg = tiny_cfg(dataset, steps=3, eval_every=3, log_every=1)
    with unreachable_graph_objects() as counts:
        training.train(cfg, tmp_path / "run")
    assert counts == {"Tensor": 0, "Tape": 0}


def test_failed_step_frees_its_graph_without_cyclic_gc(dataset, tmp_path,
                                                       monkeypatch):
    real = training.total_loss

    def poisoned(*args, **kwargs):
        loss, parts = real(*args, **kwargs)
        return loss * np.inf, parts

    monkeypatch.setattr(training, "total_loss", poisoned)
    cfg = tiny_cfg(dataset, steps=3)
    with unreachable_graph_objects() as counts:
        with pytest.raises(NumericError, match="nan_dump.json"):
            training.train(cfg, tmp_path / "run")
    assert counts == {"Tensor": 0, "Tape": 0}
    assert (tmp_path / "run" / "nan_dump.json").exists()


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


def test_resolution_mismatch_is_config_error(dataset, tmp_path):
    cfg = tiny_cfg(dataset, image_size=64)
    with pytest.raises(ConfigError):
        training.train(cfg, tmp_path / "run")


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_gt_stub_is_perfect(dataset, monkeypatch):
    samples = load_dataset(dataset, "val")
    monkeypatch.setattr(training, "predict_sample",
                        lambda model, s, thr: (s.box.copy(), s.mask().copy()))
    report = training.evaluate_model(object(), samples, 0.35)
    assert report["prec_at_05"] == 1.0
    assert report["miou"] == 1.0
    assert report["relational"]["prec_at_05"] == 1.0


def test_evaluate_constant_box_stub_matches_loop(dataset, monkeypatch):
    from lawground.losses import box_iou

    samples = load_dataset(dataset, "val")
    const = np.array([0.5, 0.5, 0.25, 0.25])
    monkeypatch.setattr(training, "predict_sample",
                        lambda model, s, thr: (const.copy(), None))
    report = training.evaluate_model(object(), samples, 0.35)
    want = sum(1 for s in samples if box_iou(const, s.box) > 0.5) / len(samples)
    assert report["prec_at_05"] == want
    assert report["miou"] is None


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

    _, (alphas,) = generate_all(model.text.encode([tokens]), model.law)
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
    "train.flip_prob = -0.5"])
def test_cli_bad_shape_or_flip_prob_is_config_error(dataset, tmp_path, capsys,
                                                    line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config_to_text(tiny_cfg(dataset, steps=2)) + line + "\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (run / "batches.log").exists()


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


def test_cli_eval_missing_checkpoint_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.ckpt"
    with pytest.raises(DataError):
        read_arrays(missing)
    assert main(["eval", "--ckpt", str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err
