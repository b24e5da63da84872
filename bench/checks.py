"""Output checks, each computed apart from the code it checks.

Every check returns a list of problem strings; an empty list is a pass.
"""

import math
from pathlib import Path

import numpy as np

from lawground import losses, synthground
from lawground import train as training
from lawground.tensor import Tape

import reference

# loss-row tolerance: the logged parts are batch means of per-sample parts,
# so the weighted sum of means differs from the mean of sums by rounding only
LOSS_SUM_RTOL = 1e-12
# the reference forward and GroundingModel.forward agree to ~1e-15 in
# practice; the bound leaves room for summation-order differences only
ORACLE_ATOL = 1e-9
# central differences: step and relative tolerance (scaled by the largest
# gradient magnitude in the group, so tiny coordinates are not over-judged)
FD_STEP = 1e-5
FD_RTOL = 1e-5
GRAD_GROUPS = ("text.block0.attn.qkv.weight", "law.layer1.core.weight",
               "law.out_factor", "vit.block2.attn.qkv.weight",
               "vit.block3.mlp.fc1.weight", "head.pool.text.weight",
               "head.box.fc1.weight", "head.up0.kernel")


def train_rows(metrics_csv):
    """The `train` rows of metrics.csv as dicts of floats."""
    lines = Path(metrics_csv).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        if cells["split"] == "train":
            rows.append({k: float(v) for k, v in cells.items()
                         if k.startswith("loss_") or k == "step"})
    return rows


def loss_rows(rows, cfg, steps):
    """Every step logged, every loss finite, and each total equals the
    weighted sum of its parts from the same row."""
    problems = []
    if [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
        problems.append(f"expected one train row per step 1..{steps}")
    for r in rows:
        if not all(math.isfinite(v) for v in r.values()):
            problems.append(f"step {int(r['step'])}: non-finite loss")
            continue
        parts = (cfg.loss_l1 * r["loss_l1"] + cfg.loss_giou * r["loss_giou"]
                 + cfg.loss_focal * r["loss_focal"]
                 + cfg.loss_dice * r["loss_dice"])
        if abs(r["loss_total"] - parts) > LOSS_SUM_RTOL * max(1.0, abs(parts)):
            problems.append(f"step {int(r['step'])}: loss_total "
                            f"{r['loss_total']!r} != weighted parts {parts!r}")
    return problems


def cores(initial, ckpt_path):
    """Generator core maps exactly zero when built, non-zero at the end."""
    problems = []
    if not initial:
        problems.append("no model construction was observed")
    for built in initial:
        for name, arr in built.items():
            if np.any(arr != 0.0):
                problems.append(f"{name} not zero at step 0")
    final = reference.read_named_arrays(ckpt_path)
    names = [n for n in final if ".core.weight" in n]
    if not names:
        problems.append("checkpoint holds no generator core maps")
    for name in names:
        if not np.any(final[name] != 0.0):
            problems.append(f"{name} still zero in {Path(ckpt_path).name}")
    return problems


def gradient_spot_check(ckpt_path, data_path, n_samples, rng):
    """Taped gradients against central differences of the batch loss.

    Uses the trained checkpoint at its real shapes and the first training
    samples; per group it checks the coordinate with the largest gradient
    and one drawn at random."""
    mdl, cfg, _, _ = training.load_checkpoint(ckpt_path, data_path)
    weights = training.loss_weights_from(cfg)
    batch = synthground.load_dataset(data_path, "train")[:n_samples]

    def batch_loss():
        total = None
        for s in batch:
            pred = mdl.forward(mdl.image_tensor(s.image()),
                               mdl.tokenize(s.expression))
            loss, _ = losses.total_loss(s.box, pred.box,
                                        s.mask().astype(np.float64),
                                        pred.mask.probs, weights, cfg.mode)
            total = loss if total is None else total + loss
        return total * (1.0 / len(batch))

    with Tape() as tape:
        loss = batch_loss()
    tape.backward(loss)

    problems, worst = [], 0.0
    for name in GRAD_GROUPS:
        param = mdl.store[name]
        grad = param.grad.reshape(-1).copy()
        scale = float(np.abs(grad).max())
        flat = param.data.reshape(-1)
        for idx in (int(np.abs(grad).argmax()), int(rng.integers(flat.size))):
            keep = flat[idx]
            flat[idx] = keep + FD_STEP
            hi = batch_loss().item()
            flat[idx] = keep - FD_STEP
            lo = batch_loss().item()
            flat[idx] = keep
            numeric = (hi - lo) / (2 * FD_STEP)
            err = abs(numeric - grad[idx]) / max(scale, 1e-12)
            worst = max(worst, err)
            if err > FD_RTOL:
                problems.append(f"{name}[{idx}]: taped {grad[idx]!r} vs "
                                f"central difference {numeric!r}")
    return problems, worst


def oracle_forward(ckpt_path, data_path, split, picks, captured):
    """Reference forward vs GroundingModel.forward on a few samples, and the
    timed run's captured predictions vs the reference."""
    ref = reference.ReferenceModel(ckpt_path, data_path)
    mdl, _, _, _ = training.load_checkpoint(ckpt_path, data_path)
    records = [r for r in reference.read_index(data_path)
               if r["split"] == split]
    samples = synthground.load_dataset(data_path, split)
    problems, worst = [], 0.0
    for i in picks:
        rec = records[i]
        box, probs = ref.forward(
            reference.read_rgb(Path(data_path) / rec["image"]),
            rec["expression"])
        pred = mdl.forward(mdl.image_tensor(samples[i].image()),
                           mdl.tokenize(samples[i].expression))
        err = max(float(np.abs(box - pred.box.data).max()),
                  float(np.abs(probs - pred.mask.probs.data).max()))
        worst = max(worst, err)
        if err > ORACLE_ATOL:
            problems.append(f"sample {rec['scene_id']}: model vs reference "
                            f"differ by {err:.3g}")
        got_box, got_mask = captured[i]
        if np.abs(got_box - box).max() > ORACLE_ATOL:
            problems.append(f"sample {rec['scene_id']}: evaluated box differs "
                            f"from the reference")
        sure = np.abs(probs - ref.threshold) > ORACLE_ATOL
        if np.any(got_mask[sure] != (probs >= ref.threshold)[sure]):
            problems.append(f"sample {rec['scene_id']}: evaluated mask differs "
                            f"from the reference")
    return problems, worst


def evaluation_report(data_path, split, captured, report):
    """Recompute prec@0.5, mIoU, the relational subset and the length
    buckets from the captured per-sample predictions."""
    records = [r for r in reference.read_index(data_path)
               if r["split"] == split]
    if len(captured) != len(records):
        return [f"{len(captured)} predictions for {len(records)} samples"]
    gts = [reference.read_bitmask(Path(data_path) / r["mask"]) for r in records]
    expected = reference.recompute_report(
        records, gts, [b for b, _ in captured], [m for _, m in captured])
    return reference.report_mismatches(report, expected)
