"""Training loop, checkpointing, evaluation, inspection, and ablation arms.

Everything is deterministic given (seed, config, dataset): batches come from
a dedicated PCG64 stream, evaluation reduces metrics in sample order, and
all artifacts (checkpoints, CSV logs, batch hashes) are byte-stable.
"""

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import netpbm
from .config import config_to_text, parse_config_text, validate
from .errors import ConfigError, DataError, NumericError, ShapeError
from .head import binarize
from .losses import (LossWeights, box_iou, mask_iou, prec_at_05,
                     total_loss)
from .model import GroundingModel
from .optim import AdamW
from .serial import (array_to_str, make_dir, read_arrays, str_to_array,
                     write_arrays)
from .synthground import flip_sample, load_dataset, load_vocab
from .tensor import Tape
from .vit import attention_rollout
from .workers import SharedParameters, Workers

METRIC_COLUMNS = ("step", "split", "prec_at_05", "miou", "loss_total",
                  "loss_l1", "loss_giou", "loss_focal", "loss_dice")

LENGTH_BUCKETS = ((1, 5), (6, 7), (8, 10), (11, None))

# visual-token rows per chunk, at most, of a taped training step and of a
# tape-free evaluation: every step or evaluation of two samples or more
# splits into two chunks or more, so that the worker processes share it
# (see split_batch).
# Chunks of 256 rows made the B=16 desk64 step slower.
STEP_ROWS = 512


def build_model(cfg, vocab):
    """The one place training and checkpoint loading build a model, so a
    wrapper around it (bench/tracing.py's) sees every model built."""
    return GroundingModel(cfg, vocab)


def loss_weights_from(cfg):
    return LossWeights(l1=cfg.loss_l1, giou=cfg.loss_giou, focal=cfg.loss_focal,
                       dice=cfg.loss_dice, focal_alpha=cfg.focal_alpha,
                       focal_gamma=cfg.focal_gamma)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model, cfg, step, rng):
    arrays = {}
    for name, p in model.store.items():
        arrays[f"param/{name}"] = p.data
    arrays["meta/step"] = np.array([step], dtype=np.int64)
    arrays["meta/config"] = str_to_array(config_to_text(cfg))
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    arrays["meta/rng"] = str_to_array(state)
    write_arrays(path, arrays)


def load_checkpoint(path, data_path=None):
    """Rebuild the model a checkpoint was saved from.

    Returns (model, cfg, step, rng). The vocabulary comes from the dataset
    directory (data_path overrides the config echo)."""
    arrays = read_arrays(path)
    missing = [key for key in ("meta/config", "meta/step", "meta/rng")
               if key not in arrays]
    if missing:
        raise DataError(f"{path}: not a checkpoint, no {', '.join(missing)}")
    try:
        cfg = validate(parse_config_text(array_to_str(arrays["meta/config"])))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise DataError(f"{path}: unreadable meta/config: {exc}") from exc
    if data_path:
        cfg.data_path = str(data_path)
    vocab = load_vocab(cfg.data_path)
    model = build_model(cfg, vocab)
    params = {name[len("param/"):]: arr for name, arr in arrays.items()
              if name.startswith("param/")}
    try:
        model.store.load_state_arrays(params)
    except ShapeError as exc:
        raise DataError(f"{path}: does not fit the model built from its "
                        f"config and {cfg.data_path}: {exc}") from exc
    step = int(arrays["meta/step"][0])
    rng = np.random.Generator(np.random.PCG64())
    try:
        # a JSON or UTF-8 decoding error is a ValueError
        rng.bit_generator.state = json.loads(array_to_str(arrays["meta/rng"]))
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError(f"{path}: unreadable meta/rng: {exc}") from exc
    return model, cfg, step, rng


# ---------------------------------------------------------------------------
# evaluation


def predict_sample(out, b, threshold):
    """Sample b of a chunk's forward_chunk output: a copy of its box and its
    binarised mask (None without the mask branch)."""
    boxes, probs = out
    box = boxes[b].copy()
    mask = binarize(probs[b], threshold) if probs is not None else None
    return box, mask


def forward_chunk(model, samples):
    """A chunk's tape-free batch forward, as the arrays predict_sample
    reads: the (n, 4) boxes and the (n, H, W) mask probabilities (None
    without the mask branch)."""
    size = model.config.image_size
    pred = model.forward_batch(
        [model.image_tensor(s.arrays(size)[0]) for s in samples],
        [model.tokenize(s.expression) for s in samples])
    return (pred.box.data,
            pred.mask.probs.data if pred.mask is not None else None)


def usable_cpus():
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def evaluate_model(model, samples, threshold, pool=None):
    """Box precision, mask mIoU, the relational subset, and length buckets.

    The samples split into chunks as a training batch does (split_batch),
    and worker processes run each chunk, as a slice of `samples`, through
    forward_chunk: `pool`, an open Workers that answers a slice task with
    forward_chunk(model, samples[task]) (training's val rounds pass their
    step pool), or else a pool forked for this call, one worker per usable
    CPU up to the chunk count. This process reads every sample out with
    predict_sample, in sample order, so metrics reduce in sample order
    whatever the CPU count."""
    chunks = [slice(r.start, r.stop) for r in split_batch(
        range(len(samples)), model.backbone.n_tokens)]
    # per sample, once: its box's precision at 0.5 (1 or 0) and its mask
    # IoU (None without a mask branch)
    hits, mask_ious = [], []
    with contextlib.nullcontext(pool) if pool is not None else Workers(
            min(usable_cpus(), len(chunks)),
            lambda chunk: forward_chunk(model, samples[chunk])) as pool:
        for chunk, out in pool.in_order(chunks):
            for b, sample in enumerate(samples[chunk]):
                box, mask = predict_sample(out, b, threshold)
                hits.append(prec_at_05([box], [sample.box]))
                mask_ious.append(None if mask is None
                                 else mask_iou(mask, sample.mask()))

    def subset_metrics(indices):
        if not indices:
            return {"count": 0, "prec_at_05": None, "miou": None}
        ious = [mask_ious[i] for i in indices]
        return {"count": len(indices),
                "prec_at_05": sum(hits[i] for i in indices) / len(indices),
                "miou": None if None in ious else float(np.mean(ious))}

    every = list(range(len(samples)))
    relational = [i for i in every
                  if samples[i].template in ("relation", "superlative")]
    report = subset_metrics(every)
    report["relational"] = subset_metrics(relational)
    buckets = []
    for lo, hi in LENGTH_BUCKETS:
        members = [i for i in every
                   if samples[i].word_count >= lo
                   and (hi is None or samples[i].word_count <= hi)]
        label = f"{lo}+" if hi is None else f"{lo}-{hi}"
        stats = subset_metrics(members)
        buckets.append({"bucket": label, "count": stats["count"],
                        "prec_at_05": stats["prec_at_05"]})
    report["buckets"] = buckets
    return report


def _fmt(value):
    return "" if value is None else repr(float(value))


def metric_row(step, split, prec=None, iou=None, parts=None):
    parts = parts or {}
    return ",".join([str(step), split, _fmt(prec), _fmt(iou),
                     _fmt(parts.get("total")), _fmt(parts.get("l1")),
                     _fmt(parts.get("giou")), _fmt(parts.get("focal")),
                     _fmt(parts.get("dice"))])


def report_rows(step, split, report):
    """The `<split>` and `<split>/relational` metric rows of a report."""
    rel = report["relational"]
    return [metric_row(step, split, report["prec_at_05"], report["miou"]),
            metric_row(step, f"{split}/relational", rel["prec_at_05"],
                       rel["miou"])]


def write_bucket_csv(path, report):
    lines = ["bucket,count,prec_at_05"]
    for b in report["buckets"]:
        lines.append(f"{b['bucket']},{b['count']},{_fmt(b['prec_at_05'])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    out_dir: Path
    best_metric: float
    best_step: int
    last_report: dict


class _BatchStream:
    """Endless deterministic permutation stream over sample indices."""

    def __init__(self, n, rng):
        self.n = n
        self.rng = rng
        self._buffer = []

    def take(self, count):
        while len(self._buffer) < count:
            self._buffer.extend(int(i) for i in self.rng.permutation(self.n))
        batch, self._buffer = self._buffer[:count], self._buffer[count:]
        return batch


def check_resolution(samples, cfg):
    """ConfigError unless the samples' images have the model's size."""
    res = samples[0].image().shape[0]
    if res != cfg.image_size:
        raise ConfigError(
            f"dataset resolution {res} != model.image_size {cfg.image_size}")


def split_batch(batch, tokens):
    """A training batch, or the samples of an evaluation, of images of
    `tokens` visual tokens each, in order, as chunks of
    max(1, min(STEP_ROWS // tokens, ceil(B / 2))) samples, the last one
    short: two chunks or more for any B >= 2. The split reads only B and T,
    never the CPU count, and the chunk count never falls as B grows."""
    n = len(batch)
    size = max(1, min(STEP_ROWS // tokens, -(-n // 2)))
    return [batch[i:i + size] for i in range(0, n, size)]


def step_chunk(model, weights, mode, chunk, share):
    """One chunk of a training batch, as (sample, flip) pairs, on a tape of
    its own: each sample read and, if flagged, flipped (flip_sample), then
    the batch forward, the joint loss weighted by `share` (the chunk's
    fraction of the batch) and backward into each parameter's grad.

    Returns the chunk's loss parts and, when its loss is not finite,
    backward's NumericError (else None). The error is returned, not raised,
    so the other chunks still run and the step's nan_dump.json gets the
    parts of every chunk."""
    items = []
    for sample, flip in chunk:
        item = (*sample.arrays(model.config.image_size), sample.box,
                sample.expression)
        items.append(flip_sample(*item) if flip else item)
    images, masks, boxes, exprs = zip(*items)
    with Tape() as tape:
        pred = model.forward_batch(
            [model.image_tensor(image) for image in images],
            [model.tokenize(expr) for expr in exprs])
        probs = pred.mask.probs if pred.mask is not None else None
        loss, parts = total_loss(
            np.stack(boxes), pred.box, np.stack(masks).astype(np.float64),
            probs, weights, mode)
        loss = loss * share
    try:
        tape.backward(loss)
    except NumericError as exc:
        return parts, exc
    return parts, None


def _selection_metric(report, mode):
    if mode == "rec":
        return report["prec_at_05"]
    if mode == "res":
        return report["miou"]
    return 0.5 * (report["prec_at_05"] + report["miou"])


def train(cfg, out_dir):
    """Run the configured schedule; writes checkpoints, metrics.csv,
    batches.log, and returns a TrainResult."""
    cfg = validate(replace(cfg))
    out = make_dir(out_dir)
    if not cfg.data_path:
        raise ConfigError("data.path is required for training")

    train_samples = load_dataset(cfg.data_path, "train")
    val_samples = load_dataset(cfg.data_path, "val")
    if not train_samples:
        raise ConfigError(f"no training samples under {cfg.data_path}")
    if not val_samples:
        raise ConfigError(f"no validation samples under {cfg.data_path}; "
                          f"training evaluates on the val split")
    check_resolution(train_samples, cfg)

    vocab = load_vocab(cfg.data_path)
    model = build_model(cfg, vocab)
    weights = loss_weights_from(cfg)
    # one worker per usable CPU, up to the chunk count of a step or of a
    # val round
    tokens = model.backbone.n_tokens
    workers = min(usable_cpus(), len(split_batch(
        range(max(cfg.batch_size, len(val_samples))), tokens)))
    # AdamW after the mapping: moments made before it cost 5-6 MB peak RSS
    shared = SharedParameters(model.parameter_groups(), workers)
    opt = AdamW([(values, grad, lr) for (values, grad), lr in zip(
        shared.groups, (cfg.lr_backbone, cfg.lr_rest))],
        weight_decay=cfg.weight_decay)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    stream = _BatchStream(len(train_samples), rng)

    def run_task(task):
        # in a worker: a val round's chunk of samples, or a step's chunk k
        # of (sample index, flip) pairs, whose gradient lands in the step
        # gradient (k = 0) or in the worker's own slot
        if isinstance(task, slice):
            return forward_chunk(model, val_samples[task])
        k, pairs, share = task
        chunk = [(train_samples[i], flip) for i, flip in pairs]
        slot = shared.gradient_for(k)
        return slot, step_chunk(model, weights, cfg.mode, chunk, share)

    best_metric, best_step = -1.0, -1

    (out / "config.cfg").write_text(config_to_text(cfg), encoding="utf-8")

    report = None
    with Workers(workers, run_task, on_fork=shared.on_fork) as pool, \
            open(out / "metrics.csv", "w", encoding="utf-8") as metrics_fh, \
            open(out / "batches.log", "w", encoding="utf-8") as batches_fh:

        def emit(line):
            metrics_fh.write(line + "\n")
            metrics_fh.flush()

        emit(",".join(METRIC_COLUMNS))

        def run_eval(step):
            nonlocal best_metric, best_step
            report = evaluate_model(model, val_samples, cfg.threshold,
                                    pool)
            for line in report_rows(step, "val", report):
                emit(line)
            score = _selection_metric(report, cfg.mode)
            if score is not None and score > best_metric:
                best_metric, best_step = score, step
                save_checkpoint(out / "best.ckpt", model, cfg, step, rng)
            return report

        for step in range(1, cfg.steps + 1):
            indices = stream.take(cfg.batch_size)
            flips = rng.random(cfg.batch_size) < cfg.flip_prob
            digest = hashlib.sha256(",".join(
                f"{train_samples[i].scene_id}:{int(f)}"
                for i, f in zip(indices, flips)).encode()).hexdigest()
            batches_fh.write(f"{step},{digest}\n")
            batches_fh.flush()

            # chunks of (sample index, flip) pairs: chunk 0's gradient lands
            # in the step gradient and every other chunk's in its worker's
            # slot, which this process adds in, in chunk order, so the sums
            # depend on the chunk split only
            tasks = [(k, pairs, len(pairs) / cfg.batch_size)
                     for k, pairs in enumerate(split_batch(
                         list(zip(indices, flips.tolist())), tokens))]
            parts, failure = {}, None
            for (_, _, share), (slot, (chunk_parts, error)) in \
                    pool.in_order(tasks):
                for key, value in chunk_parts.items():
                    parts[key] = parts.get(key, 0.0) + share * value
                if slot is not None:
                    shared.add_slot(slot)
                failure = failure or error
            if failure is not None:
                dump = {"step": step, "loss_parts": parts,
                        "scene_ids": [train_samples[i].scene_id
                                      for i in indices],
                        "flips": [bool(f) for f in flips]}
                (out / "nan_dump.json").write_text(
                    json.dumps(dump, sort_keys=True, indent=2),
                    encoding="utf-8")
                raise NumericError(f"non-finite loss at step {step}; "
                                   f"batch dumped to nan_dump.json"
                                   ) from failure
            scale = cfg.decay_factor if step > cfg.decay_step else 1.0
            opt.step(lr_scale=scale)

            if step % cfg.log_every == 0 or step == cfg.steps:
                emit(metric_row(step, "train", parts=parts))
            if step % cfg.eval_every == 0 or step == cfg.steps:
                report = run_eval(step)

    save_checkpoint(out / "last.ckpt", model, cfg, cfg.steps, rng)
    return TrainResult(out_dir=out, best_metric=best_metric,
                       best_step=best_step, last_report=report)


# ---------------------------------------------------------------------------
# CLI-facing evaluate / inspect / ablate


def evaluate_checkpoint(ckpt_path, data_path, split, out_dir=None):
    out = None if out_dir is None else make_dir(out_dir)
    model, cfg, step, _ = load_checkpoint(ckpt_path, data_path)
    samples = load_dataset(cfg.data_path, split)
    if not samples:
        raise ConfigError(f"split {split!r} is empty under {cfg.data_path}")
    check_resolution(samples, cfg)
    report = evaluate_model(model, samples, cfg.threshold)
    if out is not None:
        lines = [",".join(METRIC_COLUMNS), *report_rows(step, split, report)]
        (out / "eval_metrics.csv").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
        write_bucket_csv(out / "length_buckets.csv", report)
    return report


def mask_rle(mask):
    """Row-major run lengths, alternating background/foreground, starting
    with background."""
    flat = np.asarray(mask, dtype=bool).reshape(-1)
    runs = []
    current, count = False, 0
    for bit in flat:
        if bit == current:
            count += 1
        else:
            runs.append(count)
            current, count = bit, 1
    runs.append(count)
    return {"size": list(mask.shape), "order": "row-major", "counts": runs}


def _write_grid_csv(path, grid):
    lines = [",".join(repr(float(v)) for v in row) for row in grid]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def word_layer_affinity(vocab, tokens, alphas):
    """Per-word layer preference from a forward's per-layer (G, L) token
    attentions: group- and occurrence-averaged, then a softmax across layers
    (columns sum to 1 per word)."""
    scores = np.stack([a.mean(axis=0) for a in alphas])  # (layers, L)
    words = {}
    for pos in range(1, len(tokens)):  # position 0 is [CLS]
        words.setdefault(vocab.word_of(int(tokens[pos])), []).append(pos)
    table = {}
    for word, positions in words.items():
        per_layer = scores[:, positions].mean(axis=1)
        shifted = np.exp(per_layer - per_layer.max())
        table[word] = shifted / shifted.sum()
    return table


def inspect(ckpt_path, data_path, scene_id, out_dir):
    """Dump attention maps, prediction overlay, and the word/layer table."""
    out = make_dir(out_dir)
    model, cfg, _, _ = load_checkpoint(ckpt_path, data_path)
    sample = next((s for s in load_dataset(cfg.data_path)
                   if s.scene_id == scene_id), None)
    if sample is None:
        raise ConfigError(f"sample {scene_id} not found in {cfg.data_path}")

    tokens = model.tokenize(sample.expression)
    image, gt_mask = sample.arrays(cfg.image_size)
    pred = model.forward(model.image_tensor(image), tokens,
                         collect_attention=True)

    rollout = attention_rollout(pred.attention, model.backbone.side)
    netpbm.write_pgm(out / "rollout.pgm", rollout)
    _write_grid_csv(out / "rollout.csv", rollout)

    if pred.pool_attention is not None:
        lap = pred.pool_attention
        netpbm.write_pgm(out / "lap.pgm", lap / max(lap.max(), 1e-300))
        _write_grid_csv(out / "lap.csv", lap)

    overlay = {
        "scene_id": sample.scene_id,
        "expression": sample.expression,
        "pred_box": [float(v) for v in pred.box.data],
        "gt_box": [float(v) for v in sample.box],
        "box_iou": box_iou(pred.box.data, sample.box),
        "threshold": cfg.threshold,
    }
    if pred.mask is not None:
        mask = binarize(pred.mask.probs, cfg.threshold)
        overlay["mask_rle"] = mask_rle(mask)
        overlay["mask_iou"] = mask_iou(mask, gt_mask)
    (out / "overlay.json").write_text(
        json.dumps(overlay, sort_keys=True, indent=2), encoding="utf-8")

    affinity_path = out / "word_layer_affinity.csv"
    n_layers = cfg.blocks
    header = "word," + ",".join(f"layer{i}" for i in range(n_layers))
    if model.law is None:
        affinity_path.write_text(
            "# weight generation disabled in this checkpoint; "
            "no token attention recorded\n" + header + "\n", encoding="utf-8")
    else:
        table = word_layer_affinity(model.vocab, tokens, pred.alphas)
        lines = [header]
        for word, col in table.items():
            lines.append(word + "," + ",".join(repr(float(v)) for v in col))
        affinity_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


ABLATION_ARMS = (
    ("lawg", dict(lawg_enabled=True, lap_enabled=False, mth_enabled=False)),
    ("lap", dict(lawg_enabled=False, lap_enabled=True, mth_enabled=False)),
    ("lawg+lap", dict(lawg_enabled=True, lap_enabled=True, mth_enabled=False)),
    ("lawg+lap+mth", dict(lawg_enabled=True, lap_enabled=True, mth_enabled=True)),
)


def ablate(base_cfg, out_dir):
    """Train the four component arms with a shared seed and budget; emits a
    toggle-table CSV of val precision (overall and relational subset)."""
    out = make_dir(out_dir)
    rows = []
    batch_logs = []
    for label, toggles in ABLATION_ARMS:
        cfg = replace(base_cfg, **toggles)
        cfg.mode = "multitask" if cfg.mth_enabled else "rec"
        arm_dir = out / f"arm_{label.replace('+', '_')}"
        result = train(cfg, arm_dir)
        batch_logs.append((arm_dir / "batches.log").read_text())
        report = result.last_report
        rows.append({
            "label": label,
            "lawg": int(toggles["lawg_enabled"]),
            "lap": int(toggles["lap_enabled"]),
            "mth": int(toggles["mth_enabled"]),
            "prec_at_05": report["prec_at_05"],
            "prec_at_05_relational": report["relational"]["prec_at_05"],
            "miou": report["miou"],
        })
    if len(set(batch_logs)) != 1:
        raise NumericError("ablation arms saw different batch sequences")

    lines = ["lawg,lap,mth,prec_at_05,prec_at_05_relational,miou"]
    for r in rows:
        lines.append(f"{r['lawg']},{r['lap']},{r['mth']},"
                     f"{_fmt(r['prec_at_05'])},{_fmt(r['prec_at_05_relational'])},"
                     f"{_fmt(r['miou'])}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows
