"""Training loop, checkpointing, evaluation, inspection, and ablation arms.

Everything is deterministic given (seed, config, dataset): batches come from
a dedicated PCG64 stream, evaluation reduces metrics in sample order, and
all artifacts (checkpoints, CSV logs, batch hashes) are byte-stable.
"""

import hashlib
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
from .serial import array_to_str, read_arrays, str_to_array, write_arrays
from .synthground import flip_sample, load_dataset, load_vocab
from .tensor import Tape
from .vit import attention_rollout

METRIC_COLUMNS = ("step", "split", "prec_at_05", "miou", "loss_total",
                  "loss_l1", "loss_giou", "loss_focal", "loss_dice")

LENGTH_BUCKETS = ((1, 5), (6, 7), (8, 10), (11, None))

# visual-token rows per tape-free evaluation chunk: 4 samples at 64x64, 1 at
# 128x128 (at 64x64, 4-sample chunks cost less per sample than 8-sample ones)
EVAL_ROWS = 256

# visual-token rows per taped training chunk: 8 samples at 64x64, 2 at
# 128x128. Taped chunks of 256 rows made the B=16 desk64 step slower, and
# split a B=2 step at 128x128 into two chunks that raised its peak memory.
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


def predict_sample(pred, b, threshold):
    """Sample b of a batch Prediction: a copy of its box and its binarised
    mask (None without the mask branch)."""
    box = pred.box.data[b].copy()
    mask = (binarize(pred.mask.probs.data[b], threshold)
            if pred.mask is not None else None)
    return box, mask


def forward_chunk(model, samples):
    """One tape-free batch Prediction for a chunk of samples."""
    size = model.config.image_size
    return model.forward_batch(
        [model.image_tensor(s.arrays(size)[0]) for s in samples],
        [model.tokenize(s.expression) for s in samples])


def usable_cpus():
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def in_order(fn, chunks):
    """Yield (chunk, fn(chunk)) for each chunk, in chunk order.

    One worker thread per usable CPU (capped at the chunk count) runs the
    chunks, with at most one chunk per worker in flight. A caller that
    reduces the results in the order they come gets the same answer on any
    CPU count. A failing chunk raises its error here, and the chunks not yet
    started are cancelled."""
    workers = max(1, min(usable_cpus(), len(chunks)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, chunk) for chunk in chunks[:workers])
        try:
            for k, chunk in enumerate(chunks):
                # no name may hold a failed future: it holds its error,
                # whose traceback holds this frame, a cycle that would keep
                # the chunk's graph alive until the cyclic collector ran
                result = pending.popleft().result()
                if k + workers < len(chunks):
                    pending.append(pool.submit(fn, chunks[k + workers]))
                yield chunk, result
        finally:
            for future in pending:
                future.cancel()


def evaluate_model(model, samples, threshold):
    """Box precision, mask mIoU, the relational subset, and length buckets.

    The samples split, in order, into chunks of EVAL_ROWS // T samples (T
    visual tokens per image, at least one sample), which `in_order` runs
    through the tape-free batch forward. This thread reads every sample out
    with predict_sample, in sample order, so metrics reduce in sample order
    whatever the CPU count."""
    size = max(1, EVAL_ROWS // model.backbone.n_tokens)
    chunks = [samples[i:i + size] for i in range(0, len(samples), size)]
    # per sample, once: its box's precision at 0.5 (1 or 0) and its mask
    # IoU (None without a mask branch)
    hits, mask_ious = [], []
    for chunk, pred in in_order(lambda chunk: forward_chunk(model, chunk),
                                chunks):
        for b, sample in enumerate(chunk):
            box, mask = predict_sample(pred, b, threshold)
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


def step_chunk(model, weights, mode, chunk, share, grads):
    """One chunk of a training batch on a tape of its own: the batch
    forward, the joint loss weighted by `share` (the chunk's fraction of the
    batch) and backward into `grads` (None: each parameter's own grad).

    Returns the chunk's loss parts and, when its loss is not finite,
    backward's NumericError (else None). The error is returned, not raised,
    so the other chunks still run and the step's nan_dump.json gets the
    parts of every chunk."""
    images, masks, boxes, exprs = zip(*chunk)
    with Tape(grads) as tape:
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
        # without its traceback: the traceback's frames lead back to the
        # worker's frame, which holds the future that will hold this error,
        # and in that cycle the chunk's graph would wait for the cyclic
        # collector
        return parts, exc.with_traceback(None)
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    backbone_params, rest_params = model.parameter_groups()
    opt = AdamW([(backbone_params, cfg.lr_backbone), (rest_params, cfg.lr_rest)],
                weight_decay=cfg.weight_decay)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    stream = _BatchStream(len(train_samples), rng)

    best_metric, best_step = -1.0, -1

    (out / "config.cfg").write_text(config_to_text(cfg), encoding="utf-8")

    report = None
    with open(out / "metrics.csv", "w", encoding="utf-8") as metrics_fh, \
            open(out / "batches.log", "w", encoding="utf-8") as batches_fh:

        def emit(line):
            metrics_fh.write(line + "\n")
            metrics_fh.flush()

        emit(",".join(METRIC_COLUMNS))

        def run_eval(step):
            nonlocal best_metric, best_step
            report = evaluate_model(model, val_samples, cfg.threshold)
            for line in report_rows(step, "val", report):
                emit(line)
            score = _selection_metric(report, cfg.mode)
            if score is not None and score > best_metric:
                best_metric, best_step = score, step
                save_checkpoint(out / "best.ckpt", model, cfg, step, rng)
            return report

        size = max(1, STEP_ROWS // model.backbone.n_tokens)

        def run_chunk(work):
            return step_chunk(model, weights, cfg.mode, *work)

        for step in range(1, cfg.steps + 1):
            indices = stream.take(cfg.batch_size)
            flips = rng.random(cfg.batch_size) < cfg.flip_prob
            digest = hashlib.sha256(",".join(
                f"{train_samples[i].scene_id}:{int(f)}"
                for i, f in zip(indices, flips)).encode()).hexdigest()
            batches_fh.write(f"{step},{digest}\n")
            batches_fh.flush()

            batch = []
            for idx, flip in zip(indices, flips):
                sample = train_samples[idx]
                item = (*sample.arrays(cfg.image_size), sample.box,
                        sample.expression)
                batch.append(flip_sample(*item) if flip else item)
            # chunk 0 writes into each parameter's grad and the others into
            # dicts of their own, which this thread adds in chunk order, so
            # the sums depend on the chunk split only
            chunks = [batch[i:i + size] for i in range(0, len(batch), size)]
            work = [(chunk, len(chunk) / len(batch), {} if k else None)
                    for k, chunk in enumerate(chunks)]
            parts, failure = {}, None
            for (_, share, grads), (chunk_parts, error) in in_order(
                    run_chunk, work):
                for key, value in chunk_parts.items():
                    parts[key] = parts.get(key, 0.0) + share * value
                for param, grad in (grads or {}).items():
                    param.grad += grad
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
            opt.zero_grad()

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
    model, cfg, step, _ = load_checkpoint(ckpt_path, data_path)
    samples = load_dataset(cfg.data_path, split)
    if not samples:
        raise ConfigError(f"split {split!r} is empty under {cfg.data_path}")
    check_resolution(samples, cfg)
    report = evaluate_model(model, samples, cfg.threshold)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
    model, cfg, _, _ = load_checkpoint(ckpt_path, data_path)
    sample = next((s for s in load_dataset(cfg.data_path)
                   if s.scene_id == scene_id), None)
    if sample is None:
        raise ConfigError(f"sample {scene_id} not found in {cfg.data_path}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tokens = model.tokenize(sample.expression)
    image = model.image_tensor(sample.image())
    pred = model.forward(image, tokens, collect_attention=True)

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
        overlay["mask_iou"] = mask_iou(mask, sample.mask())
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
