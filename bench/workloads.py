"""The three workloads: set-up, timed rounds, checks and metrics.

A run sets up `SETUP_REPEATS` times (the median is `setup_s`; the last
set-up's files are used), then runs whole rounds of the same operations
until `seconds` have passed, then checks outputs outside the timed phase.
Untraced runs then repeat one round in a fresh interpreter
(`memprobe.py`) for `peak_rss_mb`.
Traced runs alternate untraced and traced rounds, so the tracing overhead
is measured in the same process.
"""

import hashlib
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from lawground import synthground
from lawground import train as training
from lawground.config import load_config
from lawground.errors import LawgroundError

import checks
from tracing import Probes, SpanTree, Tracer, mean_ms, now, step_table, \
    window_table

SETUP_REPEATS = 3
TRAIN_STEPS = 8         # steps per train.train round of train-desk64
WARMUP_STEPS = 16       # steps of the eval checkpoints' warm-up training
GRAD_SAMPLES = 2
ORACLE_SAMPLES = 4
ROUND_FILES = ("metrics.csv", "batches.log", "last.ckpt")
PROBE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "train" or "eval"
    resolution: int
    n_train: int
    n_val: int
    n_test: int
    warmup_batch: int   # eval: batch size of the checkpoint warm-up
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train-desk64", "train", 64, 512, 64, 0, 0,
             "the taped path: forward with recording, backward, losses, "
             "AdamW at B=16"),
    Workload("eval-desk64", "eval", 64, 64, 8, 500, 4,
             "the tape-free forward alone plus checkpoint read and image "
             "decode"),
    Workload("eval-res128", "eval", 128, 64, 8, 100, 2,
             "per-image layers (ViT over 256 tokens, mask at 128^2) "
             "dominate; text and law shrink"),
)}

LAYER_METRICS = (
    # (metric, span names whose self time it sums)
    ("text.encode_ms", ("text.encode",)),
    ("law.generate_all_ms", ("law.generate_all",)),
    ("vit.patch_embed_ms", ("vit.patch_embed",)),
    ("vit.block0_ms", ("vit.block0",)),
    ("vit.block1_ms", ("vit.block1",)),
    ("vit.block2_ms", ("vit.block2",)),
    ("vit.block3_ms", ("vit.block3",)),
    ("vit.forward_self_ms", ("vit.forward",)),
    ("head.lap_pool_ms", ("head.lap_pool",)),
    ("head.predict_box_ms", ("head.predict_box",)),
    ("head.predict_mask_ms", ("head.predict_mask",)),
    ("model.forward_self_ms", ("model.forward",)),
    ("losses.total_loss_ms", ("losses.total_loss",)),
    ("text.backward_ms", ("text.backward",)),
    ("law.backward_ms", ("law.backward",)),
    ("vit.backward_ms", ("vit.backward",)),
    ("head.backward_ms", ("head.backward",)),
    ("losses.backward_ms", ("losses.backward",)),
    ("model.backward_ms", ("model.backward",)),
    ("tensor.backward_self_ms", ("tensor.backward",)),
    ("optim.step_ms", ("optim.step",)),
    ("synthground.sample_io_ms", ("synthground.image", "synthground.mask",
                                  "synthground.flip")),
)
EVAL_LAYER_METRICS = (
    ("serial.read_ms", ("serial.read",)),
    ("head.binarize_ms", ("head.binarize",)),
    ("losses.metrics_ms", ("losses.prec_at_05", "losses.mask_iou")),
    ("train.eval_self_ms", ("train.evaluate_checkpoint",
                            "train.evaluate_model")),
)


@dataclass
class Round:
    traced: bool
    wall: float
    ops: int
    eval_s: float = 0.0
    intervals: list = field(default_factory=list)
    outputs: object = None      # train: out dir; eval: report
    captured: list = None       # per-sample (box, mask) predictions
    report: dict = None         # train: the final evaluation's report
    batch: int = 0              # train: batch size
    tape_entries: int = 0       # traced rounds: Tape.record calls


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)   # name -> (problems, detail)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: dict = field(default_factory=dict)     # name -> printed figure
    raw: dict = field(default_factory=dict)      # per-round figures, saved


def protocol(root, data, seed, resolution, **overrides):
    """The shipped desk protocol, pointed at a generated dataset."""
    cfg = load_config(Path(root) / "configs" / "desk64.cfg")
    return replace(cfg, data_path=str(data), seed=seed,
                   image_size=resolution, log_every=1, **overrides)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_digest(report):
    """A digest of an evaluation report that survives a process boundary."""
    text = json.dumps(report, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    def __init__(self, workload, seed, seconds, trace, root, work):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.root = Path(root)
        self.work = Path(work)
        self.probes = Probes()
        self.tracer = Tracer() if trace else None
        self.rounds = []
        self.outcome = Outcome()

    # -- helpers ---------------------------------------------------------

    def _traced(self, on, name, fn):
        if not on:
            return fn()
        self.tracer.install()
        try:
            with self.tracer.region(name):
                return fn()
        finally:
            self.tracer.restore()

    def _train_once(self, cfg, out):
        """One train.train call, split into step intervals and eval time."""
        first_step = len(self.probes.step_ends)
        eval_before = self.probes.eval_seconds
        start = now()
        result = training.train(cfg, out)
        wall = now() - start
        ends = self.probes.step_ends[first_step:]
        return result, wall, self.probes.eval_seconds - eval_before, \
            list(np.diff(ends))

    def check(self, name, problems, detail=""):
        self.outcome.checks[name] = (list(problems), detail)

    # -- set-up ----------------------------------------------------------

    def setup(self):
        times, self.warmups = [], []
        for k in range(SETUP_REPEATS):
            data = self.work / f"data{k}"
            start = now()
            self._traced(self.tracer is not None, "bench.setup",
                         lambda: self._setup_once(data, k))
            times.append(now() - start)
        self.data = data
        self.setup_times = times

    def _setup_once(self, data, k):
        w = self.w
        synthground.generate_dataset(data, seed=self.seed, n_train=w.n_train,
                                     n_val=w.n_val, n_test=w.n_test,
                                     resolution=w.resolution)
        if w.kind == "train":
            synthground.load_dataset(data)
            return
        # eval checkpoints: a short warm-up makes the generator cores non-zero
        cfg = protocol(self.root, data, self.seed, w.resolution,
                       steps=WARMUP_STEPS, batch_size=w.warmup_batch)
        out = self.work / f"warmup{k}"
        _, wall, eval_s, intervals = self._train_once(cfg, out)
        self.warmups.append((wall - eval_s, intervals))
        self.ckpt = out / "last.ckpt"

    # -- timed phase -----------------------------------------------------

    def timed(self):
        tracing = self.tracer is not None
        start = now()
        while True:
            traced = tracing and len(self.rounds) % 2 == 1
            if traced:
                entries = self.tracer.tape_entries
            rnd = self._traced(traced, "bench.round", self._round)
            rnd.traced = traced
            if traced:
                rnd.tape_entries = self.tracer.tape_entries - entries
            self.rounds.append(rnd)
            elapsed = now() - start
            have_both = not tracing or len(self.rounds) >= 2
            if have_both and elapsed + 0.5 * rnd.wall > self.seconds:
                break

    def _round(self):
        w = self.w
        self.probes.predictions = []
        if w.kind == "train":
            cfg = protocol(self.root, self.data, self.seed, w.resolution,
                           steps=TRAIN_STEPS)
            out = self.work / f"round{len(self.rounds)}"
            ops = TRAIN_STEPS + w.n_val
            try:
                result, wall, eval_s, intervals = self._train_once(cfg, out)
            except LawgroundError as exc:
                print(f"round failed: {exc}", file=sys.stderr)
                return Round(False, 0.0, ops, outputs=None)
            rnd = Round(False, wall, ops, eval_s, intervals, out)
            rnd.report = result.last_report
            rnd.batch = cfg.batch_size
        else:
            ops = w.n_test
            start = now()
            try:
                report = training.evaluate_checkpoint(self.ckpt, self.data,
                                                      "test")
            except LawgroundError as exc:
                print(f"round failed: {exc}", file=sys.stderr)
                return Round(False, 0.0, ops, outputs=None)
            rnd = Round(False, now() - start, ops, outputs=report)
        rnd.captured = self.probes.predictions
        self.probes.predictions = None
        return rnd

    # -- checks ----------------------------------------------------------

    def run_checks(self):
        ok = [r for r in self.rounds if r.outputs is not None]
        self.outcome.attempted = sum(r.ops for r in self.rounds)
        self.outcome.failed = sum(r.ops for r in self.rounds
                                  if r.outputs is None)
        if not ok:
            self.check("rounds", ["no round completed"])
            return
        rng = np.random.default_rng(self.seed)
        if self.w.kind == "train":
            self._train_checks(ok, rng)
        else:
            self._eval_checks(ok, rng)

    def _train_checks(self, ok, rng):
        cfg = protocol(self.root, self.data, self.seed, self.w.resolution,
                       steps=TRAIN_STEPS)
        problems = []
        for r in ok:
            problems += checks.loss_rows(
                checks.train_rows(r.outputs / "metrics.csv"), cfg,
                TRAIN_STEPS)
        self.check("loss_total = l1 + giou + 4 focal + 4 dice, all finite",
                   problems, f"{len(ok) * TRAIN_STEPS} rows")
        first = ok[0].outputs
        self.check("generator cores zero at step 0, non-zero at the end",
                   checks.cores(self.probes.initial_cores,
                                first / "last.ckpt"))
        self.check("rounds byte-identical (" + ", ".join(ROUND_FILES) + ")",
                   [f"round {i}: {f} differs" for i, r in enumerate(ok)
                    for f in ROUND_FILES
                    if digest(r.outputs / f) != digest(first / f)])
        problems = []
        for r in ok:
            problems += checks.evaluation_report(self.data, "val",
                                                 r.captured, r.report)
        self.check("val report recomputed from predictions", problems,
                   f"{len(ok)} x {self.w.n_val} samples")
        problems, worst = checks.gradient_spot_check(
            first / "last.ckpt", self.data, GRAD_SAMPLES, rng)
        self.check("taped gradients vs central differences", problems,
                   f"{len(checks.GRAD_GROUPS)} groups x 2 coords, "
                   f"worst rel err {worst:.2e}")

    def _eval_checks(self, ok, rng):
        problems = []
        for r in ok:
            problems += checks.evaluation_report(self.data, "test",
                                                 r.captured, r.outputs)
        self.check("test report recomputed from predictions", problems,
                   f"{len(ok)} x {self.w.n_test} samples")
        first = ok[0].outputs
        self.check("rounds report identical results",
                   [f"round {i} differs" for i, r in enumerate(ok)
                    if r.outputs != first])
        picks = sorted(rng.choice(self.w.n_test, ORACLE_SAMPLES,
                                  replace=False).tolist())
        problems, worst = checks.oracle_forward(self.ckpt, self.data, "test",
                                                picks, ok[-1].captured)
        self.check("forward vs numpy reference", problems,
                   f"{ORACLE_SAMPLES} samples, max abs diff {worst:.1e}")
        self.check("generator cores zero at step 0, non-zero at the end",
                   checks.cores(self.probes.initial_cores, self.ckpt))

    # -- peak memory -----------------------------------------------------

    def memory_probe(self):
        """Runs memprobe.py on this run's dataset; its outputs must match."""
        out = self.work / "memprobe"
        cmd = [sys.executable, str(Path(__file__).with_name("memprobe.py")),
               "--workload", self.w.name, "--seed", str(self.seed),
               "--data", str(self.data), "--out", str(out)]
        name = "fresh-process round reproduces this run's outputs"
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.check(name, [f"memprobe.py ran over {PROBE_TIMEOUT_S} s"])
            return 0.0
        if proc.returncode != 0 or not proc.stdout.strip():
            self.check(name, [f"memprobe.py exited {proc.returncode}: "
                              + proc.stderr.strip()[-500:]])
            return 0.0
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        first = next(r.outputs for r in self.rounds if r.outputs is not None)
        if self.w.kind == "train":
            mine = {f: digest(first / f) for f in ROUND_FILES}
        else:
            mine = {"last.ckpt": digest(self.ckpt)}
        problems = [f"{f} differs" for f in mine
                    if probe["files"].get(f) != mine[f]]
        if self.w.kind == "eval" and probe["report"] != report_digest(first):
            problems.append("test report differs")
        self.check(name, problems, ", ".join(mine) + (
            ", test report" if self.w.kind == "eval" else ""))
        return probe["peak_rss_mb"]

    # -- metrics ---------------------------------------------------------

    def end_to_end(self):
        m = self.outcome.metrics
        untraced = [r for r in self.rounds
                    if r.outputs is not None and not r.traced]
        m["setup_s"] = (statistics.median(self.setup_times), "s")
        # rates are medians over whole rounds (warm-ups): this shared host
        # has slow spells of seconds that a pooled ratio would carry
        # straight into the figure
        med = statistics.median
        if self.w.kind == "train":
            train_rates = [TRAIN_STEPS * r.batch / (r.wall - r.eval_s)
                           for r in untraced]
            eval_rates = [self.w.n_val / r.eval_s for r in untraced]
            steps = sum((r.intervals for r in untraced), [])
            m["train_samples_per_s"] = (med(train_rates), "samples/s")
            m["train_step_ms_p50"] = (1e3 * med(steps), "ms")
            m["eval_samples_per_s"] = (med(eval_rates), "samples/s")
            report = untraced[0].report
            self.outcome.info.update({
                f"val prec@0.5 / mIoU after {TRAIN_STEPS} steps":
                    f"{report['prec_at_05']:.4f} / {report['miou']:.4f}",
                # 3000 steps plus 12 evaluations of a 500-sample val split
                "desk protocol projected wall time": "{:.1f} min".format(
                    (3000 * m["train_step_ms_p50"][0] / 1e3
                     + 12 * 500 / m["eval_samples_per_s"][0]) / 60)})
        else:
            train_rates = [WARMUP_STEPS * self.w.warmup_batch / busy
                           for busy, _ in self.warmups]
            eval_rates = [r.ops / r.wall for r in untraced]
            steps = sum((iv for _, iv in self.warmups), [])
            m["train_samples_per_s"] = (med(train_rates), "samples/s")
            m["train_step_ms_p50"] = (1e3 * med(steps), "ms")
            m["eval_samples_per_s"] = (med(eval_rates), "samples/s")
        self.outcome.raw.update({"train_rates": train_rates,
                                 "eval_rates": eval_rates,
                                 "step_intervals_s": steps,
                                 "setup_times_s": self.setup_times})
        m["peak_rss_mb"] = (self.memory_probe(), "MB")

    def per_layer(self, trace_dir):
        """Per-layer metrics from the traced rounds; writes spans + table."""
        tr = self.tracer
        tree = SpanTree(tr.spans)
        round_ids = [i for i, s in enumerate(tr.spans) if s[0] == "bench.round"]
        traced = [r for r in self.rounds if r.traced and r.outputs is not None]
        plain = [r for r in self.rounds if not r.traced and r.outputs is not None]
        in_rounds = [j for r in round_ids for j in tree.descendants(r)]

        def roots(name):
            return [j for j in in_rounds if tr.spans[j][0] == name]

        if self.w.kind == "train":
            main = step_table(tree, round_ids)
            evals = window_table(tree, roots("train.evaluate_model"),
                                 self.w.n_val * len(traced))
            rate = lambda rs: sum(TRAIN_STEPS * r.batch for r in rs) / sum(
                r.wall - r.eval_s for r in rs)
            untraced_ms = 1e3 * float(np.mean(sum(
                (r.intervals for r in plain), [])))
            steps = TRAIN_STEPS * len(traced)
        else:
            main = evals = window_table(
                tree, roots("train.evaluate_checkpoint"),
                self.w.n_test * len(traced))
            rate = lambda rs: sum(r.ops for r in rs) / sum(r.wall for r in rs)
            untraced_ms = 1e3 * sum(r.wall for r in plain) / sum(
                r.ops for r in plain)
            steps = 0

        m = {}
        for metric, names in LAYER_METRICS:
            m[metric] = (main.per_unit_ms(*names), "ms")
        for metric, names in EVAL_LAYER_METRICS:
            m[metric] = (evals.per_unit_ms(*names), "ms")
        rows, uncovered = main.rows()
        m["train.step_self_ms"] = (
            1e3 * uncovered / main.units if self.w.kind == "train" else 0.0,
            "ms")
        m["tensor.tape_entries"] = (
            sum(r.tape_entries for r in traced) / steps if steps else 0.0,
            "count")
        writes = [s[4]["bytes"] for s in tr.spans if s[0] == "serial.write"]
        m["serial.write_ms"] = (mean_ms(tr.spans, "serial.write"), "ms")
        m["serial.ckpt_bytes"] = (float(np.mean(writes)) if writes else 0.0,
                                  "bytes")
        gens = [s for s in tr.spans if s[0] == "synthground.generate"]
        m["synthground.generate_ms"] = (
            1e3 * sum(s[2] - s[1] for s in gens)
            / sum(s[4]["samples"] for s in gens), "ms")
        m["synthground.load_dataset_ms"] = (
            mean_ms(tr.spans, "synthground.load_dataset"), "ms")
        layer_sum = 1e3 * main.window_s / main.units
        m["trace.layer_sum_ms"] = (layer_sum, "ms")
        m["trace.untraced_ms"] = (untraced_ms, "ms")
        m["trace.overhead_pct"] = (100.0 * (rate(plain) / rate(traced) - 1.0),
                                   "%")
        self.outcome.metrics = m

        stem = f"{self.w.name}-seed{self.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tr.write(trace_dir / f"{stem}.spans.jsonl")
        unit = "step" if self.w.kind == "train" else "sample"
        lines = [f"# {self.w.name} seed {self.seed}: self time per {unit} "
                 f"over {main.units} {unit}s of traced rounds",
                 f"{'span':34s} {'calls':>8s} {'self ms/' + unit:>14s}"]
        for name, calls, total in rows:
            lines.append(f"{name:34s} {calls:8d} "
                         f"{1e3 * total / main.units:14.4f}")
        lines.append(f"{'(uncovered: train loop)':34s} {'':8s} "
                     f"{1e3 * uncovered / main.units:14.4f}")
        lines.append(f"{'sum of self times':34s} {'':8s} {layer_sum:14.4f}")
        lines.append(f"{'untraced ' + unit + ' time':34s} {'':8s} "
                     f"{untraced_ms:14.4f}")
        table = "\n".join(lines) + "\n"
        (trace_dir / f"{stem}.table.txt").write_text(table, encoding="utf-8")
        return table


def run(workload, seed, seconds, trace, root, work, trace_dir):
    """Set up, measure, check. Returns (Outcome, per-layer table or None)."""
    r = Run(workload, seed, seconds, trace, root, work)
    r.probes.install()
    try:
        r.setup()
        r.timed()
        r.run_checks()
        table = None
        if trace:
            table = r.per_layer(trace_dir)
        else:
            r.end_to_end()
    finally:
        r.probes.restore()
    return r.outcome, table
