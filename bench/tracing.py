"""Spans around lawground's public functions, installed from outside.

`Patches` swaps attributes of lawground's modules and classes and restores
them. `Probes` are the few wrappers every run needs (optimizer-step times,
evaluation time, step-0 generator cores, per-sample predictions). `Tracer`
adds one span per call of each layer's public functions; a span is
(name, start, end, parent). Every tape entry is tagged with the layer whose
span was open when it was recorded, and its backward closure is timed, so
backward time is charged to the layer that recorded the op.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from lawground import head, model, optim, synthground, tensor, text
from lawground import train as training
from lawground import vit

now = time.perf_counter

# backward time is charged to these layers; entries recorded anywhere else
# (GroundingModel.forward's own ops, the train loop's batch-loss sum) go to
# "model"
BACKWARD_LAYERS = ("text", "law", "vit", "head", "losses")


class Patches:
    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Probes:
    """Always-on, O(1)-per-call observations the checks and metrics need."""

    def __init__(self):
        self.step_ends = []      # perf_counter after each AdamW.step
        self.eval_seconds = 0.0  # time inside train.evaluate_model
        self.initial_cores = []  # per built model: copies of law core maps
        self.predictions = None  # list of (box, mask) while capturing
        self._patches = Patches()

    def install(self):
        p = self._patches

        def step(orig):
            def wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                self.step_ends.append(now())
                return out
            return wrapper

        def evaluate(orig):
            def wrapper(*args, **kwargs):
                start = now()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.eval_seconds += now() - start
            return wrapper

        def build(orig):
            def wrapper(*args, **kwargs):
                built = orig(*args, **kwargs)
                self.initial_cores.append(
                    {name: t.data.copy() for name, t in built.store.items()
                     if ".core." in name})
                return built
            return wrapper

        def predict(orig):
            def wrapper(*args, **kwargs):
                box, mask = orig(*args, **kwargs)
                if self.predictions is not None:
                    self.predictions.append((box, mask))
                return box, mask
            return wrapper

        p.wrap(optim.AdamW, "step", step)
        p.wrap(training, "evaluate_model", evaluate)
        p.wrap(training, "build_model", build)
        p.wrap(training, "predict_sample", predict)

    def restore(self):
        self._patches.restore()


def _layer_of(span_name):
    head_name = span_name.split(".", 1)[0]
    return head_name if head_name in BACKWARD_LAYERS else "model"


def _timed(backfn, layer, closure_s, g):
    """A tape entry's backward closure, timed and charged to its layer."""
    start = now()
    grads = backfn(g)
    closure_s[layer] += now() - start
    return grads


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self.tape_entries = 0
        self._stack = []
        self._layers = ["model"]  # layer of each open span, innermost last
        self._closure_s = defaultdict(float)  # per layer, in the open backward
        self._patches = Patches()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self._layers.append(_layer_of(name))
        self.spans.append(rec)
        rec[1] = now()
        return rec

    def _close(self, rec):
        rec[2] = now()
        self._stack.pop()
        self._layers.pop()

    @contextmanager
    def region(self, name):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _span(self, name):
        """Wrapper factory; `name` may be a function of the call arguments."""
        def make(orig):
            def wrapper(*args, **kwargs):
                rec = self._open(name(args, kwargs) if callable(name) else name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._close(rec)
            return wrapper
        return make

    def install(self):
        p, span = self._patches, self._span
        p.wrap(text.TextEncoder, "encode", span("text.encode"))
        p.wrap(model, "generate_all", span("law.generate_all"))
        p.wrap(vit.VisualBackbone, "patch_embed", span("vit.patch_embed"))
        p.wrap(vit.VisualBackbone, "attention_block", span(
            lambda args, kwargs: f"vit.block{args[3]}"))
        p.wrap(vit.VisualBackbone, "forward", span("vit.forward"))
        p.wrap(head.MultitaskHead, "lap_pool", span("head.lap_pool"))
        p.wrap(head.MultitaskHead, "predict_box", span("head.predict_box"))
        p.wrap(head.MultitaskHead, "predict_mask", span("head.predict_mask"))
        p.wrap(model.GroundingModel, "forward", span("model.forward"))
        p.wrap(training, "total_loss", span("losses.total_loss"))
        p.wrap(optim.AdamW, "step", span("optim.step"))
        p.wrap(synthground.GroundingSample, "image", span("synthground.image"))
        p.wrap(synthground.GroundingSample, "mask", span("synthground.mask"))
        p.wrap(training, "flip_sample", span("synthground.flip"))
        p.wrap(training, "binarize", span("head.binarize"))
        p.wrap(training, "prec_at_05", span("losses.prec_at_05"))
        p.wrap(training, "mask_iou", span("losses.mask_iou"))
        p.wrap(training, "read_arrays", span("serial.read"))
        p.wrap(training, "train", span("train.train"))
        p.wrap(training, "evaluate_checkpoint",
               span("train.evaluate_checkpoint"))
        p.wrap(training, "evaluate_model", span("train.evaluate_model"))
        for owner in (training, synthground):
            p.wrap(owner, "load_dataset", span("synthground.load_dataset"))

        def write(orig):
            def wrapper(path, arrays):
                rec = self._open("serial.write")
                try:
                    return orig(path, arrays)
                finally:
                    self._close(rec)
                    rec[4] = {"bytes": Path(path).stat().st_size}
            return wrapper

        def generate(orig):
            def wrapper(*args, **kwargs):
                rec = self._open("synthground.generate")
                try:
                    stats = orig(*args, **kwargs)
                finally:
                    self._close(rec)
                rec[4] = {"samples": sum(stats["counts"].values())}
                return stats
            return wrapper

        layers, closure_s = self._layers, self._closure_s

        def record(orig):
            def wrapper(tape, out, parents, backfn):
                self.tape_entries += 1
                return orig(tape, out, parents,
                            partial(_timed, backfn, layers[-1], closure_s))
            return wrapper

        def backward(orig):
            def wrapper(tape, loss):
                closure_s.clear()
                rec = self._open("tensor.backward")
                try:
                    return orig(tape, loss)
                finally:
                    self._close(rec)
                    rec[4] = {"closures": dict(closure_s)}
            return wrapper

        p.wrap(training, "write_arrays", write)
        p.wrap(synthground, "generate_dataset", generate)
        p.wrap(tensor.Tape, "record", record)
        p.wrap(tensor.Tape, "backward", backward)

    def restore(self):
        self._patches.restore()

    def write(self, path):
        epoch = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start - epoch,
                       "end": end - epoch, "parent": parent}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# analysis


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def self_time(self, i):
        s = self.spans[i]
        return (s[2] - s[1]) - sum(self.spans[c][2] - self.spans[c][1]
                                   for c in self.children[i])

    def descendants(self, i):
        todo = list(self.children[i])
        while todo:
            j = todo.pop()
            yield j
            todo.extend(self.children[j])


class LayerTable:
    """Self time per span name over a set of windows, plus backward closures.

    `units` counts what the totals are divided by (steps or samples); the
    row for a name holds its total self seconds and how many spans
    contributed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.window_s = 0.0
        self.units = 0

    def add_span(self, tree, i):
        name = tree.spans[i][0]
        self.self_s[name] += tree.self_time(i)
        self.calls[name] += 1
        attrs = tree.spans[i][4]
        if name == "tensor.backward" and attrs:
            closures = attrs["closures"]
            for layer, seconds in closures.items():
                self.self_s[f"{layer}.backward"] += seconds
                self.calls[f"{layer}.backward"] += 1
            self.self_s[name] -= sum(closures.values())

    def per_unit_ms(self, *names):
        if not self.units:
            return 0.0
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names) / self.units

    def rows(self):
        covered = sum(self.self_s.values())
        out = [(n, self.calls[n], self.self_s[n]) for n in
               sorted(self.self_s, key=lambda n: -self.self_s[n])]
        return out, self.window_s - covered


def step_table(tree, round_ids):
    """Per-step self times over training rounds.

    A step runs from the end of one AdamW.step to the end of the next, so
    the first step of a round (which also pays train()'s own set-up) is not
    counted; everything between steps that no span covers is train's own
    loop work (batch hashing, batch log, tokenize, metric rows)."""
    table = LayerTable()
    for r in round_ids:
        inside = sorted(tree.descendants(r), key=lambda j: tree.spans[j][1])
        ends = [tree.spans[j][2] for j in inside
                if tree.spans[j][0] == "optim.step"]
        if len(ends) < 2:
            continue
        lo, hi = ends[0], ends[-1]
        table.units += len(ends) - 1
        table.window_s += hi - lo
        for j in inside:
            if tree.spans[j][1] >= lo and tree.spans[j][2] <= hi:
                table.add_span(tree, j)
    return table


def window_table(tree, roots, samples):
    """Per-sample self times inside the given root spans (eval calls)."""
    table = LayerTable()
    table.units = samples
    for r in roots:
        table.window_s += tree.spans[r][2] - tree.spans[r][1]
        table.add_span(tree, r)
        for j in tree.descendants(r):
            table.add_span(tree, j)
    return table


def mean_ms(spans, name):
    """Mean duration of the spans called `name`, in ms (0 if none)."""
    vals = [s[2] - s[1] for s in spans if s[0] == name]
    return 1e3 * float(np.mean(vals)) if vals else 0.0
