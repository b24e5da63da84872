"""Independent plain-numpy reference for the eval workloads.

Nothing here imports lawground. The checkpoint, the dataset index, the
images and the masks are parsed from their documented on-disk formats, and
the forward pass is written from the model's equations:

    text      pre-norm transformer over [CLS] + words, pad keys masked
    law       per layer: group token attention -> pooled (d_l,) ->
              reducer + GeLU -> core affine map (d_w x d_w) ->
              fused_i = static_i + out_factor @ core @ in_factor^T
    vit       patch embedding + positions, pre-norm blocks using fused_i
    head      LAP pooling, 3-layer box MLP + sigmoid; mask: stride-2
              transposed convs, per-pixel dot product with the [CLS]
              feature, bilinear x4, sigmoid

GeLU uses libm's erf (math.erf) rather than scipy's, so the comparison also
covers the activation.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

_ERF = np.frompyfunc(math.erf, 1, 1)
_SIG_HI = float(np.nextafter(1.0, 0.0))
_SIG_LO = 1e-300
_LN_EPS = 1e-5
_MASK_NEG = -1e30
_RESERVED = ("[PAD]", "[CLS]", "[UNK]")


# ---------------------------------------------------------------------------
# file formats


def read_named_arrays(path):
    """NARR1 container: magic, u32 count, then per entry u32 name length,
    name, u8 dtype tag (0 f8, 1 i8, 2 u1), u8 rank, u32 dims, payload."""
    blob = Path(path).read_bytes()
    if blob[:6] != b"NARR1\x00":
        raise ValueError(f"{path}: bad magic")
    dtypes = {0: "<f8", 1: "<i8", 2: "u1"}
    (count,) = struct.unpack_from("<I", blob, 6)
    off = 10
    out = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + n].decode("utf-8")
        off += n
        tag, rank = struct.unpack_from("<BB", blob, off)
        off += 2
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        dt = np.dtype(dtypes[tag])
        size = int(np.prod(dims)) if rank else 1
        out[name] = np.frombuffer(blob, dt, size, off).reshape(dims).copy()
        off += size * dt.itemsize
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes")
    return out


def config_echo(arrays):
    """The `key = value` config text stored in meta/config, as a dict."""
    text = arrays["meta/config"].tobytes().decode("utf-8")
    cfg = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = (s.strip() for s in line.split("=", 1))
            cfg[key] = value
    return cfg


def _netpbm(path, magic):
    blob = Path(path).read_bytes()
    if blob[:2] != magic:
        raise ValueError(f"{path}: expected {magic!r}")
    fields = 3 if magic == b"P6" else 2
    tokens, pos = [], 2
    while len(tokens) < fields:
        while blob[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not blob[pos:pos + 1].isspace():
            pos += 1
        tokens.append(int(blob[start:pos]))
    return tokens, blob[pos + 1:]


def read_rgb(path):
    (w, h, _), payload = _netpbm(path, b"P6")
    return np.frombuffer(payload, np.uint8, h * w * 3).reshape(h, w, 3)


def read_bitmask(path):
    (w, h), payload = _netpbm(path, b"P4")
    row = (w + 7) // 8
    packed = np.frombuffer(payload, np.uint8, h * row).reshape(h, row)
    return np.unpackbits(packed, axis=1)[:, :w].astype(bool)


def read_index(root):
    """index.jsonl records in file order."""
    with open(Path(root) / "index.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_vocab(root):
    words = Path(root, "vocab.txt").read_text(encoding="utf-8").split("\n")
    return list(_RESERVED) + [w for w in words if w.strip()]


# ---------------------------------------------------------------------------
# forward pass


def gelu(x):
    return x * 0.5 * (1.0 + _ERF(x / math.sqrt(2.0)).astype(np.float64))


def sigmoid(x):
    return np.clip(1.0 / (1.0 + np.exp(-x)), _SIG_LO, _SIG_HI)


def softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS) * gain + bias


def attention(x, w_qkv, b_qkv, w_out, b_out, heads, key_bias):
    n, d = x.shape
    dh = d // heads
    q, k, v = np.split(x @ w_qkv.T + b_qkv, 3, axis=1)
    out = np.empty((n, d))
    for hd in range(heads):
        cols = slice(hd * dh, (hd + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh) + key_bias
        out[:, cols] = softmax(scores) @ v[:, cols]
    return out @ w_out.T + b_out


def transformer_block(x, p, prefix, heads, w_qkv, b_qkv, key_bias=0.0):
    h = layer_norm(x, p[prefix + "ln1.gain"], p[prefix + "ln1.bias"])
    x = x + attention(h, w_qkv, b_qkv, p[prefix + "attn.out.weight"],
                      p[prefix + "attn.out.bias"], heads, key_bias)
    h = layer_norm(x, p[prefix + "ln2.gain"], p[prefix + "ln2.bias"])
    h = gelu(h @ p[prefix + "mlp.fc1.weight"].T + p[prefix + "mlp.fc1.bias"])
    return x + h @ p[prefix + "mlp.fc2.weight"].T + p[prefix + "mlp.fc2.bias"]


def upsample_bilinear(x, factor):
    """Align-corners-false bilinear resize, edges replicated, by gathers."""
    def axis_weights(n):
        src = (np.arange(n * factor) + 0.5) / factor - 0.5
        base = np.floor(src)
        frac = src - base
        lo = np.clip(base, 0, n - 1).astype(int)
        hi = np.clip(base + 1, 0, n - 1).astype(int)
        return lo, hi, frac

    rl, rh, rt = axis_weights(x.shape[0])
    cl, ch, ct = axis_weights(x.shape[1])
    rows = x[rl] * (1.0 - rt)[:, None] + x[rh] * rt[:, None]
    return rows[:, cl] * (1.0 - ct) + rows[:, ch] * ct


class ReferenceModel:
    """Forward pass over a checkpoint's named arrays."""

    def __init__(self, ckpt_path, data_root):
        arrays = read_named_arrays(ckpt_path)
        self.cfg = config_echo(arrays)
        self.p = {k[len("param/"):]: v for k, v in arrays.items()
                  if k.startswith("param/")}
        c = self.cfg
        self.max_len = int(c["text.max_len"])
        self.text_heads = int(c["text.heads"])
        self.text_layers = int(c["text.layers"])
        self.heads = int(c["model.heads"])
        self.blocks = int(c["model.blocks"])
        self.patch = int(c["model.patch"])
        self.size = int(c["model.image_size"])
        self.groups = int(c["law.groups"])
        self.rank = int(c["law.rank_dw"])
        self.threshold = float(c["head.threshold"])
        self.vocab = {w: i for i, w in enumerate(read_vocab(data_root))}

    def tokens(self, expression):
        words = expression.strip().lower().split()[:self.max_len - 1]
        ids = np.zeros(self.max_len, dtype=int)
        ids[0] = 1
        ids[1:len(words) + 1] = [self.vocab.get(w, 2) for w in words]
        return ids, np.arange(self.max_len) <= len(words)

    def text(self, ids, mask):
        p = self.p
        x = p["text.embed"][ids] + p["text.pos"][:len(ids)]
        bias = np.where(mask, 0.0, _MASK_NEG)
        for i in range(self.text_layers):
            pre = f"text.block{i}."
            x = transformer_block(x, p, pre, self.text_heads,
                                  p[pre + "attn.qkv.weight"],
                                  p[pre + "attn.qkv.bias"], bias)
        return layer_norm(x, p["text.final_ln.gain"], p["text.final_ln.bias"])

    def fused_qkv(self, feats, mask, layer):
        p = self.p
        pre = f"law.layer{layer}."
        n, d = feats.shape
        gs = d // self.groups
        grouped = feats.reshape(n, self.groups, gs)                # (L, G, gs)
        emb = p[pre + "embed"].reshape(self.groups, gs)
        logits = np.einsum("lgs,gs->gl", grouped, emb)
        logits = logits + np.where(mask, 0.0, _MASK_NEG)
        alpha = softmax(logits, axis=1)                            # (G, L)
        pooled = np.einsum("gl,lgs->gs", alpha, grouped).reshape(d)
        reduced = gelu(p[pre + "reduce.weight"] @ pooled)
        core = (p[pre + "core.weight"] @ reduced
                + p[pre + "core.bias"]).reshape(self.rank, self.rank)
        delta = p["law.out_factor"] @ core @ p["law.in_factor"].T
        return p[f"vit.block{layer}.attn.qkv.weight"] + delta

    def forward(self, rgb, expression):
        """Returns (box (4,), mask probabilities (H, W))."""
        p = self.p
        ids, mask = self.tokens(expression)
        feats = self.text(ids, mask)
        cls = feats[0]

        s = self.patch
        side = self.size // s
        img = rgb.astype(np.float64) / 255.0                       # (H, W, 3)
        patches = img.reshape(side, s, side, s, 3).transpose(0, 2, 4, 1, 3)
        x = (patches.reshape(side * side, 3 * s * s) @ p["vit.patch.weight"].T
             + p["vit.patch.bias"] + p["vit.pos"])
        for i in range(self.blocks):
            pre = f"vit.block{i}."
            x = transformer_block(x, p, pre, self.heads,
                                  self.fused_qkv(feats, mask, i),
                                  p[pre + "attn.qkv.bias"])
        x = layer_norm(x, p["vit.final_ln.gain"], p["vit.final_ln.bias"])

        attn = softmax((x @ p["head.pool.visual.weight"].T)
                       @ (p["head.pool.text.weight"] @ cls))
        h = x.T @ attn
        for j in (1, 2):
            h = gelu(p[f"head.box.fc{j}.weight"] @ h + p[f"head.box.fc{j}.bias"])
        box = sigmoid(p["head.box.fc3.weight"] @ h + p["head.box.fc3.bias"])

        grid = x.reshape(side, side, -1).transpose(2, 0, 1)        # (C, h, w)
        stages = sum(1 for k in p if k.startswith("head.up")
                     and k.endswith(".kernel"))
        for j in range(stages):
            kernel, bias = p[f"head.up{j}.kernel"], p[f"head.up{j}.bias"]
            c_out, hh, ww = kernel.shape[1], grid.shape[1], grid.shape[2]
            up = np.empty((c_out, 2 * hh, 2 * ww))
            for dy in (0, 1):
                for dx in (0, 1):
                    up[:, dy::2, dx::2] = np.einsum(
                        "io,ihw->ohw", kernel[:, :, dy, dx], grid)
            grid = up + bias[:, None, None]
            if j < stages - 1:
                grid = gelu(grid)
        logits = np.einsum("c,chw->hw", cls, grid)
        return box, sigmoid(upsample_bilinear(logits, 4))


# ---------------------------------------------------------------------------
# metrics, from per-sample predictions and the dataset index

LENGTH_BUCKETS = ((1, 5), (6, 7), (8, 10), (11, None))
RELATIONAL = ("relation", "superlative")


def box_iou(a, b):
    """IoU of (cx, cy, w, h) boxes via corner coordinates."""
    def corners(v):
        w, h = max(v[2], 0.0), max(v[3], 0.0)
        return v[0] - w / 2, v[1] - h / 2, v[0] + w / 2, v[1] + h / 2, w * h

    ax0, ay0, ax1, ay1, aa = corners(a)
    bx0, by0, bx1, by1, ba = corners(b)
    inter = (max(0.0, min(ax1, bx1) - max(ax0, bx0))
             * max(0.0, min(ay1, by1) - max(ay0, by0)))
    union = aa + ba - inter
    return inter / union if union > 0 else 0.0


def mask_iou(pred, gt):
    union = np.count_nonzero(pred | gt)
    return 1.0 if union == 0 else np.count_nonzero(pred & gt) / union


def recompute_report(records, masks_gt, boxes, masks, tol=1e-12):
    """Expected report fields from per-sample predictions.

    Returns per subset: count, hit range (lo, hi) for prec@0.5 (boxes whose
    IoU lies within `tol` of 0.5 may go either way), and mean mask IoU."""
    ious = [box_iou(b, np.asarray(r["box"])) for b, r in zip(boxes, records)]
    m_ious = [mask_iou(m, g) for m, g in zip(masks, masks_gt)]

    def subset(idx):
        sure = sum(1 for i in idx if ious[i] > 0.5 + tol)
        maybe = sum(1 for i in idx if abs(ious[i] - 0.5) <= tol)
        return {"count": len(idx), "hits": (sure, sure + maybe),
                "miou": float(np.mean([m_ious[i] for i in idx])) if idx else None}

    every = list(range(len(records)))
    words = [len(r["expression"].split()) for r in records]
    out = {"all": subset(every),
           "relational": subset([i for i in every
                                 if records[i]["template"] in RELATIONAL])}
    for lo, hi in LENGTH_BUCKETS:
        label = f"{lo}+" if hi is None else f"{lo}-{hi}"
        out[label] = subset([i for i in every if words[i] >= lo
                             and (hi is None or words[i] <= hi)])
    return out


def report_mismatches(report, expected, tol=1e-12):
    """Differences between a lawground evaluation report and `expected`."""
    problems = []

    def compare(label, got_count, got_prec, got_miou, exp):
        if got_count != exp["count"]:
            problems.append(f"{label}: count {got_count} != {exp['count']}")
            return
        if exp["count"] == 0:
            return
        lo, hi = exp["hits"]
        hits = got_prec * exp["count"]
        if not lo - 1e-9 <= hits <= hi + 1e-9:
            problems.append(f"{label}: prec@0.5 {got_prec} outside "
                            f"[{lo}, {hi}]/{exp['count']}")
        if got_miou is not None and abs(got_miou - exp["miou"]) > tol:
            problems.append(f"{label}: miou {got_miou} != {exp['miou']}")

    compare("all", report["count"], report["prec_at_05"], report["miou"],
            expected["all"])
    rel = report["relational"]
    compare("relational", rel["count"], rel["prec_at_05"], rel["miou"],
            expected["relational"])
    for bucket in report["buckets"]:
        compare(f"words {bucket['bucket']}", bucket["count"],
                bucket["prec_at_05"] or 0.0, None, expected[bucket["bucket"]])
    return problems
