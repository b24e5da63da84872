"""Deterministic synthetic referring-grounding dataset.

Scenes hold 2-5 hard-edged colored shapes (circle/square/triangle) on a
black canvas, pairwise separated on both axes so spatial predicates are
unambiguous. Expressions come from four template kinds:

    attribute     "red circle"
    size          "small red circle"        (a same-color-and-shape twin exists)
    relation      "circle left of the red square"
    superlative   "leftmost circle"

Relation and superlative samples always contain at least one other object
with the referent's shape, so an expression-blind model cannot resolve them
from the image alone. Every emitted expression is checked to identify
exactly one object; scenes that cannot satisfy the drawn template within a
bounded number of retries are skipped and counted.

On disk: images/ (binary PPM), masks/ (binary PBM), index.jsonl, vocab.txt,
manifest.sha (sha256 of every file, sorted by path).
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import DataError
from .serial import make_dir
from .text import Vocabulary

SHAPES = ("circle", "square", "triangle")
COLORS = {
    "red": (230, 40, 40),
    "green": (40, 200, 70),
    "blue": (50, 90, 235),
    "yellow": (235, 220, 50),
    "purple": (160, 60, 220),
    "white": (255, 255, 255),
}
SIZES = ("small", "large")
RELATIONS = ("left", "right", "above", "below")
SUPERLATIVES = ("leftmost", "rightmost", "topmost")

# fixed lexicon; vocabulary ids are stable across datasets
LEXICON = (list(COLORS) + list(SHAPES) + list(SIZES)
           + ["left", "right", "above", "below", "of", "the",
              "leftmost", "rightmost", "topmost"])

# horizontal flips swap these expression tokens
FLIP_SWAP = {"left": "right", "right": "left",
             "leftmost": "rightmost", "rightmost": "leftmost"}

TEMPLATE_KINDS = ("attribute", "size", "relation", "superlative")
TEMPLATE_WEIGHTS = (0.30, 0.15, 0.35, 0.20)

_AXIS_GAP = 3          # min per-axis center distance, keeps predicates crisp
_SCENE_RETRIES = 60
_PLACE_RETRIES = 80


@dataclass
class SceneObject:
    shape: str
    color: str
    size: str
    cx: int
    cy: int
    radius: int

    def to_json(self):
        return {"shape": self.shape, "color": self.color, "size": self.size,
                "cx": self.cx, "cy": self.cy, "radius": self.radius}

    @classmethod
    def from_json(cls, d):
        return cls(shape=d["shape"], color=d["color"], size=d["size"],
                   cx=d["cx"], cy=d["cy"], radius=d["radius"])


@dataclass
class GroundingSample:
    scene_id: int
    split: str
    expression: str
    template: str
    box: np.ndarray          # normalized (cx, cy, w, h), tight around the mask
    image_path: Path
    mask_path: Path
    objects: list
    referent: int

    # decoded on every call, never kept: training reads a sample once an
    # epoch, and kept arrays cost 16 KB a 64x64 sample in every process
    def image(self):
        return netpbm.read_ppm(self.image_path)

    def mask(self):
        return netpbm.read_pbm(self.mask_path)

    def arrays(self, resolution):
        """The (H, W, 3) image and (H, W) mask, checked to be resolution x
        resolution pixels: DataError naming the file otherwise."""
        image, mask = self.image(), self.mask()
        for path, (h, w) in ((self.image_path, image.shape[:2]),
                             (self.mask_path, mask.shape)):
            if (h, w) != (resolution, resolution):
                raise DataError(f"{path}: {w}x{h} pixels, expected "
                                f"{resolution}x{resolution}")
        return image, mask

    @property
    def word_count(self):
        return len(self.expression.split())


def _radius_for(size, resolution):
    base = 5 if size == "small" else 9
    return max(3, round(base * resolution / 64))


def _rasterize_object(obj, resolution):
    ys, xs = np.mgrid[0:resolution, 0:resolution]
    px = xs + 0.5
    py = ys + 0.5
    r = obj.radius
    if obj.shape == "circle":
        return (px - obj.cx) ** 2 + (py - obj.cy) ** 2 <= r * r
    if obj.shape == "square":
        return np.maximum(np.abs(px - obj.cx), np.abs(py - obj.cy)) <= r
    # upward triangle: apex (cx, cy-r), base corners (cx +- r, cy + r)
    inside = py <= obj.cy + r
    # left edge from apex to bottom-left, right edge mirrored
    t = (py - (obj.cy - r)) / (2.0 * r)
    inside &= px >= obj.cx - r * t
    inside &= px <= obj.cx + r * t
    return inside


def render_scene(objects, resolution):
    img = np.zeros((resolution, resolution, 3), dtype=np.uint8)
    for obj in objects:
        stamp = _rasterize_object(obj, resolution)
        img[stamp] = COLORS[obj.color]
    return img


def mask_to_box(mask):
    """Tight normalized (cx, cy, w, h) around the true pixels."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise DataError("cannot box an empty mask")
    h, w = mask.shape
    y0, y1 = rows[0], rows[-1]
    x0, x1 = cols[0], cols[-1]
    return np.array([(x0 + x1 + 1) / 2 / w, (y0 + y1 + 1) / 2 / h,
                     (x1 + 1 - x0) / w, (y1 + 1 - y0) / h])


# ---------------------------------------------------------------------------
# template instantiation


def _enumerate_instances(objects):
    """All expressions each kind supports on this scene, with their referents.

    Returns {kind: [(expression, referent_index), ...]}; every listed
    expression identifies exactly one object, relation/superlative entries
    additionally have a same-shape distractor.
    """
    def count(pred):
        return sum(1 for o in objects if pred(o))

    out = {kind: [] for kind in TEMPLATE_KINDS}
    for i, o in enumerate(objects):
        if count(lambda p: p.color == o.color and p.shape == o.shape) == 1:
            out["attribute"].append((f"{o.color} {o.shape}", i))
        if (count(lambda p: p.color == o.color and p.shape == o.shape) >= 2
                and count(lambda p: p.size == o.size and p.color == o.color
                          and p.shape == o.shape) == 1):
            out["size"].append((f"{o.size} {o.color} {o.shape}", i))

    for ai, anchor in enumerate(objects):
        if count(lambda p: p.color == anchor.color and p.shape == anchor.shape) != 1:
            continue
        for shape in SHAPES:
            if count(lambda p: p.shape == shape) < 2:
                continue
            for rel in RELATIONS:
                hits = [i for i, o in enumerate(objects)
                        if o.shape == shape and _relation_holds(o, rel, anchor)]
                if len(hits) == 1:
                    phrase = f"{shape} {rel} of the {anchor.color} {anchor.shape}" \
                        if rel in ("left", "right") \
                        else f"{shape} {rel} the {anchor.color} {anchor.shape}"
                    out["relation"].append((phrase, hits[0]))

    for shape in SHAPES:
        group = [(i, o) for i, o in enumerate(objects) if o.shape == shape]
        if len(group) < 2:
            continue
        for sup in SUPERLATIVES:
            if sup == "leftmost":
                ref = min(group, key=lambda io: io[1].cx)
            elif sup == "rightmost":
                ref = max(group, key=lambda io: io[1].cx)
            else:
                ref = min(group, key=lambda io: io[1].cy)
            out["superlative"].append((f"{sup} {shape}", ref[0]))
    return out


def _relation_holds(obj, rel, anchor):
    if obj is anchor:
        return False
    if rel == "left":
        return obj.cx < anchor.cx
    if rel == "right":
        return obj.cx > anchor.cx
    if rel == "above":
        return obj.cy < anchor.cy
    return obj.cy > anchor.cy


def _place_objects(rng, specs, resolution):
    """Assign non-overlapping integer centers; None when space runs out."""
    placed = []
    for shape, color, size in specs:
        radius = _radius_for(size, resolution)
        lo, hi = radius + 2, resolution - radius - 3
        for _ in range(_PLACE_RETRIES):
            cx = int(rng.integers(lo, hi + 1))
            cy = int(rng.integers(lo, hi + 1))
            ok = True
            for other in placed:
                if (abs(cx - other.cx) < _AXIS_GAP
                        or abs(cy - other.cy) < _AXIS_GAP):
                    ok = False
                    break
                gap = radius + other.radius + 3
                if (cx - other.cx) ** 2 + (cy - other.cy) ** 2 < gap * gap:
                    ok = False
                    break
            if ok:
                placed.append(SceneObject(shape, color, size, cx, cy, radius))
                break
        else:
            return None
    return placed


def _draw_scene(rng, kind, resolution):
    """Sample a scene biased toward supporting `kind`, then pick an instance."""
    n_obj = int(rng.integers(3 if kind == "relation" else 2, 6))
    specs = []
    for _ in range(n_obj):
        specs.append((SHAPES[rng.integers(len(SHAPES))],
                      list(COLORS)[rng.integers(len(COLORS))],
                      SIZES[rng.integers(len(SIZES))]))
    if kind in ("relation", "superlative") and n_obj >= 2:
        # guarantee a shape twin so the expression is genuinely needed
        shape = specs[0][0]
        specs[1] = (shape, specs[1][1], specs[1][2])
    if kind == "size" and n_obj >= 2:
        shape, color, size = specs[0]
        other = SIZES[1] if size == SIZES[0] else SIZES[0]
        specs[1] = (shape, color, other)
    objects = _place_objects(rng, specs, resolution)
    if objects is None:
        return None
    instances = _enumerate_instances(objects)[kind]
    if not instances:
        return None
    expression, referent = instances[int(rng.integers(len(instances)))]
    return objects, expression, referent


def _sample_rng(seed, scene_id):
    digest = hashlib.sha256(f"synthground:{seed}:{scene_id}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def build_sample(seed, scene_id, resolution):
    """One deterministic scene draw; None when every retry failed."""
    rng = _sample_rng(seed, scene_id)
    kind = str(rng.choice(TEMPLATE_KINDS, p=TEMPLATE_WEIGHTS))
    for _ in range(_SCENE_RETRIES):
        drawn = _draw_scene(rng, kind, resolution)
        if drawn is not None:
            return kind, *drawn
    return None


# ---------------------------------------------------------------------------
# dataset writer / reader


def generate_dataset(out_dir, seed=0, n_train=4000, n_val=500, n_test=500,
                     resolution=64):
    """Write the dataset; returns per-split counts and the skip count."""
    if min(n_train, n_val, n_test) < 0 or n_train < 1:
        raise DataError("dataset sizes must be positive")
    # a large object's centre lies in [radius + 2, resolution - radius - 3]
    radius = _radius_for("large", resolution)
    if resolution < 2 * radius + 5:
        raise DataError(f"resolution {resolution} leaves no centre for a "
                        f"large object of radius {radius}")
    out = make_dir(out_dir)
    make_dir(out / "images")
    make_dir(out / "masks")

    records = []
    skipped = 0
    scene_id = 0
    counts = {}
    quotas = {"train": n_train, "val": n_val, "test": n_test}
    for split, quota in quotas.items():
        kept = 0
        for _ in range(quota):
            built = build_sample(seed, scene_id, resolution)
            if built is None:
                skipped += 1
                scene_id += 1
                continue
            kind, objects, expression, referent = built
            image = render_scene(objects, resolution)
            mask = _rasterize_object(objects[referent], resolution)
            box = mask_to_box(mask)
            img_rel = f"images/{split}_{scene_id:06d}.ppm"
            mask_rel = f"masks/{split}_{scene_id:06d}.pbm"
            netpbm.write_ppm(out / img_rel, image)
            netpbm.write_pbm(out / mask_rel, mask)
            records.append({
                "scene_id": scene_id,
                "split": split,
                "template": kind,
                "expression": expression,
                "box": [float(v) for v in box],
                "image": img_rel,
                "mask": mask_rel,
                "objects": [o.to_json() for o in objects],
                "referent": int(referent),
            })
            kept += 1
            scene_id += 1
        counts[split] = kept

    empty = [split for split, quota in quotas.items()
             if quota and not counts[split]]
    if empty:
        raise DataError(
            f"resolution {resolution} kept no sample in the requested "
            f"{', '.join(empty)} split{'s' if len(empty) > 1 else ''} "
            f"({skipped} scenes skipped)")
    with open(out / "index.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    Vocabulary(LEXICON).save(out / "vocab.txt")
    write_manifest(out)
    return {"counts": counts, "skipped": skipped, "resolution": resolution,
            "seed": seed}


def write_manifest(root):
    root = Path(root)
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()
                       and p.name != "manifest.sha"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    (root / "manifest.sha").write_text("\n".join(lines) + "\n", encoding="utf-8")


def verify_manifest(root):
    """Recompute every digest; raises DataError on any mismatch."""
    root = Path(root)
    manifest = root / "manifest.sha"
    if not manifest.exists():
        raise DataError(f"{manifest}: missing manifest")
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            digest, rel = line.split("  ", 1)
        except ValueError:
            raise DataError(f"{manifest}:{lineno}: malformed line") from None
        target = root / rel
        if not target.exists():
            raise DataError(f"{manifest}:{lineno}: missing file {rel}")
        if hashlib.sha256(target.read_bytes()).hexdigest() != digest:
            raise DataError(f"{manifest}:{lineno}: checksum mismatch for {rel}")


def load_dataset(root, split=None):
    """Read index records in file order; missing referenced files fail loudly."""
    root = Path(root)
    index = root / "index.jsonl"
    if not index.exists():
        raise DataError(f"{index}: no dataset index found")
    samples = []
    seen_splits = {}
    with open(index, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                sample = GroundingSample(
                    scene_id=rec["scene_id"], split=rec["split"],
                    expression=rec["expression"], template=rec["template"],
                    box=np.asarray(rec["box"], dtype=np.float64),
                    image_path=root / rec["image"],
                    mask_path=root / rec["mask"],
                    objects=[SceneObject.from_json(o) for o in rec["objects"]],
                    referent=rec["referent"])
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{index}:{lineno}: malformed record: {exc}") from exc
            prev = seen_splits.get(sample.scene_id)
            if prev is not None and prev != sample.split:
                raise DataError(
                    f"{index}:{lineno}: scene {sample.scene_id} appears in both "
                    f"{prev!r} and {sample.split!r}")
            seen_splits[sample.scene_id] = sample.split
            if not sample.image_path.exists():
                raise DataError(f"{index}:{lineno}: missing image file "
                                f"{sample.image_path}")
            if not sample.mask_path.exists():
                raise DataError(f"{index}:{lineno}: missing mask file "
                                f"{sample.mask_path}")
            if split is None or sample.split == split:
                samples.append(sample)
    return samples


def load_vocab(root):
    path = Path(root) / "vocab.txt"
    try:
        return Vocabulary.load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read the vocabulary: {exc}") from exc


def flip_sample(image, mask, box, expression):
    """Horizontal flip with the matching left/right word swap."""
    flipped_img = image[:, ::-1].copy()
    flipped_mask = mask[:, ::-1].copy()
    flipped_box = box.copy()
    flipped_box[0] = 1.0 - box[0]
    words = [FLIP_SWAP.get(w, w) for w in expression.split()]
    return flipped_img, flipped_mask, flipped_box, " ".join(words)
