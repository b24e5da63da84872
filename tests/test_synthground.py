import hashlib
import json
import subprocess

import numpy as np
import pytest

from lawground import netpbm
from lawground.errors import DataError
from lawground.synthground import (
    LEXICON,
    build_sample,
    flip_sample,
    generate_dataset,
    load_dataset,
    load_vocab,
    mask_to_box,
    render_scene,
    _radius_for,
    _rasterize_object,
    SceneObject,
)


# ---------------------------------------------------------------------------
# independent predicate interpreter (oracle): parses the raw expression text
# and evaluates it over the stored scene objects


def interpret(expression, objects):
    words = expression.split()
    shapes = {o.shape for o in objects} | set(("circle", "square", "triangle"))

    def match(pred):
        return [i for i, o in enumerate(objects) if pred(o)]

    if words[0] in ("leftmost", "rightmost", "topmost"):
        sup, shape = words
        group = match(lambda o: o.shape == shape)
        if len(group) < 1:
            return []
        key = {"leftmost": lambda i: objects[i].cx,
               "rightmost": lambda i: -objects[i].cx,
               "topmost": lambda i: objects[i].cy}[sup]
        return [min(group, key=key)]
    if "the" in words:  # relational form
        shape1 = words[0]
        rel = words[1]
        anchor_color, anchor_shape = words[-2], words[-1]
        anchors = match(lambda o: o.color == anchor_color and o.shape == anchor_shape)
        if len(anchors) != 1:
            return []
        anchor = objects[anchors[0]]

        def rel_ok(o):
            if o is anchor:
                return False
            if rel == "left":
                return o.cx < anchor.cx
            if rel == "right":
                return o.cx > anchor.cx
            if rel == "above":
                return o.cy < anchor.cy
            if rel == "below":
                return o.cy > anchor.cy
            raise AssertionError(rel)

        return match(lambda o: o.shape == shape1 and rel_ok(o))
    if len(words) == 3:
        size, color, shape = words
        return match(lambda o: o.size == size and o.color == color
                     and o.shape == shape)
    color, shape = words
    return match(lambda o: o.color == color and o.shape == shape)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    stats = generate_dataset(out, seed=11, n_train=40, n_val=12, n_test=12,
                             resolution=64)
    return out, stats


def test_generation_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_dataset(a, seed=1, n_train=6, n_val=2, n_test=2, resolution=32)
    generate_dataset(b, seed=1, n_train=6, n_val=2, n_test=2, resolution=32)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_gt_box_is_tight_around_mask(small_dataset):
    root, _ = small_dataset
    for sample in load_dataset(root):
        mask = sample.mask()
        np.testing.assert_allclose(sample.box, mask_to_box(mask), atol=1e-12)
        # mask pixels stay inside the box dilated by one pixel
        h, w = mask.shape
        cx, cy, bw, bh = sample.box
        x0 = (cx - bw / 2) * w - 1
        x1 = (cx + bw / 2) * w + 1
        y0 = (cy - bh / 2) * h - 1
        y1 = (cy + bh / 2) * h + 1
        ys, xs = np.nonzero(mask)
        assert (xs + 0.5 >= x0).all() and (xs + 0.5 <= x1).all()
        assert (ys + 0.5 >= y0).all() and (ys + 0.5 <= y1).all()


def test_every_expression_identifies_exactly_the_referent(small_dataset):
    root, _ = small_dataset
    samples = load_dataset(root)
    assert samples, "dataset came out empty"
    for sample in samples:
        hits = interpret(sample.expression, sample.objects)
        assert hits == [sample.referent], (sample.expression, hits, sample.referent)


def test_relational_samples_have_shape_distractor(small_dataset):
    root, _ = small_dataset
    relational = [s for s in load_dataset(root)
                  if s.template in ("relation", "superlative")]
    assert relational, "no relational samples generated"
    for sample in relational:
        ref_shape = sample.objects[sample.referent].shape
        twins = [o for o in sample.objects if o.shape == ref_shape]
        assert len(twins) >= 2


def test_mask_matches_referent_rasterization(small_dataset):
    root, _ = small_dataset
    for sample in load_dataset(root)[:10]:
        obj = sample.objects[sample.referent]
        want = _rasterize_object(obj, sample.mask().shape[0])
        assert np.array_equal(sample.mask(), want)


def test_image_pixels_match_rendered_scene(small_dataset):
    root, _ = small_dataset
    sample = load_dataset(root)[0]
    want = render_scene(sample.objects, sample.image().shape[0])
    assert np.array_equal(sample.image(), want)


def full_grid_rasterization(obj, resolution):
    """The per-pixel shape test over the whole canvas (oracle)."""
    ys, xs = np.mgrid[0:resolution, 0:resolution]
    px = xs + 0.5
    py = ys + 0.5
    r = obj.radius
    if obj.shape == "circle":
        return (px - obj.cx) ** 2 + (py - obj.cy) ** 2 <= r * r
    if obj.shape == "square":
        return np.maximum(np.abs(px - obj.cx), np.abs(py - obj.cy)) <= r
    inside = py <= obj.cy + r
    t = (py - (obj.cy - r)) / (2.0 * r)
    inside &= px >= obj.cx - r * t
    inside &= px <= obj.cx + r * t
    return inside


@pytest.mark.parametrize("resolution", [32, 64, 128])
def test_rasterization_matches_full_grid_formula(resolution):
    for size in ("small", "large"):
        radius = _radius_for(size, resolution)
        # the legal centres, as _place_objects draws them
        lo, hi = radius + 2, resolution - radius - 3
        centres = sorted({lo, lo + 1, (lo + hi) // 2, hi - 1, hi})
        for shape in ("circle", "square", "triangle"):
            for cx in centres:
                for cy in centres:
                    obj = SceneObject(shape, "red", size, cx, cy, radius)
                    got = _rasterize_object(obj, resolution)
                    want = full_grid_rasterization(obj, resolution)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (shape, size, cx, cy)
                    assert got.any()


@pytest.mark.parametrize("resolution,digest", [
    (32, "f771a2a2a3e04fed7b923fae8fe50c3e1c685fe2e01c3d516faf03be83b48f12"),
    (64, "5b547091cffcc83a7fc15176d25d49f2ddcc9b7143f8bca2e7b6b8dcfa80b2c2"),
    (128, "b4874366e5b733fa04e1a3bcdfe552741aac21c0b4150d8fe6902f9a47ad6ba5"),
])
def test_dataset_bytes_are_pinned(tmp_path, resolution, digest):
    # the manifest holds the sha256 of every file the generator writes
    generate_dataset(tmp_path, seed=11, n_train=40, n_val=12, n_test=12,
                     resolution=resolution)
    manifest = (tmp_path / "manifest.sha").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == digest


def test_split_sizes_and_isolation(small_dataset):
    root, stats = small_dataset
    samples = load_dataset(root)
    by_split = {}
    for s in samples:
        by_split.setdefault(s.split, set()).add(s.scene_id)
    assert len(by_split["train"]) == stats["counts"]["train"]
    assert not (by_split["train"] & by_split["val"])
    assert not (by_split["val"] & by_split["test"])
    assert stats["counts"]["train"] + stats["skipped"] >= 40 - 12 - 12  # sanity


def test_loader_round_trips_fields(small_dataset):
    root, _ = small_dataset
    first = load_dataset(root)[0]
    raw = json.loads((root / "index.jsonl").read_text().splitlines()[0])
    assert first.scene_id == raw["scene_id"]
    assert first.expression == raw["expression"]
    assert [o.to_json() for o in first.objects] == raw["objects"]
    np.testing.assert_allclose(first.box, raw["box"], atol=0)


def test_sample_arrays_are_decoded_on_every_call(small_dataset):
    root, _ = small_dataset
    sample = load_dataset(root)[0]
    for read in (sample.image, sample.mask):
        first, second = read(), read()
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)


def test_loader_errors_name_file_and_line(tmp_path, small_dataset):
    root, _ = small_dataset
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "index.jsonl").write_text('{"scene_id": 1}\n')
    with pytest.raises(DataError) as err:
        load_dataset(broken)
    assert "index.jsonl:1" in str(err.value)


def test_loader_rejects_missing_mask(tmp_path):
    out = tmp_path / "ds"
    generate_dataset(out, seed=3, n_train=2, n_val=1, n_test=1, resolution=32)
    victim = next(iter((out / "masks").iterdir()))
    victim.unlink()
    with pytest.raises(DataError) as err:
        load_dataset(out)
    assert "missing mask" in str(err.value)


def test_corrupt_netpbm_files_are_data_errors_naming_the_file(tmp_path):
    rgb = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    bits = np.eye(4, dtype=bool)
    netpbm.write_ppm(tmp_path / "good.ppm", rgb)
    netpbm.write_pbm(tmp_path / "good.pbm", bits)
    assert np.array_equal(netpbm.read_ppm(tmp_path / "good.ppm"), rgb)
    assert np.array_equal(netpbm.read_pbm(tmp_path / "good.pbm"), bits)
    cases = {
        "short.ppm": (netpbm.read_ppm,
                      (tmp_path / "good.ppm").read_bytes()[:-1]),
        "short.pbm": (netpbm.read_pbm,
                      (tmp_path / "good.pbm").read_bytes()[:-1]),
        "comment.ppm": (netpbm.read_ppm, b"P6\n# no line end"),
        "header.pbm": (netpbm.read_pbm, b"P4\n4"),
    }
    for name, (read, blob) in cases.items():
        (tmp_path / name).write_bytes(blob)
        with pytest.raises(DataError, match=name):
            read(tmp_path / name)


def test_manifest_verifies_and_detects_tamper(tmp_path):
    # manifest.sha is in coreutils' format: sha256sum -c checks it
    out = tmp_path / "ds"
    generate_dataset(out, seed=5, n_train=3, n_val=1, n_test=1, resolution=32)

    def check():
        return subprocess.run(["sha256sum", "-c", "--quiet", "manifest.sha"],
                              cwd=out, capture_output=True, text=True)

    clean = check()
    assert clean.returncode == 0, clean.stdout + clean.stderr
    victim = next(iter((out / "images").iterdir()))
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0xFF
    victim.write_bytes(bytes(data))
    tampered = check()
    assert tampered.returncode != 0
    assert f"images/{victim.name}: FAILED" in tampered.stdout


def test_vocab_covers_every_expression(small_dataset):
    root, _ = small_dataset
    vocab = load_vocab(root)
    for sample in load_dataset(root):
        for word in sample.expression.split():
            assert vocab.id_of(word) >= 3, word  # a real id, not [UNK]
    assert set(LEXICON) <= set(vocab.words)


def test_flip_sample_swaps_geometry_and_words(small_dataset):
    root, _ = small_dataset
    sample = load_dataset(root)[0]
    img, mask, box, expr = flip_sample(sample.image(), sample.mask(),
                                       sample.box, "circle left of the red square")
    assert np.array_equal(img, sample.image()[:, ::-1])
    assert np.array_equal(mask, sample.mask()[:, ::-1])
    assert abs((box[0] + sample.box[0]) - 1.0) < 1e-12
    assert expr == "circle right of the red square"
    assert flip_sample(img, mask, box, "leftmost circle")[3] == "rightmost circle"
    assert flip_sample(img, mask, box, "square above the blue circle")[3] == \
        "square above the blue circle"


def test_flipped_relation_still_resolves_to_flipped_referent(small_dataset):
    # flip geometry + words together: the interpreter must find the same object
    root, _ = small_dataset
    for sample in load_dataset(root):
        if sample.template not in ("relation", "superlative"):
            continue
        res = sample.image().shape[0]
        flipped_objects = [
            SceneObject(o.shape, o.color, o.size, res - o.cx, o.cy, o.radius)
            for o in sample.objects]
        _, _, _, expr = flip_sample(sample.image(), sample.mask(), sample.box,
                                    sample.expression)
        hits = interpret(expr, flipped_objects)
        assert hits == [sample.referent], (sample.expression, expr)


def test_build_sample_deterministic_per_id():
    a = build_sample(seed=9, scene_id=123, resolution=64)
    b = build_sample(seed=9, scene_id=123, resolution=64)
    assert a is not None and b is not None
    assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3]
    assert [o.to_json() for o in a[1]] == [o.to_json() for o in b[1]]
