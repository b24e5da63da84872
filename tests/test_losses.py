import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lawground.errors import ConfigError, NumericError, ShapeError
from lawground.losses import (
    LossWeights,
    box_iou,
    box_loss,
    mask_iou,
    mask_loss,
    miou,
    prec_at_05,
    total_loss,
)
from lawground.tensor import Tape, Tensor, grad_check

RNG = np.random.default_rng(99)


# the unweighted terms, read from the two closed-form ops


def l1_loss(box_true, box_pred):
    return box_loss(box_true, box_pred, LossWeights())[1]


def giou_loss(box_true, box_pred):
    return box_loss(box_true, box_pred, LossWeights())[2]


def focal_loss(mask_true, mask_pred, alpha=0.25, gamma=2.0):
    weights = LossWeights(focal_alpha=alpha, focal_gamma=gamma)
    return mask_loss(mask_true, mask_pred, weights)[1]


def dice_loss(mask_true, mask_pred):
    return mask_loss(mask_true, mask_pred, LossWeights())[2]


def random_box(rng=RNG):
    return np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                     rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)])


# ---------------------------------------------------------------------------
# l1


def test_l1_identical_is_zero():
    b = random_box()
    assert l1_loss(b, b) == 0.0


def test_l1_unit_cube():
    assert l1_loss([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0


def test_l1_matches_component_loop():
    a, b = random_box(), random_box()
    want = sum(abs(a[i] - b[i]) for i in range(4)) / 4.0
    assert abs(l1_loss(a, b) - want) < 1e-15


# ---------------------------------------------------------------------------
# giou


def brute_giou_loss(a, b):
    """Interval-arithmetic oracle on plain floats."""
    def corners(box):
        w, h = max(box[2], 0.0), max(box[3], 0.0)
        return box[0] - w / 2, box[1] - h / 2, box[0] + w / 2, box[1] + h / 2, w * h

    ax1, ay1, ax2, ay2, area_a = corners(a)
    bx1, by1, bx2, by2, area_b = corners(b)
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih
    union = area_a + area_b - inter
    iou = inter / union if union > 0 else 0.0
    cw = max(ax2, bx2) - min(ax1, bx1)
    ch = max(ay2, by2) - min(ay1, by1)
    c = cw * ch
    giou = iou - ((c - union) / c if c > 0 else 0.0)
    return 1.0 - giou


def test_giou_identical_boxes():
    b = random_box()
    assert abs(giou_loss(b, b)) < 1e-12


def test_giou_touching_boxes_loss_one():
    a = [0.25, 0.5, 0.5, 1.0]
    b = [0.75, 0.5, 0.5, 1.0]
    assert giou_loss(a, b) == 1.0


def test_giou_matches_interval_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        assert abs(giou_loss(a, b) - brute_giou_loss(a, b)) < 1e-13


def test_giou_symmetric_and_bounded():
    for _ in range(50):
        a, b = random_box(), random_box()
        lab = giou_loss(a, b)
        lba = giou_loss(b, a)
        assert abs(lab - lba) < 1e-12
        assert 0.0 <= lab <= 2.0


def test_giou_never_exceeds_iou():
    for _ in range(50):
        a, b = random_box(), random_box()
        giou = 1.0 - giou_loss(a, b)
        assert giou <= box_iou(a, b) + 1e-12


def test_giou_degenerate_boxes_defined():
    # empty boxes still produce finite values and finite gradients
    val = giou_loss([0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0])
    assert math.isfinite(val)
    for pred in ([0.5, 0.5, 0.0, 0.0], [0.2, 0.7, -0.1, 0.0]):
        b = Tensor(np.array(pred), requires_grad=True)
        with Tape() as tape:
            loss, _, _ = box_loss([0.5, 0.5, 0.0, 0.0], b, LossWeights())
        tape.backward(loss)
        assert np.isfinite(b.grad).all()
    # a negative extent is an empty box, and the clamp passes no gradient
    true = [0.5, 0.5, 0.3, 0.2]
    b = Tensor(np.array([0.45, 0.55, -0.1, 0.3]), requires_grad=True)
    with Tape() as tape:
        loss, _, giou = box_loss(true, b, LossWeights(l1=0.0))
    tape.backward(loss)
    assert abs(giou - brute_giou_loss(true, b.data)) < 1e-13
    assert b.grad[2] == 0.0 and b.grad[3] != 0.0


def test_giou_ties_take_the_true_edges():
    # equal y extents: the overlap and the enclosing box both take the true
    # box's y edges, so the predicted height moves the loss through the
    # union's area only, and the predicted y center not at all
    true = np.array([0.40, 0.5, 0.30, 0.2])
    b = Tensor(np.array([0.50, 0.5, 0.20, 0.2]), requires_grad=True)
    with Tape() as tape:
        loss, _, _ = box_loss(true, b, LossWeights(l1=0.0))
    tape.backward(loss)
    inter_w, encl_w, h = 0.55 - 0.40, 0.60 - 0.25, 0.2
    inter = inter_w * h
    union = 0.3 * h + 0.2 * h - inter
    # loss = 2 - inter / union - union / (encl_w * h); d union / d h_pred = 0.2
    want = (inter / union ** 2 - 1.0 / (encl_w * h)) * 0.2
    assert b.grad[1] == 0.0
    assert abs(b.grad[3] - want) < 1e-12


def test_giou_grad_check_nondegenerate():
    a = random_box()
    b = Tensor(random_box(), requires_grad=True)
    giou_only = LossWeights(l1=0.0)
    assert grad_check(lambda b: box_loss(a, b, giou_only)[0], b) <= 1e-4


# ---------------------------------------------------------------------------
# focal


def test_focal_saturated_match_is_tiny():
    s = np.ones((4, 4))
    p = np.full((4, 4), 1.0 - 1e-12)
    assert focal_loss(s, p) <= 1e-9


def test_focal_reduces_to_bce():
    rng = np.random.default_rng(8)
    s = (rng.uniform(size=(5, 5)) > 0.5).astype(float)
    p = rng.uniform(0.05, 0.95, (5, 5))
    got = focal_loss(s, p, alpha=1.0, gamma=0.0)
    want = float(np.mean(-(s * np.log(p) + (1 - s) * np.log(1 - p))))
    assert abs(got - want) < 1e-13


def test_focal_single_pixel_closed_form():
    got = focal_loss(np.array([[1.0]]), np.array([[0.5]]), alpha=0.25, gamma=2.0)
    want = 0.25 * 0.25 * math.log(2.0)
    assert abs(got - want) < 1e-15


def test_focal_rejects_boundary_probabilities():
    with pytest.raises(NumericError):
        focal_loss(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(NumericError):
        focal_loss(np.zeros((2, 2)), np.zeros((2, 2)))


def test_focal_grad_check():
    s = (RNG.uniform(size=(3, 3)) > 0.5).astype(float)
    p = Tensor(RNG.uniform(0.1, 0.9, (3, 3)), requires_grad=True)
    focal_only = LossWeights(focal=1.0, dice=0.0)
    assert grad_check(lambda p: mask_loss(s, p, focal_only)[0], p) <= 1e-4


# ---------------------------------------------------------------------------
# dice


def test_dice_perfect_ones():
    # the mask op takes probabilities inside (0, 1) only: perfect is 1 - 1e-15
    m = np.ones((3, 3))
    assert 0.0 <= dice_loss(m, np.full((3, 3), 1.0 - 1e-15)) < 1e-15


def test_dice_all_miss_formula():
    n = 9
    got = dice_loss(np.ones((3, 3)), np.full((3, 3), 1e-300))
    assert abs(got - (1.0 - 1.0 / (n + 1))) < 1e-15


def test_dice_matches_direct_sums():
    s = (RNG.uniform(size=(6, 6)) > 0.5).astype(float)
    p = RNG.uniform(0.0, 1.0, (6, 6))
    got = dice_loss(s, p)
    want = 1.0 - (2.0 * float((s * p).sum()) + 1.0) / (float(s.sum()) + float(p.sum()) + 1.0)
    assert abs(got - want) < 1e-14


def test_dice_shape_mismatch():
    with pytest.raises(ShapeError):
        dice_loss(np.ones((2, 2)), np.ones((3, 3)))


def test_dice_grad_check():
    s = (RNG.uniform(size=(3, 3)) > 0.5).astype(float)
    p = Tensor(RNG.uniform(0.1, 0.9, (3, 3)), requires_grad=True)
    dice_only = LossWeights(focal=0.0, dice=1.0)
    assert grad_check(lambda p: mask_loss(s, p, dice_only)[0], p) <= 1e-4


# ---------------------------------------------------------------------------
# total


def perfectish_inputs():
    box = random_box()
    mask = (RNG.uniform(size=(4, 4)) > 0.5).astype(float)
    soft = np.clip(mask, 1e-12, 1 - 1e-12)
    return box, mask, soft


def batch_inputs(n=5, seed=21):
    """(B, 4) true and predicted boxes, (B, 4, 4) true masks and predicted
    probabilities; one predicted box has a negative extent (empty)."""
    rng = np.random.default_rng(seed)
    boxes_t = np.stack([random_box(rng) for _ in range(n)])
    boxes_p = np.stack([random_box(rng) for _ in range(n)])
    boxes_p[0, 2] = -0.1
    masks_t = (rng.uniform(size=(n, 4, 4)) > 0.5).astype(float)
    return boxes_t, boxes_p, masks_t, rng.uniform(0.1, 0.9, (n, 4, 4))


def test_total_perfect_predictions_near_zero():
    box, mask, soft = perfectish_inputs()
    loss, _ = total_loss(box, box, mask, soft)
    assert loss.item() < 1e-6  # dice epsilon and focal saturation leftovers
    boxes, _, masks, _ = batch_inputs()
    loss, _ = total_loss(boxes, boxes, masks, np.clip(masks, 1e-12, 1 - 1e-12))
    assert loss.item() < 1e-6


def test_total_multitask_is_exact_sum_of_modes():
    box_t, mask_t, _ = perfectish_inputs()
    box_p = random_box()
    soft_p = RNG.uniform(0.1, 0.9, (4, 4))
    for args in ((box_t, box_p, mask_t, soft_p), batch_inputs()):
        rec, _ = total_loss(*args, mode="rec")
        res, _ = total_loss(*args, mode="res")
        multi, _ = total_loss(*args, mode="multitask")
        assert multi.item() == rec.item() + res.item()


def test_total_matches_recomposition():
    box_t, mask_t, _ = perfectish_inputs()
    box_p = random_box()
    soft_p = RNG.uniform(0.1, 0.9, (4, 4))
    w = LossWeights()

    def recomposed(box_t, box_p, mask_t, soft_p):
        return (w.l1 * l1_loss(box_t, box_p)
                + w.giou * giou_loss(box_t, box_p)
                + w.focal * focal_loss(mask_t, soft_p)
                + w.dice * dice_loss(mask_t, soft_p))

    got, parts = total_loss(box_t, box_p, mask_t, soft_p, w)
    assert abs(got.item() - recomposed(box_t, box_p, mask_t, soft_p)) < 1e-12
    assert set(parts) == {"l1", "giou", "focal", "dice", "total"}
    batch = batch_inputs()
    got, _ = total_loss(*batch, w)
    want = np.mean([recomposed(*one) for one in zip(*batch)])
    assert abs(got.item() - want) < 1e-12


@pytest.mark.parametrize("mode", ["rec", "res", "multitask"])
def test_total_batch_is_mean_of_per_sample_calls(mode):
    def run(box_t, box_p, mask_t, soft_p):
        box, soft = (Tensor(box_p, requires_grad=True),
                     Tensor(soft_p, requires_grad=True))
        with Tape() as tape:
            loss, parts = total_loss(box_t, box, mask_t, soft, mode=mode)
        tape.backward(loss)
        return loss.item(), parts, box.grad, soft.grad

    batch = batch_inputs()
    value, parts, box_grad, soft_grad = run(*batch)
    single = [run(*one) for one in zip(*batch)]
    n = len(single)
    assert value == pytest.approx(np.mean([v for v, *_ in single]),
                                  rel=1e-15)
    for key in parts:
        assert parts[key] == pytest.approx(
            np.mean([p[key] for _, p, *_ in single]), rel=1e-15)
    for got, want in ((box_grad, np.stack([b for *_, b, _ in single]) / n),
                      (soft_grad, np.stack([m for *_, m in single]) / n)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-17)
    assert (np.abs(box_grad).max() > 0) == (mode != "res")
    assert (np.abs(soft_grad).max() > 0) == (mode != "rec")


def test_total_rejects_unknown_mode():
    box, mask, soft = perfectish_inputs()
    with pytest.raises(ConfigError):
        total_loss(box, box, mask, soft, mode="detection")


def test_total_decreases_under_gradient_step():
    box_t = np.array([0.3, 0.6, 0.2, 0.25])
    mask_t = np.zeros((4, 4))
    mask_t[1:3, 1:3] = 1.0
    box_logits = Tensor(RNG.normal(0, 0.1, 4), requires_grad=True)
    mask_logits = Tensor(RNG.normal(0, 0.1, (4, 4)), requires_grad=True)

    from lawground.tensor import sigmoid

    def value():
        with Tape() as tape:
            loss, _ = total_loss(box_t, sigmoid(box_logits), mask_t,
                                 sigmoid(mask_logits))
        return loss, tape

    loss0, tape = value()
    tape.backward(loss0)
    for p in (box_logits, mask_logits):
        p.data -= 0.05 * p.grad
    loss1, _ = value()
    assert loss1.item() < loss0.item()


# ---------------------------------------------------------------------------
# metrics


def test_prec_identical_lists():
    boxes = [random_box() for _ in range(5)]
    assert prec_at_05(boxes, boxes) == 1.0


def test_prec_exactly_half_iou_counts_incorrect():
    # nested boxes, prediction covers exactly half the gt area: IoU == 0.5
    gt = [np.array([0.5, 0.5, 0.4, 0.4])]
    pred = [np.array([0.5, 0.5, 0.4, 0.2])]
    assert abs(box_iou(pred[0], gt[0]) - 0.5) < 1e-12
    assert prec_at_05(pred, gt) == 0.0  # strict >


def test_prec_matches_pairwise_loop():
    rng = np.random.default_rng(17)
    gts = [random_box(rng) for _ in range(40)]
    preds = [g + rng.normal(0, 0.08, 4) for g in gts]
    want = sum(1 for p, g in zip(preds, gts) if box_iou(p, g) > 0.5) / 40
    assert prec_at_05(preds, gts) == want


def test_prec_length_mismatch():
    with pytest.raises(ShapeError):
        prec_at_05([random_box()], [])


def test_miou_identical_and_disjoint():
    a = np.zeros((4, 4), dtype=bool)
    a[:2] = True
    b = ~a
    assert miou([a], [a]) == 1.0
    assert miou([a], [b]) == 0.0


def test_miou_half_overlap_third():
    gt = np.zeros((4, 4), dtype=bool)
    gt[0, 0] = gt[0, 1] = True
    pred = np.zeros((4, 4), dtype=bool)
    pred[0, 1] = pred[0, 2] = True
    assert abs(miou([pred], [gt]) - 1.0 / 3.0) < 1e-15


def test_miou_empty_union_counts_full():
    empty = np.zeros((3, 3), dtype=bool)
    assert mask_iou(empty, empty) == 1.0


# ---------------------------------------------------------------------------
# property tests


@given(st.lists(st.floats(0.05, 0.95), min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_giou_loss_nonnegative_property(vals):
    a = np.array(vals[:4])
    b = np.array(vals[4:])
    val = giou_loss(a, b)
    assert -1e-12 <= val <= 2.0 + 1e-12
    assert abs(val - giou_loss(b, a)) < 1e-12


@given(st.integers(0, 2 ** 16 - 1))
@settings(max_examples=30, deadline=None)
def test_losses_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    s = (rng.uniform(size=(3, 3)) > 0.5).astype(float)
    p = rng.uniform(0.05, 0.95, (3, 3))
    assert focal_loss(s, p) >= 0.0
    assert 0.0 <= dice_loss(s, p) < 1.0
    a = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8),
                  rng.uniform(0.05, 0.4), rng.uniform(0.05, 0.4)])
    assert l1_loss(a, a + 0.01) >= 0.0
