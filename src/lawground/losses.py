"""Detection and segmentation losses plus the evaluation metrics.

Boxes are (center-x, center-y, width, height), normalized to the image.
Detection: mean-reduced L1 plus generalized-IoU loss. Segmentation: binary
focal loss (constant-alpha convention) plus smoothed dice. The joint loss
is the plain sum, so the multi-task value is exactly the sum of the
single-task values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor, _record, active_tape, as_tensor

# guards 0/0 for degenerate (empty) boxes without disturbing regular values
_TINY = 1e-300
# dice smoothing, added to the overlap and to the mask sums
_DICE_EPS = 1.0

MODES = ("rec", "res", "multitask")


@dataclass
class LossWeights:
    l1: float = 1.0
    giou: float = 1.0
    focal: float = 4.0
    dice: float = 4.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0


def box_loss(box_true, box_pred, weights):
    """weights.l1 * L1 + weights.giou * (1 - GIoU) of two (4,) boxes, or its
    mean over two (B, 4) batches of boxes, as one op.

    L1 is the mean absolute component difference. GIoU = IoU - |C minus
    union| / |C| over the smallest enclosing box C, so 1 - GIoU lies in
    [0, 2]. Negative extents are clamped to empty boxes and _TINY guards 0/0
    for empty ones. Where a max or min ties, the gradient takes the path of
    its first argument: the extent over 0, the true box's edge over the
    predicted one, the overlap over 0, union and C over _TINY. Only box_pred
    is a parent. Returns the scalar Tensor and the unweighted L1 and
    1 - GIoU (batch means) as floats.
    """
    pred = as_tensor(box_pred)
    true = as_tensor(box_true).data
    diff = true - pred.data
    # per box as (..., 1): L1; per axis (x, y): extents, edges and areas
    l1 = np.mean(np.abs(diff), axis=-1, keepdims=True)
    sized = pred.data[..., 2:] >= 0.0
    size_t = np.maximum(true[..., 2:], 0.0)
    size_p = np.where(sized, pred.data[..., 2:], 0.0)
    lo_t, hi_t = true[..., :2] - size_t * 0.5, true[..., :2] + size_t * 0.5
    lo_p, hi_p = pred.data[..., :2] - size_p * 0.5, pred.data[..., :2] + size_p * 0.5
    # intersection: the true edge wins ties of both its min and its max
    in_hi_t, in_lo_t = hi_t <= hi_p, lo_t >= lo_p
    span = np.where(in_hi_t, hi_t, hi_p) - np.where(in_lo_t, lo_t, lo_p)
    overlaps = span >= 0.0
    inter_wh = np.where(overlaps, span, 0.0)
    # enclosing box, same tie rule
    out_hi_t, out_lo_t = hi_t >= hi_p, lo_t <= lo_p
    encl_wh = np.where(out_hi_t, hi_t, hi_p) - np.where(out_lo_t, lo_t, lo_p)
    inter = inter_wh[..., :1] * inter_wh[..., 1:]
    union = size_t[..., :1] * size_t[..., 1:] + size_p[..., :1] * size_p[..., 1:] - inter
    enclosing = encl_wh[..., :1] * encl_wh[..., 1:]
    union_c, encl_c = np.maximum(union, _TINY), np.maximum(enclosing, _TINY)
    iou = inter / union_c
    giou_loss = 1.0 - (iou - (enclosing - union) / encl_c)
    out = Tensor(np.mean(weights.l1 * l1 + weights.giou * giou_loss))

    def backfn(g):
        g = g / l1.size                         # each box's share of the mean
        # 1 - GIoU = 1 - inter / union_c + (enclosing - union) / encl_c
        gg = g * weights.giou
        g_gap = gg / encl_c                     # adjoint of enclosing - union
        g_union = np.where(union >= _TINY, gg * iou / union_c, 0.0) - g_gap
        g_encl = g_gap - np.where(enclosing >= _TINY,
                                  g_gap * (enclosing - union) / encl_c, 0.0)
        g_inter = -gg / union_c - g_union
        # product rule per axis, then to the predicted edges where they won
        g_span = g_inter * inter_wh[..., ::-1] * overlaps
        g_encl_wh = g_encl * encl_wh[..., ::-1]
        g_hi = g_span * ~in_hi_t + g_encl_wh * ~out_hi_t
        g_lo = -g_span * ~in_lo_t - g_encl_wh * ~out_lo_t
        # edges are center -/+ extent / 2, and the extent spans the area
        g_size = (g_union * size_p[..., ::-1] + 0.5 * (g_hi - g_lo)) * sized
        grad = np.concatenate([g_lo + g_hi, g_size], axis=-1)
        grad -= np.sign(diff) * (g * weights.l1 / 4.0)
        return (grad,)

    return (_record(out, (pred,), backfn), float(np.mean(l1)),
            float(np.mean(giou_loss)))


def mask_loss(mask_true, mask_pred, weights):
    """weights.focal * focal + weights.dice * dice of an (H, W) probability
    map, or its mean over a (B, H, W) batch of maps, as one op.

    Focal is the pixel mean of -alpha * (1 - p_t)^gamma * log(p_t), p_t the
    predicted probability of the true class (gamma=0, alpha=1 is mean binary
    cross-entropy); dice is 1 - (2*overlap + 1) / (sum_true + sum_pred + 1),
    both per map. Only mask_pred is a parent. Returns the scalar Tensor and
    the unweighted focal and dice terms (batch means) as floats.
    """
    pred = as_tensor(mask_pred)
    true = as_tensor(mask_true).data
    if pred.shape != true.shape:
        raise ShapeError(f"mask shapes differ: {true.shape} vs {pred.shape}")
    p = pred.data
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise NumericError("focal loss needs probabilities strictly inside (0, 1)")
    alpha, gamma = float(weights.focal_alpha), float(weights.focal_gamma)
    p_t = p * true + (1.0 - p) * (1.0 - true)
    miss = 1.0 - p_t
    log_pt = np.log(p_t)
    focus = miss ** gamma
    # per map, kept as (..., 1, 1)
    pixels = dict(axis=(-2, -1), keepdims=True)
    focal = np.mean(focus * log_pt, **pixels) * -alpha
    overlap_eps = 2.0 * np.sum(true * p, **pixels) + _DICE_EPS
    total_eps = np.sum(true, **pixels) + np.sum(p, **pixels) + _DICE_EPS
    dice = 1.0 - overlap_eps / total_eps
    out = Tensor(np.mean(weights.focal * focal + weights.dice * dice))
    terms = float(np.mean(focal)), float(np.mean(dice))
    tape = active_tape()
    if tape is None:
        return (out, *terms)
    # the focal and dice gradients up to their factors of g, formed here so
    # the closure keeps two (..., H, W) arrays
    d_pt = focus / p_t - gamma * miss ** (gamma - 1.0) * log_pt
    g_focal_unit = d_pt * (2.0 * true - 1.0)
    g_dice_unit = overlap_eps / total_eps - 2.0 * true
    n_maps, per_map = dice.size, p.size / dice.size
    focal_w, dice_w = -alpha * weights.focal, weights.dice

    def backfn(g):
        g = g / n_maps                          # each map's share of the mean
        return (g_focal_unit * (focal_w * g / per_map)
                + g_dice_unit * (dice_w * g / total_eps),)

    tape.record(out, (pred,), backfn)
    return (out, *terms)


def total_loss(box_true, box_pred, mask_true, mask_pred, weights=None,
               mode="multitask"):
    """Joint objective of one sample, or its mean over a batch when every
    input has a leading batch axis; returns (scalar Tensor, per-component
    float breakdown of batch means)."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    w = weights or LossWeights()
    parts = {}
    det = seg = None
    if mode in ("rec", "multitask"):
        det, parts["l1"], parts["giou"] = box_loss(box_true, box_pred, w)
    if mode in ("res", "multitask"):
        seg, parts["focal"], parts["dice"] = mask_loss(mask_true, mask_pred, w)
    if det is None:
        total = seg
    elif seg is None:
        total = det
    else:
        total = det + seg
    parts["total"] = total.item()
    return total, parts


# ---------------------------------------------------------------------------
# metrics (plain floats, no tape)


def box_iou(a, b):
    """IoU of two (cx, cy, w, h) boxes as a plain float."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ah = max(a[2], 0.0), max(a[3], 0.0)
    bw, bh = max(b[2], 0.0), max(b[3], 0.0)
    iw = max(min(a[0] + aw / 2, b[0] + bw / 2) - max(a[0] - aw / 2, b[0] - bw / 2), 0.0)
    ih = max(min(a[1] + ah / 2, b[1] + bh / 2) - max(a[1] - ah / 2, b[1] - bh / 2), 0.0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0.0 else 0.0


def prec_at_05(pred_boxes, gt_boxes):
    """Fraction of pairs with IoU strictly greater than 0.5."""
    if len(pred_boxes) != len(gt_boxes):
        raise ShapeError(
            f"got {len(pred_boxes)} predictions for {len(gt_boxes)} ground truths")
    hits = sum(1 for p, g in zip(pred_boxes, gt_boxes) if box_iou(p, g) > 0.5)
    return hits / len(gt_boxes) if gt_boxes else 0.0


def mask_iou(pred, gt):
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0  # both empty
    return float(np.logical_and(pred, gt).sum()) / float(union)


def miou(pred_masks, gt_masks):
    """Mean over samples of binary mask IoU."""
    if len(pred_masks) != len(gt_masks):
        raise ShapeError(
            f"got {len(pred_masks)} predictions for {len(gt_masks)} ground truths")
    scores = [mask_iou(p, g) for p, g in zip(pred_masks, gt_masks)]
    return float(np.mean(scores)) if scores else 0.0
