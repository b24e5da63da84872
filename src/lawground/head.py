"""Box and mask branches reading the final visual tokens and the expression
summary feature, once per batch of B images and their B summary rows.

Box branch: spatial attention pooling conditioned on the summary feature
(or plain averaging when disabled), then a 3-layer MLP with a sigmoid to
normalized center-x/center-y/width/height. Mask branch: stride-2 2x2
transposed-conv upsampling to quarter resolution, a per-pixel dot product
against the summary feature as a weight-free dynamic projection, then
bilinear x4 and a sigmoid. Every branch runs on the (B*T, d) token rows:
an upsampling stage maps each pixel to its four children's rows, and the
last stage is contracted with each summary row before it meets the pixels.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ConfigError
from .tensor import (
    Tensor,
    bilinear_upsample,
    gelu,
    linear,
    reshape,
    sigmoid,
    softmax,
    tmean,
    transpose,
)


@dataclass
class MaskPrediction:
    quarter_logits: Tensor   # (B, H/4, W/4)
    probs: Tensor            # (B, H, W), strictly inside (0, 1)


class MultitaskHead:
    def __init__(self, store, d_model, d_text, pool_dim=32, stride=8,
                 lap_enabled=True, mask_enabled=True):
        self.d_model = d_model
        self.d_text = d_text
        self.lap_enabled = lap_enabled
        self.mask_enabled = mask_enabled
        # fan-in-scaled init: unlike the normalized residual stacks, these
        # projections feed raw similarity logits / an unnormalized MLP, where
        # a tiny constant init collapses signals and gradients
        if lap_enabled:
            # asymmetric pair: a near-zero visual side keeps the initial
            # pooling attention calm (a saturated random softmax stops
            # learning), while the healthy text side keeps the visual side's
            # gradient full-sized
            self.pool_vis = store.gaussian("head.pool.visual.weight",
                                           (pool_dim, d_model), std=0.02)
            self.pool_txt = store.gaussian("head.pool.text.weight",
                                           (pool_dim, d_text),
                                           std=d_text ** -0.5)
        mlp_std = d_model ** -0.5
        self.box_w1 = store.gaussian("head.box.fc1.weight", (d_model, d_model),
                                     std=mlp_std)
        self.box_b1 = store.zeros("head.box.fc1.bias", (d_model,))
        self.box_w2 = store.gaussian("head.box.fc2.weight", (d_model, d_model),
                                     std=mlp_std)
        self.box_b2 = store.zeros("head.box.fc2.bias", (d_model,))
        self.box_w3 = store.gaussian("head.box.fc3.weight", (4, d_model),
                                     std=mlp_std)
        self.box_b3 = store.zeros("head.box.fc3.bias", (4,))
        if mask_enabled:
            self.up_stages = self._build_upsampler(store, stride)

    def _build_upsampler(self, store, stride):
        # factor-2 stages from feature stride down to 4; channels step to the
        # text width on the final stage
        n_stages, s = 0, stride
        while s > 4 and s % 2 == 0:
            s //= 2
            n_stages += 1
        if s != 4:
            raise ConfigError(f"stride {stride} is not reducible to 4 by "
                              f"factor-2 stages")
        if n_stages == 0 and self.d_model != self.d_text:
            raise ConfigError(
                f"stride-4 features feed the mask branch directly and need "
                f"width {self.d_text}, got {self.d_model}")
        stages = []
        for j in range(n_stages):
            c_in = self.d_model
            c_out = self.d_text if j == n_stages - 1 else self.d_model
            # the last stage starts small: its output meets the summary
            # feature in a dot product, and large initial logits saturate the
            # mask sigmoid and freeze those pixels
            std = (4 * c_in) ** -0.5 * (0.1 if j == n_stages - 1 else 1.0)
            stages.append((
                store.gaussian(f"head.up{j}.kernel", (c_in, c_out, 2, 2),
                               std=std),
                store.zeros(f"head.up{j}.bias", (c_out,)),
            ))
        return stages

    def forward(self, tokens, cls_rows):
        """The batch's (B, 4) boxes, its MaskPrediction (None without the
        mask branch) and its (B, side, side) pooling maps (None without LAP)
        from the final (B, T, d_model) tokens and the (B, d_text) summary
        rows."""
        # mask first: recording order fixes the order the tokens' adjoints
        # sum in, and with it the trained weights' last bits
        mask = self.predict_mask(tokens, cls_rows) if self.mask_enabled else None
        pool_map = None
        if self.lap_enabled:
            pooled, pool_map = self.lap_pool(tokens, cls_rows)
        else:
            pooled = tmean(tokens, axis=1)
        return self.predict_box(pooled), mask, pool_map

    def lap_pool(self, tokens, cls_rows):
        """Similarity-weighted spatial pooling of each image's tokens against
        its (B, d_text) summary row; returns pooled (B, C) and the
        (B, side, side) attention grids as an array."""
        n, t, c = tokens.shape
        proj_v = linear(reshape(tokens, (n * t, c)), self.pool_vis)
        proj_t = linear(cls_rows, self.pool_txt)                  # (B, k)
        logits = linear(proj_v, reshape(proj_t, (n, 1, -1)))      # (B*T, 1)
        attn = softmax(reshape(logits, (n, t)), axis=-1)
        pooled = linear(attn, transpose(tokens, (0, 2, 1)))
        return pooled, attn.data.reshape(n, isqrt(t), -1)

    def predict_box(self, pooled):
        """3 affine layers with GeLU between, sigmoid to [0,1]^4: (B, C) ->
        (B, 4)."""
        h = gelu(linear(pooled, self.box_w1, self.box_b1))
        h = gelu(linear(h, self.box_w2, self.box_b2))
        return sigmoid(linear(h, self.box_w3, self.box_b3))

    def predict_mask(self, tokens, cls_rows):
        """The batch's MaskPrediction from its (B, T, d_model) tokens and
        (B, d_text) summary rows."""
        n, t, c = tokens.shape
        side = isqrt(t)
        rows = reshape(tokens, (n * t, c))
        stages = self.up_stages
        for kernel, bias in stages[:-1]:
            # a stride-2 2x2 transposed conv maps each pixel alone: one
            # projection to its four children's channels, then each child
            # on a row of its own
            c_in, c_out = kernel.shape[:2]
            w = reshape(transpose(kernel, (2, 3, 1, 0)), (4 * c_out, c_in))
            rows = gelu(reshape(linear(rows, w), (-1, c_out)) + bias)
        if stages:
            # the last stage and the weight-free dynamic projection
            # reassociated: each summary row contracts the kernel into its
            # image's (4, c_in) kernel and the bias into a scalar shift
            kernel, bias = stages[-1]
            c_in, c_out = kernel.shape[:2]
            k = reshape(transpose(kernel, (2, 3, 0, 1)), (4 * c_in, c_out))
            kernels = reshape(linear(cls_rows, k), (n, 4, c_in))
            shift = linear(cls_rows, reshape(bias, (1, c_out)))
        else:
            # stride-4 tokens: each summary row is its image's kernel
            kernels, shift = reshape(cls_rows, (n, 1, c)), None
        n_up = len(stages)
        grid = reshape(linear(rows, kernels), (n, side, side) + (2, 2) * n_up)
        if shift is not None:
            grid = grid + reshape(shift, (n,) + (1,) * (grid.ndim - 1))
        # every pixel's nested children, stage by stage, into the image grid
        axes = (0, 1, *range(3, grid.ndim, 2), 2, *range(4, grid.ndim, 2))
        logits = reshape(transpose(grid, axes),
                         (n, side << n_up, side << n_up))
        probs = sigmoid(bilinear_upsample(logits, 4))
        return MaskPrediction(quarter_logits=logits, probs=probs)


def binarize(probs, threshold):
    """Pixel is foreground iff probability >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"binarization threshold must be in (0, 1), got {threshold}")
    data = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    return data >= threshold
