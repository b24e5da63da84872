"""Box and mask branches reading the visual features and the expression
summary feature, once per batch of B images and their B summary rows.

Box branch: spatial attention pooling conditioned on the summary feature
(or plain averaging when disabled), then a 3-layer MLP with a sigmoid to
normalized center-x/center-y/width/height. Mask branch: transposed-conv
upsampling to quarter resolution, a per-pixel dot product against the
summary feature as a weight-free dynamic projection, then bilinear x4 and
a sigmoid.
"""

from dataclasses import dataclass

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
    transpose,
    transposed_conv2x,
    tsum,
)


@dataclass
class MaskPrediction:
    quarter_logits: Tensor   # (B, H/4, W/4)
    probs: Tensor            # (B, H, W), strictly inside (0, 1)


class MultitaskHead:
    def __init__(self, store, d_model, d_text, pool_dim=32, stride=8,
                 lap_enabled=True, mask_enabled=True):
        if pool_dim < 1:
            raise ConfigError(f"pooling space dimension must be >= 1, got {pool_dim}")
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
        while s > 4:
            if s % 2:
                raise ConfigError(f"stride {stride} is not reducible to 4 by "
                                  f"factor-2 stages")
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

    def lap_pool(self, visual, cls_rows):
        """Similarity-weighted spatial pooling of each image's tokens against
        its (B, d_text) summary row; returns pooled (B, C) and the
        (B, side, side) attention grids as an array."""
        n, t, c = visual.tokens.shape
        proj_v = linear(reshape(visual.tokens, (n * t, c)), self.pool_vis)
        proj_t = linear(cls_rows, self.pool_txt)                  # (B, k)
        logits = linear(proj_v, reshape(proj_t, (n, 1, -1)))      # (B*T, 1)
        attn = softmax(reshape(logits, (n, t)), axis=-1)
        pooled = linear(attn, transpose(visual.tokens, (0, 2, 1)))
        return pooled, attn.data.reshape(n, visual.side, visual.side)

    def average_pool(self, visual):
        return visual.tokens.mean(axis=1)

    def predict_box(self, pooled):
        """3 affine layers with GeLU between, sigmoid to [0,1]^4: (B, C) ->
        (B, 4)."""
        h = gelu(linear(pooled, self.box_w1, self.box_b1))
        h = gelu(linear(h, self.box_w2, self.box_b2))
        return sigmoid(linear(h, self.box_w3, self.box_b3))

    def predict_mask(self, visual, cls_rows):
        n = cls_rows.shape[0]
        feat = visual.grid                  # images stacked along the height
        for j, (kernel, bias) in enumerate(self.up_stages):
            feat = transposed_conv2x(feat, kernel, bias)
            if j < len(self.up_stages) - 1:
                feat = gelu(feat)
        c, h, w = feat.shape
        # weight-free dynamic projection: each summary row is its image's
        # kernel
        kernels = reshape(transpose(cls_rows), (c, n, 1, 1))
        logits = tsum(kernels * reshape(feat, (c, n, h // n, w)), axis=0)
        probs = sigmoid(bilinear_upsample(logits, 4))
        return MaskPrediction(quarter_logits=logits, probs=probs)


def binarize(probs, threshold):
    """Pixel is foreground iff probability >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"binarization threshold must be in (0, 1), got {threshold}")
    data = probs.data if isinstance(probs, Tensor) else np.asarray(probs)
    return data >= threshold
