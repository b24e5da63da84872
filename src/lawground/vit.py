"""Patch-based visual transformer whose per-block QKV projections are
supplied externally (generated per expression, or the backbone's own statics).
"""

from dataclasses import dataclass

import numpy as np

from .attention import block_params, transformer_block
from .errors import ShapeError
from .tensor import Tensor, layer_norm, linear, reshape, transpose


def position_code(side, width):
    """Structured init for the learned position table.

    Channels 0/1 carry the patch center coordinates as linear ramps, the
    next channels sinusoids of increasing frequency. Coordinate-valued
    features make spatial comparisons ("left of") bilinear in attention and
    let the box head read location off a pooled feature linearly; a random
    table would force the network to memorize the geometry of every
    position pair.
    """
    index = (np.arange(side) + 0.5) / side - 0.5
    xs = np.tile(index, side)
    ys = np.repeat(index, side)
    code = np.zeros((side * side, width))
    code[:, 0] = xs
    code[:, 1] = ys
    ch = 2
    for k in (1, 2, 3):
        for phase in (np.sin, np.cos):
            for vals in (xs, ys):
                if ch < width:
                    code[:, ch] = 0.25 * phase(2.0 * np.pi * k * vals)
                    ch += 1
    return code


@dataclass
class VisualFeatures:
    tokens: Tensor   # (T, d_model)
    grid: Tensor     # (d_model, H/s, W/s)
    side: int        # H/s == W/s


class VisualBackbone:
    def __init__(self, store, image_size=64, patch=8, d_model=64, blocks=4,
                 heads=4, mlp_ratio=4):
        if image_size % patch:
            raise ShapeError(f"image size {image_size} not divisible by patch {patch}")
        if d_model % heads:
            raise ShapeError(f"heads {heads} do not divide width {d_model}")
        self.image_size = image_size
        self.patch = patch
        self.d_model = d_model
        self.n_blocks = blocks
        self.heads = heads
        self.side = image_size // patch
        self.n_tokens = self.side * self.side

        self.patch_w = store.gaussian("vit.patch.weight", (d_model, 3 * patch * patch))
        self.patch_b = store.zeros("vit.patch.bias", (d_model,))
        self.pos = store.tensor("vit.pos", position_code(self.side, d_model))
        self.blocks = [block_params(store, f"vit.block{i}.", d_model,
                                    mlp_ratio * d_model)
                       for i in range(blocks)]
        self.final_g = store.ones("vit.final_ln.gain", (d_model,))
        self.final_b = store.zeros("vit.final_ln.bias", (d_model,))

    def static_weights(self):
        """The backbone's own fused (3*d_model, d_model) QKV projections."""
        return [blk["qkv_w"] for blk in self.blocks]

    def patch_embed(self, image):
        """(3, H, W) image -> (T, d_model) tokens with learned positions."""
        c, h, w = image.shape
        s = self.patch
        if c != 3 or h != self.image_size or w != self.image_size:
            raise ShapeError(
                f"expected (3, {self.image_size}, {self.image_size}) image, got "
                f"{image.shape}")
        hp = h // s
        patches = reshape(image, (3, hp, s, hp, s))
        patches = transpose(patches, (1, 3, 0, 2, 4))        # (hp, wp, 3, s, s)
        flat = reshape(patches, (self.n_tokens, 3 * s * s))
        return linear(flat, self.patch_w, self.patch_b) + self.pos

    def attention_block(self, x, qkv_w, layer):
        """Block `layer` of the stack with the supplied fused QKV projection."""
        return transformer_block(x, self.blocks[layer], qkv_w, self.heads)

    def forward(self, image, weights, collect_attention=False):
        """Run all blocks; returns VisualFeatures and (optionally) attention maps."""
        if len(weights) != self.n_blocks:
            raise ShapeError(
                f"got weights for {len(weights)} layers, backbone has "
                f"{self.n_blocks} blocks")
        x = self.patch_embed(image)
        attn = []
        for i in range(self.n_blocks):
            x, probs = self.attention_block(x, weights[i], i)
            if collect_attention:
                attn.append(probs)
        x = layer_norm(x, self.final_g, self.final_b)
        grid = transpose(reshape(x, (self.side, self.side, self.d_model)), (2, 0, 1))
        feats = VisualFeatures(tokens=x, grid=grid, side=self.side)
        return (feats, attn) if collect_attention else (feats, None)


def attention_rollout(attn_maps, side, anchor=None):
    """Aggregate per-layer attention into one input-patch saliency grid.

    Each layer's head-averaged attention gets an identity added and rows
    renormalized; the per-layer matrices are multiplied in depth order. The
    anchor row (an output token) is returned, or the mean over all output
    tokens when anchor is None; the grid is scaled by its max into [0, 1].
    """
    if not attn_maps:
        raise ShapeError("attention_rollout needs at least one layer")
    rolled = None
    for probs in attn_maps:
        avg = probs.mean(axis=0)                       # (T, T)
        aug = avg + np.eye(avg.shape[0])
        aug = aug / aug.sum(axis=1, keepdims=True)
        rolled = aug if rolled is None else aug @ rolled
    saliency = rolled.mean(axis=0) if anchor is None else rolled[anchor]
    grid = saliency.reshape(side, side)
    return grid / grid.max()
