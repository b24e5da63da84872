"""Patch-based visual transformer whose per-block QKV projections are
supplied externally (generated per expression, or the backbone's own statics).

A batch of images runs as one row block: image b's tokens are rows b*T to
(b+1)*T of every layer's input, the shared layers see all rows at once, and
attention stays inside each image.
"""

import numpy as np

from .attention import block_params, transformer_block
from .errors import ShapeError
from .tensor import Tensor, _record, as_tensor, layer_norm, linear, reshape


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


class VisualBackbone:
    def __init__(self, store, image_size=64, patch=8, d_model=64, blocks=4,
                 heads=4, mlp_ratio=4):
        if image_size % patch:
            raise ShapeError(f"image size {image_size} not divisible by patch {patch}")
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

    def patch_embed(self, images):
        """A batch of (3, H, W) images -> one (B*T, d_model) row block of
        patch tokens with learned positions, image b in rows b*T to (b+1)*T."""
        for image in images:
            if image.shape != (3, self.image_size, self.image_size):
                raise ShapeError(
                    f"expected (3, {self.image_size}, {self.image_size}) "
                    f"image, got {image.shape}")
        n, t = len(images), self.n_tokens
        x = linear(patch_rows(images, self.patch), self.patch_w, self.patch_b)
        x = reshape(x, (n, t, self.d_model)) + self.pos
        return reshape(x, (n * t, self.d_model))

    def attention_block(self, x, qkv_w, layer, lengths=None):
        """Block `layer` of the stack over the row block x with the supplied
        fused QKV projection: one (3d, d) matrix for all rows, or the
        generator's Rebuilt (B, 3d, d) stack, whose weight b projects the
        b-th of B equal row blocks.
        `lengths` splits the rows into images that attend only within
        themselves (default: one image). Returns the block output and one
        (H, T, T) array of attention probabilities per image."""
        return transformer_block(x, self.blocks[layer], qkv_w, self.heads,
                                 lengths)

    def forward(self, images, weights, collect_attention=False):
        """Run all blocks once over a batch of images stacked into one row
        block. weights holds per layer one (3d, d) projection shared by
        every image or a Rebuilt (B, 3d, d) stack, one per image. Returns the
        batch's final (B, T, d_model) tokens and, when collected, per image
        its list of per-layer (H, T, T) attention maps (else None)."""
        if len(weights) != self.n_blocks:
            raise ShapeError(
                f"got weights for {len(weights)} layers, backbone has "
                f"{self.n_blocks} blocks")
        n, t = len(images), self.n_tokens
        for w in weights:
            if w.ndim == 3 and w.shape[0] != n:
                raise ShapeError(f"{w.shape[0]} weights for {n} images")
        lengths = [t] * n
        x = self.patch_embed(images)
        attn = []
        for i in range(self.n_blocks):
            x, probs = self.attention_block(x, weights[i], i, lengths)
            if collect_attention:
                attn.append(probs)
        x = layer_norm(x, self.final_g, self.final_b)
        return reshape(x, (n, t, self.d_model)), (
            [list(maps) for maps in zip(*attn)] if collect_attention else None)


def patch_rows(images, s):
    """The (B*T, 3*s*s) rows of every non-overlapping s x s patch of B
    (3, H, W) images, image by image and row-major over patches, each row
    channel-major. One op with the images as parents; images that need no
    gradient leave it unrecorded."""
    images = [as_tensor(image) for image in images]
    n, (c, h, w) = len(images), images[0].shape
    hp, wp = h // s, w // s
    stacked = np.stack([image.data for image in images])
    rows = stacked.reshape(n, c, hp, s, wp, s).transpose(
        0, 2, 4, 1, 3, 5).reshape(n * hp * wp, c * s * s)
    out = Tensor(rows)
    if not any(image.requires_grad or image._tape is not None
               for image in images):
        return out

    def backfn(g):
        return tuple(g.reshape(n, hp, wp, c, s, s).transpose(
            0, 3, 1, 4, 2, 5).reshape(n, c, h, w))

    return _record(out, tuple(images), backfn)


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
