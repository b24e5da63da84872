"""End-to-end grounding model: text encoder -> weight generator -> visual
backbone -> box/mask head, with the three component toggles used by the
ablation arms. Its shapes, toggles and seed come from one `TrainConfig`.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .head import MultitaskHead
from .law import build_law_params, generate_all
from .params import ParamStore
from .tensor import Tensor
from .text import TextEncoder, tokenize
from .vit import VisualBackbone

BACKBONE_PREFIXES = ("text.", "vit.")


@dataclass
class Prediction:
    box: Tensor                     # (4,) normalized cx, cy, w, h
    mask: object = None             # MaskPrediction or None
    visual: object = None           # VisualFeatures
    alphas: object = None           # (N, G, L) token attention or None
    attention: list = field(default_factory=list)  # per-layer (H, T, T) probs
    pool_attention: object = None   # (side, side) array or None


class GroundingModel:
    def __init__(self, config, vocab):
        self.config = config
        self.vocab = vocab
        self.store = ParamStore(config.seed)
        self.text = TextEncoder(
            self.store, vocab_size=len(vocab), width=config.text_width,
            layers=config.text_layers, heads=config.text_heads,
            max_len=config.max_len)
        self.backbone = VisualBackbone(
            self.store, image_size=config.image_size, patch=config.patch,
            d_model=config.d_model, blocks=config.blocks, heads=config.heads,
            mlp_ratio=config.mlp_ratio)
        self.law = None
        if config.lawg_enabled:
            self.law = build_law_params(
                self.store, self.backbone, d_l=config.text_width,
                groups=config.groups, reduction=config.reduction_r,
                rank_dw=config.rank_dw)
        self.head = MultitaskHead(
            self.store, d_model=config.d_model, d_text=config.text_width,
            pool_dim=config.pool_dim, stride=config.patch,
            lap_enabled=config.lap_enabled, mask_enabled=config.mth_enabled)

    def tokenize(self, expression):
        return tokenize(expression, self.vocab, self.config.max_len)

    def image_tensor(self, rgb_uint8):
        """(H, W, 3) uint8 -> (3, H, W) float tensor in [0, 1]."""
        arr = np.transpose(rgb_uint8.astype(np.float64) / 255.0, (2, 0, 1))
        return Tensor(arr)

    def forward(self, image, tokens, collect_attention=False):
        """Full forward pass for one (image, expression) pair: the B=1 case
        of forward_batch."""
        return self.forward_batch([image], [tokens], collect_attention)[0]

    def forward_batch(self, images, token_seqs, collect_attention=False):
        """One Prediction per (image, expression) pair.

        The expression half runs once for the batch: the text encoder over
        the packed token sequences, then every expression's generator cores
        and one (B, 3d, d) stack of fused weights per layer. The image half
        runs the backbone once over the B images stacked into one row block,
        each image projected by its own expression's QKV weights (or all by
        the static ones without a weight generator). The head runs per pair
        on its image's rows of the final features.
        """
        if len(images) != len(token_seqs):
            raise ShapeError(f"{len(images)} images for {len(token_seqs)} "
                             f"token sequences")
        lengths = [len(t) for t in token_seqs]
        feats = self.text.encode(token_seqs)
        if self.law is not None:
            weights, alphas = generate_all(feats, self.law, lengths)
        else:
            weights = self.backbone.static_weights()
            alphas = [None] * len(lengths)
        visuals, attn = self.backbone.forward(
            images, weights, collect_attention=collect_attention)
        attn = attn or [[] for _ in images]
        preds, start = [], 0
        for visual, maps, alpha, n in zip(visuals, attn, alphas, lengths):
            cls_feat = feats[start]
            start += n
            pool_map = None
            if self.head.lap_enabled:
                pooled, pool_map = self.head.lap_pool(visual, cls_feat)
            else:
                pooled = self.head.average_pool(visual)
            box = self.head.predict_box(pooled)
            mask = (self.head.predict_mask(visual, cls_feat)
                    if self.head.mask_enabled else None)
            preds.append(Prediction(box=box, mask=mask, visual=visual,
                                    alphas=alpha, attention=maps,
                                    pool_attention=pool_map))
        return preds

    def parameter_groups(self):
        """(backbone, rest) parameter lists for the two step sizes."""
        backbone, rest = [], []
        for name, p in self.store.items():
            (backbone if name.startswith(BACKBONE_PREFIXES) else rest).append((name, p))
        return backbone, rest
