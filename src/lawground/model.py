"""End-to-end grounding model: text encoder -> weight generator -> visual
backbone -> box/mask head, with the three component toggles used by the
ablation arms. Its shapes, toggles and seed come from one `TrainConfig`.
"""

from dataclasses import dataclass, field

import numpy as np

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
        """Full forward pass for one (image, expression) pair; without a
        weight generator the backbone runs on its own static projections."""
        feats = self.text.encode(tokens)
        alphas = None
        if self.law is not None:
            weights, alphas = generate_all(feats, self.law)
        else:
            weights = self.backbone.static_weights()
        visual, attn = self.backbone.forward(image, weights,
                                             collect_attention=collect_attention)
        cls_feat = feats[0]
        pool_map = None
        if self.head.lap_enabled:
            pooled, pool_map = self.head.lap_pool(visual, cls_feat)
        else:
            pooled = self.head.average_pool(visual)
        box = self.head.predict_box(pooled)
        mask = self.head.predict_mask(visual, cls_feat) if self.head.mask_enabled else None
        return Prediction(box=box, mask=mask, visual=visual, alphas=alphas,
                          attention=attn or [], pool_attention=pool_map)

    def parameter_groups(self):
        """(backbone, rest) parameter lists for the two step sizes."""
        backbone, rest = [], []
        for name, p in self.store.items():
            (backbone if name.startswith(BACKBONE_PREFIXES) else rest).append((name, p))
        return backbone, rest
