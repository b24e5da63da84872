"""End-to-end grounding model: text encoder -> weight generator -> visual
backbone -> box/mask head, with the three component toggles used by the
ablation arms. Its shapes, toggles and seed come from one `TrainConfig`.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeError
from .head import MaskPrediction, MultitaskHead
from .law import build_law_params, generate_all
from .params import ParamStore
from .tensor import Tensor, reshape, take_rows
from .text import TextEncoder, tokenize
from .vit import VisualBackbone

BACKBONE_PREFIXES = ("text.", "vit.")


@dataclass
class Prediction:
    box: Tensor                     # (B, 4) normalized cx, cy, w, h
    mask: object = None             # MaskPrediction or None
    visual: object = None           # the batch's final (B, T, d) tokens
    alphas: object = None           # per expression (N, G, L) array or None
    attention: list = field(default_factory=list)  # per image, per layer (H, T, T)
    pool_attention: object = None   # (B, side, side) array or None


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
        of forward_batch with the batch axis dropped from the box (4,), the
        mask maps, the pooling map, the token attention and the attention
        maps. `visual` keeps the (1, T, d) batch tokens."""
        pred = self.forward_batch([image], [tokens], collect_attention)

        def single(t):
            return reshape(t, t.shape[1:])

        mask = pred.mask and MaskPrediction(
            quarter_logits=single(pred.mask.quarter_logits),
            probs=single(pred.mask.probs))
        pool = pred.pool_attention
        return replace(pred, box=single(pred.box), mask=mask,
                       alphas=pred.alphas[0], attention=pred.attention[0],
                       pool_attention=None if pool is None else pool[0])

    def forward_batch(self, images, token_seqs, collect_attention=False):
        """One Prediction for a batch of (image, expression) pairs.

        The expression half runs once for the batch: the text encoder over
        the packed token sequences, then every expression's generator cores
        and one (B, 3d, d) stack of fused weights per layer. The image half
        runs the backbone once over the B images stacked into one row block,
        each image projected by its own expression's QKV weights (or all by
        the static ones without a weight generator). The head runs once on
        the batch's final tokens against the B expressions' [CLS] rows.
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
        visual, attn = self.backbone.forward(
            images, weights, collect_attention=collect_attention)
        # [CLS] opens each expression's packed rows
        cls_rows = take_rows(feats, np.cumsum([0] + lengths[:-1]))
        box, mask, pool_map = self.head.forward(visual, cls_rows)
        return Prediction(box=box, mask=mask, visual=visual, alphas=alphas,
                          attention=attn or [[] for _ in images],
                          pool_attention=pool_map)

    def parameter_groups(self):
        """(backbone, rest) parameter lists for the two step sizes."""
        backbone, rest = [], []
        for name, p in self.store.items():
            (backbone if name.startswith(BACKBONE_PREFIXES) else rest).append((name, p))
        return backbone, rest
