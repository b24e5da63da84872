"""Expression-conditioned weight generation for the visual backbone.

Per visual layer, a learnable embedding attends over the token features in
G groups, the aggregate is reduced to a short vector, and that vector drives
a low-rank additive update of the layer's fused query/key/value projection:

    fused_i = static_i + out_factor @ core_i(reduced_i) @ in_factor^T

core_i is a per-layer affine map producing a small square matrix, so the
dynamic update has rank at most its side length. out_factor/in_factor are
shared by every layer (one storage, gradients accumulate across layers).
core_i starts at exactly zero: a freshly built model is bit-identical to a
static backbone.
"""

from dataclasses import dataclass

from .errors import DataError, ShapeError
from .tensor import (
    Tensor,
    gelu,
    matmul,
    matvec,
    reshape,
    softmax,
    transpose,
    tsum,
)


@dataclass
class GeneratedLayerWeights:
    """Fused (3*d_model, d_in) projection and its bias for one visual layer.

    Rows stack the query, key and value projections in that order;
    regenerated per expression, never cached across expressions.
    """

    fused: Tensor
    bias: Tensor


@dataclass
class DecompositionParams:
    """All weight-generation state for every visual layer."""

    layer_embeds: list        # per layer: (d_l,)
    reducers: list            # per layer: (d_h, d_l)
    core_weights: list        # per layer: (d_w*d_w, d_h), zero-initialized
    core_biases: list         # per layer: (d_w*d_w,), zero-initialized
    out_factor: Tensor        # (d_out, d_w), shared
    in_factor: Tensor         # (d_in, d_w), shared
    static_fused: list        # per layer: (d_out, d_in), owned by the backbone
    static_bias: list         # per layer: (d_out,), owned by the backbone
    groups: int
    rank_dw: int

    @property
    def n_layers(self):
        return len(self.layer_embeds)


def build_law_params(store, backbone, d_l, groups, reduction, rank_dw):
    """Register generator parameters and wire them to the backbone's statics."""
    if d_l % groups:
        raise DataError(f"groups {groups} must divide text width {d_l}")
    if d_l % reduction:
        raise DataError(f"reduction ratio {reduction} must divide text width {d_l}")
    d_h = d_l // reduction
    embeds, reducers, core_ws, core_bs = [], [], [], []
    for i in range(backbone.n_blocks):
        p = f"law.layer{i}."
        embeds.append(store.gaussian(p + "embed", (d_l,)))
        # fan-in scale keeps the reduced vector O(1); a tiny reducer starves
        # the core maps of expression signal
        reducers.append(store.gaussian(p + "reduce.weight", (d_h, d_l),
                                       std=d_l ** -0.5))
        core_ws.append(store.zeros(p + "core.weight", (rank_dw * rank_dw, d_h)))
        core_bs.append(store.zeros(p + "core.bias", (rank_dw * rank_dw,)))
    out_factor = store.gaussian("law.out_factor", (3 * backbone.d_model, rank_dw))
    in_factor = store.gaussian("law.in_factor", (backbone.d_model, rank_dw))
    return DecompositionParams(
        layer_embeds=embeds, reducers=reducers,
        core_weights=core_ws, core_biases=core_bs,
        out_factor=out_factor, in_factor=in_factor,
        static_fused=backbone.qkv_weights, static_bias=backbone.qkv_biases,
        groups=groups, rank_dw=rank_dw)


def aggregate(feats, layer_embed, groups):
    """Group-wise token attention and weighted sum for one visual layer.

    Returns the aggregated feature (d_l,) and the attention (G, L).
    """
    n_tok, d_l = feats.shape
    if d_l % groups:
        raise ShapeError(f"groups {groups} must divide feature width {d_l}")
    gsize = d_l // groups
    grouped = transpose(reshape(feats, (n_tok, groups, gsize)), (1, 0, 2))  # (G,L,gs)
    emb = reshape(layer_embed, (groups, 1, gsize))
    logits = tsum(grouped * emb, axis=2)                                   # (G,L)
    alpha = softmax(logits, axis=1)
    pooled = tsum(reshape(alpha, (groups, n_tok, 1)) * grouped, axis=1)    # (G,gs)
    return reshape(pooled, (d_l,)), alpha


def reduce(aggregated, reducer):
    """Bias-free linear reduction with GeLU: (d_h, d_l) @ (d_l,) -> (d_h,)."""
    return gelu(matvec(reducer, aggregated))


def generate_weights(reduced, params, layer):
    """Compose one layer's fused projection: static + low-rank dynamic update.

    The core map's flat output reshapes to (d_w, d_w) row-major. The bias is
    the layer's static one (the dynamic path only generates the matrix).
    """
    d_w = params.rank_dw
    core_flat = matvec(params.core_weights[layer], reduced) + params.core_biases[layer]
    core = reshape(core_flat, (d_w, d_w))
    delta = matmul(matmul(params.out_factor, core), transpose(params.in_factor))
    if delta.shape != params.static_fused[layer].shape:
        raise ShapeError(
            f"decomposition produced {delta.shape}, static weights are "
            f"{params.static_fused[layer].shape}")
    return GeneratedLayerWeights(
        fused=params.static_fused[layer] + delta,
        bias=params.static_bias[layer])


def generate_all(feats, params):
    """Weights for every visual layer plus the per-layer token attentions."""
    weights, alphas = [], []
    for i in range(params.n_layers):
        pooled, alpha = aggregate(feats, params.layer_embeds[i], params.groups)
        reduced = reduce(pooled, params.reducers[i])
        weights.append(generate_weights(reduced, params, i))
        alphas.append(alpha)
    return weights, alphas

