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

import numpy as np

from .errors import ShapeError
from .tensor import (Rebuilt, Tensor, _record, _softmax_, as_tensor,
                     gelu_cdf, gelu_slope, segment_bounds)


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
    groups: int
    rank_dw: int

    @property
    def n_layers(self):
        return len(self.layer_embeds)


def build_law_params(store, backbone, d_l, groups, reduction, rank_dw):
    """Register generator parameters and wire them to the backbone's statics."""
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
        static_fused=backbone.static_weights(),
        groups=groups, rank_dw=rank_dw)


def layer_cores(feats, params, lengths):
    """Every layer's core matrix for a batch of packed expressions, as one op.

    feats holds the (sum of lengths, d_l) token features of the expressions
    stacked in order; `lengths` gives each expression's token count. Per
    expression and layer n: a group-wise softmax over the expression's
    tokens of embed_n . feats (G groups of d_l/G channels) and the
    attention-weighted sum of its tokens; then, vectorised over expressions
    and layers, the bias-free reducer with GeLU and the core affine map
    reshaped row-major. Returns the (B, N, d_w, d_w) cores, taped with
    feats and every embedding, reducer and core map as parents, and one
    (N, G, L) token attention array per expression.
    """
    feats = as_tensor(feats)
    n_tok, d_l = feats.shape
    groups, n_layers, d_w = params.groups, params.n_layers, params.rank_dw
    if d_l % groups:
        raise ShapeError(f"groups {groups} must divide feature width {d_l}")
    spans = segment_bounds(lengths, n_tok)
    n_seq, gsize = len(spans), d_l // groups
    embeds = np.stack([e.data for e in params.layer_embeds])
    reducers = np.stack([r.data for r in params.reducers])
    core_ws = np.stack([w.data for w in params.core_weights])
    core_bs = np.stack([b.data for b in params.core_biases])
    grouped = feats.data.reshape(n_tok, groups, gsize)
    emb = embeds.reshape(n_layers, groups, gsize)
    alphas = []
    pooled = np.empty((n_seq, n_layers, d_l))
    for b, (lo, hi) in enumerate(spans):
        seg = grouped[lo:hi]
        alpha = _softmax_(np.einsum("lgk,ngk->ngl", seg, emb))     # (N,G,L)
        pooled[b] = np.einsum("ngl,lgk->ngk", alpha, seg).reshape(n_layers,
                                                                  d_l)
        alphas.append(alpha)
    pre = np.einsum("nhd,bnd->bnh", reducers, pooled)
    cdf = gelu_cdf(pre)
    reduced = pre * cdf
    cores = np.einsum("nch,bnh->bnc", core_ws, reduced) + core_bs
    out = Tensor(cores.reshape(n_seq, n_layers, d_w, d_w))

    def backfn(g):
        g_flat = g.reshape(n_seq, n_layers, d_w * d_w)
        g_cw = np.einsum("bnc,bnh->nch", g_flat, reduced)
        g_pre = (np.einsum("nch,bnc->bnh", core_ws, g_flat)
                 * gelu_slope(pre, cdf))
        g_red = np.einsum("bnh,bnd->nhd", g_pre, pooled)
        g_pool = np.einsum("nhd,bnh->bnd", reducers, g_pre).reshape(
            n_seq, n_layers, groups, gsize)
        g_logit = np.empty((n_layers, groups, n_tok))
        g_feats = np.empty((n_tok, groups, gsize))
        for b, (lo, hi) in enumerate(spans):
            seg, alpha = grouped[lo:hi], alphas[b]
            g_alpha = np.einsum("ngk,lgk->ngl", g_pool[b], seg)
            g_logit[:, :, lo:hi] = alpha * (
                g_alpha - np.sum(g_alpha * alpha, axis=-1, keepdims=True))
            g_feats[lo:hi] = np.einsum("ngl,ngk->lgk", alpha, g_pool[b])
        g_emb = np.einsum("ngl,lgk->ngk", g_logit, grouped)
        g_feats += np.einsum("ngl,ngk->lgk", g_logit, emb)
        return (g_feats.reshape(n_tok, d_l), *g_emb.reshape(n_layers, d_l),
                *g_red, *g_cw, *g_flat.sum(axis=0))

    parents = (feats, *params.layer_embeds, *params.reducers,
               *params.core_weights, *params.core_biases)
    return _record(out, parents, backfn), alphas


def fused_weights(params, cores, layer):
    """Every expression's fused projection for one layer, static +
    out_factor @ core_b @ in_factor^T, as a Rebuilt (B, d_out, d_in) stack
    with the static weights, both factors and the (B, N, d_w, d_w) cores as
    parents. Nothing keeps the stack: the projection that reads it rebuilds
    it from left = out_factor @ core_b in its forward and its backward, and
    the stack's backward is part of that projection's record. Forward and
    backward each stack the batch into a few GEMMs."""
    static, out_f, in_f = (params.static_fused[layer], params.out_factor,
                           params.in_factor)
    core = cores.data[:, layer]                              # (B, d_w, d_w)
    static_d, out_fd, in_fd = static.data, out_f.data, in_f.data
    cores_shape = cores.shape
    n, d_w = core.shape[0], core.shape[1]
    d_out, d_in = out_fd.shape[0], in_fd.shape[0]
    if (d_out, d_in) != static.shape:
        raise ShapeError(
            f"decomposition produces {(d_out, d_in)}, static weights are "
            f"{static.shape}")
    left = (out_fd @ core).reshape(n * d_out, d_w)           # out_f @ core_b

    def build():
        return static_d + (left @ in_fd.T).reshape(n, d_out, d_in)

    def backfn(g):
        g_rows = g.reshape(n * d_out, d_in)
        # column block b of g_cols is g_b @ in_factor, the adjoint of left_b
        g_cols = (g_rows @ in_fd).reshape(n, d_out, d_w).transpose(
            1, 0, 2).reshape(d_out, n * d_w)
        g_cores = np.zeros(cores_shape)
        g_cores[:, layer] = (out_fd.T @ g_cols).reshape(
            d_w, n, d_w).transpose(1, 0, 2)
        g_out = g_cols @ core.transpose(0, 2, 1).reshape(n * d_w, d_w)
        return (g.sum(axis=0), g_out, g_cores, g_rows.T @ left)

    return Rebuilt((n, d_out, d_in), (static, out_f, cores, in_f), build,
                   backfn)


def generate_all(feats, params, lengths):
    """Every visual layer's fused projections for the packed expressions
    (see layer_cores): one Rebuilt (B, d_out, d_in) stack per layer, row b
    for expression b, plus the per-expression (N, G, L) token attention
    arrays. Records one tape entry; each stack's backward is recorded by the
    projection that reads it."""
    cores, alphas = layer_cores(feats, params, lengths)
    return ([fused_weights(params, cores, i) for i in range(params.n_layers)],
            alphas)
