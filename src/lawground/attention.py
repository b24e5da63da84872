"""Multi-head scaled dot-product attention shared by both transformer stacks."""

from .tensor import attention, linear


def multihead_attention(x, fused_w, fused_b, out_w, out_b, heads):
    """Self-attention over tokens x (T, d).

    fused_w stacks the query/key/value projections as a (3d, d_in) matrix
    applied as x @ fused_w^T. Returns the block output (T, d) and the
    per-head attention probabilities (H, T, T).
    """
    ctx, probs = attention(linear(x, fused_w, fused_b), heads)
    return linear(ctx, out_w, out_b), probs
