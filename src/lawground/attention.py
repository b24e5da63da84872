"""The pre-norm transformer block shared by the text encoder and the ViT."""

from .tensor import attention, gelu_linear, layer_norm_linear, linear


def block_params(store, prefix, width, hidden):
    """Register one block's parameters in execution order: ln1, qkv, out,
    ln2, mlp."""
    return {
        "ln1_g": store.ones(prefix + "ln1.gain", (width,)),
        "ln1_b": store.zeros(prefix + "ln1.bias", (width,)),
        "qkv_w": store.gaussian(prefix + "attn.qkv.weight", (3 * width, width)),
        "qkv_b": store.zeros(prefix + "attn.qkv.bias", (3 * width,)),
        "out_w": store.gaussian(prefix + "attn.out.weight", (width, width)),
        "out_b": store.zeros(prefix + "attn.out.bias", (width,)),
        "ln2_g": store.ones(prefix + "ln2.gain", (width,)),
        "ln2_b": store.zeros(prefix + "ln2.bias", (width,)),
        "mlp_w1": store.gaussian(prefix + "mlp.fc1.weight", (hidden, width)),
        "mlp_b1": store.zeros(prefix + "mlp.fc1.bias", (hidden,)),
        "mlp_w2": store.gaussian(prefix + "mlp.fc2.weight", (width, hidden)),
        "mlp_b2": store.zeros(prefix + "mlp.fc2.bias", (width,)),
    }


def transformer_block(x, blk, qkv_w, heads, lengths, collect=False):
    """x + MHA(LN(x)), then x + MLP(LN(x)), over tokens x (T, d).

    qkv_w stacks the query/key/value projections as a (3d, d) matrix applied
    as LN(x) @ qkv_w^T + blk["qkv_b"]; the text encoder passes its own, the
    ViT its static one or the generator's Rebuilt (B, 3d, d) stack, weight b
    for the b-th of B equal row blocks (see tensor.linear). Each LN runs
    fused with the projection after it (tensor.layer_norm_linear), and the
    GELU with fc2 (tensor.gelu_linear), so the tape keeps each activation
    once. `lengths` splits the rows into packed sequences that attend only
    within themselves.
    Returns the block output (T, d) and, if `collect`, one (H, L, L) array
    of attention probabilities per sequence (else None).
    """
    qkv = layer_norm_linear(x, blk["ln1_g"], blk["ln1_b"], qkv_w, blk["qkv_b"])
    ctx, probs = attention(qkv, heads, lengths, collect)
    x = x + linear(ctx, blk["out_w"], blk["out_b"])
    u = layer_norm_linear(x, blk["ln2_g"], blk["ln2_b"], blk["mlp_w1"],
                          blk["mlp_b1"])
    return x + gelu_linear(u, blk["mlp_w2"], blk["mlp_b2"]), probs
