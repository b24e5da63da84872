import numpy as np
import pytest

from lawground.errors import DataError
from lawground.params import ParamStore
from lawground.tensor import Tape, Tensor, gelu, layer_norm, linear, take_rows
from lawground.text import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    TextEncoder,
    Vocabulary,
    tokenize,
)
from test_tensor import composed_attention, unpacked_attention

WORDS = ["red", "green", "blue", "circle", "square", "left", "of", "the"]


@pytest.fixture
def vocab():
    return Vocabulary(WORDS)


def test_vocab_reserved_ids(vocab):
    assert vocab.id_of("[PAD]") == PAD_ID == 0
    assert vocab.id_of("[CLS]") == CLS_ID == 1
    assert vocab.id_of("[UNK]") == UNK_ID == 2
    assert vocab.id_of("red") == 3  # first corpus word after reserved ids


def test_vocab_file_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert lines == WORDS  # one token per line, reserved ids not written
    again = Vocabulary.load(path)
    assert again.words == vocab.words


def test_tokenize_basic(vocab):
    seq = tokenize("red circle", vocab, max_len=6)
    assert seq.dtype == np.int64
    assert seq.tolist() == [CLS_ID, vocab.id_of("red"), vocab.id_of("circle")]


def test_tokenize_unknown_word(vocab):
    seq = tokenize("red dragon", vocab, max_len=6)
    assert seq[2] == UNK_ID


def test_tokenize_truncates_keeping_earliest(vocab):
    words = WORDS * 3  # longer than max_len
    seq = tokenize(" ".join(words), vocab, max_len=8)
    assert len(seq) == 8
    assert seq[0] == CLS_ID
    assert [vocab.word_of(i) for i in seq[1:]] == words[:7]


def test_tokenize_length_is_words_plus_cls_capped(vocab):
    for n_words in range(1, 12):
        seq = tokenize(" ".join(["red"] * n_words), vocab, max_len=8)
        assert len(seq) == min(n_words, 7) + 1
        assert PAD_ID not in seq


def test_tokenize_rejects_empty(vocab):
    with pytest.raises(DataError):
        tokenize("   ", vocab)


def test_tokenize_lowercases(vocab):
    a = tokenize("RED Circle", vocab, max_len=6)
    b = tokenize("red circle", vocab, max_len=6)
    assert np.array_equal(a, b)


def build_encoder(vocab, max_len=8, layers=2, width=16, heads=2, seed=0):
    store = ParamStore(seed)
    enc = TextEncoder(store, vocab_size=len(vocab), width=width, layers=layers,
                      heads=heads, max_len=max_len)
    return enc, store


def test_encode_shapes(vocab):
    enc, _ = build_encoder(vocab)
    out = enc.encode([tokenize("red circle", vocab, max_len=8)])
    assert out.shape == (3, 16)  # one row per real token, [CLS] first


def padded_reference(enc, ids):
    """The encoder run the padded way: ids filled with [PAD] up to max_len,
    every pad key pushed out of the softmax by a -1e30 logit bias, and the
    real-token rows read back."""
    n = len(ids)
    padded = np.full(enc.max_len, PAD_ID, dtype=np.int64)
    padded[:n] = ids
    key_bias = np.where(np.arange(enc.max_len) < n, 0.0, -1e30)
    x = take_rows(enc.embed, padded) + enc.pos
    for blk in enc.blocks:
        h = layer_norm(x, blk["ln1_g"], blk["ln1_b"])
        ctx, _ = composed_attention(linear(h, blk["qkv_w"], blk["qkv_b"]),
                                    enc.heads, key_bias)
        x = x + linear(ctx, blk["out_w"], blk["out_b"])
        h = layer_norm(x, blk["ln2_g"], blk["ln2_b"])
        h = gelu(linear(h, blk["mlp_w1"], blk["mlp_b1"]))
        x = x + linear(h, blk["mlp_w2"], blk["mlp_b2"])
    return layer_norm(x, enc.final_g, enc.final_b).data[:n]


def test_encode_matches_padded_reference(vocab):
    enc, store = build_encoder(vocab, max_len=10)
    rng = np.random.default_rng(5)
    for _, p in store.items():  # random gains and biases too, not just weights
        p.data[...] = rng.normal(0.0, 0.5, p.shape)
    for expr in ("red", "red circle", "blue square left of the red circle",
                 " ".join(WORDS + ["green"])):
        ids = tokenize(expr, vocab, max_len=10)
        np.testing.assert_allclose(enc.encode([ids]).data,
                                   padded_reference(enc, ids),
                                   rtol=0, atol=1e-13)


def test_encode_expression_longer_than_max_len(vocab):
    enc, _ = build_encoder(vocab, max_len=8)
    seq = tokenize(" ".join(WORDS * 6), vocab, max_len=8)
    out = enc.encode([seq])
    assert out.shape == (8, 16) and np.isfinite(out.data).all()
    with pytest.raises(DataError, match="exceed max_len"):
        enc.encode([seq, np.ones(9, dtype=np.int64)])


def test_encode_determinism(vocab):
    enc, _ = build_encoder(vocab)
    seq = tokenize("blue square left of the red circle", vocab, max_len=8)
    a = enc.encode([seq]).data
    b = enc.encode([seq]).data
    assert np.array_equal(a, b)


def test_encode_rejects_out_of_range_ids(vocab):
    enc, _ = build_encoder(vocab)
    seq = tokenize("red circle", vocab, max_len=8)
    seq[1] = len(vocab) + 7
    with pytest.raises(DataError):
        enc.encode([seq])


def test_encode_degenerate_config_is_residual_clean(vocab):
    # zeroed residual branches: output is just the normalized embeddings+positions
    enc, store = build_encoder(vocab, layers=1)
    store["text.block0.attn.out.weight"].data[...] = 0.0
    store["text.block0.mlp.fc2.weight"].data[...] = 0.0
    seq = tokenize("red circle", vocab, max_len=8)
    got = enc.encode([seq]).data
    want = layer_norm(take_rows(enc.embed, seq) + enc.pos[:len(seq)],
                      enc.final_g, enc.final_b).data
    np.testing.assert_allclose(got, want, atol=0)


def test_encode_grad_check_small_config(vocab):
    from lawground.tensor import grad_check

    enc, store = build_encoder(vocab, max_len=4, layers=1, width=8, heads=2)
    seq = tokenize("red circle blue", vocab, max_len=4)
    params = [p for _, p in store.items()]

    def loss_fn(*_):
        out = enc.encode([seq])
        return (out * out).mean()

    assert grad_check(loss_fn, params) <= 1e-4


def unpacked_encode(enc, ids):
    """TextEncoder.encode as it was before packing: one sequence, positions
    sliced off the table, kept verbatim for the bit-identity check."""
    x = take_rows(enc.embed, ids) + enc.pos[:len(ids), :]
    for blk in enc.blocks:
        h = layer_norm(x, blk["ln1_g"], blk["ln1_b"])
        ctx, _ = unpacked_attention(linear(h, blk["qkv_w"], blk["qkv_b"]),
                                  enc.heads)
        x = x + linear(ctx, blk["out_w"], blk["out_b"])
        h = layer_norm(x, blk["ln2_g"], blk["ln2_b"])
        h = gelu(linear(h, blk["mlp_w1"], blk["mlp_b1"]))
        x = x + linear(h, blk["mlp_w2"], blk["mlp_b2"])
    return layer_norm(x, enc.final_g, enc.final_b)


EXPRESSIONS = ("red", "red circle", "blue square left of the red circle",
               "green circle", " ".join(WORDS + ["green"]))


def randomized_encoder(vocab, seed):
    enc, store = build_encoder(vocab, max_len=10)
    rng = np.random.default_rng(seed)
    for _, p in store.items():
        p.data[...] = rng.normal(0.0, 0.5, p.shape)
    return enc, store


def features_and_grads(store, fn, upstream):
    for _, p in store.items():
        p.zero_grad()
    with Tape() as tape:
        out = fn()
        loss = (out * Tensor(upstream)).sum()
    tape.backward(loss)
    return out.data, {name: p.grad.copy() for name, p in store.items()}


def test_encode_one_sequence_is_bit_identical_to_unpacked_code(vocab):
    enc, store = randomized_encoder(vocab, 8)
    rng = np.random.default_rng(9)
    for expr in EXPRESSIONS:
        ids = tokenize(expr, vocab, max_len=10)
        upstream = rng.normal(size=(len(ids), 16))
        got = features_and_grads(store, lambda: enc.encode([ids]), upstream)
        want = features_and_grads(store, lambda: unpacked_encode(enc, ids),
                                  upstream)
        assert np.array_equal(got[0], want[0])
        for name in want[1]:
            assert np.array_equal(got[1][name], want[1][name]), name


def test_packed_encode_matches_one_sequence_at_a_time(vocab):
    enc, _ = randomized_encoder(vocab, 10)
    seqs = [tokenize(e, vocab, max_len=10) for e in EXPRESSIONS]
    packed = enc.encode(seqs).data
    assert packed.shape == (sum(len(s) for s in seqs), 16)
    lo = 0
    for ids in seqs:
        alone = enc.encode([ids]).data
        np.testing.assert_allclose(packed[lo:lo + len(ids)], alone, rtol=0,
                                   atol=1e-13)
        lo += len(ids)


def test_encode_rejects_an_empty_batch_or_sequence(vocab):
    enc, _ = build_encoder(vocab)
    with pytest.raises(DataError, match="non-empty"):
        enc.encode([])
    with pytest.raises(DataError, match="non-empty"):
        enc.encode([tokenize("red", vocab), np.zeros(0, dtype=np.int64)])
