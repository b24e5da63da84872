"""Expression tokenizer and the small transformer text encoder.

Tokenization is lowercase whitespace splitting against a fixed vocabulary.
A token sequence is [CLS] followed by the expression's words, truncated to
max_len ids and never padded, so the encoder attends over real tokens only.
A batch's sequences are encoded together, packed into one row block.
"""

import numpy as np

from .attention import block_params, transformer_block
from .errors import DataError
from .tensor import layer_norm, take_rows

PAD_ID, CLS_ID, UNK_ID = 0, 1, 2
RESERVED = ("[PAD]", "[CLS]", "[UNK]")


class Vocabulary:
    """Word -> id map with fixed reserved ids 0=[PAD], 1=[CLS], 2=[UNK]."""

    def __init__(self, words):
        self.words = list(RESERVED) + list(words)
        if len(set(self.words)) != len(self.words):
            raise DataError("vocabulary contains duplicate tokens")
        self._ids = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    def id_of(self, word):
        return self._ids.get(word, UNK_ID)

    def word_of(self, idx):
        return self.words[idx]

    def save(self, path):
        # one token per line; line number == id - len(RESERVED)
        with open(path, "w", encoding="utf-8") as fh:
            for w in self.words[len(RESERVED):]:
                fh.write(w + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            words = [line.rstrip("\n") for line in fh if line.strip()]
        return cls(words)


def tokenize(expression, vocab, max_len=40):
    """int64 ids: [CLS], then the first max_len - 1 words."""
    words = expression.strip().lower().split()
    if not words:
        raise DataError("empty expression")
    return np.array([CLS_ID] + [vocab.id_of(w) for w in words[:max_len - 1]],
                    dtype=np.int64)


class TextEncoder:
    """Pre-norm transformer encoder producing per-token features."""

    def __init__(self, store, vocab_size, width=64, layers=2, heads=4, max_len=40):
        self.vocab_size = vocab_size
        self.width = width
        self.heads = heads
        self.max_len = max_len
        self.embed = store.gaussian("text.embed", (vocab_size, width))
        self.pos = store.gaussian("text.pos", (max_len, width))
        self.blocks = [block_params(store, f"text.block{i}.", width, 4 * width)
                       for i in range(layers)]
        self.final_g = store.ones("text.final_ln.gain", (width,))
        self.final_b = store.zeros("text.final_ln.bias", (width,))

    def encode(self, id_seqs):
        """Features of a batch of token sequences, packed: one (sum of
        lengths, width) row block with sequence b's rows right after
        sequence b-1's, no padding and no mask. Attention stays inside each
        sequence, so a sequence's rows depend on its own tokens only; its
        first row is [CLS], the summary of the whole expression."""
        lengths = [len(ids) for ids in id_seqs]
        if not lengths or min(lengths) < 1:
            raise DataError("encode needs one or more non-empty token sequences")
        if max(lengths) > self.max_len:
            raise DataError(
                f"{max(lengths)} tokens exceed max_len {self.max_len}")
        ids = np.concatenate(id_seqs)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise DataError(
                f"token id out of range for vocabulary of {self.vocab_size}")
        positions = np.concatenate([np.arange(n) for n in lengths])
        x = take_rows(self.embed, ids) + take_rows(self.pos, positions)
        for blk in self.blocks:
            x, _ = transformer_block(x, blk, blk["qkv_w"], self.heads, lengths)
        return layer_norm(x, self.final_g, self.final_b)
