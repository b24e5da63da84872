"""Expression tokenizer and the small transformer text encoder.

Tokenization is lowercase whitespace splitting against a fixed vocabulary.
A token sequence is [CLS] followed by the expression's words, truncated to
max_len ids and never padded, so the encoder attends over real tokens only.
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
        if width % heads:
            raise DataError(f"text width {width} not divisible by {heads} heads")
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

    def encode(self, ids):
        """Features (len(ids), width) of a token sequence; row 0 is [CLS],
        the summary of the whole expression."""
        if len(ids) > self.max_len:
            raise DataError(f"{len(ids)} tokens exceed max_len {self.max_len}")
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise DataError(
                f"token id out of range for vocabulary of {self.vocab_size}")
        x = take_rows(self.embed, ids) + self.pos[:len(ids), :]
        for blk in self.blocks:
            x, _ = transformer_block(x, blk, blk["qkv_w"], self.heads)
        return layer_norm(x, self.final_g, self.final_b)
