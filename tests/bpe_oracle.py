"""The pure-Python BPE that `tokenizer.train_vocab`/`tokenize_batch` replaced, kept as a test oracle.

`train_vocab` recounts every adjacent pair of every sequence on every merge
and `tokenize` rescans the whole sequence for the lowest-rank pair after
each merge, both over Python lists of ids. The merge rule, tie-break and
`Vocabulary` are the production ones, so a difference in output can only
come from the vectorised engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from fixhound.tokenizer import BYTE_BASE, MIN_VOCAB, Vocabulary
from model_helpers import token_bytes


def _byte_ids(text: str) -> list[int]:
    return [BYTE_BASE + b for b in text.encode("utf-8")]


def _merge_sequence(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    out: list[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def train_vocab(corpus: Iterable[str], vocab_size: int) -> Vocabulary:
    sequences = [_byte_ids(text) for text in corpus]
    vocab = Vocabulary()
    while vocab.size < vocab_size:
        counts: Counter[tuple[int, int]] = Counter()
        for seq in sequences:
            for a, b in zip(seq, seq[1:]):
                counts[(a, b)] += 1
        if not counts:
            break
        top = max(counts.values())
        table = token_bytes(vocab)
        best = min(
            (p for p, c in counts.items() if c == top),
            key=lambda p: (table[p[0]], table[p[1]]),
        )
        new_id = vocab.size
        sequences = [_merge_sequence(s, best, new_id) for s in sequences]
        vocab = Vocabulary(merges=vocab.merges + [best])
    return vocab


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    ranks = {pair: rank for rank, pair in enumerate(vocab.merges)}
    seq = _byte_ids(text)
    while len(seq) > 1:
        best_rank = None
        best_pair = None
        for a, b in zip(seq, seq[1:]):
            rank = ranks.get((a, b))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = (a, b)
        if best_pair is None:
            break
        seq = _merge_sequence(seq, best_pair, MIN_VOCAB + best_rank)
    return seq
