"""Byte-level BPE vocabulary and fixed-length encoding.

Ids 0..4 are the special tokens, 5..260 the raw bytes, and everything
above comes from merges learned on the training corpus (most frequent
adjacent pair first, ties broken by lexicographically smaller pair of
token byte strings). Training and tokenization run on one numpy array
holding every text of a call, with a separator after each text that no
merge crosses. Encoding wraps content ids in BOS/EOS and pads to a fixed
length; overlong content is truncated head-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

PAD, BOS, EOS, SEP, UNK = 0, 1, 2, 3, 4
NUM_SPECIALS = 5
BYTE_BASE = NUM_SPECIALS  # byte b maps to id BYTE_BASE + b
MIN_VOCAB = NUM_SPECIALS + 256

# How `decode` renders the SEP token; texts are never split at it.
SEP_MARKER = " ⟨SEP⟩ "


@dataclass
class Vocabulary:
    merges: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self._token_bytes: dict[int, bytes] = {BYTE_BASE + b: bytes([b]) for b in range(256)}
        for rank, (left, right) in enumerate(self.merges):
            self._token_bytes[MIN_VOCAB + rank] = self._token_bytes[left] + self._token_bytes[right]

    @property
    def size(self) -> int:
        return MIN_VOCAB + len(self.merges)

    def token_bytes(self, token_id: int) -> bytes:
        return self._token_bytes[token_id]

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        """Rebuild a vocabulary from d["merges"], rejecting any merge that is not two earlier token ids."""
        merges = d.get("merges")
        if not isinstance(merges, list):
            raise ValueError("vocabulary has no merge list")
        for rank, pair in enumerate(merges):
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(type(i) is int and BYTE_BASE <= i < MIN_VOCAB + rank for i in pair)
            ):
                raise ValueError(
                    f"vocabulary merge {rank} is {pair!r}, not two token ids in [{BYTE_BASE}, {MIN_VOCAB + rank})"
                )
        return cls(merges=[(l, r) for l, r in merges])


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple[int, ...]
    attention_length: int
    truncated: bool


def _flat_ids(texts: list[str]) -> np.ndarray:
    """UTF-8 byte ids of all texts in one array, each text followed by a -1 separator.

    0xFF never occurs in UTF-8, so it can mark the text ends in the joined bytes.
    """
    raw = np.frombuffer(b"".join(t.encode("utf-8") + b"\xff" for t in texts), dtype=np.uint8)
    ids = raw.astype(np.int32) + BYTE_BASE
    ids[raw == 0xFF] = -1
    return ids


def _merge(ids: np.ndarray, a: int, b: int, new_id: int) -> np.ndarray:
    """Replace each (a, b) by new_id, left to right and without overlap.

    A separator never equals a token id, so no pair across two texts
    matches. When a == b, a run such as `aaaaa` gives hits at consecutive
    offsets; the left-to-right rule keeps every other hit of each run, so
    it becomes [aa, aa, a]. Overwrites `ids` in place.
    """
    hits = np.flatnonzero((ids[:-1] == a) & (ids[1:] == b))
    if hits.size == 0:
        return ids
    if a == b:
        idx = np.arange(hits.size)
        run_start = np.maximum.accumulate(np.where(np.diff(hits, prepend=-2) != 1, idx, 0))
        hits = hits[(idx - run_start) % 2 == 0]
    keep = np.ones(ids.size, dtype=bool)
    keep[hits + 1] = False
    ids[hits] = new_id
    return ids[keep]


def train_vocab(corpus: Iterable[str], vocab_size: int) -> Vocabulary:
    """Learn byte-pair merges on the corpus until the vocabulary is full.

    Each step counts every adjacent pair of the whole corpus that does not
    touch a text separator, takes the most frequent one (ties broken by the
    smaller pair of token byte strings) and merges it everywhere. Stops
    early when no pair is left. Fully deterministic for a fixed corpus order.
    """
    if vocab_size < MIN_VOCAB:
        raise ValueError(f"vocab_size must be at least {MIN_VOCAB}")
    texts = list(corpus)
    if not texts:
        raise ValueError("cannot train a vocabulary on an empty corpus")
    ids = _flat_ids(texts)
    pieces = {BYTE_BASE + b: bytes([b]) for b in range(256)}
    merges: list[tuple[int, int]] = []
    while MIN_VOCAB + len(merges) < vocab_size:
        left, right = ids[:-1], ids[1:]
        inside = (left >= 0) & (right >= 0)
        codes = left[inside].astype(np.int64) * vocab_size + right[inside]
        if codes.size == 0:
            break
        uniq, counts = np.unique(codes, return_counts=True)
        tied = [divmod(int(code), vocab_size) for code in uniq[counts == counts.max()]]
        a, b = min(tied, key=lambda p: (pieces[p[0]], pieces[p[1]]))
        new_id = MIN_VOCAB + len(merges)
        ids = _merge(ids, a, b, new_id)
        pieces[new_id] = pieces[a] + pieces[b]
        merges.append((a, b))
    return Vocabulary(merges=merges)


def tokenize_batch(texts: Iterable[str], vocab: Vocabulary) -> list[list[int]]:
    """Content token ids of each text (no specials, no padding).

    Every merge is applied once, in rank order, over all texts at once.
    This gives the ids of repeatedly merging the lowest-rank pair present:
    a merge leaves no occurrence of its pair behind, and the only pairs it
    creates contain its new id, which every later-learned merge, and only
    those, can use. So the lowest rank present only ever grows, and a merge
    whose pair is absent is a no-op.
    """
    ids = _flat_ids(list(texts))
    for rank, (a, b) in enumerate(vocab.merges):
        ids = _merge(ids, a, b, MIN_VOCAB + rank)
    flat = ids.tolist()
    out: list[list[int]] = []
    start = 0
    for end in np.flatnonzero(ids < 0).tolist():
        out.append(flat[start:end])
        start = end + 1
    return out


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Content token ids for one text (no specials, no padding)."""
    return tokenize_batch([text], vocab)[0]


def encode(content: list[int], max_len: int) -> TokenSequence:
    """BOS + content + EOS, PAD-filled to max_len; tail truncated if over."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    budget = max_len - 2
    ids = [BOS] + content[:budget] + [EOS]
    return _pad(ids, max_len, truncated=len(content) > budget)


def encode_pair(a: list[int], b: list[int], max_len: int) -> TokenSequence:
    """BOS + a + SEP + b + EOS, PAD-filled to max_len.

    Overlong pairs are truncated proportionally to their untruncated
    lengths; a side already within half the budget is never touched.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3 for pair encoding")
    budget = max_len - 3
    if len(a) + len(b) <= budget:
        keep_a, keep_b = len(a), len(b)
    elif len(a) <= budget / 2:
        keep_a, keep_b = len(a), budget - len(a)
    elif len(b) <= budget / 2:
        keep_a, keep_b = budget - len(b), len(b)
    else:
        keep_a = math.ceil(budget * len(a) / (len(a) + len(b)))
        keep_b = budget - keep_a
    ids = [BOS] + a[:keep_a] + [SEP] + b[:keep_b] + [EOS]
    return _pad(ids, max_len, truncated=keep_a < len(a) or keep_b < len(b))


def _pad(ids: list[int], max_len: int, truncated: bool) -> TokenSequence:
    attention_length = len(ids)
    ids.extend([PAD] * (max_len - len(ids)))
    return TokenSequence(ids=tuple(ids), attention_length=attention_length, truncated=truncated)


def decode(seq: TokenSequence | Iterable[int], vocab: Vocabulary) -> str:
    """Inverse of encode for untruncated sequences; SEP renders as the
    textual separator marker."""
    ids = seq.ids if isinstance(seq, TokenSequence) else tuple(seq)
    out = bytearray()
    for i in ids:
        if i in (PAD, BOS, EOS, UNK):
            continue
        if i == SEP:
            out.extend(SEP_MARKER.encode("utf-8"))
        else:
            out.extend(vocab.token_bytes(i))
    return out.decode("utf-8", errors="replace")
