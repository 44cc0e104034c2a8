"""Model and tokenizer helpers that only the tests use.

- `cast_params` / `cast_model` copy a model into another float type, so the
  gradient checks (acceptance criterion 1) can run in float64.
- `equivalent_concat_model` builds the concatenation model whose logits
  equal a subtraction model's (acceptance criterion 2).
- `tokenize` and `decode` turn one text into content ids and one token
  sequence back into text; `SEP_MARKER` is how `decode` renders SEP.
- `token_bytes` maps every byte and merge token id of a vocabulary to
  the bytes it stands for.
- `force_concurrent_streams` runs a dual-stream model's two encoders on two
  threads on any machine and batch.
- `padded_batch` turns PAD-filled id arrays plus row lengths into an
  `EncodedBatch`, which holds only the real tokens.
- `padded_encode`, `padded_encode_pair`, `padded_stack` and `cut` are the
  padded input path that `EncodedBatch` replaced, kept as an oracle: each
  view PAD-filled to max_len, the views stacked into an (N, max_len) array,
  and a batch cut to its longest row before the encoder.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from fixhound import delta_model as dm
from fixhound import encoder as enc
from fixhound.change_builder import EMBED_CONCAT_DUO, EMBED_SUBTRACT_DUO
from fixhound.delta_model import DeltaModel, EncodedBatch, Stream
from fixhound.encoder import Params
from fixhound.tokenizer import BOS, BYTE_BASE, EOS, MIN_VOCAB, PAD, SEP, UNK, TokenSequence, Vocabulary, tokenize_batch

# How `decode` renders the SEP token; texts are never split at it.
SEP_MARKER = " ⟨SEP⟩ "


def cast_params(params: Params, dtype) -> Params:
    return {k: v.astype(dtype) for k, v in params.items()}


def cast_model(model: DeltaModel, dtype) -> DeltaModel:
    before = cast_params(model.encoder_before, dtype)
    after = before if model.shared_encoders else cast_params(model.encoder_after, dtype)
    return DeltaModel(model.variant, model.config, before, after, cast_params(model.head, dtype))


def equivalent_concat_model(m: DeltaModel) -> DeltaModel:
    """Concatenation-fusion model logit-identical to a subtract-fusion one.

    The head's first layer becomes [W1; -W1] over [e_before; e_after], so
    [W1; -W1]^T [e_b; e_a] = W1^T (e_b - e_a) reproduces the delta path.
    """
    if m.variant != EMBED_SUBTRACT_DUO:
        raise ValueError("equivalence construction requires an EmbedSubtract_Duo model")
    before = copy.deepcopy(m.encoder_before)
    after = copy.deepcopy(m.encoder_after)
    head = {
        "w1": np.concatenate([m.head["w1"], -m.head["w1"]], axis=0),
        "b1": m.head["b1"].copy(),
        "w2": m.head["w2"].copy(),
        "b2": m.head["b2"].copy(),
    }
    return DeltaModel(variant=EMBED_CONCAT_DUO, config=m.config, encoder_before=before, encoder_after=after, head=head)


def token_bytes(vocab: Vocabulary) -> dict[int, bytes]:
    """The bytes behind each byte and merge token id of `vocab`."""
    table = {BYTE_BASE + b: bytes([b]) for b in range(256)}
    for rank, (left, right) in enumerate(vocab.merges):
        table[MIN_VOCAB + rank] = table[left] + table[right]
    return table


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Content token ids for one text (no specials, no padding)."""
    return tokenize_batch([text], vocab)[0]


def decode(seq: TokenSequence | Iterable[int], vocab: Vocabulary) -> str:
    """Inverse of encode for untruncated sequences; SEP renders as SEP_MARKER."""
    ids = seq.ids if isinstance(seq, TokenSequence) else tuple(seq)
    table = token_bytes(vocab)
    out = bytearray()
    for i in ids:
        if i in (PAD, BOS, EOS, UNK):
            continue
        if i == SEP:
            out.extend(SEP_MARKER.encode("utf-8"))
        else:
            out.extend(table[i])
    return out.decode("utf-8", errors="replace")


def force_concurrent_streams(monkeypatch) -> list[str]:
    """Open `delta_model`'s two-thread gate for every dual-stream batch, whatever
    the machine; set `delta_model.CONCURRENT_MIN_WORK` to close it again. Returns
    a list that collects the name of the thread behind each encoder forward and
    backward call."""
    monkeypatch.setattr(dm, "CONCURRENT_MIN_WORK", 0)
    monkeypatch.setattr(dm, "_usable_cpus", lambda: 2)
    for var in dm.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    threads: list[str] = []
    for name in ("forward_batch", "backward_batch"):

        def traced(*args, _fn=getattr(enc, name)):
            threads.append(threading.current_thread().name)
            return _fn(*args)

        monkeypatch.setattr(enc, name, traced)
    return threads


def padded_batch(ids_a, lens_a, ids_b=None, lens_b=None, labels=None) -> EncodedBatch:
    """The batch of padded (N, width) id arrays and their row lengths: each
    row's first `lens` ids, end to end per stream; labels default to 0."""

    def stream(ids, lens):
        lens = np.asarray(lens, dtype=np.int64)
        return Stream(np.asarray(ids, dtype=np.int64)[np.arange(np.shape(ids)[1]) < lens[:, None]], lens, np.cumsum(lens) - lens)

    streams = [(ids_a, lens_a)] + ([] if ids_b is None else [(ids_b, lens_b)])
    return EncodedBatch(tuple(stream(ids, lens) for ids, lens in streams), np.zeros(len(lens_a)) if labels is None else labels)


@dataclass(frozen=True)
class PaddedSequence:
    ids: tuple[int, ...]  # PAD-filled to max_len
    attention_length: int
    truncated: bool


def padded_encode(content: list[int], max_len: int) -> PaddedSequence:
    """BOS + content + EOS, PAD-filled to max_len; tail truncated if over."""
    budget = max_len - 2
    ids = [BOS] + content[:budget] + [EOS]
    return _pad(ids, max_len, truncated=len(content) > budget)


def padded_encode_pair(a: list[int], b: list[int], max_len: int) -> PaddedSequence:
    """BOS + a + SEP + b + EOS, PAD-filled to max_len.

    Overlong pairs are truncated proportionally to their untruncated
    lengths; a side already within half the budget is never touched.
    """
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


def _pad(ids: list[int], max_len: int, truncated: bool) -> PaddedSequence:
    attention_length = len(ids)
    ids.extend([PAD] * (max_len - len(ids)))
    return PaddedSequence(ids=tuple(ids), attention_length=attention_length, truncated=truncated)


def padded_stack(seqs: list[PaddedSequence]) -> tuple[np.ndarray, np.ndarray]:
    """The sequences as one (N, max_len) id array, and their real lengths."""
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    lens = np.array([s.attention_length for s in seqs], dtype=np.int64)
    return ids, lens


def cut(ids: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """A padded batch's first max(lens) columns, the width the encoder ran."""
    return ids[:, : int(lens.max(initial=0))]
