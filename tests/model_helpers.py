"""Model and tokenizer helpers that only the tests use.

- `init_params` and `init_reference` are the two init rules that
  `delta_model.init_model` replaced, kept as its oracle: the encoder's,
  keyed by name suffix, and the head's, which draws `w*` and zeroes `b*`.
- `cast_params` / `cast_model` copy a model into another float type, so the
  gradient checks (acceptance criterion 1) can run in float64.
- `equivalent_concat_model` builds the concatenation model whose logits
  equal a subtraction model's (acceptance criterion 2).
- `tokenize` and `decode` turn one text into content ids and one token
  sequence back into text; `SEP_MARKER` is how `decode` renders SEP.
- `token_bytes` maps every byte and merge token id of a vocabulary to
  the bytes it stands for.
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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from fixhound.change_builder import EMBED_CONCAT_DUO, EMBED_SUBTRACT_DUO, VARIANTS
from fixhound.config import EncoderConfig, param_shapes
from fixhound.delta_model import ENCODER_PREFIXES, DeltaModel, EncodedBatch, Stream
from fixhound.encoder import Params
from fixhound.tokenizer import BOS, BYTE_BASE, EOS, MIN_VOCAB, PAD, SEP, UNK, TokenSequence, Vocabulary, tokenize_batch

# How `decode` renders the SEP token; texts are never split at it.
SEP_MARKER = " ⟨SEP⟩ "

INIT_STD = 0.02


def init_params(config: EncoderConfig, seed: int) -> Params:
    """Scaled-normal float32 weights (std 0.02), layer-norm gain 1 / bias 0."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith((".b", ".b1", ".b2", "bq", "bk", "bv", "bo")):
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
    return params


def init_reference(variant: str, config: EncoderConfig, seed: int) -> Params:
    """Seeded float32 parameters: the encoder(s) at seed and seed + 1, the head at seed + 2."""
    params: Params = {}
    for offset, prefix in enumerate(dict.fromkeys(ENCODER_PREFIXES[variant])):
        params.update({prefix + name: arr for name, arr in init_params(config, seed + offset).items()})
    width, hidden = 2 * config.dim if VARIANTS[variant].fusion == "Concat" else config.dim, config.dim
    rng = np.random.default_rng(seed + 2)
    for name, shape in {"w1": (width, hidden), "b1": (hidden,), "w2": (hidden, 1), "b2": (1,)}.items():  # w1 then w2 drawn; b1, b2 zero
        params["head." + name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32) if name[0] == "w" else np.zeros(shape, np.float32)
    return params


def cast_params(params: Params, dtype) -> Params:
    return {k: v.astype(dtype) for k, v in params.items()}


def cast_model(model: DeltaModel, dtype) -> DeltaModel:
    return DeltaModel(model.variant, model.config, cast_params(model.params, dtype))


def equivalent_concat_model(m: DeltaModel) -> DeltaModel:
    """Concatenation-fusion model logit-identical to a subtract-fusion one.

    The head's first layer becomes [W1; -W1] over [e_before; e_after], so
    [W1; -W1]^T [e_b; e_a] = W1^T (e_b - e_a) reproduces the delta path.
    """
    if m.variant != EMBED_SUBTRACT_DUO:
        raise ValueError("equivalence construction requires an EmbedSubtract_Duo model")
    params = copy.deepcopy(m.params)
    params["head.w1"] = np.concatenate([m.params["head.w1"], -m.params["head.w1"]], axis=0)
    return DeltaModel(EMBED_CONCAT_DUO, m.config, params)


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
