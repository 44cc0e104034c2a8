"""Variant assembly: encoder(s) -> fusion -> feed-forward head -> probability.

The six ablation variants share one classifier interface. Dual-stream
variants embed code_before and code_after separately and fuse by
element-wise subtraction (delta) or concatenation; single-stream variants
run one encoder over a single rendered text. The subtract->concat
equivalence construction builds a concatenation model whose logits match
a subtraction model exactly by stacking [W, -W] in the head.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .change_builder import (
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    DUAL_STREAM_VARIANTS,
    EMBED_CONCAT_DUO,
    EMBED_SUBTRACT_DUO,
    EMBED_SUBTRACT_SINGLE,
    PAIR_VARIANTS,
    RAW_GIT_DIFF,
    VARIANTS,
    BuiltExample,
)
from .config import EncoderConfig
from .encoder import Params
from .repo_miner import VF
from .tokenizer import TokenSequence, Vocabulary, encode, encode_pair, tokenize_batch

FUSION_SUBTRACT = "Subtract"
FUSION_CONCAT = "Concat"
FUSION_SINGLE = "SingleStream"

PROB_CLAMP = 1e-7

_FUSION_BY_VARIANT = {
    EMBED_SUBTRACT_DUO: FUSION_SUBTRACT,
    EMBED_SUBTRACT_SINGLE: FUSION_SUBTRACT,
    EMBED_CONCAT_DUO: FUSION_CONCAT,
    CODE_CONCAT: FUSION_SINGLE,
    CODE_CONCAT_NOCONTEXT: FUSION_SINGLE,
    RAW_GIT_DIFF: FUSION_SINGLE,
}

# Variants with two independently parameterized encoders.
DUAL_ENCODER_VARIANTS = (EMBED_SUBTRACT_DUO, EMBED_CONCAT_DUO)


def fusion_mode(variant: str) -> str:
    return _FUSION_BY_VARIANT[variant]


def fusion_width(variant: str, dim: int) -> int:
    return 2 * dim if fusion_mode(variant) == FUSION_CONCAT else dim


@dataclass
class DeltaModel:
    variant: str
    config: EncoderConfig
    encoder_before: Params
    encoder_after: Params  # same dict object as encoder_before when shared
    head: Params  # w1 (fusion_width, h), b1 (h,), w2 (h, 1), b2 (1,)

    @property
    def shared_encoders(self) -> bool:
        return self.encoder_before is self.encoder_after

    def all_params(self) -> Params:
        """Flat name -> tensor view of every trainable parameter.

        Shared encoders appear once (under enc_before) so a single
        optimizer step updates them exactly once.
        """
        out: Params = {}
        for name, arr in self.encoder_before.items():
            out["enc_before." + name] = arr
        if not self.shared_encoders:
            for name, arr in self.encoder_after.items():
                out["enc_after." + name] = arr
        for name, arr in self.head.items():
            out["head." + name] = arr
        return out


def head_shapes(variant: str, config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    width, hidden = fusion_width(variant, config.dim), config.dim
    return {"w1": (width, hidden), "b1": (hidden,), "w2": (hidden, 1), "b2": (1,)}


def init_head(variant: str, config: EncoderConfig, seed: int, dtype=np.float32) -> Params:
    rng = np.random.default_rng(seed)
    shapes = head_shapes(variant, config)
    return {
        "w1": rng.normal(0.0, enc.INIT_STD, size=shapes["w1"]).astype(dtype),
        "b1": np.zeros(shapes["b1"], dtype=dtype),
        "w2": rng.normal(0.0, enc.INIT_STD, size=shapes["w2"]).astype(dtype),
        "b2": np.zeros(shapes["b2"], dtype=dtype),
    }


def init_model(variant: str, config: EncoderConfig, seed: int, dtype=np.float32) -> DeltaModel:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    before = enc.init_params(config, seed, dtype=dtype)
    if variant in DUAL_ENCODER_VARIANTS:
        after = enc.init_params(config, seed + 1, dtype=dtype)
    else:
        after = before
    head = init_head(variant, config, seed + 2, dtype=dtype)
    return DeltaModel(variant=variant, config=config, encoder_before=before, encoder_after=after, head=head)


def cast_model(model: DeltaModel, dtype) -> DeltaModel:
    before = enc.cast_params(model.encoder_before, dtype)
    after = before if model.shared_encoders else enc.cast_params(model.encoder_after, dtype)
    head = {k: v.astype(dtype) for k, v in model.head.items()}
    return DeltaModel(model.variant, model.config, before, after, head)


def fuse(e_before: np.ndarray, e_after: np.ndarray, mode: str) -> np.ndarray:
    """Combine the two stream embeddings (batched on the leading axis)."""
    if mode == FUSION_SUBTRACT:
        if e_before.shape != e_after.shape:
            raise ValueError("subtract fusion requires equal embedding dims")
        return e_before - e_after
    if mode == FUSION_CONCAT:
        return np.concatenate([e_before, e_after], axis=-1)
    raise ValueError(f"unknown fusion mode {mode!r}")


def _stack(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    lens = np.array([s.attention_length for s in seqs], dtype=np.int64)
    return ids, lens


@dataclass
class EncodedBatch:
    """Tokenized inputs for one batch; ids_b is None for single-stream models."""

    ids_a: np.ndarray
    lens_a: np.ndarray
    ids_b: np.ndarray | None = None
    lens_b: np.ndarray | None = None
    labels: np.ndarray | None = None  # float 0/1 per example

    @property
    def size(self) -> int:
        return self.ids_a.shape[0]

    def take(self, idx: np.ndarray | slice) -> "EncodedBatch":
        return EncodedBatch(
            ids_a=self.ids_a[idx],
            lens_a=self.lens_a[idx],
            ids_b=None if self.ids_b is None else self.ids_b[idx],
            lens_b=None if self.lens_b is None else self.lens_b[idx],
            labels=None if self.labels is None else self.labels[idx],
        )


def batch_from_sequences(seq_pairs: list[tuple[TokenSequence, ...]], labels=None) -> EncodedBatch:
    ids_a, lens_a = _stack([p[0] for p in seq_pairs])
    ids_b = lens_b = None
    if seq_pairs and len(seq_pairs[0]) == 2:
        ids_b, lens_b = _stack([p[1] for p in seq_pairs])
    lab = None if labels is None else np.asarray(labels, dtype=np.float64)
    return EncodedBatch(ids_a=ids_a, lens_a=lens_a, ids_b=ids_b, lens_b=lens_b, labels=lab)


def encode_examples(examples: list[BuiltExample], variant: str, vocab: Vocabulary, max_len: int) -> EncodedBatch:
    """The examples' `variant` segments and labels as one batch, tokenized in one call.

    The variant alone picks the encoding: two sequences for the dual-stream
    variants, one SEP-joined pair for the pair variants, else one sequence."""
    segments = [ex.variant_texts(variant) for ex in examples]
    tokens = iter(tokenize_batch([t for seg in segments for t in seg], vocab))
    if variant in DUAL_STREAM_VARIANTS:
        seqs = [(encode(next(tokens), max_len), encode(next(tokens), max_len)) for _ in segments]
    elif variant in PAIR_VARIANTS:
        seqs = [(encode_pair(next(tokens), next(tokens), max_len),) for _ in segments]
    else:
        seqs = [(encode(next(tokens), max_len),) for _ in segments]
    return batch_from_sequences(seqs, [1.0 if ex.label == VF else 0.0 for ex in examples])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_model(model: DeltaModel, batch: EncodedBatch):
    """Per-example probabilities plus the cache needed for backward."""
    mode = fusion_mode(model.variant)
    if mode == FUSION_SINGLE:
        if batch.ids_b is not None:
            raise ValueError(f"{model.variant} expects a single input stream")
        e, cache_a = enc.forward_batch(model.encoder_before, model.config, batch.ids_a, batch.lens_a)
        fused = e
        cache_b = None
    else:
        if batch.ids_b is None:
            raise ValueError(f"{model.variant} expects two input streams")
        e_b, cache_a = enc.forward_batch(model.encoder_before, model.config, batch.ids_a, batch.lens_a)
        e_a, cache_b = enc.forward_batch(model.encoder_after, model.config, batch.ids_b, batch.lens_b)
        fused = fuse(e_b, e_a, mode)
    z1 = fused @ model.head["w1"] + model.head["b1"]
    u = np.tanh(z1)
    logit = (u @ model.head["w2"] + model.head["b2"])[:, 0]
    probs = _sigmoid(logit)
    cache = {"enc_a": cache_a, "enc_b": cache_b, "fused": fused, "u": u, "probs": probs, "logit": logit}
    return probs, cache


def backward_model(model: DeltaModel, batch: EncodedBatch, cache, d_logit: np.ndarray) -> Params:
    """Gradients for all model parameters given d(loss)/d(logit)."""
    u = cache["u"]
    fused = cache["fused"]
    grads: Params = {}
    du = d_logit[:, None] * model.head["w2"][:, 0][None, :]
    grads["head.w2"] = (u * d_logit[:, None]).sum(axis=0)[:, None]
    grads["head.b2"] = np.array([d_logit.sum()], dtype=u.dtype)
    dz1 = du * (1.0 - u**2)
    grads["head.w1"] = fused.T @ dz1
    grads["head.b1"] = dz1.sum(axis=0)
    d_fused = dz1 @ model.head["w1"].T

    mode = fusion_mode(model.variant)
    if mode == FUSION_SINGLE:
        enc_grads = enc.backward_batch(model.encoder_before, model.config, cache["enc_a"], d_fused)
        for name, g in enc_grads.items():
            grads["enc_before." + name] = g
        return grads

    if mode == FUSION_SUBTRACT:
        d_e_before, d_e_after = d_fused, -d_fused
    else:
        d = model.config.dim
        d_e_before, d_e_after = d_fused[:, :d], d_fused[:, d:]
    g_before = enc.backward_batch(model.encoder_before, model.config, cache["enc_a"], d_e_before)
    g_after = enc.backward_batch(model.encoder_after, model.config, cache["enc_b"], d_e_after)
    if model.shared_encoders:
        for name in g_before:
            grads["enc_before." + name] = g_before[name] + g_after[name]
    else:
        for name in g_before:
            grads["enc_before." + name] = g_before[name]
        for name in g_after:
            grads["enc_after." + name] = g_after[name]
    return grads


def loss_and_grads(model: DeltaModel, batch: EncodedBatch):
    """Mean clamped binary cross-entropy and its exact parameter gradients."""
    probs, cache = forward_model(model, batch)
    labels = batch.labels
    loss = float(batch_loss(probs, labels))
    clamped = (probs <= PROB_CLAMP) | (probs >= 1.0 - PROB_CLAMP)
    d_logit = np.where(clamped, 0.0, probs - labels) / batch.size
    d_logit = d_logit.astype(probs.dtype)
    grads = backward_model(model, batch, cache, d_logit)
    return loss, grads, probs


def batch_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-labels * np.log(p) - (1.0 - labels) * np.log(1.0 - p)))


def predict_batch(model: DeltaModel, batch: EncodedBatch) -> np.ndarray:
    probs, _ = forward_model(model, batch)
    return probs


def predict_in_chunks(model: DeltaModel, batch: EncodedBatch, chunk: int) -> np.ndarray:
    """Probabilities of every row in input order, `chunk` rows per `predict_batch` call."""
    out = [predict_batch(model, batch.take(slice(lo, lo + chunk))) for lo in range(0, batch.size, chunk)]
    return np.concatenate(out) if out else np.zeros(0)


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
