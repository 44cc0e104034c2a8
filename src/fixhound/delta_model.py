"""Variant assembly: encoder(s) -> fusion -> feed-forward head -> probability.

Every variant of `change_builder.VARIANTS` runs one forward and backward
path: a batch (`EncodedBatch`) holds one `Stream` of real tokens per input
stream, each padded right before its encoder (`Stream.padded`), and
dual-stream variants fuse their two embeddings by element-wise subtraction
(delta) or concatenation. The streams run one after the other on the
caller's thread. A model is one parameter map keyed by checkpoint tensor
name (`tensor_shapes` gives every name and shape), and each stream reads its
encoder from it by prefix (`ENCODER_PREFIXES`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import encoder as enc
from .change_builder import VARIANTS, BuiltExample
from .config import EncoderConfig, param_shapes
from .encoder import Params
from .records import VF
from .tokenizer import PAD, TokenSequence, Vocabulary, encode, encode_pair, tokenize_batch

PROB_CLAMP = 1e-7
INIT_STD = 0.02


# The parameter-name prefix of each input stream's encoder, in stream order:
# a "Sequence" variant runs one stream, and two streams share enc_before
# unless the variant has its own encoders.
ENCODER_PREFIXES = {
    name: ("enc_before.",) if v.fusion == "Sequence" else ("enc_before.", "enc_after." if v.own_encoders else "enc_before.")
    for name, v in VARIANTS.items()
}


@dataclass
class DeltaModel:
    variant: str
    config: EncoderConfig
    params: Params  # by checkpoint tensor name: enc_before.*, enc_after.* (own encoders only), head.*


def params_under(params: Params, prefix: str) -> Params:
    """The entries of `params` under `prefix`, by the names after it: the same arrays, not copies."""
    return {name.removeprefix(prefix): arr for name, arr in params.items() if name.startswith(prefix)}


def tensor_shapes(variant: str, config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor of a `variant` model by checkpoint name, in draw order: each
    encoder's, then the head's, whose input is twice as wide for a Concat variant."""
    shapes = {prefix + name: shape for prefix in dict.fromkeys(ENCODER_PREFIXES[variant]) for name, shape in param_shapes(config).items()}
    width, hidden = (2 if VARIANTS[variant].fusion == "Concat" else 1) * config.dim, config.dim
    return {**shapes, "head.w1": (width, hidden), "head.b1": (hidden,), "head.w2": (hidden, 1), "head.b2": (1,)}


def init_model(variant: str, config: EncoderConfig, seed: int) -> DeltaModel:
    """Seeded float32 parameters: a layer-norm gain starts at 1 and a bias at 0;
    every other tensor is drawn with std INIT_STD from its part's generator,
    enc_before at seed, enc_after at seed + 1 and head at seed + 2."""
    rngs = {part: np.random.default_rng(seed + i) for i, part in enumerate(("enc_before", "enc_after", "head"))}
    params: Params = {}
    for name, shape in tensor_shapes(variant, config).items():
        part, *_, last = name.split(".")
        if last == "g":
            params[name] = np.ones(shape, dtype=np.float32)
        elif last[0] == "b":
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = rngs[part].normal(0.0, INIT_STD, size=shape).astype(np.float32)
    return DeltaModel(variant, config, params)


def fuse(e_before: np.ndarray, e_after: np.ndarray, fusion: str) -> np.ndarray:
    """Combine the two stream embeddings (batched on the leading axis) by "Subtract" or "Concat"."""
    return e_before - e_after if fusion == "Subtract" else np.concatenate([e_before, e_after], axis=-1)


@dataclass
class Stream:
    """One encoder's input rows, only their real tokens: row i is
    ids[starts[i] : starts[i] + lens[i]]. `encode_examples` lays the rows end
    to end, and `take` shares its parent's ids, so it costs O(rows taken)."""

    ids: np.ndarray
    lens: np.ndarray
    starts: np.ndarray

    def take(self, idx: np.ndarray | slice) -> "Stream":
        return Stream(self.ids, self.lens[idx], self.starts[idx])

    def padded(self) -> np.ndarray:
        """The rows as the encoder's (rows, max(lens)) input, PAD after each
        row's tokens: the one place PAD is written."""
        widths = self.lens.tolist()
        out = np.full((len(widths), max(widths, default=0)), PAD, dtype=np.int64)
        for row, start, width in zip(out, self.starts.tolist(), widths):
            row[:width] = self.ids[start : start + width]
        return out


@dataclass
class EncodedBatch:
    """Tokenized inputs for one batch: one Stream per input stream of the
    variant, in stream order, and a float 0/1 label per example."""

    streams: tuple[Stream, ...]
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.streams[0].lens.size

    def take(self, idx: np.ndarray | slice) -> "EncodedBatch":
        return EncodedBatch(tuple(s.take(idx) for s in self.streams), self.labels[idx])


def _stream(seqs: list[TokenSequence]) -> Stream:
    """The sequences' ids end to end in one stream."""
    lens = np.array([s.attention_length for s in seqs], dtype=np.int64)
    ids = np.fromiter(chain.from_iterable(s.ids for s in seqs), dtype=np.int64, count=int(lens.sum()))
    return Stream(ids, lens, np.cumsum(lens) - lens)


def encode_examples(examples: list[BuiltExample], variant: str, vocab: Vocabulary, max_len: int) -> EncodedBatch:
    """The examples' `variant` texts and labels as one batch, tokenized in one call.

    A "Sequence" variant of two fields SEP-joins them into one stream; every
    other variant gives each field its own stream."""
    fields = VARIANTS[variant].fields
    tokens = tokenize_batch([t for ex in examples for t in ex.variant_texts(variant)], vocab)
    if VARIANTS[variant].fusion == "Sequence" and len(fields) == 2:
        streams = (_stream([encode_pair(a, b, max_len) for a, b in zip(tokens[0::2], tokens[1::2])]),)
    else:
        seqs = [encode(t, max_len) for t in tokens]
        streams = tuple(_stream(seqs[i :: len(fields)]) for i in range(len(fields)))
    return EncodedBatch(streams, labels=np.array([float(ex.label == VF) for ex in examples], dtype=np.float64))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _stream_encoders(model: DeltaModel, batch: EncodedBatch) -> list[Params]:
    """The encoder parameters each of the batch's streams runs through, in stream order."""
    prefixes = ENCODER_PREFIXES[model.variant]
    if len(batch.streams) != len(prefixes):
        raise ValueError(f"{model.variant} expects {len(prefixes)} input stream(s), not {len(batch.streams)}")
    return [params_under(model.params, prefix) for prefix in prefixes]


def _fuse_and_head(model: DeltaModel, embeddings: list[np.ndarray]):
    """Per-example probabilities from the streams' pooled embeddings, plus the head's cache."""
    head = params_under(model.params, "head.")
    fused = fuse(*embeddings, VARIANTS[model.variant].fusion) if len(embeddings) == 2 else embeddings[0]
    u = np.tanh(fused @ head["w1"] + head["b1"])
    logit = (u @ head["w2"] + head["b2"])[:, 0]
    return _sigmoid(logit), {"fused": fused, "u": u, "logit": logit}


def forward_model(model: DeltaModel, batch: EncodedBatch):
    """Per-example probabilities plus the cache needed for backward."""
    encoders = _stream_encoders(model, batch)
    outs = [enc.forward_batch(p, model.config, s.padded(), s.lens) for p, s in zip(encoders, batch.streams)]
    probs, cache = _fuse_and_head(model, [e for e, _ in outs])
    cache["enc"] = [c for _, c in outs]
    return probs, cache


def backward_model(model: DeltaModel, cache, d_logit: np.ndarray) -> Params:
    """Gradients for all model parameters given d(loss)/d(logit)."""
    u = cache["u"]
    fused = cache["fused"]
    grads: Params = {}
    du = d_logit[:, None] * model.params["head.w2"][:, 0][None, :]
    grads["head.w2"] = (u * d_logit[:, None]).sum(axis=0)[:, None]
    grads["head.b2"] = np.array([d_logit.sum()], dtype=u.dtype)
    dz1 = du * (1.0 - u**2)
    grads["head.w1"] = fused.T @ dz1
    grads["head.b1"] = dz1.sum(axis=0)
    d_fused = dz1 @ model.params["head.w1"].T

    fusion = VARIANTS[model.variant].fusion
    if fusion == "Subtract":
        d_embeddings = [d_fused, -d_fused]
    elif fusion == "Concat":
        d_embeddings = [d_fused[:, : model.config.dim], d_fused[:, model.config.dim :]]
    else:
        d_embeddings = [d_fused]
    # A shared encoder's gradient is the sum over its streams, first stream first.
    for prefix, c, d in zip(ENCODER_PREFIXES[model.variant], cache["enc"], d_embeddings):
        for name, arr in enc.backward_batch(params_under(model.params, prefix), model.config, c, d).items():
            key = prefix + name
            grads[key] = grads[key] + arr if key in grads else arr
    return grads


def loss_and_grads(model: DeltaModel, batch: EncodedBatch):
    """Mean clamped binary cross-entropy and its exact parameter gradients."""
    probs, cache = forward_model(model, batch)
    labels = batch.labels
    loss = float(batch_loss(probs, labels))
    clamped = (probs <= PROB_CLAMP) | (probs >= 1.0 - PROB_CLAMP)
    d_logit = np.where(clamped, 0.0, probs - labels) / batch.size
    d_logit = d_logit.astype(probs.dtype)
    grads = backward_model(model, cache, d_logit)
    return loss, grads, probs


def batch_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-labels * np.log(p) - (1.0 - labels) * np.log(1.0 - p)))


def predict_batch(model: DeltaModel, batch: EncodedBatch) -> np.ndarray:
    """Per-example probabilities; each stream keeps only its pooled embedding, so
    one stream's activations are freed before the next stream runs."""
    encoders = _stream_encoders(model, batch)
    embeddings = [enc.forward_batch(p, model.config, s.padded(), s.lens)[0] for p, s in zip(encoders, batch.streams)]
    return _fuse_and_head(model, embeddings)[0]


def predict_in_chunks(model: DeltaModel, batch: EncodedBatch, chunk: int) -> np.ndarray:
    """Probabilities of every row in input order, `chunk` rows per `predict_batch` call."""
    out = [predict_batch(model, batch.take(slice(lo, lo + chunk))) for lo in range(0, batch.size, chunk)]
    return np.concatenate(out) if out else np.zeros(0)
