"""Variant assembly: encoder(s) -> fusion -> feed-forward head -> probability.

Every variant of `change_builder.VARIANTS` runs one forward and backward
path: a batch (`EncodedBatch`) holds one `Stream` of real tokens per encoder,
each padded right before its encoder (`Stream.padded`), and dual-stream
variants fuse their two embeddings by element-wise subtraction (delta) or
concatenation. The two streams of a large batch run on two threads (see
`_streams_concurrent`), with bit-identical results.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import encoder as enc
from .change_builder import VARIANTS, BuiltExample
from .config import EncoderConfig
from .encoder import Params
from .records import VF
from .tokenizer import PAD, TokenSequence, Vocabulary, encode, encode_pair, tokenize_batch

PROB_CLAMP = 1e-7

# Rows × T² of the shorter stream from which a batch's two encoder streams run
# on two threads. Both streams' forward and backward at dim 32 with one BLAS
# thread (2 vCPU x86_64, OpenBLAS 0.3.31), serial against threaded, at B=4:
# T=60 5.0 against 8.7 ms, T=128 (2^16) 10.7 against 11.1 ms, T=160 12.2
# against 10.4 ms, T=512 77 against 43 ms.
CONCURRENT_MIN_WORK = 2**16
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fusion_width(variant: str, dim: int) -> int:
    return 2 * dim if VARIANTS[variant].fusion == "Concat" else dim


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

    @property
    def encoders(self) -> tuple[Params, ...]:
        """The encoder of each input stream, in stream order."""
        if VARIANTS[self.variant].fusion == "Sequence":
            return (self.encoder_before,)
        return self.encoder_before, self.encoder_after

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


def init_head(variant: str, config: EncoderConfig, seed: int) -> Params:
    rng = np.random.default_rng(seed)
    shapes = head_shapes(variant, config)
    return {
        "w1": rng.normal(0.0, enc.INIT_STD, size=shapes["w1"]).astype(np.float32),
        "b1": np.zeros(shapes["b1"], dtype=np.float32),
        "w2": rng.normal(0.0, enc.INIT_STD, size=shapes["w2"]).astype(np.float32),
        "b2": np.zeros(shapes["b2"], dtype=np.float32),
    }


def init_model(variant: str, config: EncoderConfig, seed: int) -> DeltaModel:
    """Seeded float32 parameters: the encoder(s) at seed and seed + 1, the head at seed + 2."""
    before = enc.init_params(config, seed)
    after = enc.init_params(config, seed + 1) if VARIANTS[variant].own_encoders else before
    head = init_head(variant, config, seed + 2)
    return DeltaModel(variant=variant, config=config, encoder_before=before, encoder_after=after, head=head)


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
    """Tokenized inputs for one batch: one Stream per encoder the variant runs,
    in the order of its encoders, and a float 0/1 label per example."""

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


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _streams_concurrent(lens: list[np.ndarray]) -> bool:
    """Whether a batch's encoder streams, one `lens` array each, run on two threads.

    Only when there are two streams and the shorter holds at least
    CONCURRENT_MIN_WORK of attention work (below it the thread costs more
    than it saves), at least two CPUs are usable, and the environment caps
    BLAS at one thread (with more, the BLAS threads and the stream threads
    compete for the cores)."""
    work = min(n.size * int(n.max(initial=0)) ** 2 for n in lens)
    blas = {os.environ.get(var) for var in BLAS_THREAD_VARS}
    return len(lens) == 2 and work >= CONCURRENT_MIN_WORK and _usable_cpus() >= 2 and "1" in blas and blas <= {"1", None}


def _run_calls(concurrent: bool, calls: list):
    """[call() for call in calls], every call after the first on a worker
    thread when `concurrent`.

    Each stream runs the same numpy ops on its own arrays either way, so the
    results are bit-identical; numpy releases the GIL in BLAS calls and large
    loops. The workers run in a copy of this thread's context, which carries
    numpy's errstate, and are joined before this returns or raises; an error
    in the first call wins, as it would serially."""
    if not concurrent:
        return [call() for call in calls]
    from concurrent.futures import ThreadPoolExecutor  # imported only where long views need it

    with ThreadPoolExecutor(max_workers=len(calls) - 1) as pool:
        later = [pool.submit(contextvars.copy_context().run, call) for call in calls[1:]]
        return [calls[0]()] + [f.result() for f in later]


def forward_model(model: DeltaModel, batch: EncodedBatch):
    """Per-example probabilities plus the cache needed for backward."""
    if len(batch.streams) != len(model.encoders):
        raise ValueError(f"{model.variant} expects {len(model.encoders)} input stream(s), not {len(batch.streams)}")
    concurrent = _streams_concurrent([s.lens for s in batch.streams])
    # Each stream is padded inside its own call, so a worker pads its stream itself.
    outs = _run_calls(
        concurrent,
        [lambda p=p, s=s: enc.forward_batch(p, model.config, s.padded(), s.lens) for p, s in zip(model.encoders, batch.streams)],
    )
    embeddings = [e for e, _ in outs]
    fused = fuse(*embeddings, VARIANTS[model.variant].fusion) if len(embeddings) == 2 else embeddings[0]
    z1 = fused @ model.head["w1"] + model.head["b1"]
    u = np.tanh(z1)
    logit = (u @ model.head["w2"] + model.head["b2"])[:, 0]
    probs = _sigmoid(logit)
    cache = {"enc": [c for _, c in outs], "concurrent": concurrent, "fused": fused, "u": u, "logit": logit}
    return probs, cache


def backward_model(model: DeltaModel, cache, d_logit: np.ndarray) -> Params:
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

    fusion = VARIANTS[model.variant].fusion
    if fusion == "Subtract":
        d_embeddings = [d_fused, -d_fused]
    elif fusion == "Concat":
        d_embeddings = [d_fused[:, : model.config.dim], d_fused[:, model.config.dim :]]
    else:
        d_embeddings = [d_fused]
    stream_grads = _run_calls(
        cache["concurrent"],
        [lambda p=p, c=c, d=d: enc.backward_batch(p, model.config, c, d) for p, c, d in zip(model.encoders, cache["enc"], d_embeddings)],
    )
    # A shared encoder's gradient is the sum over its streams, first stream first.
    prefixes = ("enc_before.", "enc_before." if model.shared_encoders else "enc_after.")
    for prefix, g in zip(prefixes, stream_grads):
        for name, arr in g.items():
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
    probs, _ = forward_model(model, batch)
    return probs


def predict_in_chunks(model: DeltaModel, batch: EncodedBatch, chunk: int) -> np.ndarray:
    """Probabilities of every row in input order, `chunk` rows per `predict_batch` call."""
    out = [predict_batch(model, batch.take(slice(lo, lo + chunk))) for lo in range(0, batch.size, chunk)]
    return np.concatenate(out) if out else np.zeros(0)
