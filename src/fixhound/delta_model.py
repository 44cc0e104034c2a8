"""Variant assembly: encoder(s) -> fusion -> feed-forward head -> probability.

The variants of `change_builder.VARIANTS` share one classifier interface.
Dual-stream variants embed their two texts separately and fuse by
element-wise subtraction (delta) or concatenation; single-stream variants
run one encoder over one sequence. A batch keeps only real tokens
(`EncodedBatch`); `_padded` pads each stream to its longest row right
before the encoder. The two streams of a large batch run on two threads
(see `_streams_concurrent`), with bit-identical results.
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


def _stream(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """The sequences' ids end to end in one int64 array, and their lengths."""
    lens = np.array([s.attention_length for s in seqs], dtype=np.int64)
    return np.fromiter(chain.from_iterable(s.ids for s in seqs), dtype=np.int64, count=int(lens.sum())), lens


def _padded(ids: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Rows ids[starts[i] : starts[i] + lens[i]] as the encoder's (rows, max(lens))
    input, PAD after each row's tokens: the one place PAD is written."""
    widths = lens.tolist()
    out = np.full((len(widths), max(widths, default=0)), PAD, dtype=np.int64)
    for row, start, width in zip(out, starts.tolist(), widths):
        row[:width] = ids[start : start + width]
    return out


@dataclass
class EncodedBatch:
    """Tokenized inputs for one batch; ids_b is None for single-stream models.

    A stream keeps only real tokens: row i is ids[starts[i] : starts[i] + lens[i]].
    `encode_examples` lays the rows end to end (the default starts), and `take`
    shares its parent's ids, so it costs O(rows taken)."""

    ids_a: np.ndarray
    lens_a: np.ndarray
    ids_b: np.ndarray | None = None
    lens_b: np.ndarray | None = None
    labels: np.ndarray | None = None  # float 0/1 per example
    starts_a: np.ndarray | None = None
    starts_b: np.ndarray | None = None

    def __post_init__(self):
        if self.starts_a is None:
            self.starts_a, self.starts_b = (None if n is None else np.cumsum(n) - n for n in (self.lens_a, self.lens_b))

    @property
    def size(self) -> int:
        return self.lens_a.size

    def take(self, idx: np.ndarray | slice) -> "EncodedBatch":
        a, b, labels, starts_a, starts_b = (
            None if x is None else x[idx] for x in (self.lens_a, self.lens_b, self.labels, self.starts_a, self.starts_b)
        )
        return EncodedBatch(self.ids_a, a, self.ids_b, b, labels, starts_a, starts_b)


def encode_examples(examples: list[BuiltExample], variant: str, vocab: Vocabulary, max_len: int) -> EncodedBatch:
    """The examples' `variant` texts and labels as one batch, tokenized in one call.

    The variant's fusion and field count pick the encoding: two sequences to
    fuse, one SEP-joined pair of fields, or one sequence of one field."""
    tokens = tokenize_batch([t for ex in examples for t in ex.variant_texts(variant)], vocab)
    if VARIANTS[variant].fusion != "Sequence":
        seqs = [encode(t, max_len) for t in tokens]
        streams = _stream(seqs[0::2]) + _stream(seqs[1::2])
    elif len(VARIANTS[variant].fields) == 2:
        streams = _stream([encode_pair(a, b, max_len) for a, b in zip(tokens[0::2], tokens[1::2])])
    else:
        streams = _stream([encode(t, max_len) for t in tokens])
    return EncodedBatch(*streams, labels=np.array([float(ex.label == VF) for ex in examples], dtype=np.float64))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _streams_concurrent(lens_a: np.ndarray, lens_b: np.ndarray) -> bool:
    """Whether a batch's two encoder streams run on two threads.

    Only when the shorter stream holds at least CONCURRENT_MIN_WORK of
    attention work (below it the thread costs more than it saves), at least
    two CPUs are usable, and the environment caps BLAS at one thread (with
    more, the BLAS threads and the stream threads compete for the cores)."""
    work = min(lens.size * int(lens.max(initial=0)) ** 2 for lens in (lens_a, lens_b))
    blas = {os.environ.get(var) for var in BLAS_THREAD_VARS}
    return work >= CONCURRENT_MIN_WORK and _usable_cpus() >= 2 and "1" in blas and blas <= {"1", None}


def _both(concurrent: bool, first, second):
    """(first(), second()), with `second` on a worker thread when `concurrent`.

    Each stream runs the same numpy ops on its own arrays either way, so the
    results are bit-identical; numpy releases the GIL in BLAS calls and large
    loops. The worker runs in a copy of this thread's context, which carries
    numpy's errstate, and is joined before this returns or raises; an error
    in `first` wins, as it would serially."""
    if not concurrent:
        return first(), second()
    from concurrent.futures import ThreadPoolExecutor  # imported only where long views need it

    with ThreadPoolExecutor(max_workers=1) as pool:
        later = pool.submit(contextvars.copy_context().run, second)
        return first(), later.result()


def forward_model(model: DeltaModel, batch: EncodedBatch):
    """Per-example probabilities plus the cache needed for backward."""
    fusion = VARIANTS[model.variant].fusion
    if fusion == "Sequence":
        if batch.ids_b is not None:
            raise ValueError(f"{model.variant} expects a single input stream")
        fused, cache_a = enc.forward_batch(model.encoder_before, model.config, _padded(batch.ids_a, batch.starts_a, batch.lens_a), batch.lens_a)
        cache_b = None
    else:
        if batch.ids_b is None:
            raise ValueError(f"{model.variant} expects two input streams")
        (e_b, cache_a), (e_a, cache_b) = _both(
            _streams_concurrent(batch.lens_a, batch.lens_b),
            lambda: enc.forward_batch(model.encoder_before, model.config, _padded(batch.ids_a, batch.starts_a, batch.lens_a), batch.lens_a),
            lambda: enc.forward_batch(model.encoder_after, model.config, _padded(batch.ids_b, batch.starts_b, batch.lens_b), batch.lens_b),
        )
        fused = fuse(e_b, e_a, fusion)
    z1 = fused @ model.head["w1"] + model.head["b1"]
    u = np.tanh(z1)
    logit = (u @ model.head["w2"] + model.head["b2"])[:, 0]
    probs = _sigmoid(logit)
    cache = {"enc_a": cache_a, "enc_b": cache_b, "fused": fused, "u": u, "probs": probs, "logit": logit}
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
    if fusion == "Sequence":
        enc_grads = enc.backward_batch(model.encoder_before, model.config, cache["enc_a"], d_fused)
        for name, g in enc_grads.items():
            grads["enc_before." + name] = g
        return grads

    if fusion == "Subtract":
        d_e_before, d_e_after = d_fused, -d_fused
    else:
        d = model.config.dim
        d_e_before, d_e_after = d_fused[:, :d], d_fused[:, d:]
    g_before, g_after = _both(
        _streams_concurrent(cache["enc_a"]["attn_lens"], cache["enc_b"]["attn_lens"]),
        lambda: enc.backward_batch(model.encoder_before, model.config, cache["enc_a"], d_e_before),
        lambda: enc.backward_batch(model.encoder_after, model.config, cache["enc_b"], d_e_after),
    )
    if model.shared_encoders:  # summed only once both streams are done
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
