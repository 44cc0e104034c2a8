"""The joint single-phase training loop, and checkpoints.

One AdamW optimizer drives every parameter (both encoders and the head)
from the first step; there is no frozen-embedding stage. A checkpoint is
the whole trained model: its JSON config block holds the variant, the
encoder config and the BPE merges it was trained with. Checkpoints use a
fixed little-endian binary layout and round-trip bit-exactly, so two
runs with the same seed and config produce byte-identical files.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import delta_model as dm
from .config import DataError, EncoderConfig, TrainConfig, TrainingError, atomic_write, read_bytes
from .delta_model import DeltaModel, EncodedBatch
from .encoder import Params
from .records import f1_score
from .tokenizer import Vocabulary

CHECKPOINT_MAGIC = b"VFDC"
CHECKPOINT_VERSION = 2


class CheckpointError(DataError):
    pass


class AdamW:
    """Decoupled-weight-decay adaptive-moments optimizer over a flat param dict."""

    def __init__(self, params: Params, config: TrainConfig):
        self.params = params
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: Params) -> None:
        c = self.config
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p in self.params.items():
            g = grads[name].astype(p.dtype)
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + c.adam_eps)
            p -= p.dtype.type(c.learning_rate) * (update + p.dtype.type(c.weight_decay) * p)


def f1_at_half(probs: np.ndarray, labels: np.ndarray) -> float:
    """F1 of the positive class, a probability over 0.5 predicting it."""
    pred, actual = probs > 0.5, labels > 0.5
    return f1_score(int(np.sum(pred & actual)), int(np.sum(pred & ~actual)), int(np.sum(~pred & actual)))[0]


@dataclass
class TrainResult:
    model: DeltaModel
    loss_log: list[tuple[int, int, float, str]]  # (step, epoch, loss, split)
    val_history: list[tuple[int, float]]  # (epoch, val F1)
    best_epoch: int
    best_val_f1: float


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite loss, refused below
def train(
    variant: str,
    enc_config: EncoderConfig,
    train_batch: EncodedBatch,
    val_batch: EncodedBatch,
    config: TrainConfig,
) -> TrainResult:
    """Joint single-phase optimization; returns the best-validation-F1 model,
    the one with the lowest validation loss among epochs tied on F1.

    The per-step training loss and per-epoch validation loss are logged as
    (step, epoch, loss, split) rows.
    """
    model = dm.init_model(variant, enc_config, config.seed)
    opt = AdamW(model.params, config)
    rng = np.random.default_rng(config.seed)

    loss_log: list[tuple[int, int, float, str]] = []
    val_history: list[tuple[int, float]] = []
    best = (-1.0, -math.inf)  # (val F1, -val loss): F1 ties go to the lower val loss; epoch 0 beats it
    best_epoch = -1
    best_state: Params = {}
    step = 0

    for epoch in range(config.epochs):
        perm = rng.permutation(train_batch.size)
        for lo in range(0, train_batch.size, config.batch_size):
            batch = train_batch.take(perm[lo : lo + config.batch_size])
            loss, grads, _ = dm.loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at step {step}")
            step += 1
            opt.step(grads)
            loss_log.append((step, epoch, float(loss), "train"))

        val_probs = dm.predict_in_chunks(model, val_batch, config.batch_size)
        val_loss = dm.batch_loss(val_probs, val_batch.labels)
        if not (np.isfinite(val_loss) and all(np.isfinite(p).all() for p in model.params.values())):
            raise TrainingError(f"epoch {epoch} ends with a non-finite parameter or validation loss (loss {val_loss})")
        val_f1 = f1_at_half(val_probs, val_batch.labels)
        loss_log.append((step, epoch, float(val_loss), "val"))
        val_history.append((epoch, val_f1))
        if (val_f1, -val_loss) > best:
            best = (val_f1, -val_loss)
            best_epoch = epoch
            best_state = copy.deepcopy(model.params)

    for name, arr in model.params.items():
        arr[...] = best_state[name]
    return TrainResult(model=model, loss_log=loss_log, val_history=val_history, best_epoch=best_epoch, best_val_f1=best[0])


def write_loss_log(loss_log, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write("step,epoch,loss,split\n")
        for step, epoch, loss, split in loss_log:
            fh.write(f"{step},{epoch},{loss!r},{split}\n")


def save_checkpoint(model: DeltaModel, vocab: Vocabulary, path: str | Path, extra_config: dict | None = None) -> None:
    """Write the binary checkpoint (magic VFDC, versioned, little-endian)."""
    config = {
        "variant": model.variant,
        "encoder": asdict(model.config),
        "merges": vocab.merges,
        "extra": extra_config or {},
    }
    config_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(config_bytes)))
        fh.write(config_bytes)
        for name in sorted(model.params):
            arr = np.ascontiguousarray(model.params[name], dtype="<f4")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[DeltaModel, Vocabulary, dict]:
    """Read a checkpoint; returns the model, its vocabulary and the extra config dict.

    Raises CheckpointError when the file is malformed, its merges are not a
    vocabulary of the size the encoder embeds, or its tensor names, shapes
    and values are not exactly those of the model its config describes.
    """
    data = read_bytes(path)
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated {what} at offset {off}")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version} at offset 4")
    (config_len,) = struct.unpack("<Q", take(8, "config length"))
    try:
        config = json.loads(take(config_len, "config").decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise CheckpointError(f"{path}: unreadable config block at offset 16 ({type(exc).__name__}: {exc})") from exc

    raw: dict[str, tuple[tuple[int, ...], bytes]] = {}
    while off < len(data):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        name = take(name_len, "tensor name").decode("utf-8", errors="replace")
        if name in raw:
            raise CheckpointError(f"{path}: duplicate tensor {name!r} at offset {off}")
        (rank,) = struct.unpack("<B", take(1, "tensor rank"))
        shape = tuple(struct.unpack("<Q", take(8, "tensor dim"))[0] for _ in range(rank))
        raw[name] = shape, take(math.prod(shape) * 4, f"tensor {name!r} values")

    try:
        enc_config = EncoderConfig.from_dict(config["encoder"])
        vocab = Vocabulary.from_dict(config)
        extra = config["extra"]
        if not isinstance(extra, dict):
            raise TypeError(f"extra is {extra!r}, not an object")
        expected = dm.tensor_shapes(config["variant"], enc_config)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model config ({type(exc).__name__}: {exc})") from exc
    if vocab.size != enc_config.vocab_size:
        raise CheckpointError(f"{path}: vocabulary has {vocab.size} tokens but the encoder embeds {enc_config.vocab_size}")
    tensors: Params = {}
    for name in sorted(expected.keys() | raw.keys()):
        if name not in raw:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        shape, values = raw[name]
        if shape != expected[name]:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}, expected {expected[name]}")
        tensors[name] = np.frombuffer(values, dtype="<f4").reshape(shape).copy()
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")

    return DeltaModel(config["variant"], enc_config, tensors), vocab, extra
