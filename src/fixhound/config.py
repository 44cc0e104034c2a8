"""Run configuration, the error classes behind the CLI's exit codes, the
atomic file writer every artifact goes through, and the JSON-lines artifact
reader and writer every stage shares.

This module imports only the standard library at load time. `repo_miner`
and the other data-layer modules import their error bases from here, so
the two names RunConfig reads from them (the variant list and `SplitSpec`)
are imported where they are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TypeVar


class UsageError(Exception):
    """A bad command line or config: exit code 1."""


class DataError(Exception):
    """A missing, malformed or mismatched input or artifact: exit code 2."""


class TrainingError(Exception):
    """Training could not produce a model: exit code 3."""


class ArtifactError(DataError):
    """A JSON-lines artifact line that does not parse into its record."""


Record = TypeVar("Record")


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Yield a file beside `path` that replaces `path` only when the block
    ends without error, so no reader sees a half-written artifact; on error
    the old file stays and the temp file is removed. No fsync."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(records: Iterable, path: str | Path) -> int:
    """Write one `to_dict()` JSON object per line; returns the count."""
    n = 0
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), ensure_ascii=False) + "\n")
            n += 1
    return n


def read_jsonl(path: str | Path, from_dict: Callable[[dict], Record]) -> list[Record]:
    """Read the records `write_jsonl` wrote; a line that does not parse
    (a truncated file, a foreign record) raises ArtifactError naming path:line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    records.append(from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ArtifactError(f"{path}:{lineno}: unreadable record ({type(exc).__name__}: {exc})") from exc
    return records


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    dim: int
    layers: int
    heads: int
    max_len: int
    ffn_mult: int = 4

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if min(self.vocab_size, self.dim, self.heads, self.max_len, self.ffn_mult) < 1:
            raise ValueError("config fields must be positive")
        if self.layers < 0:
            raise ValueError("layers must be non-negative")

    @property
    def ffn_hidden(self) -> int:
        return self.ffn_mult * self.dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 10
    batch_size: int = 128
    micro_batch: int | None = None  # gradient-accumulation chunk size
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0 or (self.micro_batch is not None and self.micro_batch < 1):
            raise ValueError("batch_size and micro_batch must be positive and epochs non-negative")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class RunConfig:
    repos: list[str] = field(default_factory=list)
    labels_file: str = ""
    workdir: str = "fixhound_out"
    k: int = 3
    max_len: int = 512
    vocab_size: int = 512
    encoder: dict = field(default_factory=lambda: {"dim": 32, "layers": 1, "heads": 2, "ffn_mult": 2})
    variant: str = "EmbedSubtract_Duo"
    train: dict = field(default_factory=dict)
    split: dict = field(default_factory=lambda: {"strategy": "Temporal", "test_start": None})
    cost_effort_levels: list[float] = field(default_factory=lambda: [5, 20])
    downsample_ratio: float = 38.0
    seed: int = 0
    since: int = 0
    until: int = 2**62

    def validate(self) -> None:
        from .change_builder import VARIANTS

        checks = [(name, "an integer", _is_int) for name in ("k", "max_len", "vocab_size", "seed", "since", "until")]
        checks += [
            ("cost_effort_levels", "a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
            ("downsample_ratio", "a number", _is_number),
            ("repos", "a list of strings", lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v)),
        ]
        checks += [(name, "a string", lambda v: isinstance(v, str)) for name in ("labels_file", "workdir")]
        checks += [(name, "an object", lambda v: isinstance(v, dict)) for name in ("encoder", "train", "split")]
        for name, expected, ok in checks:
            if not ok(getattr(self, name)):
                raise UsageError(f"bad {name} config: expected {expected}, got {getattr(self, name)!r}")
        if self.k < 0:
            raise UsageError("k must be non-negative")
        if self.variant not in VARIANTS:
            raise UsageError(f"unknown variant {self.variant!r}; choose from {', '.join(VARIANTS)}")
        for level in self.cost_effort_levels:
            if not 0 < level <= 100:
                raise UsageError(f"CostEffort level {level} outside (0, 100]")
        # build the nested configs now, so a bad one fails here and not mid-command
        for section, build in (
            ("encoder", lambda: self.encoder_config(self.vocab_size)),
            ("train", self.train_config),
            ("split", self.split_spec),
        ):
            try:
                build()
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"bad {section} config ({type(exc).__name__}: {exc})") from exc

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{**self.train, "seed": self.seed})

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, max_len=self.max_len, **self.encoder)

    def split_spec(self):
        from .repo_miner import SplitSpec

        return SplitSpec.from_dict(self.split)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise DataError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"config file {p} does not hold a JSON object")
        for key, value in data.items():
            if key not in RunConfig.__dataclass_fields__:
                raise UsageError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg
