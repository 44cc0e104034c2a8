"""Run configuration, the error classes behind the CLI's exit codes, the
atomic file writer every artifact goes through, and the JSON-lines artifact
reader and writer every stage shares. Each field of the four config classes
(these three and `records.SplitSpec`) carries its one rule as field
metadata, and `checked` applies the rules to one section of a config.

This module imports only the standard library at load time. `records`
and the other data-layer modules import their error bases from here, so
the two names RunConfig reads from them (the variant list and `SplitSpec`)
are imported where they are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
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

# The tokenizer's MIN_VOCAB (5 special tokens and 256 bytes), which this
# module cannot import without numpy; and the largest vocab_size whose BPE
# pair codes (left id × vocab_size + right id) stay exact in int64.
MIN_VOCAB_SIZE = 261
MAX_VOCAB_SIZE = 2**31


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
    (a truncated file, a foreign record, bytes that are not UTF-8, a lone
    surrogate escape that no writer can write back) raises ArtifactError
    naming path:line."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    obj = json.loads(line.decode("utf-8"))
                    if b"\\ud" in line or b"\\uD" in line:  # raises UnicodeEncodeError on a lone surrogate
                        json.dumps(obj, ensure_ascii=False).encode("utf-8")
                    records.append(from_dict(obj))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ArtifactError(f"{path}:{lineno}: unreadable record ({type(exc).__name__}: {exc})") from exc
    return records


def _is_int(value) -> bool:
    """An int (not a bool) that fits in int64, as every numpy size and id does."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _is_finite(value) -> bool:
    """A number (not a bool) other than NaN and ±inf."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -math.inf < value < math.inf


def _is_path(value) -> bool:
    """A string the OS takes as a path: no NUL, and `os.fsencode` accepts it. That
    refuses a lone surrogate such as '\\ud800', but not the 'w\\udcff' that Python
    reads from the non-UTF-8 argument `--out $'w\\xff'`."""
    try:
        os.fsencode(value)
    except (UnicodeEncodeError, TypeError):
        return False
    return isinstance(value, str) and "\0" not in value


def rule(what: str, ok: Callable[[object], bool]) -> dict:
    """A config field's metadata: the one test its value must pass, and the words
    that name it in `bad <section> config: <field> must be <what>, got <value!r>`."""
    return {"what": what, "ok": ok}


def at_least(lo: int) -> dict:
    return rule(f"an integer >= {lo}", lambda v: _is_int(v) and v >= lo)


def list_of(what: str, ok: Callable[[object], bool]) -> dict:
    return rule(f"a list of {what}", lambda v: isinstance(v, list) and all(map(ok, v)))


# Caps on the work a config asks for, the same on every machine. 2^27 encoder
# parameters besides `tok_emb` (which the learned vocabulary sizes) admit the
# paper's CodeBERT-sized encoder: dim 768, 12 layers, ffn_mult 4, max_len 512.
MAX_EPOCHS = 10_000
MAX_ENCODER_PARAMS = 2**27
MAX_LAYERS = 1_024  # a layer costs 16 arrays at any width, so the parameter cap alone lets 2^23 tiny ones in

# Rules that several fields share. The run config hands its seed, max_len and
# vocab_size on to the train and encoder configs, whose fields share its rules.
SEED = at_least(0)
MAX_LEN = at_least(3)  # BOS, SEP and EOS
VOCAB_SIZE = rule(f"an integer in [{MIN_VOCAB_SIZE}, 2^31]", lambda v: _is_int(v) and MIN_VOCAB_SIZE <= v <= MAX_VOCAB_SIZE)
POSITIVE = rule("a finite number > 0", lambda v: _is_finite(v) and v > 0)
BETA = rule("a number in [0, 1)", lambda v: _is_finite(v) and 0 <= v < 1)
OBJECT = rule("an object", lambda v: isinstance(v, dict))
PATH = rule("a string without NUL that os.fsencode accepts", _is_path)


def checked(section: str, cls: type, values: dict, **given):
    """`cls(**values, **given)`, or UsageError naming the first key of `values`
    that is not a field of `cls` left to it, then the first field (in field
    order) that its rule refuses or that has no value and no default."""
    rules = {f.name: f for f in fields(cls) if f.name not in given}
    for key in values:
        if key not in rules:
            raise UsageError(f"bad {section} config: key must be one of {', '.join(rules)}, got {key!r}")
    for name, f in rules.items():
        if name in values:
            if not f.metadata["ok"](values[name]):
                raise UsageError(f"bad {section} config: {name} must be {f.metadata['what']}, got {values[name]!r}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise UsageError(f"bad {section} config: {name} must be {f.metadata['what']}, got nothing")
    return cls(**values, **given)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = field(metadata=VOCAB_SIZE)
    dim: int = field(metadata=at_least(1))
    layers: int = field(metadata=rule(f"an integer in [0, {MAX_LAYERS}]", lambda v: _is_int(v) and 0 <= v <= MAX_LAYERS))
    heads: int = field(metadata=at_least(1))
    max_len: int = field(metadata=MAX_LEN)
    ffn_mult: int = field(default=4, metadata=at_least(1))

    @property
    def ffn_hidden(self) -> int:
        return self.ffn_mult * self.dim

    @property
    def params_besides_tok_emb(self) -> int:
        """The sizes `encoder.param_shapes` gives besides `tok_emb`, summed in closed form."""
        d, h = self.dim, self.ffn_hidden
        return (self.max_len + 2) * d + self.layers * (4 * d * d + 2 * d * h + 9 * d + h)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict, **given) -> "EncoderConfig":
        """A run config's encoder block (vocab_size and max_len `given`) or a
        checkpoint's, through `checked` and the two rules across its fields."""
        enc = checked("encoder", cls, d, **given)
        if enc.dim % enc.heads:
            raise UsageError(f"bad encoder config: dim must be divisible by heads ({enc.heads}), got {enc.dim}")
        if enc.params_besides_tok_emb > MAX_ENCODER_PARAMS:
            raise UsageError(f"bad encoder config: parameters besides tok_emb must be at most 2^27, got {enc.params_besides_tok_emb}")
        return enc


@dataclass
class TrainConfig:
    learning_rate: float = field(default=5e-5, metadata=POSITIVE)
    beta1: float = field(default=0.9, metadata=BETA)
    beta2: float = field(default=0.999, metadata=BETA)
    adam_eps: float = field(default=1e-8, metadata=POSITIVE)
    weight_decay: float = field(default=0.01, metadata=rule("a finite number >= 0", lambda v: _is_finite(v) and v >= 0))
    epochs: int = field(default=10, metadata=rule(f"an integer in [1, {MAX_EPOCHS}]", lambda v: _is_int(v) and 1 <= v <= MAX_EPOCHS))
    batch_size: int = field(default=128, metadata=at_least(1))
    seed: int = field(default=0, metadata=SEED)


@dataclass
class RunConfig:
    repos: list[str] = field(default_factory=list, metadata=list_of("strings without NUL that os.fsencode accepts", _is_path))
    labels_file: str = field(default="", metadata=PATH)
    workdir: str = field(default="fixhound_out", metadata=PATH)
    k: int = field(default=3, metadata=at_least(0))
    max_len: int = field(default=512, metadata=MAX_LEN)
    vocab_size: int = field(default=512, metadata=VOCAB_SIZE)
    encoder: dict = field(default_factory=lambda: {"dim": 32, "layers": 1, "heads": 2, "ffn_mult": 2}, metadata=OBJECT)
    variant: str = field(default="EmbedSubtract_Duo", metadata=rule("a string", lambda v: isinstance(v, str)))
    train: dict = field(default_factory=dict, metadata=OBJECT)
    split: dict = field(default_factory=lambda: {"strategy": "Temporal", "test_start": None}, metadata=OBJECT)
    cost_effort_levels: list[float] = field(
        default_factory=lambda: [5, 20], metadata=list_of("numbers in (0, 100]", lambda x: _is_finite(x) and 0 < x <= 100)
    )
    downsample_ratio: float = field(default=38.0, metadata=POSITIVE)
    seed: int = field(default=0, metadata=SEED)
    since: int = field(default=0, metadata=rule("an integer", _is_int))
    until: int = field(default=2**62, metadata=rule("an integer", _is_int))

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    def train_config(self) -> TrainConfig:
        return checked("train", TrainConfig, self.train, seed=self.seed)

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig.from_dict(self.encoder, vocab_size=vocab_size, max_len=self.max_len)

    def split_spec(self):
        from .records import SplitSpec

        return checked("split", SplitSpec, self.split)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then the JSON object at `path`, then the non-None `overrides`;
    every section is checked here, so a bad one fails before any command runs."""
    from .change_builder import VARIANTS

    values = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise DataError(f"config file not found: {p}")
        try:
            values = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as exc:  # also UnicodeDecodeError
            raise UsageError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError(f"config file {p} does not hold a JSON object")
    cfg = checked("run", RunConfig, {**values, **{key: value for key, value in overrides.items() if value is not None}})
    if cfg.variant not in VARIANTS:
        raise UsageError(f"bad run config: variant must be one of {', '.join(VARIANTS)}, got {cfg.variant!r}")
    cfg.encoder_config(cfg.vocab_size), cfg.train_config(), cfg.split_spec()  # each checks its section
    return cfg
