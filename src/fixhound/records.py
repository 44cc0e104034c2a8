"""The commit records every stage reads, their JSON-lines files, and the
train/val/test split over them.

A CommitRecord holds one commit's per-file line diffs (hunks) together with
the lines within `context` of each hunk on both sides, so downstream stages
can cut context windows of any size up to `context` without touching git.
`split_dataset` and `downsample_nvf` partition the records for training,
validation and test. Mining them from git is `repo_miner`'s job; this
module imports only the standard library and `config`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .config import DataError, Record, _is_finite, _is_int, list_of, read_jsonl, rule, write_jsonl

VF = "VF"
NVF = "NVF"

CROSS_PROJECT = "CrossProject"
TEMPORAL = "Temporal"


class SplitError(DataError):
    """Records that the configured split cannot partition."""


_REPOS = list_of("strings", lambda r: isinstance(r, str))
_FRACTION = rule("a number in [0, 1]", lambda v: _is_finite(v) and 0 <= v <= 1)


# Field checks for the from_dicts: a damaged artifact line fails as it is read, naming path:line.
def _int(d: dict, name: str) -> int:
    if not _is_int(d[name]):
        raise ValueError(f"{name} must be an integer, not {type(d[name]).__name__}")
    return d[name]


def _count(d: dict, name: str) -> None:
    if _int(d, name) < 0:
        raise ValueError(f"{name} must be >= 0, not {d[name]}")


def _str(d: dict, name: str) -> None:
    if not isinstance(d[name], str):
        raise ValueError(f"{name} must be a string, not {type(d[name]).__name__}")


def _verdict(d: dict, name: str) -> None:
    if d[name] not in (VF, NVF):
        raise ValueError(f"{name} must be {VF!r} or {NVF!r}, not {d[name]!r}")


def _lines(d: dict, name: str) -> tuple[str, ...]:
    if not isinstance(d[name], list) or not all(isinstance(line, str) for line in d[name]):
        raise ValueError(f"{name} must be a list of strings")
    return tuple(d[name])


@dataclass(frozen=True)
class Hunk:
    old_start: int  # 1-based; for pure insertions, the line the insert precedes
    removed_lines: tuple[str, ...]
    new_start: int
    added_lines: tuple[str, ...]

    def __post_init__(self):
        if not self.removed_lines and not self.added_lines:
            raise ValueError("hunk with neither removed nor added lines")

    def to_dict(self) -> dict:
        return dict(self.__dict__)  # tuples serialise as JSON arrays

    @classmethod
    def from_dict(cls, d: dict) -> "Hunk":
        return cls(_int(d, "old_start"), _lines(d, "removed_lines"), _int(d, "new_start"), _lines(d, "added_lines"))


@dataclass(frozen=True)
class Window:
    """Lines `old_lo`.. of the old file and `new_lo`.. of the new file (1-based)
    that one merged context region covers."""

    old_lo: int
    new_lo: int
    old_lines: tuple[str, ...]
    new_lines: tuple[str, ...]

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        return cls(_int(d, "old_lo"), _int(d, "new_lo"), _lines(d, "old_lines"), _lines(d, "new_lines"))


@dataclass(frozen=True)
class FileChange:
    """One file's hunks plus the only lines any cut at k <= `context` reads:
    the merged regions of `context_regions(fc, context)`, one Window each."""

    path: str
    hunks: tuple[Hunk, ...]
    removed_loc: int
    added_loc: int
    old_len: int
    new_len: int
    context: int
    windows: tuple[Window, ...]

    def to_dict(self) -> dict:
        return {**self.__dict__, "hunks": [h.to_dict() for h in self.hunks], "windows": [w.to_dict() for w in self.windows]}

    @classmethod
    def from_dict(cls, d: dict) -> "FileChange":
        _str(d, "path")
        hunks = tuple(Hunk.from_dict(h) for h in d["hunks"])
        for name in ("removed_loc", "added_loc", "old_len", "new_len", "context"):
            _count(d, name)
        fc = cls(**{**d, "hunks": hunks, "windows": tuple(Window.from_dict(w) for w in d["windows"])})
        # A cut at k <= context slices its lines from the window of its region
        # at `context`, so each window must be exactly that region.
        windows = [(w.old_lo, w.new_lo, len(w.old_lines), len(w.new_lines)) for w in fc.windows]
        regions = context_regions(fc, fc.context)
        if windows != [(r.old_lo, r.new_lo, len(range(r.old_lo, r.old_hi + 1)), len(range(r.new_lo, r.new_hi + 1))) for r in regions]:
            raise ValueError(f"{fc.path}: context windows are not the regions its hunks give at context {fc.context}")
        return fc


@dataclass(frozen=True)
class Region:
    """A maximal run of hunks whose k-line context windows touch or overlap.

    Bounds are 1-based inclusive line indices into the old and new file
    versions, already clamped to the file; an empty side is lo > hi.
    """

    old_lo: int
    old_hi: int
    new_lo: int
    new_hi: int
    hunks: tuple[Hunk, ...]


def _hunk_spans(h: Hunk, k: int) -> tuple[int, int, int, int]:
    # Unclamped context-extended spans; a pure insertion/deletion yields an
    # empty core span that still grows k lines to each side.
    old_lo = h.old_start - k
    old_hi = h.old_start + len(h.removed_lines) - 1 + k
    new_lo = h.new_start - k
    new_hi = h.new_start + len(h.added_lines) - 1 + k
    return old_lo, old_hi, new_lo, new_hi


def context_regions(fc: FileChange, k: int) -> tuple[Region, ...]:
    """Group hunks into merged context regions at window size k >= 0."""
    regions: list[Region] = []
    cur: list[Hunk] = []
    cur_span = (0, -1, 0, -1)
    for h in fc.hunks:
        span = _hunk_spans(h, k)
        if not cur:
            cur = [h]
            cur_span = span
            continue
        touches_old = span[0] <= cur_span[1] + 1
        touches_new = span[2] <= cur_span[3] + 1
        if touches_old or touches_new:
            cur.append(h)
            cur_span = (cur_span[0], max(cur_span[1], span[1]), cur_span[2], max(cur_span[3], span[3]))
        else:
            regions.append(_clamp_region(cur, cur_span, fc))
            cur = [h]
            cur_span = span
    if cur:
        regions.append(_clamp_region(cur, cur_span, fc))
    return tuple(regions)


def _clamp_region(hunks: list[Hunk], span: tuple[int, int, int, int], fc: FileChange) -> Region:
    old_lo, old_hi, new_lo, new_hi = span
    return Region(
        old_lo=max(1, old_lo),
        old_hi=min(fc.old_len, old_hi),
        new_lo=max(1, new_lo),
        new_hi=min(fc.new_len, new_hi),
        hunks=tuple(hunks),
    )


@dataclass(frozen=True)
class CommitRecord:
    repo_id: str
    commit_hash: str
    timestamp: int  # UTC seconds
    label: str  # VF or NVF
    files: tuple[FileChange, ...]

    def __post_init__(self):
        if not self.files:
            raise ValueError(f"commit {self.commit_hash} has no file changes")

    def to_dict(self) -> dict:
        return {**self.__dict__, "files": [f.to_dict() for f in self.files]}

    @classmethod
    def from_dict(cls, d: dict) -> "CommitRecord":
        _str(d, "repo_id"), _str(d, "commit_hash"), _int(d, "timestamp"), _verdict(d, "label")
        return cls(**{**d, "files": tuple(FileChange.from_dict(f) for f in d["files"])})


def downsample_nvf(records: list[CommitRecord], ratio: float, seed: int) -> list[CommitRecord]:
    """Keep all VF records and a seeded uniform sample of NVF records.

    Target NVF count is ceil(ratio * VF count), clamped to availability.
    Output is re-sorted by (timestamp, repo_id, commit_hash).
    """
    vf = [r for r in records if r.label == VF]
    nvf = [r for r in records if r.label == NVF]
    target = min(len(nvf), math.ceil(ratio * len(vf)))
    kept_nvf = random.Random(seed).sample(nvf, target)
    out = vf + kept_nvf
    out.sort(key=lambda r: (r.timestamp, r.repo_id, r.commit_hash))
    return out


@dataclass(frozen=True)
class SplitSpec:
    strategy: str = field(metadata=rule(f"{CROSS_PROJECT!r} or {TEMPORAL!r}", lambda v: v in (CROSS_PROJECT, TEMPORAL)))
    # CrossProject: explicit repo partitions
    train_repos: Sequence[str] = field(default=(), metadata=_REPOS)
    val_repos: Sequence[str] = field(default=(), metadata=_REPOS)
    test_repos: Sequence[str] = field(default=(), metadata=_REPOS)
    # Temporal: VF fraction boundaries plus the held-out test range start
    train_frac: float = field(default=0.9, metadata=_FRACTION)
    val_frac: float = field(default=0.1, metadata=_FRACTION)
    test_start: int | None = field(default=None, metadata=rule("null or an integer", lambda v: v is None or _is_int(v)))


def split_dataset(records: list[CommitRecord], spec: SplitSpec) -> dict[str, list[CommitRecord]]:
    """Partition commit records per the split spec; deterministic."""
    return (_split_cross_project if spec.strategy == CROSS_PROJECT else _split_temporal)(records, spec)


def _split_cross_project(records, spec: SplitSpec):
    assignment: dict[str, str] = {}
    for part, repos in (("train", spec.train_repos), ("val", spec.val_repos), ("test", spec.test_repos)):
        for repo in repos:
            if repo in assignment:
                raise SplitError(f"repo {repo!r} listed in both {assignment[repo]} and {part}")
            assignment[repo] = part
    out = {"train": [], "val": [], "test": []}
    for rec in records:
        part = assignment.get(rec.repo_id)
        if part is None:
            raise SplitError(f"repo {rec.repo_id!r} has commits but is listed in no partition")
        out[part].append(rec)
    return out


def _split_temporal(records, spec: SplitSpec):
    if spec.test_start is None:
        raise SplitError("Temporal split requires test_start")
    pre = [r for r in records if r.timestamp < spec.test_start]
    test = [r for r in records if r.timestamp >= spec.test_start]
    vf = sorted((r for r in pre if r.label == VF), key=lambda r: (r.timestamp, r.repo_id, r.commit_hash))
    n_train = int(len(vf) * spec.train_frac)
    # extend past timestamp ties so the train/val boundary is strict
    while 0 < n_train < len(vf) and vf[n_train].timestamp == vf[n_train - 1].timestamp:
        n_train += 1
    boundary = vf[n_train - 1].timestamp if n_train > 0 else None
    out = {"train": [], "val": [], "test": list(test)}
    for rec in pre:
        if boundary is not None and rec.timestamp <= boundary:
            out["train"].append(rec)
        else:
            out["val"].append(rec)
    for part in out.values():
        part.sort(key=lambda r: (r.timestamp, r.repo_id, r.commit_hash))
    return out


def write_commits_jsonl(records: Iterable[CommitRecord], path: str | Path) -> int:
    """Write records as JSON-lines in ascending timestamp order; returns count."""
    return write_jsonl(sorted(records, key=lambda r: (r.timestamp, r.repo_id, r.commit_hash)), path)


def f1_score(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(F1, precision, recall) from true positive, false positive and false negative counts; 0/0 counts as 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return (2 * precision * recall / (precision + recall) if precision + recall else 0.0), precision, recall


def once_per_commit(from_dict: Callable[[dict], Record]) -> Callable[[dict], Record]:
    """`from_dict` for one `read_jsonl` call, refusing a (repo_id, commit_hash) it has read before."""
    seen: set[tuple[str, str]] = set()

    def once(d: dict) -> Record:
        rec = from_dict(d)
        if (rec.repo_id, rec.commit_hash) in seen:
            raise ValueError(f"commit {rec.commit_hash} of {rec.repo_id} appears twice")
        seen.add((rec.repo_id, rec.commit_hash))
        return rec

    return once


def read_commits_jsonl(path: str | Path) -> list[CommitRecord]:
    """Read `write_commits_jsonl` output; a repeated (repo_id, commit_hash) is an unreadable record."""
    return read_jsonl(path, once_per_commit(CommitRecord.from_dict))
