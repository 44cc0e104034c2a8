"""Mine commit-level change records from local git repositories.

Commits are decomposed into per-file line diffs (hunks) together with the
lines within `context` of each hunk on both sides (the merged regions of a
cut at k=context, like `git diff -U<context>`), so downstream stages can cut
context windows of any size up to `context` without touching git again.
Labels come from an offline CSV feed mapping (repo_id, commit_hash) to a
vulnerability id.

Mining starts a fixed number of git processes, however long the history:
`git log` lists the commits, one `git diff-tree --stdin` pass gives every
commit's file statuses with full object ids, and one long-lived
`git cat-file --batch` process streams the blobs by object id, with up to
`_IN_FLIGHT` requests written ahead of the reply being read. Because
blobs are read by id rather than by `commit:path`, a file whose name is not
valid UTF-8 is mined like any other (its stored path is decoded with
errors="replace"). `split_dataset` and `downsample_nvf` partition the
mined records for training, validation and test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import random
import subprocess
from collections import deque
from dataclasses import dataclass, replace
from difflib import SequenceMatcher
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .config import DataError, _is_int, _is_number, read_jsonl, write_jsonl

log = logging.getLogger(__name__)

VF = "VF"
NVF = "NVF"

CROSS_PROJECT = "CrossProject"
TEMPORAL = "Temporal"

# Context a mined record keeps by default: the largest k of the paper's sweep.
CONTEXT_MAX = 9

# Bytes of file head inspected for the binary heuristic (NUL byte sniff).
_BINARY_SNIFF_BYTES = 8000

# Most `git cat-file --batch` requests left unanswered at once. A request is
# at most 65 bytes (a SHA-256 id plus a newline), so 16 of them take at most
# 1,040 bytes: less than one 4,096-byte page, the smallest buffer Linux gives
# a pipe (pipe(7)). A write therefore never blocks while git is blocked on a
# reply we have not read, and the stream cannot deadlock. On the benchmark's
# history-scan workload, in-process mining took 206 ms with 1 request in
# flight, 145 ms with 8, 138 ms with 16 and 134 ms with 64.
_IN_FLIGHT = 16


class MiningError(DataError):
    """Fatal repository-level problem (not a git repo, unreadable path)."""


class LabelError(DataError):
    """Malformed or inconsistent label feed."""


class SplitError(DataError):
    """Records that the configured split cannot partition."""


class _UnreadableObject(Exception):
    """An object id the blob stream cannot return as a blob."""


# Field checks for the from_dicts: a damaged artifact line fails as it is read, naming path:line.
def _int(d: dict, name: str) -> int:
    if not _is_int(d[name]):
        raise ValueError(f"{name} must be an integer, not {type(d[name]).__name__}")
    return d[name]


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
        hunks = tuple(Hunk.from_dict(h) for h in d["hunks"])
        if hunks and not d["windows"]:
            raise ValueError(f"{d['path']}: hunks without a context window")
        for name in ("removed_loc", "added_loc", "old_len", "new_len", "context"):
            _int(d, name)
        windows = tuple(Window.from_dict(w) for w in d["windows"])
        # A cut at k <= context finds its window as the last one starting at or
        # before the region, so the windows must start in order and the first
        # must start at or before the first hunk's widest region.
        if any(a.old_lo >= b.old_lo for a, b in zip(windows, windows[1:])):
            raise ValueError(f"{d['path']}: context windows out of order")
        if hunks and windows[0].old_lo > max(1, hunks[0].old_start - d["context"]):
            raise ValueError(f"{d['path']}: context windows do not cover the first hunk")
        return cls(**{**d, "hunks": hunks, "windows": windows})


def file_change(path: str, old_lines: tuple[str, ...] | list[str], new_lines: tuple[str, ...] | list[str], context: int) -> FileChange:
    """Diff two file versions and keep the lines a cut at k <= context can read."""
    from .change_builder import context_regions  # change_builder imports this module

    hunks = diff_lines(old_lines, new_lines)
    removed, added = sum(len(h.removed_lines) for h in hunks), sum(len(h.added_lines) for h in hunks)
    fc = FileChange(path, hunks, removed, added, len(old_lines), len(new_lines), context, windows=())
    windows = tuple(
        Window(r.old_lo, r.new_lo, tuple(old_lines[r.old_lo - 1 : r.old_hi]), tuple(new_lines[r.new_lo - 1 : r.new_hi]))
        for r in context_regions(fc, context)
    )
    return replace(fc, windows=windows)


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
        _int(d, "timestamp")
        return cls(**{**d, "files": tuple(FileChange.from_dict(f) for f in d["files"])})


def diff_lines(old: tuple[str, ...] | list[str], new: tuple[str, ...] | list[str]) -> tuple[Hunk, ...]:
    """Line-level diff of two file versions as a tuple of hunks.

    Hunks are sorted by old-file position and non-overlapping; applying
    them to `old` reproduces `new`.
    """
    matcher = SequenceMatcher(a=list(old), b=list(new), autojunk=False)
    hunks = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        hunks.append(
            Hunk(
                old_start=i1 + 1,
                removed_lines=tuple(old[i1:i2]),
                new_start=j1 + 1,
                added_lines=tuple(new[j1:j2]),
            )
        )
    return tuple(hunks)


def _split_lines(text: str) -> tuple[str, ...]:
    if not text:
        return ()
    if text.endswith("\n"):
        text = text[:-1]
    return tuple(text.split("\n"))


def _git(repo_path: Path, *args: str, stdin: bytes | None = None) -> bytes:
    proc = subprocess.run(
        ["git", "-C", str(repo_path), *args],
        input=stdin,
        capture_output=True,
        check=True,
    )
    return proc.stdout


def _is_binary(blob: bytes) -> bool:
    return b"\x00" in blob[:_BINARY_SNIFF_BYTES]


def _file_statuses(repo_path: Path, shas: list[str]) -> dict[str, list[tuple[str, str, str, str]]]:
    """Map each commit to its (status, old_oid, new_oid, path) entries, from one diff-tree pass.

    For each commit, diff-tree prints the commit id and then one
    `:oldmode newmode oldoid newoid status\\0path\\0` entry per changed file;
    a commit that changes nothing prints nothing. Object ids are always full.
    """
    raw = _git(
        repo_path, "diff-tree", "--stdin", "-r", "--root", "--no-renames", "-z",
        stdin="".join(f"{sha}\n" for sha in shas).encode(),
    )
    statuses: dict[str, list[tuple[str, str, str, str]]] = {}
    fields = iter(raw.split(b"\0"))
    for field in fields:
        if field.startswith(b":"):
            _, _, old_oid, new_oid, status = field.decode().split(" ")
            path = next(fields).decode("utf-8", errors="replace")
            entries.append((status[0], old_oid, new_oid, path))
        elif field:
            entries = statuses.setdefault(field.decode(), [])
    return statuses


def _blob_stream(cat_file: subprocess.Popen, oids: Iterable[str]) -> Iterator[bytes | _UnreadableObject]:
    """Yield the content of each object in `oids`, in order, from a `git cat-file --batch` process.

    Up to _IN_FLIGHT requests are written (and flushed) ahead of the reply
    being read, so git writes the next blobs while the caller diffs this one.
    A missing object (a submodule gitlink, a shallow or partial clone) or one
    that is not a blob comes out as an _UnreadableObject; a reply that is
    cut short means the process died.
    """
    oids = iter(oids)
    pending: deque[str] = deque()
    writable = True
    while True:
        batch = list(islice(oids, _IN_FLIGHT - len(pending)))
        pending.extend(batch)
        if batch and writable:
            try:
                cat_file.stdin.write("".join(f"{oid}\n" for oid in batch).encode())
                cat_file.stdin.flush()
            except BrokenPipeError:
                writable = False  # the process is gone: its missing replies read as a short reply below
        if not pending:
            return
        oid = pending.popleft()
        header = cat_file.stdout.readline().split()
        if header[1:] == [b"missing"]:
            yield _UnreadableObject(f"object {oid} missing")
            continue
        if len(header) == 3:
            size = int(header[2]) + 1  # the content is followed by a newline
            data = cat_file.stdout.read(size)
            if len(data) == size:
                if header[1] != b"blob":
                    yield _UnreadableObject(f"object {oid} is a {header[1].decode()}, not a blob")
                else:
                    yield data[:-1]
                continue
        raise MiningError(f"git cat-file --batch stopped answering while reading object {oid}")


def _read_order(entries: Iterable[tuple[str, str, str, str]]) -> Iterator[str]:
    """The object ids a commit's diff-tree entries read, in file order: old side, then new."""
    for status, old_oid, new_oid, _ in entries:
        if status != "A":
            yield old_oid
        if status != "D":
            yield new_oid


def _file_change(path: str, old_blob: bytes, new_blob: bytes, context: int) -> FileChange | None:
    if _is_binary(old_blob) or _is_binary(new_blob):
        return None
    old_lines = _split_lines(old_blob.decode("utf-8", errors="replace"))
    new_lines = _split_lines(new_blob.decode("utf-8", errors="replace"))
    fc = file_change(path, old_lines, new_lines, context)
    return fc if fc.hunks else None


def mine_repository(
    repo_path: str | Path,
    since: int = 0,
    until: int = 2**62,
    repo_id: str | None = None,
    context: int = CONTEXT_MAX,
) -> Iterator[CommitRecord]:
    """Yield one unlabeled CommitRecord per non-merge commit in [since, until],
    each file keeping `context` lines around its hunks.

    Records come out in ascending (timestamp, commit_hash) order. Merge
    commits, binary files, and files with zero changed lines are skipped;
    commits left with no files are dropped. Renames are not followed, so a
    rename appears as a delete plus an add. A commit with an object that
    cannot be read as a blob (a submodule gitlink, a shallow or partial
    clone) is skipped with a warning.

    The number of git processes does not grow with the history: after two
    `rev-parse` checks, one `git log` lists the commits, one
    `git diff-tree --stdin` gives every in-window commit's file statuses and
    object ids, and one `git cat-file --batch` process streams the blobs by
    object id, with up to `_IN_FLIGHT` requests unanswered. Reading by id
    also mines files whose names are not UTF-8; the stored path is decoded
    with errors="replace". The cat-file process is closed and reaped when
    the generator finishes or is closed.
    """
    repo_path = Path(repo_path)
    if repo_id is None:
        repo_id = repo_path.name
    try:
        _git(repo_path, "rev-parse", "--git-dir")
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        raise MiningError(f"not a git repository: {repo_path}") from exc

    try:
        _git(repo_path, "rev-parse", "--verify", "HEAD")
    except subprocess.CalledProcessError:
        return  # no commits yet

    listing = _git(repo_path, "log", "--no-merges", "--format=%H %ct", "HEAD").decode()
    commits = []
    for line in listing.splitlines():
        sha, ts = line.split()
        ts = int(ts)
        if since <= ts <= until:
            commits.append((ts, sha))
    commits.sort()
    if not commits:
        return

    statuses = _file_statuses(repo_path, [sha for _, sha in commits])
    cat_file = subprocess.Popen(
        ["git", "-C", str(repo_path), "cat-file", "--batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    blobs = _blob_stream(cat_file, (oid for _, sha in commits for oid in _read_order(statuses.get(sha, ()))))
    try:
        for ts, sha in commits:
            # Pull all of a commit's blobs before diffing any, so a skipped commit still consumes its replies.
            entries = statuses.get(sha, ())
            sides = [(b"" if status == "A" else next(blobs), b"" if status == "D" else next(blobs)) for status, *_ in entries]
            unreadable = next((blob for pair in sides for blob in pair if isinstance(blob, _UnreadableObject)), None)
            if unreadable is not None:
                log.warning("skipping unreadable commit %s in %s: %s", sha, repo_path, unreadable)
                continue
            files = [fc for (*_, path), (old, new) in zip(entries, sides) if (fc := _file_change(path, old, new, context))]
            if files:
                files.sort(key=lambda f: f.path)
                yield CommitRecord(repo_id=repo_id, commit_hash=sha, timestamp=ts, label=NVF, files=tuple(files))
    finally:
        cat_file.stdout.close()
        with contextlib.suppress(BrokenPipeError):  # unsent bytes of a request to a dead process
            cat_file.stdin.close()
        cat_file.wait()


def load_labels(labels_file: str | Path) -> dict[tuple[str, str], str]:
    """Parse the label feed CSV (header repo_id,commit_hash,vuln_id)."""
    labels_file = Path(labels_file)
    try:
        text = labels_file.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelError(f"{labels_file}: not UTF-8 text (byte {exc.start})") from None
    entries: dict[tuple[str, str], str] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != ["repo_id", "commit_hash", "vuln_id"]:
        raise LabelError(f"{labels_file}: bad header {header!r}")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 3 or not all(row):
            raise LabelError(f"{labels_file}:{lineno}: malformed row {row!r}")
        repo_id, commit_hash, vuln_id = row
        key = (repo_id, commit_hash)
        if key in entries and entries[key] != vuln_id:
            raise LabelError(
                f"{labels_file}:{lineno}: conflicting vuln_id for {key}: "
                f"{entries[key]!r} vs {vuln_id!r}"
            )
        entries[key] = vuln_id
    return entries


def attach_labels(
    records: Iterable[CommitRecord], labels: dict[tuple[str, str], str]
) -> Iterator[CommitRecord]:
    """Mark each record VF iff its (repo_id, commit_hash) is in the label map."""
    for rec in records:
        label = VF if (rec.repo_id, rec.commit_hash) in labels else NVF
        yield replace(rec, label=label)


def downsample_nvf(records: list[CommitRecord], ratio: float, seed: int) -> list[CommitRecord]:
    """Keep all VF records and a seeded uniform sample of NVF records.

    Target NVF count is ceil(ratio * VF count), clamped to availability.
    Output is re-sorted by (timestamp, repo_id, commit_hash).
    """
    vf = [r for r in records if r.label == VF]
    nvf = [r for r in records if r.label == NVF]
    if not vf:
        raise ValueError("cannot downsample: no VF records present")
    target = min(len(nvf), math.ceil(ratio * len(vf)))
    kept_nvf = random.Random(seed).sample(nvf, target)
    out = vf + kept_nvf
    out.sort(key=lambda r: (r.timestamp, r.repo_id, r.commit_hash))
    return out


@dataclass(frozen=True)
class SplitSpec:
    strategy: str
    # CrossProject: explicit repo partitions
    train_repos: tuple[str, ...] = ()
    val_repos: tuple[str, ...] = ()
    test_repos: tuple[str, ...] = ()
    # Temporal: VF fraction boundaries plus the held-out test range start
    train_frac: float = 0.9
    val_frac: float = 0.1
    test_start: int | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SplitSpec":
        """Build a spec from config JSON; a field of the wrong type or range raises TypeError/ValueError."""
        if d["strategy"] not in (CROSS_PROJECT, TEMPORAL):
            raise ValueError(f"unknown split strategy {d['strategy']!r}")
        if not (d.get("test_start") is None or _is_int(d["test_start"])):
            raise TypeError(f"test_start must be an integer or null, got {d['test_start']!r}")
        for name in ("train_frac", "val_frac"):
            if name in d and not (_is_number(d[name]) and 0 <= d[name] <= 1):
                raise ValueError(f"{name} must be a number in [0, 1], got {d[name]!r}")
        for name in ("train_repos", "val_repos", "test_repos"):
            if not (isinstance(d.get(name, []), list) and all(isinstance(r, str) for r in d.get(name, []))):
                raise TypeError(f"{name} must be a list of strings, got {d[name]!r}")
        return cls(**{**d, **{name: tuple(d.get(name, ())) for name in ("train_repos", "val_repos", "test_repos")}})


def split_dataset(records: list[CommitRecord], spec: SplitSpec) -> dict[str, list[CommitRecord]]:
    """Partition commit records per the split spec; deterministic."""
    if spec.strategy == CROSS_PROJECT:
        return _split_cross_project(records, spec)
    if spec.strategy == TEMPORAL:
        return _split_temporal(records, spec)
    raise SplitError(f"unknown split strategy {spec.strategy!r}")


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


def read_commits_jsonl(path: str | Path) -> list[CommitRecord]:
    """Read `write_commits_jsonl` output; a repeated (repo_id, commit_hash) is an unreadable record."""
    seen: set[tuple[str, str]] = set()

    def from_dict(d: dict) -> CommitRecord:
        rec = CommitRecord.from_dict(d)
        if (rec.repo_id, rec.commit_hash) in seen:
            raise ValueError(f"commit {rec.commit_hash} of {rec.repo_id} appears twice")
        seen.add((rec.repo_id, rec.commit_hash))
        return rec

    return read_jsonl(path, from_dict)
