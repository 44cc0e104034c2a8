"""Mine commit-level change records from local git repositories.

Commits are decomposed into per-file line diffs (hunks) together with the
full pre- and post-change file contents, so downstream stages can cut
context windows of any size without touching git again. Labels come from
an offline CSV feed mapping (repo_id, commit_hash) to a vulnerability id.

Mining starts a fixed number of git processes, however long the history:
`git log` lists the commits, one `git diff-tree --stdin` pass gives every
commit's file statuses with full object ids, and one long-lived
`git cat-file --batch` process streams the blobs by object id. Because
blobs are read by id rather than by `commit:path`, a file whose name is not
valid UTF-8 is mined like any other (its stored path is decoded with
errors="replace").
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import random
import subprocess
from dataclasses import dataclass, replace
from difflib import SequenceMatcher
from pathlib import Path
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

VF = "VF"
NVF = "NVF"

# Bytes of file head inspected for the binary heuristic (NUL byte sniff).
_BINARY_SNIFF_BYTES = 8000


class MiningError(Exception):
    """Fatal repository-level problem (not a git repo, unreadable path)."""


class LabelError(Exception):
    """Malformed or inconsistent label feed."""


class _UnreadableObject(Exception):
    """An object id the blob stream cannot return as a blob."""


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
        return {
            "old_start": self.old_start,
            "removed_lines": list(self.removed_lines),
            "new_start": self.new_start,
            "added_lines": list(self.added_lines),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hunk":
        return cls(
            old_start=d["old_start"],
            removed_lines=tuple(d["removed_lines"]),
            new_start=d["new_start"],
            added_lines=tuple(d["added_lines"]),
        )


@dataclass(frozen=True)
class FileChange:
    path: str
    hunks: tuple[Hunk, ...]
    old_file_lines: tuple[str, ...]
    new_file_lines: tuple[str, ...]
    removed_loc: int
    added_loc: int

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "hunks": [h.to_dict() for h in self.hunks],
            "old_file_lines": list(self.old_file_lines),
            "new_file_lines": list(self.new_file_lines),
            "removed_loc": self.removed_loc,
            "added_loc": self.added_loc,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FileChange":
        return cls(
            path=d["path"],
            hunks=tuple(Hunk.from_dict(h) for h in d["hunks"]),
            old_file_lines=tuple(d["old_file_lines"]),
            new_file_lines=tuple(d["new_file_lines"]),
            removed_loc=d["removed_loc"],
            added_loc=d["added_loc"],
        )


@dataclass(frozen=True)
class CommitRecord:
    repo_id: str
    commit_hash: str
    timestamp: int  # UTC seconds
    label: str  # VF or NVF
    files: tuple[FileChange, ...]

    def to_dict(self) -> dict:
        return {
            "repo_id": self.repo_id,
            "commit_hash": self.commit_hash,
            "timestamp": self.timestamp,
            "label": self.label,
            "files": [f.to_dict() for f in self.files],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CommitRecord":
        return cls(
            repo_id=d["repo_id"],
            commit_hash=d["commit_hash"],
            timestamp=d["timestamp"],
            label=d["label"],
            files=tuple(FileChange.from_dict(f) for f in d["files"]),
        )


def diff_lines(old: tuple[str, ...] | list[str], new: tuple[str, ...] | list[str]) -> tuple[Hunk, ...]:
    """Line-level diff of two file versions as a tuple of hunks.

    Hunks are sorted by old-file position and non-overlapping; applying
    them to `old` reproduces `new` (see apply_hunks).
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


def apply_hunks(old: tuple[str, ...], hunks: tuple[Hunk, ...]) -> tuple[str, ...]:
    """Reconstruct the new file version from the old one plus hunks."""
    out: list[str] = []
    cursor = 0  # 0-based index into old
    for h in hunks:
        start = h.old_start - 1
        out.extend(old[cursor:start])
        out.extend(h.added_lines)
        cursor = start + len(h.removed_lines)
    out.extend(old[cursor:])
    return tuple(out)


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


def _read_blob(cat_file: subprocess.Popen, oid: str) -> bytes:
    """Read one blob by object id from a `git cat-file --batch` process.

    Each request waits for its whole reply before the next one is sent, so
    neither pipe can fill up. A missing object (a submodule gitlink, a
    shallow or partial clone) or one that is not a blob raises
    _UnreadableObject; a reply that is cut short means the process died.
    """
    try:
        cat_file.stdin.write(f"{oid}\n".encode())
        cat_file.stdin.flush()
    except BrokenPipeError:
        header = []
    else:
        header = cat_file.stdout.readline().split()
    if header[1:] == [b"missing"]:
        raise _UnreadableObject(f"object {oid} missing")
    if len(header) == 3:
        size = int(header[2]) + 1  # the content is followed by a newline
        data = cat_file.stdout.read(size)
        if len(data) == size:
            if header[1] != b"blob":
                raise _UnreadableObject(f"object {oid} is a {header[1].decode()}, not a blob")
            return data[:-1]
    raise MiningError(f"git cat-file --batch stopped answering while reading object {oid}")


def _file_change(
    cat_file: subprocess.Popen, status: str, old_oid: str, new_oid: str, path: str
) -> FileChange | None:
    old_blob = b"" if status == "A" else _read_blob(cat_file, old_oid)
    new_blob = b"" if status == "D" else _read_blob(cat_file, new_oid)
    if _is_binary(old_blob) or _is_binary(new_blob):
        return None
    old_lines = _split_lines(old_blob.decode("utf-8", errors="replace"))
    new_lines = _split_lines(new_blob.decode("utf-8", errors="replace"))
    hunks = diff_lines(old_lines, new_lines)
    if not hunks:
        return None
    removed = sum(len(h.removed_lines) for h in hunks)
    added = sum(len(h.added_lines) for h in hunks)
    return FileChange(
        path=path,
        hunks=hunks,
        old_file_lines=old_lines,
        new_file_lines=new_lines,
        removed_loc=removed,
        added_loc=added,
    )


def mine_repository(
    repo_path: str | Path,
    since: int = 0,
    until: int = 2**62,
    repo_id: str | None = None,
) -> Iterator[CommitRecord]:
    """Yield one unlabeled CommitRecord per non-merge commit in [since, until].

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
    object id. Reading by id also mines files whose names are not UTF-8; the
    stored path is decoded with errors="replace". The cat-file process is
    closed and reaped when the generator finishes or is closed.
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
    try:
        for ts, sha in commits:
            files = []
            try:
                for status, old_oid, new_oid, path in statuses.get(sha, ()):
                    fc = _file_change(cat_file, status, old_oid, new_oid, path)
                    if fc is not None:
                        files.append(fc)
            except _UnreadableObject as exc:
                log.warning("skipping unreadable commit %s in %s: %s", sha, repo_path, exc)
                continue
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
    entries: dict[tuple[str, str], str] = {}
    with open(labels_file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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


def write_commits_jsonl(records: Iterable[CommitRecord], path: str | Path) -> int:
    """Write records as JSON-lines in ascending timestamp order; returns count."""
    records = sorted(records, key=lambda r: (r.timestamp, r.repo_id, r.commit_hash))
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), ensure_ascii=False) + "\n")
    return len(records)


def read_commits_jsonl(path: str | Path) -> list[CommitRecord]:
    with open(path, encoding="utf-8") as fh:
        return [CommitRecord.from_dict(json.loads(line)) for line in fh if line.strip()]
