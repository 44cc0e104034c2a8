"""Mine commit records (`records.CommitRecord`) from local git repositories.

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
errors="replace"). Of the CLI commands, only `mine` loads this module.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import subprocess
from collections import deque
from dataclasses import replace
from difflib import SequenceMatcher
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .config import DataError
from .records import NVF, VF, CommitRecord, FileChange, Hunk, Window, context_regions

log = logging.getLogger(__name__)

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


class _UnreadableObject(Exception):
    """An object id the blob stream cannot return as a blob."""


def file_change(path: str, old_lines: tuple[str, ...] | list[str], new_lines: tuple[str, ...] | list[str], context: int) -> FileChange:
    """Diff two file versions and keep the lines a cut at k <= context can read."""
    hunks = diff_lines(old_lines, new_lines)
    removed, added = sum(len(h.removed_lines) for h in hunks), sum(len(h.added_lines) for h in hunks)
    fc = FileChange(path, hunks, removed, added, len(old_lines), len(new_lines), context, windows=())
    windows = tuple(
        Window(r.old_lo, r.new_lo, tuple(old_lines[r.old_lo - 1 : r.old_hi]), tuple(new_lines[r.new_lo - 1 : r.new_hi]))
        for r in context_regions(fc, context)
    )
    return replace(fc, windows=windows)


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
    context: int = CONTEXT_MAX,
) -> Iterator[CommitRecord]:
    """Yield one unlabeled CommitRecord per non-merge commit in [since, until],
    each file keeping `context` lines around its hunks, with the repository
    directory's name as its repo_id.

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
                yield CommitRecord(repo_id=repo_path.name, commit_hash=sha, timestamp=ts, label=NVF, files=tuple(files))
    finally:
        cat_file.stdout.close()
        with contextlib.suppress(BrokenPipeError):  # unsent bytes of a request to a dead process
            cat_file.stdin.close()
        cat_file.wait()


def load_labels(labels_file: str | Path) -> dict[tuple[str, str], str]:
    """Parse the label feed CSV (header repo_id,commit_hash,vuln_id)."""
    labels_file = Path(labels_file)
    if not labels_file.is_file():  # a directory, or a pipe that a read would block on
        raise LabelError(f"{labels_file}: not a regular file")
    try:
        text = labels_file.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelError(f"{labels_file}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise LabelError(f"{labels_file}: cannot read ({exc.strerror})") from None
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise LabelError(f"{labels_file}: not a label feed ({exc})") from None
    header = rows[0] if rows else None
    if header != ["repo_id", "commit_hash", "vuln_id"]:
        raise LabelError(f"{labels_file}: bad header {header!r}")
    entries: dict[tuple[str, str], str] = {}
    for lineno, row in enumerate(rows[1:], start=2):
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

