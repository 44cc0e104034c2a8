"""The per-commit git miner that `repo_miner.mine_repository` replaced, kept as a test oracle.

It runs one `git diff-tree` per commit and one `git cat-file blob
<commit>:<path>` per blob side, so its process count grows with the history.
A commit with a side that is not a blob (a submodule gitlink, on which
`cat-file blob` fails) is skipped with a warning, as the miner skips it.
Everything after the blob reads (binary sniff, line split, diff, sort
orders) is the production code, so a difference in output can only come
from how git is read. It also holds `apply_hunks`, which rebuilds the new
file version from the old one and the hunks; the property tests check the
diff and the mined records with it.
"""

from __future__ import annotations

import logging
import subprocess
from pathlib import Path
from typing import Iterator

from fixhound.repo_miner import CONTEXT_MAX, NVF, CommitRecord, FileChange, Hunk, _is_binary, _split_lines, file_change

log = logging.getLogger(__name__)


def _git(repo_path: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo_path), *args], capture_output=True, check=True).stdout


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


def _file_change(repo_path: Path, commit: str, status: str, path: str, context: int) -> FileChange | None:
    old_blob = b"" if status == "A" else _git(repo_path, "cat-file", "blob", f"{commit}^:{path}")
    new_blob = b"" if status == "D" else _git(repo_path, "cat-file", "blob", f"{commit}:{path}")
    if _is_binary(old_blob) or _is_binary(new_blob):
        return None
    old_lines = _split_lines(old_blob.decode("utf-8", errors="replace"))
    new_lines = _split_lines(new_blob.decode("utf-8", errors="replace"))
    fc = file_change(path, old_lines, new_lines, context)
    return fc if fc.hunks else None


def _mine_commit(repo_path: Path, repo_id: str, sha: str, ts: int, context: int) -> CommitRecord | None:
    raw = _git(repo_path, "diff-tree", "-r", "--root", "--no-renames", "--name-status", "-z", sha)
    fields = raw.decode("utf-8", errors="replace").split("\0")
    # diff-tree echoes the commit id first when given a commit object
    if fields and fields[0] == sha:
        fields = fields[1:]
    files = []
    for status, path in zip(fields[::2], fields[1::2]):
        if not status:
            continue
        fc = _file_change(repo_path, sha, status[0], path, context)
        if fc is not None:
            files.append(fc)
    if not files:
        return None
    files.sort(key=lambda f: f.path)
    return CommitRecord(repo_id=repo_id, commit_hash=sha, timestamp=ts, label=NVF, files=tuple(files))


def mine_repository_per_commit(
    repo_path: str | Path, since: int = 0, until: int = 2**62, repo_id: str | None = None, context: int = CONTEXT_MAX
) -> Iterator[CommitRecord]:
    repo_path = Path(repo_path)
    if repo_id is None:
        repo_id = repo_path.name
    listing = _git(repo_path, "log", "--no-merges", "--format=%H %ct", "HEAD").decode()
    commits = []
    for line in listing.splitlines():
        sha, ts = line.split()
        if since <= int(ts) <= until:
            commits.append((int(ts), sha))
    commits.sort()
    for ts, sha in commits:
        try:
            record = _mine_commit(repo_path, repo_id, sha, ts, context)
        except subprocess.CalledProcessError as exc:
            log.warning("skipping unreadable commit %s in %s: %s", sha, repo_path, exc)
            continue
        if record is not None:
            yield record
