"""Seeded git repositories for the benchmark workloads.

Each workload is a linear git history written in one `git fast-import`
pass with a fixed author, committer and dates, so one (workload, seed)
pair always gives the same commit hashes and the same labels.csv.

Vulnerability-fixing (VF) commits carry a learnable planted pattern: in
every file they touch, the first hunk removes a sentinel line. Other
hunks never come within the context window of a sentinel line, so the
sentinel shows up only in the before-view of VF changes.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

T0 = 1_600_000_000  # timestamp of the root commit; commit i is at T0 + i hours
SENTINEL = "CHECK_BOUNDS"
GUARD = 4  # lines kept free of sentinels around an NVF hunk (context k=3, plus one)
AUTHOR = b"bench <bench@example.com>"
FILES_PER_COMMIT = 2

IDENTS = (
    "buf", "len", "ctx", "node", "count", "size", "ptr", "offset", "state", "flags",
    "entry", "table", "index", "result", "header", "packet", "limit", "cursor", "total", "item",
)
CALLS = ("memcpy", "read_u32", "list_push", "hash_get", "parse_field", "emit", "reserve", "crc32")


@dataclass(frozen=True)
class Workload:
    name: str
    commits: int  # commits after the root commit; all of them are mined
    vf_every: int  # commit i (1-based) is a VF commit iff i % vf_every == 0
    files: int
    file_lines: int
    sentinel_every: int  # one sentinel line per this many lines in the root commit
    hunks_per_file: int
    hunk_lines: tuple[int, int]
    hunk_gap: int  # minimum distance between hunk starts in one file
    test_frac: float  # the latest commits form the Temporal test split
    short_lines: bool
    epochs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short-changes",
            commits=32, vf_every=2, files=8, file_lines=240, sentinel_every=12,
            hunks_per_file=1, hunk_lines=(1, 4), hunk_gap=12,
            test_frac=0.3, short_lines=True, epochs=3,
        ),
        Workload(
            name="long-changes",
            commits=8, vf_every=2, files=4, file_lines=1500, sentinel_every=40,
            hunks_per_file=7, hunk_lines=(4, 5), hunk_gap=30,
            test_frac=0.3, short_lines=False, epochs=2,
        ),
        Workload(
            name="history-scan",
            commits=140, vf_every=25, files=12, file_lines=200, sentinel_every=12,
            hunks_per_file=1, hunk_lines=(1, 3), hunk_gap=12,
            test_frac=0.4, short_lines=True, epochs=3,
        ),
    )
}


def _line(rng: random.Random, short: bool) -> str:
    a, b, c = rng.sample(IDENTS, 3)
    n = rng.randrange(1, 4096)
    if short:
        return f"  {a} = {b} + {n};"
    kind = rng.randrange(4)
    if kind == 0:
        return f"    {a} = {rng.choice(CALLS)}({b}, {c} + {n});"
    if kind == 1:
        return f"    if ({a}->{b} > {n}) {{ {c} += {a}->{b}; }}"
    if kind == 2:
        return f"    {a}[{b}] = {c}[{n} % {b}];"
    return f"    {rng.choice(CALLS)}(&{a}, {b}, {n});"


def _sentinel_line(rng: random.Random) -> str:
    a, b = rng.sample(IDENTS, 2)
    return f"    {SENTINEL}({a}, {b}, SIZE_MAX - {rng.randrange(1, 64)}); /* reject oversized input */"


def _free_of_sentinel(lines: list[str], lo: int, hi: int) -> bool:
    return not any(SENTINEL in line for line in lines[max(0, lo) : min(len(lines), hi)])


def _edit_file(rng: random.Random, w: Workload, lines: list[str], vf: bool) -> list[str] | None:
    """Apply one commit's hunks to a file; None if no VF hunk fits."""
    edits = []  # (start, end) of replaced old lines, 0-based half-open
    lo = rng.randrange(max(1, len(lines) - w.hunks_per_file * w.hunk_gap))
    if vf:
        sentinels = [i for i, line in enumerate(lines) if SENTINEL in line]
        if not sentinels:
            return None
        s = sentinels[0]
        size = rng.randint(*w.hunk_lines)
        start = max(0, s - rng.randrange(size))
        end = min(len(lines), start + size)
        if not _free_of_sentinel(lines, start, s) or not _free_of_sentinel(lines, s + 1, end):
            start, end = s, s + 1
        edits.append((start, end))
        lo = end + w.hunk_gap
    for _ in range(w.hunks_per_file - len(edits)):
        for _try in range(200):
            size = rng.randint(*w.hunk_lines)
            start = lo + rng.randrange(w.hunk_gap)
            if start + size <= len(lines) and _free_of_sentinel(lines, start - GUARD, start + size + GUARD):
                break
            lo += 1
        else:
            continue
        edits.append((start, start + size))
        lo = start + w.hunk_gap
        if lo >= len(lines):
            break
    out = list(lines)
    for start, end in sorted(edits, reverse=True):
        out[start:end] = [_line(rng, w.short_lines) for _ in range(rng.randint(*w.hunk_lines))]
    return out


def _fast_import_stream(w: Workload, seed: int) -> tuple[bytes, list[bool]]:
    rng = random.Random(f"{w.name}/{seed}")
    files = {}
    for f in range(w.files):
        files[f"src/mod{f:02d}.c"] = [
            _sentinel_line(rng) if i % w.sentinel_every == w.sentinel_every // 2 else _line(rng, w.short_lines)
            for i in range(w.file_lines)
        ]
    paths = sorted(files)
    chunks: list[bytes] = []
    is_vf: list[bool] = []

    def commit(i: int, changed: dict[str, list[str]]) -> None:
        stamp = f"{T0 + i * 3600} +0000".encode()
        msg = f"change {i}\n".encode()
        chunks.append(b"commit refs/heads/main\n")
        chunks.append(b"author " + AUTHOR + b" " + stamp + b"\n")
        chunks.append(b"committer " + AUTHOR + b" " + stamp + b"\n")
        chunks.append(b"data %d\n%s" % (len(msg), msg))
        for path, lines in sorted(changed.items()):
            body = ("\n".join(lines) + "\n").encode()
            chunks.append(b"M 100644 inline %s\ndata %d\n%s\n" % (path.encode(), len(body), body))
        chunks.append(b"\n")

    commit(0, files)
    for i in range(1, w.commits + 1):
        vf = i % w.vf_every == 0
        changed = {}
        candidates = list(paths)
        rng.shuffle(candidates)
        for path in candidates:
            new = _edit_file(rng, w, files[path], vf)
            if new is not None and new != files[path]:
                changed[path] = files[path] = new
            if len(changed) == FILES_PER_COMMIT:
                break
        if len(changed) < FILES_PER_COMMIT:
            raise RuntimeError(f"{w.name}: commit {i} could not place {FILES_PER_COMMIT} file changes")
        is_vf.append(vf)
        commit(i, changed)
    return b"".join(chunks), is_vf


def git_env(base: dict) -> dict:
    """Environment that keeps git away from user and system config."""
    env = dict(base)
    env.update({"GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": "/dev/null", "LC_ALL": "C"})
    return env


def _git(repo: Path, env: dict, *args: str, stdin: bytes | None = None) -> str:
    proc = subprocess.run(["git", "-C", str(repo), *args], input=stdin, env=env, capture_output=True, check=True)
    return proc.stdout.decode()


def generate(w: Workload, seed: int, dest: Path, env: dict) -> dict:
    """Write the repo, labels.csv and meta.json under dest; returns the meta."""
    if dest.exists():
        shutil.rmtree(dest)
    repo = dest / w.name
    repo.mkdir(parents=True)
    stream, is_vf = _fast_import_stream(w, seed)
    _git(repo, env, "init", "-q", "-b", "main")
    _git(repo, env, "fast-import", "--quiet", stdin=stream)
    hashes = _git(repo, env, "rev-list", "--reverse", "HEAD").split()[1:]  # drop the root commit
    vf_hashes = [h for h, vf in zip(hashes, is_vf) if vf]
    labels = ["repo_id,commit_hash,vuln_id"] + [f"{w.name},{h},BENCH-{i}" for i, h in enumerate(vf_hashes)]
    (dest / "labels.csv").write_text("\n".join(labels) + "\n", encoding="utf-8")
    first_test = len(hashes) - round(len(hashes) * w.test_frac)
    meta = {
        "head": hashes[-1],
        "commits": len(hashes),
        "vf": len(vf_hashes),
        "since": T0 + 1,
        "test_start": T0 + (first_test + 1) * 3600,
        "test_commits": len(hashes) - first_test,
        "test_vf": sum(is_vf[first_test:]),
    }
    (dest / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return meta


def prepare(w: Workload, seed: int, root: Path, env: dict) -> tuple[Path, dict]:
    """Cached generation per (workload, seed), checked by regenerating.

    A fresh copy is always generated next to the cache and must match it
    hash for hash; the cache is only written when absent. The cache key
    includes a digest of this file, so editing the generator invalidates it.
    """
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    cached = root / f"{w.name}-s{seed}-{digest}"
    fresh = cached.with_name(cached.name + ".check")
    meta = generate(w, seed, fresh, env)
    if not (cached / "meta.json").exists():
        generate(w, seed, cached, env)
    cached_meta = json.loads((cached / "meta.json").read_text(encoding="utf-8"))
    same = cached_meta == meta and (cached / "labels.csv").read_bytes() == (fresh / "labels.csv").read_bytes()
    shutil.rmtree(fresh)
    if not same:
        raise RuntimeError(f"regenerating {w.name} seed {seed} gave different commits than the cache")
    return cached, meta


def config_for(w: Workload, seed: int, data: Path, meta: dict, workdir: Path) -> dict:
    return {
        "repos": [str(data / w.name)],
        "labels_file": str(data / "labels.csv"),
        "workdir": str(workdir),
        "k": 3,
        "max_len": 512,
        "vocab_size": 512,
        "encoder": {"dim": 32, "layers": 1, "heads": 2, "ffn_mult": 2},
        "variant": "EmbedSubtract_Duo",
        "train": {"learning_rate": 3e-3, "epochs": w.epochs, "batch_size": 4},
        "split": {"strategy": "Temporal", "test_start": meta["test_start"]},
        "cost_effort_levels": [5, 20],
        "downsample_ratio": 1.0,
        "seed": seed,
        "since": meta["since"],
    }
