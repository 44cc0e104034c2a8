import os
import subprocess

import numpy as np
import pytest

from fixhound.repo_miner import CONTEXT_MAX, NVF, VF, CommitRecord, FileChange, file_change


def run_git(repo, *args, env_extra=None):
    env = dict(os.environ)
    env.update(
        {
            "GIT_AUTHOR_NAME": "tester",
            "GIT_AUTHOR_EMAIL": "tester@example.com",
            "GIT_COMMITTER_NAME": "tester",
            "GIT_COMMITTER_EMAIL": "tester@example.com",
        }
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(["git", "-C", str(repo), *args], env=env, check=True, capture_output=True)


def init_repo(path):
    path.mkdir(parents=True, exist_ok=True)
    run_git(path, "init", "-q", "-b", "main")
    return path


def commit_files(repo, files: dict, message: str, ts: int) -> str:
    """Write/delete files and commit at the given unix timestamp."""
    for name, content in files.items():
        target = repo / name
        if content is None:
            target.unlink()
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, bytes):
                target.write_bytes(content)
            else:
                target.write_text(content)
    run_git(repo, "add", "-A")
    stamp = f"@{ts} +0000"
    run_git(
        repo,
        "commit",
        "-q",
        "--allow-empty",
        "-m",
        message,
        env_extra={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp},
    )
    return run_git(repo, "rev-parse", "HEAD").stdout.decode().strip()


WORDS = ["alpha", "beta", "gamma", "delta_", "omega", "sigma", "kappa", "theta"]
SENTINEL = "VULNCHECK"


def _random_line(rng) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(3))


def planted_versions(rng, vf: bool) -> tuple[list[str], list[str]]:
    """Old and new versions of an 8-line file differing in one line, whose VF
    signal lives only in the delta: VF iff the sentinel occurs in the removed
    line and not in the added one."""
    n = 8
    old = [_random_line(rng) for _ in range(n)]
    pos = int(rng.integers(2, n - 2))
    if vf:
        old[pos] = f"{SENTINEL} {_random_line(rng)}"
        new_line = _random_line(rng)
    else:
        kind = int(rng.integers(0, 3))
        if kind == 0:  # sentinel nowhere
            new_line = _random_line(rng)
        elif kind == 1:  # sentinel on both sides: no delta signal
            old[pos] = f"{SENTINEL} {_random_line(rng)}"
            new_line = f"{SENTINEL} {_random_line(rng)}"
        else:  # sentinel introduced, not removed
            new_line = f"{SENTINEL} {_random_line(rng)}"
    new = list(old)
    new[pos] = new_line
    return old, new


def make_planted_file_change(rng, vf: bool, path: str = "src/mod.c") -> FileChange:
    """The single-hunk change of `planted_versions`, mined with the default context."""
    return file_change(path, *planted_versions(rng, vf), CONTEXT_MAX)


def make_planted_commits(n: int, seed: int, repo_id: str = "planted", t0: int = 1_000_000) -> list[CommitRecord]:
    """n single-file commits, alternating VF/NVF, distinct timestamps."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        vf = i % 2 == 0
        fc = make_planted_file_change(rng, vf)
        sha = "".join(rng.choice(list("0123456789abcdef"), size=40))
        records.append(
            CommitRecord(
                repo_id=repo_id,
                commit_hash=sha,
                timestamp=t0 + i * 60,
                label=VF if vf else NVF,
                files=(fc,),
            )
        )
    return records


def make_planted_repo(path, n: int, seed: int, t0: int = 1_000_000):
    """A git repository holding n planted changes, alternating VF/NVF.

    Change i lands on its own file src/mod{i}.c at t0 + 120 i + 60, after an
    unlabeled commit at t0 + 120 i that adds the file's old version. Returns
    the repository and the label-feed rows of the VF changes.
    """
    repo = init_repo(path)
    rng = np.random.default_rng(seed)
    labels = []
    for i in range(n):
        path = f"src/mod{i}.c"
        old, new = planted_versions(rng, vf=i % 2 == 0)
        commit_files(repo, {path: "\n".join(old) + "\n"}, f"add {path}", t0 + 120 * i)
        sha = commit_files(repo, {path: "\n".join(new) + "\n"}, f"change {path}", t0 + 120 * i + 60)
        if i % 2 == 0:
            labels.append((repo.name, sha, f"CVE-{i}"))
    return repo, labels


@pytest.fixture
def tmp_repo(tmp_path):
    return init_repo(tmp_path / "repo")
