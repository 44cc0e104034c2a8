"""How repo_miner reads git: equivalence with the per-commit miner it
replaced, its process budget, the blob stream's lifecycle and read-ahead, and
paths that are not UTF-8."""

import logging
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

from conftest import commit_files, init_repo, run_git
from fixhound import repo_miner
from fixhound.change_builder import build_example
from fixhound.records import write_commits_jsonl
from fixhound.repo_miner import CONTEXT_MAX, MiningError, _UnreadableObject, mine_repository
from mining_oracle import mine_repository_per_commit

ABSENT_COMMIT = "1" * 40  # a gitlink target that is not in the repository
HOSTILE_CONFIG = """\
[diff]
\trenames = copies
\tnoprefix = true
[log]
\tshowRoot = false
[core]
\tabbrev = 12
"""


def _stamp(ts):
    return {"GIT_AUTHOR_DATE": f"@{ts} +0000", "GIT_COMMITTER_DATE": f"@{ts} +0000"}


def _text(tag, n=6):
    return "".join(f"{tag} line {i}\n" for i in range(n))


def _build_history(repo):
    """One commit per git case the miner must handle; returns name -> sha."""
    shas = {}
    nested = "dir one/sub dir/file x.c"
    shas["root"] = commit_files(
        repo, {"a.txt": _text("a"), "b.txt": _text("b"), "data.txt": _text("d"), nested: _text("n"),
               "run.sh": "echo hi\n"}, "root", 1000)
    shas["modify_add"] = commit_files(repo, {"a.txt": _text("a") + "more\n", "c.txt": _text("c")}, "m", 2000)
    shas["delete"] = commit_files(repo, {"b.txt": None}, "delete", 3000)
    shas["rename"] = commit_files(repo, {"c.txt": None, "moved.txt": _text("c")}, "rename", 4000)
    shas["binary_side"] = commit_files(
        repo, {"data.txt": b"bin\x00ary\n", nested: _text("n") + "edit\n"}, "binary", 5000)
    os.chmod(repo / "run.sh", 0o755)
    shas["chmod_only"] = commit_files(repo, {}, "chmod", 6000)
    os.symlink("a.txt", repo / "link")
    shas["symlink"] = commit_files(repo, {}, "symlink", 7000)
    (repo / "link").unlink()
    os.symlink("moved.txt", repo / "link")
    (repo / "run.sh").unlink()
    os.symlink("a.txt", repo / "run.sh")  # file -> symlink is a type change
    shas["retarget"] = commit_files(repo, {}, "retarget", 8000)
    # A gitlink to a commit that is not here, added next to a readable edit:
    # both miners skip the whole commit, and the next one, which deletes it.
    (repo / "a.txt").write_text(_text("a") + "gitlink\n")
    run_git(repo, "add", "a.txt")
    run_git(repo, "update-index", "--add", "--cacheinfo", f"160000,{ABSENT_COMMIT},sub")
    run_git(repo, "commit", "-q", "-m", "gitlink", env_extra=_stamp(9000))
    shas["gitlink"] = run_git(repo, "rev-parse", "HEAD").stdout.decode().strip()
    shas["gitlink_delete"] = commit_files(repo, {"a.txt": _text("a")}, "drop gitlink", 10000)
    shas["empty"] = commit_files(repo, {}, "empty", 11000)
    run_git(repo, "checkout", "-q", "-b", "side")
    shas["side"] = commit_files(repo, {"side.txt": _text("s")}, "side", 12000)
    run_git(repo, "checkout", "-q", "main")
    shas["main"] = commit_files(repo, {"moved.txt": _text("c") + "main\n"}, "main", 13000)
    run_git(repo, "merge", "-q", "--no-ff", "-m", "merge", "side", env_extra=_stamp(14000))
    shas["last"] = commit_files(repo, {"side.txt": _text("s", 3)}, "last", 15000)
    return shas


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    repo = init_repo(tmp_path_factory.mktemp("history") / "repo")
    return repo, _build_history(repo)


class _SpawnRecorder:
    """Stands in for `subprocess` inside repo_miner and records each process it starts.

    `cat_file_script`, when set, runs in place of `git cat-file --batch`;
    with `wait_first` the stand-in has exited before the first request.
    """

    def __init__(self, cat_file_script=None, wait_first=False):
        self.commands = []
        self.popens = []
        self.cat_file_script = cat_file_script
        self.wait_first = wait_first

    def run(self, args, **kwargs):
        self.commands.append(args)
        return subprocess.run(args, **kwargs)

    def Popen(self, args, **kwargs):
        self.commands.append(args)
        if self.cat_file_script is not None:
            args = [sys.executable, "-c", self.cat_file_script]
        proc = subprocess.Popen(args, **kwargs)
        if self.wait_first:
            proc.wait()
        self.popens.append(proc)
        return proc

    def __getattr__(self, name):
        return getattr(subprocess, name)


def _record_spawns(monkeypatch, **kwargs):
    recorder = _SpawnRecorder(**kwargs)
    monkeypatch.setattr(repo_miner, "subprocess", recorder)
    return recorder


class TestEquivalenceWithPerCommitMiner:
    @pytest.mark.parametrize("window", [(0, 2**62), (2000, 13000)], ids=["all", "window"])
    @pytest.mark.parametrize("hostile", [False, True], ids=["plain-config", "hostile-config"])
    def test_same_records_and_bytes(self, history, window, hostile, tmp_path, monkeypatch):
        repo, shas = history
        expected = list(mine_repository_per_commit(repo, *window))
        if hostile:
            config = tmp_path / "gitconfig"
            config.write_text(HOSTILE_CONFIG)
            monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
        got = list(mine_repository(repo, *window))
        assert got == expected

        mined = {name for name, sha in shas.items() if sha in {r.commit_hash for r in got}}
        everything = {"root", "modify_add", "delete", "rename", "binary_side", "symlink", "retarget",
                      "side", "main", "last"}
        assert mined == (everything if window[0] == 0 else everything - {"root", "last"})
        by_name = {name: r for r in got for name, sha in shas.items() if sha == r.commit_hash}
        assert [f.path for f in by_name["rename"].files] == ["c.txt", "moved.txt"]
        assert [f.path for f in by_name["binary_side"].files] == ["dir one/sub dir/file x.c"]
        assert [f.path for f in by_name["retarget"].files] == ["link", "run.sh"]

        write_commits_jsonl(got, tmp_path / "new.jsonl")
        write_commits_jsonl(expected, tmp_path / "oracle.jsonl")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


    def test_cuts_equal_whole_file_cuts(self, history):
        repo, _ = history
        windowed = list(mine_repository(repo))
        whole = list(mine_repository_per_commit(repo, context=10**6))
        pairs = [(fw, ff) for rw, rf in zip(windowed, whole, strict=True) for fw, ff in zip(rw.files, rf.files, strict=True)]
        for fw, ff in pairs:
            assert fw.context == CONTEXT_MAX
            for k in range(CONTEXT_MAX + 1):
                assert build_example(fw, k, "NVF") == build_example(ff, k, "NVF")


class TestGitProcesses:
    def _repo(self, root, n_commits):
        repo = init_repo(root)
        for i in range(n_commits):
            commit_files(repo, {"x.c": _text(f"x{i}"), "y.c": _text(f"y{i}")}, f"c{i}", 1000 + i)
        return repo

    def test_process_count_does_not_grow_with_history(self, tmp_path, monkeypatch):
        counts = []
        for n in (2, 20):
            repo = self._repo(tmp_path / f"r{n}", n)
            recorder = _record_spawns(monkeypatch)
            assert len(list(mine_repository(repo))) == n
            assert all(cmd[0] == "git" for cmd in recorder.commands)
            counts.append(len(recorder.commands))
        assert counts[0] == counts[1] <= 5

    def test_closing_the_generator_reaps_cat_file(self, tmp_path, monkeypatch):
        repo = self._repo(tmp_path / "r", 3)
        recorder = _record_spawns(monkeypatch)
        records = mine_repository(repo)
        next(records)
        (cat_file,) = recorder.popens
        assert cat_file.poll() is None
        records.close()
        assert cat_file.returncode is not None
        assert cat_file.stdin.closed and cat_file.stdout.closed

    @pytest.mark.parametrize(
        "script, wait_first",
        [
            ("", True),  # gone before the first request
            ("import sys; sys.stdin.readline()", False),  # reads a request, answers nothing
            ("import sys; sys.stdin.readline(); print('0' * 40, 'blob 100')", False),  # reply cut short
        ],
        ids=["dead", "no-reply", "short-reply"],
    )
    def test_dead_blob_stream_is_fatal(self, tmp_path, monkeypatch, script, wait_first):
        repo = self._repo(tmp_path / "r", 2)
        recorder = _record_spawns(monkeypatch, cat_file_script=script, wait_first=wait_first)
        with pytest.raises(MiningError, match="cat-file"):
            list(mine_repository(repo))
        assert recorder.popens[0].returncode is not None


class _FakeCatFile:
    """A `git cat-file --batch` stand-in: stdin records the requested ids, stdout serves
    canned replies in request order, and each read notes how far the writes ran ahead."""

    def __init__(self, objects):
        self.objects = objects  # oid -> (type, content), or None for a missing object
        self.requested = []
        self.answered = 0
        self.max_unanswered = 0
        self.requested_at_first_read = None
        self._body = b""
        self.stdin = SimpleNamespace(write=self._write, flush=lambda: None)
        self.stdout = SimpleNamespace(readline=self._readline, read=self._read)

    def _write(self, data):
        self.requested += data.decode().splitlines()
        self.max_unanswered = max(self.max_unanswered, len(self.requested) - self.answered)

    def _readline(self):
        if self.requested_at_first_read is None:
            self.requested_at_first_read = len(self.requested)
        if self.answered == len(self.requested):
            return b""  # a reply to nothing: the real process would block here
        oid = self.requested[self.answered]
        self.answered += 1
        if self.objects[oid] is None:
            return f"{oid} missing\n".encode()
        kind, content = self.objects[oid]
        self._body = content + b"\n"
        return f"{oid} {kind} {len(content)}\n".encode()

    def _read(self, size):
        data, self._body = self._body[:size], self._body[size:]
        return data


class TestBlobStream:
    def test_requests_run_ahead_within_the_bound_and_replies_keep_their_order(self):
        bound = repo_miner._IN_FLIGHT
        oids = [f"{i:040x}" for i in range(3 * bound + 5)]
        objects = {oid: ("blob", f"content of {i}\n".encode() * (i % 3)) for i, oid in enumerate(oids)}
        objects[oids[1]] = None
        objects[oids[bound + 2]] = ("tree", b"not a blob")
        fake = _FakeCatFile(objects)
        got = list(repo_miner._blob_stream(fake, iter(oids)))
        assert fake.requested == oids
        assert fake.requested_at_first_read >= 2
        assert fake.max_unanswered == bound
        for oid, item in zip(oids, got, strict=True):
            if objects[oid] is None:
                assert isinstance(item, _UnreadableObject) and str(item) == f"object {oid} missing"
            elif objects[oid][0] == "tree":
                assert isinstance(item, _UnreadableObject) and str(item) == f"object {oid} is a tree, not a blob"
            else:
                assert item == objects[oid][1]

    def test_history_with_more_large_blobs_than_the_bound(self, tmp_path):
        """Every blob is larger than a 64 KB pipe; a child process mines, so a deadlock times out."""
        repo = init_repo(tmp_path / "repo")
        lines = {name: [f"{name} line {i:05d} of a long file\n" for i in range(2500)] for name in ("x.c", "y.c")}
        for c in range(8):
            for name, body in lines.items():
                body[(c * 311) % len(body)] = f"{name} edit {c}\n"
            commit_files(repo, {name: "".join(body) for name, body in lines.items()}, f"c{c}", 1000 + c)
        assert all(len("".join(body)) > 64 * 1024 for body in lines.values())
        child = textwrap.dedent("""
            import sys
            from fixhound.records import write_commits_jsonl
            from fixhound.repo_miner import mine_repository
            write_commits_jsonl(mine_repository(sys.argv[1]), sys.argv[2])
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", child, str(repo), str(tmp_path / "mined.jsonl")], env=env, timeout=120, check=True)
        assert 2 + 7 * 4 > repo_miner._IN_FLIGHT  # blob reads: the root adds two files, each later commit edits both
        write_commits_jsonl(mine_repository_per_commit(repo), tmp_path / "oracle.jsonl")
        assert (tmp_path / "mined.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


class TestUnreadableObjects:
    def test_gitlink_to_commit_in_repo_skips_commit(self, tmp_repo, caplog):
        root = commit_files(tmp_repo, {"a.txt": "a\n"}, "root", 1000)
        (tmp_repo / "a.txt").write_text("a\nb\n")
        run_git(tmp_repo, "add", "a.txt")
        run_git(tmp_repo, "update-index", "--add", "--cacheinfo", f"160000,{root},sub")
        run_git(tmp_repo, "commit", "-q", "-m", "gitlink", env_extra=_stamp(2000))
        with caplog.at_level(logging.WARNING, logger="fixhound.repo_miner"):
            records = list(mine_repository(tmp_repo))
        assert [r.commit_hash for r in records] == [root]
        assert "not a blob" in caplog.text

    def test_unreadable_commit_mid_history_keeps_later_records(self, tmp_repo, caplog):
        """The gitlink's reply (a commit object, with a body) is consumed, so later replies do not shift."""
        names = ("a.txt", "m.txt", "z.txt")
        root = commit_files(tmp_repo, {name: _text(name) for name in names}, "root", 1000)
        commit_files(tmp_repo, {"a.txt": _text("a2"), "z.txt": _text("z2")}, "before", 2000)
        for name in ("a.txt", "z.txt"):
            (tmp_repo / name).write_text(_text(name + "3"))
        run_git(tmp_repo, "add", "a.txt", "z.txt")
        run_git(tmp_repo, "update-index", "--add", "--cacheinfo", f"160000,{root},b-sub")  # between a.txt and z.txt
        run_git(tmp_repo, "commit", "-q", "-m", "gitlink", env_extra=_stamp(3000))
        gitlink = run_git(tmp_repo, "rev-parse", "HEAD").stdout.decode().strip()
        for i in range(4, 8):  # `git add -A` would drop the gitlink: stage the files by name
            for name in names:
                (tmp_repo / name).write_text(_text(f"{name}{i}", i))
            run_git(tmp_repo, "add", *names)
            run_git(tmp_repo, "commit", "-q", "-m", f"c{i}", env_extra=_stamp(i * 1000))
        expected = list(mine_repository_per_commit(tmp_repo))
        caplog.clear()  # the oracle skips the gitlink commit with a warning of its own
        with caplog.at_level(logging.WARNING, logger="fixhound.repo_miner"):
            got = list(mine_repository(tmp_repo))
        assert got == expected and len(got) == 6
        (warning,) = caplog.records
        assert warning.getMessage().startswith(f"skipping unreadable commit {gitlink} ")
        assert warning.getMessage().endswith(f"object {root} is a commit, not a blob")

    def test_non_utf8_path_keeps_its_commit(self, tmp_repo, caplog):
        raw_name = b"caf\xe9.c"
        commit_files(tmp_repo, {os.fsdecode(raw_name): "int x;\n", "ok.c": "int y;\n"}, "latin-1 name", 1000)
        with caplog.at_level(logging.WARNING, logger="fixhound.repo_miner"):
            (record,) = mine_repository(tmp_repo)
        assert [f.path for f in record.files] == sorted([raw_name.decode("utf-8", errors="replace"), "ok.c"])
        assert [w.new_lines for f in record.files for w in f.windows] == [("int x;",), ("int y;",)]
        assert caplog.records == []
