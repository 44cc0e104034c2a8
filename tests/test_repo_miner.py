import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commit_files, init_repo, run_git
from mining_oracle import apply_hunks
from fixhound.records import NVF, VF, CommitRecord, FileChange, downsample_nvf, read_commits_jsonl, write_commits_jsonl
from fixhound.repo_miner import (
    LabelError,
    MiningError,
    attach_labels,
    diff_lines,
    file_change,
    load_labels,
    mine_repository,
)


def lcs_table(a, b):
    # brute-force LCS oracle, independent of the production diff
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    return dp[0][0]


class TestMineRepository:
    def test_empty_repository_yields_nothing(self, tmp_repo):
        assert list(mine_repository(tmp_repo)) == []

    def test_not_a_git_repo_is_fatal(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        with pytest.raises(MiningError):
            list(mine_repository(plain))

    def test_single_creation_commit(self, tmp_repo):
        commit_files(tmp_repo, {"a.txt": "one\ntwo\nthree\n"}, "add", 1000)
        records = list(mine_repository(tmp_repo))
        assert len(records) == 1
        rec = records[0]
        assert len(rec.files) == 1
        fc = rec.files[0]
        assert len(fc.hunks) == 1
        hunk = fc.hunks[0]
        assert hunk.added_lines == ("one", "two", "three")
        assert hunk.removed_lines == ()
        assert fc.added_loc == 3 and fc.removed_loc == 0

    def test_single_line_edit_hunk_bounds(self, tmp_repo):
        old = [f"line {i}" for i in range(1, 11)]
        new = list(old)
        new[4] = "line five EDITED"
        commit_files(tmp_repo, {"f.txt": "\n".join(old) + "\n"}, "base", 1000)
        commit_files(tmp_repo, {"f.txt": "\n".join(new) + "\n"}, "edit", 2000)
        records = list(mine_repository(tmp_repo))
        fc = records[1].files[0]
        assert len(fc.hunks) == 1
        h = fc.hunks[0]
        assert h.old_start == 5
        assert h.removed_lines == ("line 5",)
        assert h.added_lines == ("line five EDITED",)
        # cross-check the diff size against the brute-force LCS oracle
        lcs = lcs_table(old, new)
        assert fc.removed_loc == len(old) - lcs
        assert fc.added_loc == len(new) - lcs

    def test_merge_commits_skipped(self, tmp_repo):
        commit_files(tmp_repo, {"a.txt": "base\n"}, "base", 1000)
        run_git(tmp_repo, "checkout", "-q", "-b", "side")
        commit_files(tmp_repo, {"b.txt": "side\n"}, "side", 2000)
        run_git(tmp_repo, "checkout", "-q", "main")
        commit_files(tmp_repo, {"c.txt": "main\n"}, "main", 3000)
        run_git(tmp_repo, "merge", "-q", "--no-ff", "-m", "merge", "side",
                env_extra={"GIT_AUTHOR_DATE": "@4000 +0000", "GIT_COMMITTER_DATE": "@4000 +0000"})
        records = list(mine_repository(tmp_repo))
        assert len(records) == 3  # merge commit absent

    def test_binary_files_skipped(self, tmp_repo):
        commit_files(tmp_repo, {"bin.dat": b"\x00\x01\x02", "txt.txt": "hello\n"}, "mixed", 1000)
        records = list(mine_repository(tmp_repo))
        assert [f.path for f in records[0].files] == ["txt.txt"]

    def test_time_window_filters(self, tmp_repo):
        commit_files(tmp_repo, {"a.txt": "1\n"}, "c1", 1000)
        commit_files(tmp_repo, {"a.txt": "2\n"}, "c2", 2000)
        commit_files(tmp_repo, {"a.txt": "3\n"}, "c3", 3000)
        records = list(mine_repository(tmp_repo, since=1500, until=2500))
        assert len(records) == 1 and records[0].timestamp == 2000

    def test_mining_is_deterministic(self, tmp_repo):
        commit_files(tmp_repo, {"a.txt": "1\n2\n"}, "c1", 1000)
        commit_files(tmp_repo, {"a.txt": "1\nx\n", "b.txt": "new\n"}, "c2", 2000)
        first = list(mine_repository(tmp_repo))
        second = list(mine_repository(tmp_repo))
        assert first == second

    def test_records_in_ascending_timestamp_order(self, tmp_repo):
        for i, ts in enumerate([1000, 5000, 3000]):
            commit_files(tmp_repo, {"a.txt": f"v{i}\n"}, f"c{i}", ts)
        stamps = [r.timestamp for r in mine_repository(tmp_repo)]
        assert stamps == sorted(stamps)


class TestDiffRoundTrip:
    @given(
        old=st.lists(st.sampled_from(["a", "b", "c", "d", ""]), max_size=30),
        new=st.lists(st.sampled_from(["a", "b", "c", "d", ""]), max_size=30),
    )
    @settings(max_examples=200)
    def test_apply_hunks_reproduces_new(self, old, new):
        hunks = diff_lines(old, new)
        assert apply_hunks(tuple(old), hunks) == tuple(new)
        starts = [h.old_start for h in hunks]
        assert starts == sorted(starts)
        # non-overlapping in the old file
        for h1, h2 in zip(hunks, hunks[1:]):
            assert h1.old_start + len(h1.removed_lines) <= h2.old_start


class TestLabels:
    def _write(self, tmp_path, body):
        p = tmp_path / "labels.csv"
        p.write_text(body)
        return p

    def test_header_only(self, tmp_path):
        labels = load_labels(self._write(tmp_path, "repo_id,commit_hash,vuln_id\n"))
        assert len(labels) == 0

    def test_two_rows(self, tmp_path):
        labels = load_labels(self._write(tmp_path, "repo_id,commit_hash,vuln_id\nr1,aaa,CVE-1\nr1,bbb,CVE-2\n"))
        assert len(labels) == 2
        assert ("r1", "aaa") in labels

    def test_exact_duplicate_dedups(self, tmp_path):
        body = "repo_id,commit_hash,vuln_id\nr1,aaa,CVE-1\nr1,bbb,CVE-2\nr1,aaa,CVE-1\n"
        assert len(load_labels(self._write(tmp_path, body))) == 2

    def test_conflicting_duplicate_is_fatal(self, tmp_path):
        body = "repo_id,commit_hash,vuln_id\nr1,aaa,CVE-1\nr1,aaa,CVE-9\n"
        with pytest.raises(LabelError):
            load_labels(self._write(tmp_path, body))

    def test_malformed_row_names_line(self, tmp_path):
        body = "repo_id,commit_hash,vuln_id\nr1,aaa,CVE-1\nr1,broken\n"
        with pytest.raises(LabelError, match=":3"):
            load_labels(self._write(tmp_path, body))

    def test_bad_header_is_fatal(self, tmp_path):
        with pytest.raises(LabelError):
            load_labels(self._write(tmp_path, "x,y,z\n"))


def _record(repo, sha, ts, label=NVF):
    from conftest import make_planted_file_change
    import numpy as np

    fc = make_planted_file_change(np.random.default_rng(ts), vf=False)
    return CommitRecord(repo_id=repo, commit_hash=sha, timestamp=ts, label=label, files=(fc,))


class TestAttachLabels:
    def test_labelled_and_unlabelled(self):
        labels = {("r", "a" * 40): "CVE-1"}
        recs = [_record("r", "a" * 40, 1), _record("r", "b" * 40, 2)]
        out = list(attach_labels(recs, labels))
        assert [r.label for r in out] == [VF, NVF]
        assert [r.commit_hash for r in out] == [r.commit_hash for r in recs]

    def test_empty_stream(self):
        assert list(attach_labels([], {})) == []


class TestDownsample:
    def _dataset(self, n_vf, n_nvf):
        recs = [_record("r", f"{i:040x}", i, VF) for i in range(n_vf)]
        recs += [_record("r", f"{i:040x}", i, NVF) for i in range(n_vf, n_vf + n_nvf)]
        return recs

    def test_target_ratio(self):
        out = downsample_nvf(self._dataset(10, 1000), ratio=30, seed=7)
        assert sum(1 for r in out if r.label == VF) == 10
        assert sum(1 for r in out if r.label == NVF) == 300

    def test_clamped_when_few_nvf(self):
        out = downsample_nvf(self._dataset(10, 20), ratio=30, seed=7)
        assert len(out) == 30

    def test_deterministic(self):
        data = self._dataset(5, 200)
        assert downsample_nvf(data, 10, seed=3) == downsample_nvf(data, 10, seed=3)

    def test_vf_never_dropped_and_content_unchanged(self):
        data = self._dataset(5, 50)
        out = downsample_nvf(data, 2, seed=1)
        assert {r.commit_hash for r in data if r.label == VF} <= {r.commit_hash for r in out}
        by_hash = {r.commit_hash: r for r in data}
        for r in out:
            assert r == by_hash[r.commit_hash]

    def test_sorted_by_timestamp(self):
        out = downsample_nvf(self._dataset(5, 100), 5, seed=9)
        stamps = [r.timestamp for r in out]
        assert stamps == sorted(stamps)


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        recs = [_record("r", f"{i:040x}", i) for i in range(5)]
        path = tmp_path / "commits.jsonl"
        write_commits_jsonl(recs, path)
        assert read_commits_jsonl(path) == sorted(recs, key=lambda r: r.timestamp)

    def test_windows_out_of_order_are_refused(self):
        old = [str(i) for i in range(60)]
        new = [*old[:5], "x", *old[6:50], "y", *old[51:]]
        d = json.loads(json.dumps(file_change("a.c", old, new, 3).to_dict()))
        assert [w["old_lo"] for w in d["windows"]] == [3, 48]
        d["windows"].reverse()
        with pytest.raises(ValueError, match="a.c: context windows are not the regions its hunks give at context 3"):
            FileChange.from_dict(d)

    def test_loc_consistency(self, tmp_repo):
        """Hunks rebuild git's new blob from its old one, and each window holds git's lines."""
        commit_files(tmp_repo, {"a.txt": "".join(f"{i}\n" for i in range(40))}, "c1", 1000)
        edited = [str(i) for i in range(40)]
        edited[2], edited[30:32] = "x", ["y"]
        commit_files(tmp_repo, {"a.txt": "\n".join(edited) + "\n"}, "c2", 2000)
        rec = list(mine_repository(tmp_repo))[-1]
        old = tuple(run_git(tmp_repo, "show", f"{rec.commit_hash}^:a.txt").stdout.decode().splitlines())
        new = tuple(run_git(tmp_repo, "show", f"{rec.commit_hash}:a.txt").stdout.decode().splitlines())
        (fc,) = rec.files
        assert fc.removed_loc == sum(len(h.removed_lines) for h in fc.hunks)
        assert fc.added_loc == sum(len(h.added_lines) for h in fc.hunks)
        assert apply_hunks(old, fc.hunks) == new
        assert (fc.old_len, fc.new_len) == (len(old), len(new))
        # hunks at old lines 3 and 31-32 (new line 31): 9 lines around each, not merged
        assert [(w.old_lo, len(w.old_lines), w.new_lo, len(w.new_lines)) for w in fc.windows] == [(1, 12, 1, 12), (22, 19, 22, 18)]
        for w in fc.windows:
            assert w.old_lines == old[w.old_lo - 1 : w.old_lo - 1 + len(w.old_lines)]
            assert w.new_lines == new[w.new_lo - 1 : w.new_lo - 1 + len(w.new_lines)]
