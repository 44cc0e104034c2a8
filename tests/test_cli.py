import json
from pathlib import Path

import numpy as np
import pytest

import fixhound.trainer as tr
from conftest import commit_files, init_repo, make_planted_commits
from fixhound.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    load_config,
    main,
)
from fixhound.repo_miner import write_commits_jsonl

FAST_CONFIG = {
    "k": 3,
    "max_len": 64,
    "vocab_size": 300,
    "encoder": {"dim": 16, "layers": 1, "heads": 2, "ffn_mult": 2},
    "variant": "RawGitDiff",
    "train": {"learning_rate": 3e-3, "epochs": 2, "batch_size": 32},
    "split": {"strategy": "Temporal", "test_start": 1_000_000 + 30 * 60},
    "cost_effort_levels": [5, 20],
    "downsample_ratio": 38.0,
    "seed": 0,
}


def write_config(tmp_path, workdir, **extra):
    cfg = dict(FAST_CONFIG)
    cfg["workdir"] = str(workdir)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def seeded_workdir(tmp_path, n_commits=40):
    """A workdir preloaded with synthetic mined commits."""
    workdir = tmp_path / "out"
    workdir.mkdir(parents=True)
    commits = make_planted_commits(n_commits, seed=0)
    write_commits_jsonl(commits, workdir / "commits.jsonl")
    return workdir, commits


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, {})
        assert cfg.k == 3
        assert cfg.variant == "EmbedSubtract_Duo"

    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"k": 7, "seed": 4}))
        cfg = load_config(str(p), {})
        assert cfg.k == 7 and cfg.seed == 4

    def test_cli_overrides_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"k": 7}))
        cfg = load_config(str(p), {"k": 1})
        assert cfg.k == 1

    def test_none_override_keeps_file_value(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"k": 7}))
        assert load_config(str(p), {"k": None}).k == 7

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"banana": 1}))
        with pytest.raises(Exception):
            load_config(str(p), {})

    def test_bad_variant_rejected(self):
        with pytest.raises(Exception):
            load_config(None, {"variant": "Nope"})

    def test_digest_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.digest() == b.digest()
        b.k = 9
        assert a.digest() != b.digest()


class TestMine:
    def _labels(self, tmp_path, rows):
        p = tmp_path / "labels.csv"
        p.write_text("repo_id,commit_hash,vuln_id\n" + "".join(f"{r},{h},{v}\n" for r, h, v in rows))
        return p

    def test_counts_match_hand_count(self, tmp_path):
        repo = init_repo(tmp_path / "proj")
        sha1 = commit_files(repo, {"a.c": "one\ntwo\n"}, "c1", 1000)
        commit_files(repo, {"a.c": "one\nTWO\n"}, "c2", 2000)
        commit_files(repo, {"b.c": "x\n"}, "c3", 3000)
        labels = self._labels(tmp_path, [("proj", sha1, "CVE-1")])
        workdir = tmp_path / "out"
        config = write_config(tmp_path, workdir, repos=[str(repo)], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_OK
        summary = json.loads((workdir / "mine_summary.json").read_text())
        assert summary == {"VF": 1, "NVF": 2, "commits": 3, "files": 3}
        assert (workdir / "commits.jsonl").exists()
        assert (workdir / "manifest_mine.json").exists()

    def test_no_repos_is_ok(self, tmp_path):
        labels = self._labels(tmp_path, [])
        config = write_config(tmp_path, tmp_path / "out", repos=[], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_OK

    def test_missing_labels_file_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "out", repos=[], labels_file=str(tmp_path / "nope.csv"))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_repo_path_is_data_error(self, tmp_path):
        labels = self._labels(tmp_path, [])
        config = write_config(tmp_path, tmp_path / "out", repos=[str(tmp_path / "ghost")], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA


class TestBuild:
    def test_build_writes_splits(self, tmp_path):
        workdir, commits = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        for name in ("train.jsonl", "val.jsonl", "test_commits.jsonl", "built_header.json"):
            assert (workdir / name).exists(), name
        header = json.loads((workdir / "built_header.json").read_text())
        assert header["k"] == 3

    def test_build_at_k0(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "--k", "0", "build"]) == EXIT_OK
        header = json.loads((workdir / "built_header.json").read_text())
        assert header["k"] == 0

    def test_test_split_never_downsampled(self, tmp_path):
        workdir, commits = seeded_workdir(tmp_path)
        test_start = FAST_CONFIG["split"]["test_start"]
        expected_test = sum(1 for c in commits if c.timestamp >= test_start)
        config = write_config(tmp_path, workdir, downsample_ratio=1.0)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        test_lines = (workdir / "test_commits.jsonl").read_text().strip().splitlines()
        assert len(test_lines) == expected_test

    def test_build_without_mine_is_data_error(self, tmp_path):
        config = write_config(tmp_path, tmp_path / "empty")
        assert main(["--config", str(config), "build"]) == EXIT_DATA


class TestPipeline:
    def _run_through_evaluate(self, tmp_path, seed=0):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir, seed=seed)
        for command in ("build", "train", "predict", "evaluate"):
            assert main(["--config", str(config), command]) == EXIT_OK, command
        return workdir

    def test_full_pipeline(self, tmp_path):
        workdir = self._run_through_evaluate(tmp_path)
        report = json.loads((workdir / "report.json").read_text())
        (entry,) = report.values()
        assert set(entry["cost_effort"]) == {"5", "20"}
        assert 0.0 <= entry["f1"] <= 1.0
        csv_lines = (workdir / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "Method,F1,Precision,Recall,CostEffort@5,CostEffort@20"
        assert len(csv_lines) == 2
        # one prediction per test commit
        preds = (workdir / "predictions.jsonl").read_text().strip().splitlines()
        tests = (workdir / "test_commits.jsonl").read_text().strip().splitlines()
        assert len(preds) == len(tests)

    def test_same_seed_rerun_is_byte_identical(self, tmp_path):
        w1 = self._run_through_evaluate(tmp_path / "run1", seed=3)
        w2 = self._run_through_evaluate(tmp_path / "run2", seed=3)
        assert (w1 / "predictions.jsonl").read_bytes() == (w2 / "predictions.jsonl").read_bytes()
        assert (w1 / "checkpoint.bin").read_bytes() == (w2 / "checkpoint.bin").read_bytes()
        assert (w1 / "report.csv").read_bytes() == (w2 / "report.csv").read_bytes()

    def test_checkpoint_max_len_mismatch_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
        bad = write_config(tmp_path, workdir, max_len=128)
        assert main(["--config", str(bad), "predict"]) == EXIT_DATA
        assert "max_len" in capsys.readouterr().err

    def test_k_mismatch_is_data_error(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
        assert main(["--config", str(config), "--k", "1", "predict"]) == EXIT_DATA

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[: len(text) // 2],  # truncated file
            lambda text: json.dumps({**json.loads(text), "merges": [[9999, 5]] + json.loads(text)["merges"][1:]}),
            lambda text: json.dumps({**json.loads(text), "merges": json.loads(text)["merges"][:-10]}),
        ],
        ids=["truncated", "unknown-id", "fewer-merges-than-checkpoint"],
    )
    def test_bad_vocabulary_is_data_error(self, tmp_path, capsys, corrupt):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
        vocab_path = workdir / "vocab.json"
        vocab_path.write_text(corrupt(vocab_path.read_text()))
        capsys.readouterr()
        assert main(["--config", str(config), "predict"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "vocabulary" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda head: head.pop("b2"), "missing tensor 'head.b2'"),
            (lambda head: head.update(w1=np.zeros((2 * head["w1"].shape[0], head["w1"].shape[1]), np.float32)), "'head.w1' has shape"),
        ],
        ids=["missing-head-b2", "wrong-shape-head-w1"],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, damage, message):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
        ckpt = workdir / "checkpoint.bin"
        model, extra = tr.load_checkpoint(ckpt)
        damage(model.head)
        tr.save_checkpoint(model, ckpt, extra)
        capsys.readouterr()
        assert main(["--config", str(config), "predict"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "Traceback" not in err

    def test_predict_without_checkpoint_is_data_error(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "predict"]) == EXIT_DATA


class TestGuards:
    def test_locked_workdir_is_data_error(self, tmp_path, capsys):
        workdir = tmp_path / "out"
        workdir.mkdir()
        (workdir / ".lock").write_text("12345")
        config = write_config(tmp_path, workdir, repos=[], labels_file="x")
        assert main(["--config", str(config), "build"]) == EXIT_DATA
        assert "locked" in capsys.readouterr().err

    def test_lock_released_after_run(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert not (workdir / ".lock").exists()

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "ghost.json"), "build"]) == EXIT_DATA

    def test_invalid_json_config_is_usage_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert main(["--config", str(p), "build"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"encoder": {"dim": 15, "layers": 1, "heads": 2}}, "divisible by heads"),
            ({"encoder": {**FAST_CONFIG["encoder"], "depth": 2}}, "'depth'"),
            ({"train": {"lr": 1e-3}}, "'lr'"),
            ({"train": [3e-3, 2]}, "bad train config"),
            ({"train": {"batch_size": 0}}, "batch_size"),
            ({"split": {"test_start": 5}}, "'strategy'"),
        ],
        ids=["dim-not-divisible", "encoder-depth", "train-lr", "train-list", "train-batch-size-0", "split-without-strategy"],
    )
    def test_bad_nested_config_is_usage_error(self, tmp_path, capsys, extra, message):
        workdir, _ = seeded_workdir(tmp_path)
        assert main(["--config", str(write_config(tmp_path, workdir)), "build"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(write_config(tmp_path, workdir, **extra)), "train"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and "Traceback" not in err

    def test_bad_sweep_k_is_usage_error(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "ablate", "--sweep-k", "3,x"]) == EXIT_USAGE

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE
