import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixhound.change_builder as cb
import fixhound.trainer as tr
from conftest import commit_files, init_repo, make_planted_commits, make_planted_repo
from fixhound.change_builder import VARIANTS, BuiltExample
from fixhound.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _split_and_downsample, main
from fixhound.config import MIN_VOCAB_SIZE, EncoderConfig, RunConfig, TrainConfig, atomic_write, load_config, read_jsonl, write_jsonl
from fixhound.evaluation import CommitPrediction
from fixhound.records import NVF, SplitSpec, read_commits_jsonl, write_commits_jsonl
from fixhound.tokenizer import MIN_VOCAB
from model_helpers import force_concurrent_streams

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


def one_line_error(capsys, *needles) -> str:
    """The stderr of the last command: one line, no traceback, holding every needle."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert all(n in err for n in needles), err
    return err


def seeded_workdir(tmp_path, n_commits=40):
    """A workdir preloaded with synthetic mined commits."""
    workdir = tmp_path / "out"
    workdir.mkdir(parents=True)
    commits = make_planted_commits(n_commits, seed=0)
    write_commits_jsonl(commits, workdir / "commits.jsonl")
    return workdir, commits


def _resaved_head(change):
    """Checkpoint damage: load, change the head tensors, save again."""

    def damage(ckpt):
        model, vocab, extra = tr.load_checkpoint(ckpt)
        change(model.head)
        tr.save_checkpoint(model, vocab, ckpt, extra)

    return damage


def _config_span(raw: bytes) -> tuple[int, int]:
    """Start and end offsets of a checkpoint's JSON config block."""
    (length,) = struct.unpack_from("<Q", raw, 8)
    return 16, 16 + length


def _rewritten_config(change):
    """Checkpoint damage: rewrite the JSON config block (and its length field)."""

    def damage(ckpt):
        raw = ckpt.read_bytes()
        start, end = _config_span(raw)
        config = json.loads(raw[start:end])
        change(config)
        block = json.dumps(config).encode()
        ckpt.write_bytes(raw[:8] + struct.pack("<Q", len(block)) + block + raw[end:])

    return damage


def _first_dim(value):
    """Checkpoint damage: set the first dimension of the first tensor."""

    def damage(ckpt):
        raw = bytearray(ckpt.read_bytes())
        _, off = _config_span(raw)
        (name_len,) = struct.unpack_from("<H", raw, off)
        struct.pack_into("<Q", raw, off + 2 + name_len + 1, value)
        ckpt.write_bytes(bytes(raw))

    return damage


def _overwritten(offset, data):
    """Checkpoint damage: overwrite bytes at `offset`."""

    def damage(ckpt):
        raw = bytearray(ckpt.read_bytes())
        raw[offset : offset + len(data)] = data
        ckpt.write_bytes(bytes(raw))

    return damage


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
        one_line_error(capsys, "nope.csv")

    def test_labels_file_not_utf8_is_data_error(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"repo_id,commit_hash,vuln_id\nshort-changes,\xff\xfe,X\n")
        config = write_config(tmp_path, tmp_path / "out", repos=[], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        one_line_error(capsys, f"{labels}: not UTF-8 text (byte 42)")

    def test_labels_field_beyond_the_csv_limit_is_data_error(self, tmp_path, capsys):
        labels = self._labels(tmp_path, [("proj", "x" * 200_000, "CVE-1")])
        config = write_config(tmp_path, tmp_path / "out", repos=[], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        one_line_error(capsys, f"{labels}: not a label feed (field larger than field limit")

    def test_labels_file_that_is_a_directory_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "out", repos=[], labels_file=str(tmp_path))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        one_line_error(capsys, f"{tmp_path}: not a regular file")
        assert not (tmp_path / "out" / "commits.jsonl").exists()

    def test_unreadable_labels_file_is_data_error(self, tmp_path, capsys, monkeypatch):
        labels = self._labels(tmp_path, [])
        config = write_config(tmp_path, tmp_path / "out", repos=[], labels_file=str(labels))

        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_bytes", denied)
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        one_line_error(capsys, f"{labels}: cannot read (Permission denied)")

    def test_repository_listed_twice_is_data_error(self, tmp_path, capsys):
        repo = init_repo(tmp_path / "proj")
        commit_files(repo, {"a.c": "one\n"}, "c1", 1000)
        labels = self._labels(tmp_path, [])
        workdir = tmp_path / "out"
        config = write_config(tmp_path, workdir, repos=[str(repo), str(repo)], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        one_line_error(capsys, f"repository {repo}: commit ", "already mined")
        assert not (workdir / "commits.jsonl").exists()

    def test_missing_repo_path_is_data_error(self, tmp_path, capsys):
        labels = self._labels(tmp_path, [])
        config = write_config(tmp_path, tmp_path / "out", repos=[str(tmp_path / "ghost")], labels_file=str(labels))
        assert main(["--config", str(config), "mine"]) == EXIT_DATA
        one_line_error(capsys, "ghost")


class TestBuild:
    def test_build_writes_splits(self, tmp_path):
        workdir, commits = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        for name in ("train.jsonl", "val.jsonl", "test_commits.jsonl"):
            assert (workdir / name).exists(), name
        assert not (workdir / "built_header.json").exists()
        assert {ex.k for ex in read_jsonl(workdir / "train.jsonl", BuiltExample.from_dict)} == {3}

    def test_build_at_k0(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "--k", "0", "build"]) == EXIT_OK
        assert {ex.k for ex in read_jsonl(workdir / "train.jsonl", BuiltExample.from_dict)} == {0}

    def test_test_split_never_downsampled(self, tmp_path):
        workdir, commits = seeded_workdir(tmp_path)
        test_start = FAST_CONFIG["split"]["test_start"]
        expected_test = sum(1 for c in commits if c.timestamp >= test_start)
        config = write_config(tmp_path, workdir, downsample_ratio=1.0)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        test_lines = (workdir / "test_commits.jsonl").read_text().strip().splitlines()
        assert len(test_lines) == expected_test

    def test_build_without_mine_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "empty")
        assert main(["--config", str(config), "build"]) == EXIT_DATA
        one_line_error(capsys, "run mine first")


class TestStoredContext:
    """mine stores max(9, k) lines of context; a stage whose k needs more exits 2 before any work."""

    def _config(self, tmp_path):
        repo, labels = make_planted_repo(tmp_path / "planted", 12, seed=0)
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("repo_id,commit_hash,vuln_id\n" + "".join(f"{r},{h},{v}\n" for r, h, v in labels))
        split = {"strategy": "Temporal", "test_start": 1_000_000 + 120 * 8}
        return str(write_config(tmp_path, tmp_path / "out", repos=[str(repo)], labels_file=str(labels_path), split=split))

    def test_k_beyond_stored_context_is_data_error(self, tmp_path, capsys):
        config = self._config(tmp_path)
        assert main(["--config", config, "mine"]) == EXIT_OK  # k=3
        capsys.readouterr()
        assert main(["--config", config, "--k", "12", "build"]) == EXIT_DATA
        one_line_error(capsys, "stores 9 lines of context, too few for k=12; re-run mine with k=12")
        assert main(["--config", config, "ablate", "--sweep-k", "0,12"]) == EXIT_DATA
        one_line_error(capsys, "stores 9 lines of context, too few for k=12")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["commits.jsonl", "manifest_mine.json", "mine_summary.json"]

    def test_mining_at_larger_k_stores_more_context(self, tmp_path, capsys):
        config = self._config(tmp_path)
        workdir = tmp_path / "out"
        for command in ("mine", "build", "train"):
            assert main(["--config", config, "--k", "12", command]) == EXIT_OK, command
        assert {fc.context for rec in read_commits_jsonl(workdir / "commits.jsonl") for fc in rec.files} == {12}
        write_commits_jsonl(make_planted_commits(4, seed=1), workdir / "test_commits.jsonl")  # stored at 9
        capsys.readouterr()
        assert main(["--config", config, "--k", "12", "predict"]) == EXIT_DATA
        one_line_error(capsys, "test_commits.jsonl stores 9 lines of context, too few for k=12")


class TestAtomicWrites:
    def test_failing_writer_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "commits.jsonl"
        write_commits_jsonl(make_planted_commits(3, seed=0), path)
        before = path.read_bytes()

        def dies_midway():
            yield from make_planted_commits(2, seed=1)
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            write_jsonl(dies_midway(), path)
        with pytest.raises(RuntimeError, match="writer died"), atomic_write(path, "wb") as fh:
            fh.write(b"half a checkpoint")
            raise RuntimeError("writer died")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["commits.jsonl"]


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
        capsys.readouterr()
        assert main(["--config", str(bad), "predict"]) == EXIT_DATA
        one_line_error(capsys, "max_len")

    def test_k_mismatch_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(config), "--k", "1", "predict"]) == EXIT_DATA
        one_line_error(capsys, "k=1")

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: c["merges"][-1].pop(), "not two token ids"),  # the last merge cut short
            (lambda c: c["merges"].__setitem__(0, [9999, 5]), "vocabulary merge 0 is [9999, 5]"),
            (lambda c: c.update(merges=c["merges"][:-10]), "but the encoder embeds 300"),
        ],
        ids=["truncated", "unknown-id", "fewer-merges-than-checkpoint"],
    )
    def test_bad_vocabulary_is_data_error(self, tmp_path, capsys, change, message):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
        _rewritten_config(change)(workdir / "checkpoint.bin")
        capsys.readouterr()
        assert main(["--config", str(config), "predict"]) == EXIT_DATA
        one_line_error(capsys, "vocabulary", message)

    def test_ablate_leaves_the_trained_model_whole(self, tmp_path):
        """A k=7 sweep in the same workdir does not change what the k=3 checkpoint predicts."""
        workdir, _ = seeded_workdir(tmp_path)
        config = str(write_config(tmp_path, workdir))
        for command in ("build", "train", "predict"):
            assert main(["--config", config, command]) == EXIT_OK, command
        before = (workdir / "predictions.jsonl").read_bytes()
        assert main(["--config", config, "--k", "7", "ablate", "--sweep-k", "7"]) == EXIT_OK
        assert main(["--config", config, "predict"]) == EXIT_OK
        assert (workdir / "predictions.jsonl").read_bytes() == before
        assert not {"vocab.json", "built_header.json"} & {p.name for p in workdir.iterdir()}

    def test_sweep_checkpoints_equal_build_and_train_at_each_k(self, tmp_path):
        """Each sweep k learns its own vocabulary: its checkpoint and loss log are what `--k <k> build` and `train` give."""
        workdir, _ = seeded_workdir(tmp_path / "sweep")
        config = str(write_config(tmp_path / "sweep", workdir))
        assert main(["--config", config, "ablate", "--sweep-k", "0,7"]) == EXIT_OK
        for k in (0, 7):
            single, _ = seeded_workdir(tmp_path / f"k{k}")
            single_config = str(write_config(tmp_path / f"k{k}", single))
            for command in ("build", "train"):
                assert main(["--config", single_config, "--k", str(k), command]) == EXIT_OK, command
            for name in ("checkpoint", "loss_log"):
                ext = "bin" if name == "checkpoint" else "csv"
                swept = (workdir / f"{name}_RawGitDiff_k{k}.{ext}").read_bytes()
                assert swept == (single / f"{name}.{ext}").read_bytes(), (k, name)

    def test_predict_with_an_ablation_checkpoint_matches_its_predictions(self, tmp_path):
        """`predict --checkpoint checkpoint_<v>.bin` scores the test split as ablate did, byte for byte."""
        workdir, _ = seeded_workdir(tmp_path)
        config = str(write_config(tmp_path, workdir))
        for command in ("build", "ablate"):
            assert main(["--config", config, command]) == EXIT_OK, command
        for variant in VARIANTS:
            assert main(["--config", config, "predict", "--checkpoint", str(workdir / f"checkpoint_{variant}.bin")]) == EXIT_OK
            assert (workdir / "predictions.jsonl").read_bytes() == (workdir / f"predictions_{variant}.jsonl").read_bytes(), variant

    @pytest.mark.parametrize("sweep, ks", [([], [3]), (["--sweep-k", "0,7"], [0, 7])], ids=["variants", "sweep"])
    def test_ablate_builds_each_file_once_per_k(self, tmp_path, monkeypatch, sweep, ks):
        """Train, val and test are cut once per k, however many variants train at that k."""
        workdir, commits = seeded_workdir(tmp_path)
        config = str(write_config(tmp_path, workdir))
        parts = _split_and_downsample(load_config(config, {}), commits)
        expected = [(k, c.commit_hash, fc.path) for k in ks for split in ("train", "val", "test") for c in parts[split] for fc in c.files]
        cuts = []
        build_example = cb.build_example

        def counting(fc, k, label, repo_id, commit_hash):
            cuts.append((k, commit_hash, fc.path))
            return build_example(fc, k, label, repo_id, commit_hash)

        monkeypatch.setattr(cb, "build_example", counting)
        assert main(["--config", config, "ablate", *sweep]) == EXIT_OK
        assert sorted(cuts) == sorted(expected)

    def test_every_manifest_output_exists(self, tmp_path):
        runs = {
            "pipeline": [["build"], ["train"], ["predict"], ["evaluate"]],
            "ablate": [["ablate"]],
            "sweep": [["ablate", "--sweep-k", "0,7"]],
        }
        for name, commands in runs.items():
            workdir, _ = seeded_workdir(tmp_path / name)
            config = str(write_config(tmp_path / name, workdir))
            for command in commands:
                assert main(["--config", config, *command]) == EXIT_OK, (name, command)
            manifests = sorted(workdir.glob("manifest_*.json"))
            assert len(manifests) == len(commands), name
            for manifest in manifests:
                for output in json.loads(manifest.read_text())["outputs"]:
                    assert (workdir / output).is_file(), (name, manifest.name, output)

    def test_non_finite_probability_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = str(write_config(tmp_path, workdir))
        for command in ("build", "train"):
            assert main(["--config", config, command]) == EXIT_OK, command
        model, vocab, extra = tr.load_checkpoint(workdir / "checkpoint.bin")
        model.encoder_before["pos_emb"][...] = 3e38  # finite weights whose sums overflow float32
        tr.save_checkpoint(model, vocab, workdir / "checkpoint.bin", extra)
        capsys.readouterr()
        assert main(["--config", config, "predict"]) == EXIT_DATA
        one_line_error(capsys, "checkpoint.bin gives commit", "a probability of nan: its weights overflow")
        assert not (workdir / "predictions.jsonl").exists()

    def test_non_finite_probability_on_two_threads_is_data_error(self, tmp_path, capsys, monkeypatch):
        threads = force_concurrent_streams(monkeypatch)
        before = threading.enumerate()
        workdir, _ = seeded_workdir(tmp_path)
        config = str(write_config(tmp_path, workdir, variant="EmbedSubtract_Duo"))
        for command in ("build", "train"):
            assert main(["--config", config, command]) == EXIT_OK, command
        model, vocab, extra = tr.load_checkpoint(workdir / "checkpoint.bin")
        model.encoder_after["pos_emb"][...] = 3e38  # overflows the stream that runs on the worker
        tr.save_checkpoint(model, vocab, workdir / "checkpoint.bin", extra)
        capsys.readouterr()
        threads.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", config, "predict"]) == EXIT_DATA
        assert set(threads) - {threading.main_thread().name}, "no stream ran on a worker thread"
        assert [str(w.message) for w in caught] == []
        one_line_error(capsys, "a probability of nan: its weights overflow")
        assert not (workdir / "predictions.jsonl").exists()
        assert threading.enumerate() == before

    def test_train_on_examples_built_at_another_k_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "--k", "0", "build"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(config), "train"]) == EXIT_DATA
        one_line_error(capsys, "train.jsonl holds examples built at k=0, but train is configured with k=3")
        assert not (workdir / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "damage, message, variant",
        [
            (_resaved_head(lambda head: head.pop("b2")), "missing tensor 'head.b2'", "RawGitDiff"),
            (
                _resaved_head(lambda head: head.update(w1=np.zeros((2 * head["w1"].shape[0], head["w1"].shape[1]), np.float32))),
                "'head.w1' has shape",
                "RawGitDiff",
            ),
            (_overwritten(16, b"x"), "unreadable config block", "RawGitDiff"),  # the first byte of the JSON config
            (_overwritten(20, b"\xff{"), "unreadable config block", "RawGitDiff"),
            (_overwritten(4, struct.pack("<I", 1)), "unsupported version 1", "RawGitDiff"),  # a checkpoint without its merges
            (_first_dim(2**63), "truncated tensor", "RawGitDiff"),
            (_rewritten_config(lambda c: c.update(extra=0)), "extra is 0, not an object", "RawGitDiff"),
            # two trained encoders relabelled as a variant that shares one
            (
                _rewritten_config(lambda c: c.update(variant="EmbedSubtract_Single")),
                "shared_encoders is False, but EmbedSubtract_Single shares one encoder",
                "EmbedSubtract_Duo",
            ),
            (_rewritten_config(lambda c: c.update(shared_encoders="no")), "shared_encoders is 'no'", "RawGitDiff"),
        ],
        ids=[
            "missing-head-b2", "wrong-shape-head-w1", "config-not-json", "config-not-utf8", "version-1", "dim-2^63",
            "extra-not-object", "variant-disagrees-with-sharing", "sharing-not-bool",
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, damage, message, variant):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "--variant", variant, "train"]) == EXIT_OK
        damage(workdir / "checkpoint.bin")
        capsys.readouterr()
        assert main(["--config", str(config), "predict"]) == EXIT_DATA
        one_line_error(capsys, message)

    def test_predict_without_checkpoint_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "predict"]) == EXIT_DATA
        one_line_error(capsys, "checkpoint not found")


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory):
    """One built and trained workdir, shared by the tests that only read its checkpoint."""
    tmp_path = tmp_path_factory.mktemp("trained")
    workdir, _ = seeded_workdir(tmp_path)
    config = str(write_config(tmp_path, workdir))
    for command in ("build", "train"):
        assert main(["--config", config, command]) == EXIT_OK, command
    return config, workdir


@pytest.fixture(scope="module")
def predicted_workdir(trained_workdir, tmp_path_factory):
    """A copy of `trained_workdir` with its test split predicted."""
    workdir = tmp_path_factory.mktemp("predicted") / "out"
    shutil.copytree(trained_workdir[1], workdir)
    assert main(["--config", str(write_config(workdir.parent, workdir)), "predict"]) == EXIT_OK
    return workdir


def _with_line(src: Path, dest: Path, lineno: int, damage) -> None:
    """`src` copied to `dest`, the JSON object on line `lineno` (1-based) passed through `damage`."""
    lines = src.read_text().splitlines(keepends=True)
    record = json.loads(lines[lineno - 1])
    damage(record)
    lines[lineno - 1] = json.dumps(record) + "\n"
    dest.write_text("".join(lines))


@st.composite
def _damaged(draw, raw: bytes) -> bytes:
    """`raw` cut at some offset, or overwritten there; half the offsets fall in the config block with the merges."""
    start, end = _config_span(raw)
    offset = draw(st.one_of(st.integers(0, len(raw) - 1), st.integers(start, end - 1)))
    if draw(st.booleans()):
        return raw[:offset]
    patch = draw(st.one_of(st.binary(min_size=1, max_size=16), st.text("0123456789[], -.", min_size=1, max_size=8).map(str.encode)))
    patch = patch[: len(raw) - offset]
    return raw[:offset] + patch + raw[offset + len(patch) :]


class TestDamagedCheckpoint:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predict_exits_0_or_2_with_one_line(self, trained_workdir, data):
        config, workdir = trained_workdir
        damaged = workdir / "damaged.bin"
        damaged.write_bytes(data.draw(_damaged((workdir / "checkpoint.bin").read_bytes())))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--config", config, "predict", "--checkpoint", str(damaged)])
        assert code in (EXIT_OK, EXIT_DATA)
        if code == EXIT_DATA:
            assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue(), err.getvalue()


class TestGuards:
    def test_locked_workdir_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        (workdir / ".lock").write_text(str(os.getpid()))  # a live process holds it
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_DATA
        one_line_error(capsys, "is locked by a running process")
        assert (workdir / ".lock").read_text() == str(os.getpid())
        assert not (workdir / "train.jsonl").exists()

    def test_dead_runs_lock_is_taken_over(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid names no process
        (workdir / ".lock").write_text(str(child.pid))
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert (workdir / "train.jsonl").exists()
        assert not (workdir / ".lock").exists()

    def test_lock_released_after_run(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert not (workdir / ".lock").exists()

    def test_missing_config_file_is_data_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "ghost.json"), "build"]) == EXIT_DATA
        one_line_error(capsys, "ghost.json")
        assert main(["--config", str(tmp_path), "build"]) == EXIT_DATA  # a directory
        one_line_error(capsys, f"config file not found: {tmp_path}")

    def test_invalid_json_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert main(["--config", str(p), "build"]) == EXIT_USAGE
        one_line_error(capsys, "not valid JSON")

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("build", {"k": "3"}, "bad run config: k must be an integer >= 0, got '3'"),
            ("build", {"k": True}, "bad run config: k must be an integer >= 0, got True"),
            ("train", {"max_len": 64.0}, "bad run config: max_len must be an integer >= 3, got 64.0"),
            ("train", {"vocab_size": "300"}, f"bad run config: vocab_size must be an integer in [{MIN_VOCAB_SIZE}, 2^31], got '300'"),
            ("build", {"seed": None}, "bad run config: seed must be an integer >= 0, got None"),
            ("mine", {"since": "2020"}, "bad run config: since must be an integer, got '2020'"),
            ("mine", {"until": [1]}, "bad run config: until must be an integer, got [1]"),
            ("evaluate", {"cost_effort_levels": 5}, "bad run config: cost_effort_levels must be a list of numbers in (0, 100], got 5"),
            ("evaluate", {"cost_effort_levels": ["5"]}, "bad run config: cost_effort_levels must be a list of numbers in (0, 100], got ['5']"),
            ("build", {"downsample_ratio": "38"}, "bad run config: downsample_ratio must be a finite number > 0, got '38'"),
            ("mine", {"repos": "proj"}, "bad run config: repos must be a list of strings without NUL that os.fsencode accepts, got 'proj'"),
            ("mine", {"repos": [1]}, "bad run config: repos must be a list of strings without NUL that os.fsencode accepts, got [1]"),
            ("train", {"encoder": 32}, "bad run config: encoder must be an object, got 32"),
            ("train", {"train": "fast"}, "bad run config: train must be an object, got 'fast'"),
            ("build", {"split": None}, "bad run config: split must be an object, got None"),
            ("build", {"variant": {}}, "bad run config: variant must be a string, got {}"),  # the table lookup needs a key
        ],
        ids=[
            "k-str", "k-bool", "max_len-float", "vocab_size-str", "seed-null", "since-str", "until-list",
            "levels-int", "levels-str-item", "downsample-str", "repos-str", "repos-int-item",
            "encoder-int", "train-str", "split-null", "variant-object",
        ],
    )
    def test_bad_top_level_type_is_usage_error(self, tmp_path, capsys, command, extra, message):
        config = write_config(tmp_path, tmp_path / "out", **extra)
        assert main(["--config", str(config), command]) == EXIT_USAGE
        one_line_error(capsys, message)

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"seed": -1}, "bad run config: seed must be an integer >= 0, got -1"),
            ({"downsample_ratio": -1.0}, "downsample_ratio must be a finite number > 0, got -1.0"),
            ({"downsample_ratio": math.nan}, "downsample_ratio must be a finite number > 0, got nan"),
            ({"downsample_ratio": 0}, "downsample_ratio must be a finite number > 0, got 0"),
            ({"vocab_size": 5}, f"vocab_size must be an integer in [{MIN_VOCAB_SIZE}, 2^31], got 5"),
            ({"vocab_size": 2**31 + 1}, f"vocab_size must be an integer in [{MIN_VOCAB_SIZE}, 2^31], got {2**31 + 1}"),
            ({"k": -1}, "bad run config: k must be an integer >= 0, got -1"),
            ({"k": 2**63}, f"bad run config: k must be an integer >= 0, got {2**63}"),
            ({"max_len": 2}, "bad run config: max_len must be an integer >= 3, got 2"),
            ({"train": {"learning_rate": "x"}}, "learning_rate must be a finite number > 0, got 'x'"),
            ({"train": {"learning_rate": 0}}, "learning_rate must be a finite number > 0, got 0"),
            ({"train": {"learning_rate": math.inf}}, "learning_rate must be a finite number > 0, got inf"),
            ({"train": {"epochs": 1.5}}, "bad train config: epochs must be an integer in [1, 10000], got 1.5"),
            ({"train": {"epochs": 0}}, "bad train config: epochs must be an integer in [1, 10000], got 0"),
            ({"train": {"epochs": 2**31 - 1}}, f"bad train config: epochs must be an integer in [1, 10000], got {2**31 - 1}"),
            ({"train": {"batch_size": 32.0}}, "batch_size must be an integer >= 1, got 32.0"),
            ({"train": {"batch_size": True}}, "batch_size must be an integer >= 1, got True"),
            # micro_batch is no longer a train field: any value of it is an unknown key
            ({"train": {"micro_batch": "4"}}, "bad train config: key must be one of learning_rate, beta1, beta2, adam_eps, weight_decay, epochs, batch_size, got 'micro_batch'"),
            ({"train": {"micro_batch": False}}, "bad train config: key must be one of learning_rate, beta1, beta2, adam_eps, weight_decay, epochs, batch_size, got 'micro_batch'"),
            ({"train": {"beta2": 1.0}}, "beta2 must be a number in [0, 1), got 1.0"),
            ({"encoder": {"dim": 16, "layers": 1, "heads": 0}}, "bad encoder config: heads must be an integer >= 1, got 0"),
            ({"encoder": {"dim": 16.0, "layers": 1, "heads": 2}}, "bad encoder config: dim must be an integer >= 1, got 16.0"),
            # each of these would exhaust time or memory: the encoder's parameters besides tok_emb are bounded
            ({"encoder": {**FAST_CONFIG["encoder"], "layers": 2**31 - 1}}, f"bad encoder config: layers must be an integer in [0, 1024], got {2**31 - 1}"),
            # within the parameter bound, but 2^23 - 1 one-wide layers are ~134M arrays
            ({"max_len": 3, "encoder": {"dim": 1, "heads": 1, "ffn_mult": 1, "layers": 2**23 - 1}}, f"bad encoder config: layers must be an integer in [0, 1024], got {2**23 - 1}"),
            ({"max_len": 2**31 - 1}, "bad encoder config: parameters besides tok_emb must be at most 2^27, got "),
            ({"encoder": {**FAST_CONFIG["encoder"], "dim": 2**40, "heads": 1}}, "bad encoder config: parameters besides tok_emb must be at most 2^27, got "),
        ],
        ids=[
            "seed-negative", "downsample-negative", "downsample-nan", "downsample-zero", "vocab-size-5", "vocab-size-2^31+1",
            "k-negative", "k-2^63", "max-len-2",
            "lr-str", "lr-zero", "lr-inf", "epochs-float", "epochs-zero", "epochs-2^31-1", "batch-size-float", "batch-size-bool",
            "micro-batch-str", "micro-batch-bool", "beta2-one", "heads-zero", "dim-float", "layers-2^31-1", "layers-2^23-1-dim-1", "max-len-2^31-1", "dim-2^40",
        ],
    )
    def test_bad_value_is_usage_error_before_mine_writes(self, tmp_path, capsys, extra, message):
        labels = tmp_path / "labels.csv"
        labels.write_text("repo_id,commit_hash,vuln_id\n")
        workdir = tmp_path / "out"
        config = write_config(tmp_path, workdir, repos=[], labels_file=str(labels), **extra)
        assert main(["--config", str(config), "mine"]) == EXIT_USAGE
        one_line_error(capsys, message)
        assert not workdir.exists()

    def test_min_vocab_size_is_the_tokenizers(self):
        assert MIN_VOCAB_SIZE == MIN_VOCAB

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("[3]")
        assert main(["--config", str(p), "build"]) == EXIT_USAGE
        one_line_error(capsys, "JSON object")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"encoder": {"dim": 15, "layers": 1, "heads": 2}}, "divisible by heads"),
            ({"encoder": {**FAST_CONFIG["encoder"], "depth": 2}}, "'depth'"),
            ({"train": {"lr": 1e-3}}, "'lr'"),
            ({"train": [3e-3, 2]}, "bad run config: train must be an object, got [0.003, 2]"),
            ({"train": {"batch_size": 0}}, "batch_size"),
            ({"split": {"test_start": 5}}, "bad split config: strategy must be 'CrossProject' or 'Temporal', got nothing"),
            ({"split": {"strategy": "Sideways"}}, "bad split config: strategy must be 'CrossProject' or 'Temporal', got 'Sideways'"),
            ({"split": {"strategy": "Temporal", "test_start": "soon"}}, "bad split config: test_start must be null or an integer, got 'soon'"),
            ({"split": {"strategy": "Temporal", "test_start": True}}, "bad split config: test_start must be null or an integer, got True"),
            ({"split": {"strategy": "Temporal", "test_start": 5, "train_frac": "most"}}, "train_frac must be a number in [0, 1]"),
            ({"split": {"strategy": "Temporal", "test_start": 5, "train_frac": 1.5}}, "train_frac must be a number in [0, 1]"),
            ({"split": {"strategy": "Temporal", "test_start": 5, "val_frac": False}}, "val_frac must be a number in [0, 1]"),
            ({"split": {"strategy": "CrossProject", "train_repos": "repo"}}, "train_repos must be a list of strings"),
            ({"split": {"strategy": "CrossProject", "test_repos": [3]}}, "test_repos must be a list of strings"),
        ],
        ids=[
            "dim-not-divisible", "encoder-depth", "train-lr", "train-list", "train-batch-size-0", "split-without-strategy",
            "split-unknown-strategy", "split-test-start-str", "split-test-start-bool", "split-train-frac-str",
            "split-train-frac-above-1", "split-val-frac-bool", "split-repos-str", "split-repos-int-item",
        ],
    )
    def test_bad_nested_config_is_usage_error(self, tmp_path, capsys, extra, message):
        workdir, _ = seeded_workdir(tmp_path)
        assert main(["--config", str(write_config(tmp_path, workdir)), "build"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(write_config(tmp_path, workdir, **extra)), "train"]) == EXIT_USAGE
        one_line_error(capsys, message)

    def test_bad_sweep_k_is_usage_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        for sweep in ("3,x", "3,-1", ","):
            assert main(["--config", str(config), "ablate", "--sweep-k", sweep]) == EXIT_USAGE
            one_line_error(capsys, "--sweep-k", sweep)
        assert [p.name for p in workdir.iterdir()] == ["commits.jsonl"]

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_bytes(b'{"k": "\xff"}')
        assert main(["--config", str(p), "build"]) == EXIT_USAGE
        one_line_error(capsys, "is not valid JSON: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("cls", [RunConfig, EncoderConfig, TrainConfig, SplitSpec], ids=lambda cls: cls.__name__)
    def test_every_config_field_has_one_rule(self, cls):
        rules = {f.name for f in dataclasses.fields(cls) if set(f.metadata) == {"what", "ok"}}
        assert {f.name for f in dataclasses.fields(cls)} == rules

    @pytest.mark.parametrize("field", ["workdir", "labels_file", "repos"])
    @pytest.mark.parametrize("name", ["w\ud800", "w\0x"], ids=["lone-surrogate", "nul"])
    def test_path_the_os_cannot_take_is_usage_error(self, tmp_path, field, name):
        path = str(tmp_path / name)
        values = {"workdir": str(tmp_path / "out"), field: [path] if field == "repos" else path}
        code, err = _run_quietly("--config", str(write_config(tmp_path, **values)), "mine")
        assert code == EXIT_USAGE and err.count("\n") == 1, err
        assert err.startswith(f"error: bad run config: {field} must be ") and "os.fsencode accepts, got " in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("field", ["workdir", "labels_file", "repos"])
    def test_path_that_is_not_utf8_loads(self, tmp_path, field):
        # `--out $'w\xff'` reaches Python as 'w\udcff', which os.fsencode turns back into the byte 0xff
        path = str(tmp_path / "w\udcff")
        labels = tmp_path / "labels.csv"
        labels.write_text("repo_id,commit_hash,vuln_id\n")
        values = {"workdir": str(tmp_path / "out"), "labels_file": str(labels), "repos": [], field: [path] if field == "repos" else path}
        code, err = _run_quietly("--config", str(write_config(tmp_path, **values)), "mine")
        if field == "workdir":
            assert code == EXIT_OK and os.path.exists(os.path.join(os.fsencode(tmp_path), b"w\xff", b"commits.jsonl")), err
        else:  # the config loads; the path names no file
            assert code == EXIT_DATA and err.count("\n") == 1 and "not found" in err, err

    def test_the_papers_encoder_and_the_largest_vocabulary_load(self):
        # CodeBERT's size: 85M parameters besides tok_emb, under the 2^27 bound
        encoder = {"dim": 768, "layers": 12, "heads": 12, "ffn_mult": 4}
        cfg = load_config(None, {"encoder": encoder, "max_len": 512, "vocab_size": 2**31})
        assert cfg.encoder_config(cfg.vocab_size).params_besides_tok_emb == 85_449_216


class TestBadArtifacts:
    """Artifacts that do not hold what the next stage needs end with exit 2 and one line."""

    def test_empty_train_split_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        (workdir / "train.jsonl").write_text("")
        capsys.readouterr()
        assert main(["--config", str(config), "train"]) == EXIT_DATA
        one_line_error(capsys, "train split holds no examples")

    def test_no_vf_commit_in_test_split_is_data_error(self, tmp_path, capsys):
        workdir = tmp_path / "out"
        workdir.mkdir()
        commits = [c for c in make_planted_commits(6, seed=0) if c.label == NVF]
        write_commits_jsonl(commits, workdir / "test_commits.jsonl")
        preds = [CommitPrediction(c.repo_id, c.commit_hash, (("src/mod.c", 0.3),), 0.3, NVF, 2) for c in commits]
        write_jsonl(preds, workdir / "predictions.jsonl")
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "evaluate"]) == EXIT_DATA
        one_line_error(capsys, "zero actual VF commits")

    def test_old_format_commits_are_data_error(self, tmp_path, capsys):
        workdir, commits = seeded_workdir(tmp_path)
        record = commits[0].to_dict()
        for fc in record["files"]:  # whole-file records, as mine wrote them before windows
            fc["old_file_lines"] = [line for w in fc.pop("windows") for line in w["old_lines"]]
            del fc["old_len"], fc["new_len"], fc["context"]
        (workdir / "commits.jsonl").write_text(json.dumps(record) + "\n")
        assert main(["--config", str(write_config(tmp_path, workdir)), "build"]) == EXIT_DATA
        one_line_error(capsys, "commits.jsonl:1: unreadable record")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda rec: rec.update(files=[]), "has no file changes"),
            (lambda rec: rec["files"][0].update(context="9"), "context must be an integer, not str"),
            (lambda rec: rec["files"][0]["hunks"][0].update(old_start="1"), "old_start must be an integer, not str"),
            (lambda rec: rec["files"][0].update(removed_loc=None), "removed_loc must be an integer, not NoneType"),
            (lambda rec: rec["files"][0].update(removed_loc=-1), "removed_loc must be >= 0, not -1"),
            (lambda rec: rec.update(label="MAYBE"), "label must be 'VF' or 'NVF', not 'MAYBE'"),
            (lambda rec: rec.update(repo_id=5), "repo_id must be a string, not int"),
            (lambda rec: rec["files"][0].update(windows=[]), "context windows are not the regions its hunks give at context 9"),
            (  # one line late is already too late
                lambda rec: [w.update(old_lo=w["old_lo"] + 1) for w in rec["files"][0]["windows"]],
                "context windows are not the regions its hunks give at context 9",
            ),
            (  # one line early shifts every cut by one line
                lambda rec: [w.update(old_lo=w["old_lo"] - 1) for w in rec["files"][0]["windows"]],
                "context windows are not the regions its hunks give at context 9",
            ),
            (lambda rec: rec["files"][0]["windows"][0]["new_lines"].pop(), "context windows are not the regions its hunks give at context 9"),
        ],
        ids=[
            "no-files", "context-str", "old-start-str", "removed-loc-null", "removed-loc-negative", "label-maybe", "repo-id-int",
            "no-windows", "windows-after-hunks", "windows-before-hunks", "window-line-short",
        ],
    )
    def test_damaged_test_commit_is_data_error(self, trained_workdir, tmp_path, capsys, damage, message):
        _, trained = trained_workdir
        workdir = tmp_path / "out"
        workdir.mkdir()
        shutil.copy(trained / "checkpoint.bin", workdir)
        path = workdir / "test_commits.jsonl"
        lines = (trained / "test_commits.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        damage(record)
        lines[1] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        assert main(["--config", str(write_config(tmp_path, workdir)), "predict"]) == EXIT_DATA
        one_line_error(capsys, f"{path}:2: unreadable record (ValueError: ", message)
        assert not (workdir / "predictions.jsonl").exists()

    @pytest.mark.parametrize(
        "artifact, damage, message",
        [
            ("train.jsonl", lambda ex: ex.update(code_before=5), "code_before must be a string, not int"),
            ("train.jsonl", lambda ex: ex.update(k="3"), "k must be an integer, not str"),
            ("val.jsonl", lambda ex: ex.update(removed_loc=-1), "removed_loc must be >= 0, not -1"),
            ("train.jsonl", lambda ex: ex.update(label="MAYBE"), "label must be 'VF' or 'NVF', not 'MAYBE'"),
        ],
        ids=["text-int", "k-str", "loc-negative", "label-maybe"],
    )
    def test_damaged_example_is_data_error(self, trained_workdir, tmp_path, capsys, artifact, damage, message):
        _, trained = trained_workdir
        workdir = tmp_path / "out"
        workdir.mkdir()
        for name in ("train.jsonl", "val.jsonl"):
            shutil.copy(trained / name, workdir)
        _with_line(trained / artifact, workdir / artifact, 1, damage)
        assert main(["--config", str(write_config(tmp_path, workdir)), "train"]) == EXIT_DATA
        one_line_error(capsys, f"error: {workdir / artifact}:1: unreadable record (ValueError: {message})")
        assert not (workdir / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda p: p.update(commit_prob="0.5"), "commit_prob must be a number in [0, 1], not '0.5'"),
            (lambda p: p.update(commit_prob=1.5), "commit_prob must be a number in [0, 1], not 1.5"),
            (lambda p: p.update(commit_loc="7"), "commit_loc must be an integer, not str"),
            (lambda p: p.update(predicted=1), "predicted must be 'VF' or 'NVF', not 1"),
            (lambda p: p["file_probs"][0].__setitem__(1, "high"), "file_probs must be a list of [path, finite number] pairs"),
        ],
        ids=["prob-str", "prob-above-1", "loc-str", "predicted-int", "file-prob-str"],
    )
    def test_damaged_prediction_is_data_error(self, predicted_workdir, tmp_path, capsys, damage, message):
        workdir = tmp_path / "out"
        workdir.mkdir()
        shutil.copy(predicted_workdir / "test_commits.jsonl", workdir)
        _with_line(predicted_workdir / "predictions.jsonl", workdir / "predictions.jsonl", 2, damage)
        assert main(["--config", str(write_config(tmp_path, workdir)), "evaluate"]) == EXIT_DATA
        one_line_error(capsys, f"error: {workdir / 'predictions.jsonl'}:2: unreadable record (ValueError: {message})")
        assert not (workdir / "report.json").exists()

    def test_repeated_prediction_is_data_error(self, predicted_workdir, tmp_path, capsys):
        workdir = tmp_path / "out"
        workdir.mkdir()
        shutil.copy(predicted_workdir / "test_commits.jsonl", workdir)
        lines = (predicted_workdir / "predictions.jsonl").read_text().splitlines(keepends=True)
        (workdir / "predictions.jsonl").write_text("".join([*lines, lines[1]]))
        pred = json.loads(lines[1])
        assert main(["--config", str(write_config(tmp_path, workdir)), "evaluate"]) == EXIT_DATA
        duplicate = f"commit {pred['commit_hash']} of {pred['repo_id']} appears twice"
        one_line_error(capsys, f"{workdir / 'predictions.jsonl'}:{len(lines) + 1}: unreadable record (ValueError: {duplicate})")
        assert not (workdir / "report.json").exists()

    def test_missing_prediction_is_data_error(self, predicted_workdir, tmp_path, capsys):
        workdir = tmp_path / "out"
        workdir.mkdir()
        shutil.copy(predicted_workdir / "test_commits.jsonl", workdir)
        lines = (predicted_workdir / "predictions.jsonl").read_text().splitlines(keepends=True)
        (workdir / "predictions.jsonl").write_text("".join(lines[1:]))
        pred = json.loads(lines[0])
        assert main(["--config", str(write_config(tmp_path, workdir)), "evaluate"]) == EXIT_DATA
        one_line_error(capsys, f"error: no prediction for test commit {(pred['repo_id'], pred['commit_hash'])}")
        assert not (workdir / "report.json").exists()

    def test_repeated_test_commit_is_data_error(self, trained_workdir, tmp_path, capsys):
        _, trained = trained_workdir
        workdir = tmp_path / "out"
        workdir.mkdir()
        shutil.copy(trained / "checkpoint.bin", workdir)
        path = workdir / "test_commits.jsonl"
        lines = (trained / "test_commits.jsonl").read_text().splitlines(keepends=True)
        path.write_text("".join([*lines, lines[1]]))
        record = json.loads(lines[1])
        assert main(["--config", str(write_config(tmp_path, workdir)), "predict"]) == EXIT_DATA
        duplicate = f"commit {record['commit_hash']} of {record['repo_id']} appears twice"
        one_line_error(capsys, f"{path}:{len(lines) + 1}: unreadable record (ValueError: {duplicate})")
        assert not (workdir / "predictions.jsonl").exists()

    def test_line_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        path = workdir / "commits.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"path": "', b'"path": "\xff', 1)
        path.write_bytes(b"".join(lines))
        assert main(["--config", str(write_config(tmp_path, workdir)), "build"]) == EXIT_DATA
        one_line_error(capsys, f"{path}:3: unreadable record (UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("escape", [b"\\ud800", b"\\uDFFF"])
    def test_lone_surrogate_escape_is_data_error(self, tmp_path, capsys, escape):
        # valid JSON, but no UTF-8 artifact can hold the string; an escaped surrogate pair is one character
        workdir, _ = seeded_workdir(tmp_path)
        path = workdir / "commits.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"path": "', b'"path": "\\ud83d\\ude00', 1)
        lines[2] = lines[2].replace(b'"path": "', b'"path": "' + escape, 1)
        path.write_bytes(b"".join(lines))
        assert main(["--config", str(write_config(tmp_path, workdir)), "build"]) == EXIT_DATA
        one_line_error(capsys, f"{path}:3: unreadable record (UnicodeEncodeError: ", "surrogates not allowed")

    @pytest.mark.parametrize(
        "artifact, command",
        [("commits.jsonl", "build"), ("train.jsonl", "train"), ("predictions.jsonl", "evaluate")],
    )
    def test_truncated_jsonl_is_data_error(self, tmp_path, capsys, artifact, command):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        for stage in ("build", "train", "predict"):
            assert main(["--config", str(config), stage]) == EXIT_OK
        path = workdir / artifact
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])  # cut the last record in half
        lines = len(path.read_text().splitlines())
        capsys.readouterr()
        assert main(["--config", str(config), command]) == EXIT_DATA
        one_line_error(capsys, f"{path}:{lines}: unreadable record (JSONDecodeError")


class TestTrainingFailure:
    """A config that passes the load checks but cannot train ends `train` and
    `ablate` with exit 3 and one stderr line, also in a fresh process, where
    numpy's RuntimeWarnings would reach stderr."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            # the second step of the epoch sees the first step's overflow
            ({"train": {**FAST_CONFIG["train"], "learning_rate": 1e300, "batch_size": 8}}, "training failed: non-finite loss nan at step 1"),
            # one step an epoch: its loss is finite, the update overflows
            (
                {"train": {"learning_rate": 1e300, "epochs": 1, "batch_size": 512}},
                "training failed: epoch 0 ends with a non-finite parameter or validation loss (loss nan)",
            ),
        ],
        ids=["overflowing-learning-rate", "overflowing-last-step"],
    )
    def test_one_line_and_exit_3(self, tmp_path, command, extra, message):
        workdir, _ = seeded_workdir(tmp_path)
        assert main(["--config", str(write_config(tmp_path, workdir)), "build"]) == EXIT_OK
        config = write_config(tmp_path, workdir, **extra)
        src = Path(cb.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "fixhound.cli", "--config", str(config), command],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3 and proc.stderr.count("\n") == 1 and proc.stderr.startswith(message), proc.stderr
        assert not list(workdir.glob("checkpoint*.bin"))

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_of_memory_is_one_line_and_exit_3(self, tmp_path, capsys, monkeypatch, command):
        # The load checks bound the model's size the same on every machine, so a model may still not fit in this one's memory.
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.00 GiB for an array with shape (32768, 32768)")

        monkeypatch.setattr(tr, "train", no_memory)
        capsys.readouterr()
        assert main(["--config", str(config), command]) == 3
        assert capsys.readouterr().err == "training failed: out of memory: Unable to allocate 4.00 GiB for an array with shape (32768, 32768)\n"
        assert not list(workdir.glob("checkpoint*.bin"))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
# 2**63 is the smallest int outside int64.
_EXTREMES = st.sampled_from([0, -1, 0.0, -0.5, 1.0, math.nan, math.inf, -math.inf, 1e300, 2**63])
_HUGE = st.sampled_from([2**31 - 1, 2**31, 2**62])


def _ints(lo, hi):
    return st.one_of(*[st.integers(lo, hi)] * 3, _EXTREMES, _HUGE, _JUNK)


def _floats(lo, hi):
    return st.one_of(*[st.floats(lo, hi)] * 3, _EXTREMES, _JUNK)


# Each config field, by its path in the config object, and the values a
# hypothesis draw may give it: in range, at an edge, or of a wrong type.
# The in-range values keep one build + train small.
_FIELDS = {
    "k": _ints(-2, 12),
    "max_len": _ints(-1, 80),
    "vocab_size": _ints(250, 320),
    "seed": _ints(-3, 5),
    "downsample_ratio": _floats(-1, 50),
    "variant": st.one_of(st.sampled_from(tuple(VARIANTS)), _JUNK),
    "cost_effort_levels": st.one_of(st.lists(_floats(-10, 200), max_size=3), _JUNK),
    "encoder.dim": _ints(-1, 16),
    "encoder.layers": _ints(-1, 2),
    "encoder.heads": _ints(-1, 4),
    "encoder.ffn_mult": _ints(-1, 3),
    "train.learning_rate": _floats(0, 0.1),
    "train.epochs": _ints(-1, 2),
    "train.batch_size": _ints(-1, 40),
    "train.beta1": _floats(0, 1),
    "train.beta2": _floats(0, 1),
    "train.adam_eps": _floats(0, 1e-3),
    "train.weight_decay": _floats(0, 0.1),
}


def _run_quietly(*argv: str) -> tuple[int, str]:
    """main(argv) with stdout dropped; its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _assert_contract(code: int, err: str) -> None:
    """Exit 0 silently, or 1-3 with one stderr line and no traceback."""
    assert code in (0, 1, 2, 3), code
    assert err.count("\n") == (code != 0) and "Traceback" not in err, err


@pytest.fixture(scope="module")
def mined_commits(tmp_path_factory):
    workdir, _ = seeded_workdir(tmp_path_factory.mktemp("fuzz"))
    return workdir / "commits.jsonl"


class TestConfigFuzz:
    """Any config, with one or two fields changed: `build` then `train` exit
    0-3 with at most one line on stderr, and a config error exits 1 before the
    first command writes anything."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_build_and_train_keep_the_failure_contract(self, mined_commits, data):
        cfg = json.loads(json.dumps({**FAST_CONFIG, "train": {**FAST_CONFIG["train"], "epochs": 1}}))
        for path in data.draw(st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=2, unique=True)):
            section, _, key = path.rpartition(".")
            (cfg[section] if section else cfg)[key] = data.draw(_FIELDS[path], label=path)
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp) / "out"
            workdir.mkdir()
            shutil.copy(mined_commits, workdir)
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({**cfg, "workdir": str(workdir)}))
            for command in ("build", "train"):
                code, err = _run_quietly("--config", str(config), command)
                _assert_contract(code, err)
                if code == EXIT_USAGE:
                    assert command == "build", "a config error passed the build's load"
                    assert sorted(p.name for p in workdir.iterdir()) == ["commits.jsonl"]
                if code != EXIT_OK:
                    break


@pytest.fixture(scope="module")
def labelled_repo(tmp_path_factory):
    """A three-commit repository and its commit hashes."""
    repo = init_repo(tmp_path_factory.mktemp("labels") / "proj")
    hashes = [commit_files(repo, {"a.c": f"line {i}\n"}, f"c{i}", 1000 + i) for i in range(3)]
    return repo, hashes


_HEADER = "repo_id,commit_hash,vuln_id"


@st.composite
def _label_feeds(draw, hashes):
    """Label-feed bytes: arbitrary bytes, or a header and rows of cells that
    are often real (repo, commit) pairs, with CSV quoting, stray separators,
    odd line ends and non-UTF-8 bytes."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=120))
    cell = st.one_of(st.sampled_from(["proj", *hashes, "CVE-1", "", '"', ",", '"a,b"', '"x\ny"']), st.text(max_size=8))
    header = draw(st.one_of(st.just(_HEADER), st.sampled_from(["", "repo_id,commit_hash", f'"{_HEADER}"', _HEADER.upper(), f"{_HEADER},x"]), st.text(max_size=12)))
    rows = draw(st.lists(st.one_of(st.lists(cell, max_size=4).map(",".join), st.text(max_size=12)), max_size=5))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = eol.join([header, *rows]).encode("utf-8")
    if draw(st.booleans()):
        raw += eol.encode()
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    return raw


class TestLabelsFuzz:
    """Any labels file: `mine` exits 0 or 2 with at most one stderr line, and
    on success every mined commit is labelled VF or NVF."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mine_keeps_the_failure_contract(self, labelled_repo, data):
        repo, hashes = labelled_repo
        with tempfile.TemporaryDirectory() as tmp:
            labels = Path(tmp) / "labels.csv"
            labels.write_bytes(data.draw(_label_feeds(hashes), label="labels"))
            workdir = Path(tmp) / "out"
            config = write_config(Path(tmp), workdir, repos=[str(repo)], labels_file=str(labels))
            code, err = _run_quietly("--config", str(config), "mine")
            _assert_contract(code, err)
            assert code in (EXIT_OK, EXIT_DATA), err
            if code == EXIT_OK:
                summary = json.loads((workdir / "mine_summary.json").read_text())
                assert summary["commits"] == summary["VF"] + summary["NVF"] == len(hashes)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mutated(draw, value):
    """`value` with one node, found by a random walk from the root, replaced
    by a drawn JSON value or (in an object) deleted."""
    if isinstance(value, dict) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.integers(0, 5)) == 0:
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: _mutated(draw, value[key])}
    if isinstance(value, list) and value and draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(value) - 1))
        return [*value[:i], _mutated(draw, value[i]), *value[i + 1 :]]
    return draw(_JSON_VALUES)


@st.composite
def _damaged_line(draw, line: bytes) -> bytes:
    """One commits.jsonl line, damaged as JSON (a node replaced or deleted), as
    bytes, or with a surrogate escape (which hypothesis text never draws)
    after a quote, often inside a string."""
    kind = draw(st.sampled_from(["json", "json", "json", "cut", "insert", "surrogate"]))
    if kind == "json":
        return json.dumps(_mutated(draw, json.loads(line)), ensure_ascii=False).encode("utf-8") + b"\n"
    if kind == "surrogate":
        at = draw(st.sampled_from([i + 1 for i, c in enumerate(line) if c == ord('"')]))
        return line[:at] + draw(st.sampled_from([b"\\ud800", b"\\uDFFF", b"\\ud83d\\ude00"])) + line[at:]
    at = draw(st.integers(0, len(line)))
    if kind == "cut":
        return line[:at]
    return line[:at] + draw(st.binary(min_size=1, max_size=4)) + line[at:]


class TestCommitsFuzz:
    """One damaged `commits.jsonl` line: `build` exits 0 or 2 with at most
    one stderr line, and never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_build_keeps_the_failure_contract(self, mined_commits, data):
        lines = mined_commits.read_bytes().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = data.draw(_damaged_line(lines[i]), label="damaged")
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp) / "out"
            workdir.mkdir()
            (workdir / "commits.jsonl").write_bytes(b"".join(lines))
            code, err = _run_quietly("--config", str(write_config(Path(tmp), workdir)), "build")
            _assert_contract(code, err)
            assert code in (EXIT_OK, EXIT_DATA), err


# Values that a field of a built example or a prediction must never hold: a
# wrong type, or a number out of range. _MISSING deletes the field instead.
_MISSING = object()
_NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.integers(0, 3), max_size=2), st.just({}), st.just(_MISSING))
_NOT_COUNT = st.one_of(st.integers(max_value=-1), st.just(2**63), st.text(max_size=3), st.none(), st.booleans(), st.floats(), st.just([]), st.just(_MISSING))
_NOT_VERDICT = st.one_of(_NOT_STR, st.text(max_size=4).filter(lambda v: v not in ("VF", "NVF")))
_NOT_FINITE = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.none(), st.booleans(), st.text(max_size=3), st.just([0.5]))
_NOT_PROB = st.one_of(_NOT_FINITE, st.floats(allow_nan=False).filter(lambda p: not 0 <= p <= 1), st.integers().filter(lambda p: not 0 <= p <= 1))
_NOT_PAIRS = st.one_of(
    _NOT_STR.filter(lambda v: not isinstance(v, list)),
    st.builds(lambda path: [[path, 0.5]], _NOT_STR.filter(lambda v: v is not _MISSING)),
    st.builds(lambda prob: [["src/mod.c", prob]], _NOT_FINITE),
    st.sampled_from([[["src/mod.c"]], [["src/mod.c", 0.5, 0.5]], ["src/mod.c"], [("src/mod.c", 0.5), 7]]),
)
_EXAMPLE_FIELDS = {
    **{name: _NOT_STR for name in ("repo_id", "commit_hash", "path", "code_before", "code_after", "removed_code", "added_code", "raw_diff")},
    **{name: _NOT_COUNT for name in ("k", "removed_loc", "added_loc")},
    "label": _NOT_VERDICT,
}
_PREDICTION_FIELDS = {
    "repo_id": _NOT_STR,
    "commit_hash": _NOT_STR,
    "file_probs": _NOT_PAIRS,
    "commit_prob": _NOT_PROB,
    "predicted": _NOT_VERDICT,
    "commit_loc": _NOT_COUNT,
}


def _refuses_line(data, fields: dict, src: Path, dest: Path, command: str, config: Path) -> None:
    """One field of one line of `src`, written to `dest`, set to a value drawn
    from `fields`: `command` exits 2 with one `error:` line naming dest:line."""
    lines = src.read_text().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    name = data.draw(st.sampled_from(sorted(fields)), label="field")
    value = data.draw(fields[name], label="value")
    record = json.loads(lines[i])
    if value is _MISSING:
        del record[name]
    else:
        record[name] = value
    lines[i] = json.dumps(record) + "\n"
    dest.write_text("".join(lines))
    code, err = _run_quietly("--config", str(config), command)
    assert code == EXIT_DATA and err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(f"error: {dest}:{i + 1}: unreadable record ("), err


class TestExamplesFuzz:
    """One field of one `train.jsonl` or `val.jsonl` line with a wrong-typed or
    out-of-range value: `train` exits 2 with one line naming path:line."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_train_refuses_the_line(self, trained_workdir, data):
        _, trained = trained_workdir
        artifact = data.draw(st.sampled_from(["train.jsonl", "val.jsonl"]), label="artifact")
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp) / "out"
            workdir.mkdir()
            for name in ("train.jsonl", "val.jsonl"):
                shutil.copy(trained / name, workdir)
            config = write_config(Path(tmp), workdir)
            _refuses_line(data, _EXAMPLE_FIELDS, trained / artifact, workdir / artifact, "train", config)


class TestPredictionsFuzz:
    """One field of one `predictions.jsonl` line with a wrong-typed or
    out-of-range value: `evaluate` exits 2 with one line naming path:line."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_evaluate_refuses_the_line(self, predicted_workdir, data):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp) / "out"
            workdir.mkdir()
            shutil.copy(predicted_workdir / "test_commits.jsonl", workdir)
            config = write_config(Path(tmp), workdir)
            src = predicted_workdir / "predictions.jsonl"
            _refuses_line(data, _PREDICTION_FIELDS, src, workdir / "predictions.jsonl", "evaluate", config)
