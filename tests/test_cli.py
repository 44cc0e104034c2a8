import contextlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixhound.change_builder as cb
import fixhound.trainer as tr
from conftest import commit_files, init_repo, make_planted_commits, make_planted_repo
from fixhound.change_builder import VARIANTS, read_examples_jsonl
from fixhound.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _split_and_downsample, main
from fixhound.config import RunConfig, atomic_write, load_config, write_jsonl
from fixhound.evaluation import CommitPrediction, write_predictions_jsonl
from fixhound.repo_miner import NVF, read_commits_jsonl, write_commits_jsonl

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
        assert {ex.k for ex in read_examples_jsonl(workdir / "train.jsonl")} == {3}

    def test_build_at_k0(self, tmp_path):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "--k", "0", "build"]) == EXIT_OK
        assert {ex.k for ex in read_examples_jsonl(workdir / "train.jsonl")} == {0}

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

    def test_train_on_examples_built_at_another_k_is_data_error(self, tmp_path, capsys):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "--k", "0", "build"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--config", str(config), "train"]) == EXIT_DATA
        one_line_error(capsys, "train.jsonl holds examples built at k=0, but train is configured with k=3")
        assert not (workdir / "checkpoint.bin").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (_resaved_head(lambda head: head.pop("b2")), "missing tensor 'head.b2'"),
            (
                _resaved_head(lambda head: head.update(w1=np.zeros((2 * head["w1"].shape[0], head["w1"].shape[1]), np.float32))),
                "'head.w1' has shape",
            ),
            (_overwritten(16, b"x"), "unreadable config block"),  # the first byte of the JSON config
            (_overwritten(20, b"\xff{"), "unreadable config block"),
            (_overwritten(4, struct.pack("<I", 1)), "unsupported version 1"),  # a checkpoint without its merges
            (_first_dim(2**63), "truncated tensor"),
            (_rewritten_config(lambda c: c.update(extra=0)), "extra is 0, not an object"),
        ],
        ids=[
            "missing-head-b2", "wrong-shape-head-w1", "config-not-json", "config-not-utf8", "version-1", "dim-2^63",
            "extra-not-object",
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, damage, message):
        workdir, _ = seeded_workdir(tmp_path)
        config = write_config(tmp_path, workdir)
        assert main(["--config", str(config), "build"]) == EXIT_OK
        assert main(["--config", str(config), "train"]) == EXIT_OK
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

    def test_invalid_json_config_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert main(["--config", str(p), "build"]) == EXIT_USAGE
        one_line_error(capsys, "not valid JSON")

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("build", {"k": "3"}, "bad k config: expected an integer, got '3'"),
            ("build", {"k": True}, "bad k config"),
            ("train", {"max_len": 64.0}, "bad max_len config"),
            ("train", {"vocab_size": "300"}, "bad vocab_size config"),
            ("build", {"seed": None}, "bad seed config"),
            ("mine", {"since": "2020"}, "bad since config"),
            ("mine", {"until": [1]}, "bad until config"),
            ("evaluate", {"cost_effort_levels": 5}, "bad cost_effort_levels config: expected a list of numbers"),
            ("evaluate", {"cost_effort_levels": ["5"]}, "bad cost_effort_levels config"),
            ("build", {"downsample_ratio": "38"}, "bad downsample_ratio config: expected a number"),
            ("mine", {"repos": "proj"}, "bad repos config: expected a list of strings"),
            ("mine", {"repos": [1]}, "bad repos config"),
            ("train", {"encoder": 32}, "bad encoder config: expected an object"),
            ("train", {"train": "fast"}, "bad train config: expected an object"),
            ("build", {"split": None}, "bad split config: expected an object"),
        ],
        ids=[
            "k-str", "k-bool", "max_len-float", "vocab_size-str", "seed-null", "since-str", "until-list",
            "levels-int", "levels-str-item", "downsample-str", "repos-str", "repos-int-item",
            "encoder-int", "train-str", "split-null",
        ],
    )
    def test_bad_top_level_type_is_usage_error(self, tmp_path, capsys, command, extra, message):
        config = write_config(tmp_path, tmp_path / "out", **extra)
        assert main(["--config", str(config), command]) == EXIT_USAGE
        one_line_error(capsys, message)

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
            ({"train": [3e-3, 2]}, "bad train config"),
            ({"train": {"batch_size": 0}}, "batch_size"),
            ({"split": {"test_start": 5}}, "'strategy'"),
            ({"split": {"strategy": "Sideways"}}, "unknown split strategy 'Sideways'"),
            ({"split": {"strategy": "Temporal", "test_start": "soon"}}, "test_start must be an integer or null"),
            ({"split": {"strategy": "Temporal", "test_start": True}}, "test_start must be an integer or null"),
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
        write_predictions_jsonl(preds, workdir / "predictions.jsonl")
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
            (lambda rec: rec["files"][0].update(windows=[]), "hunks without a context window"),
            (  # one line late is already too late
                lambda rec: [w.update(old_lo=w["old_lo"] + 1) for w in rec["files"][0]["windows"]],
                "context windows do not cover the first hunk",
            ),
        ],
        ids=["no-files", "context-str", "old-start-str", "removed-loc-null", "no-windows", "windows-after-hunks"],
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
