from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_planted_commits
import fixhound.delta_model as dm
from fixhound.change_builder import EMBED_SUBTRACT_DUO, RAW_GIT_DIFF
from fixhound.delta_model import init_model, predict_batch, predict_in_chunks
from fixhound.config import EncoderConfig, TrainConfig
from fixhound.records import CROSS_PROJECT, NVF, TEMPORAL, VF, CommitRecord, SplitError, SplitSpec, split_dataset
from fixhound.tokenizer import BYTE_BASE, MIN_VOCAB, Vocabulary
from fixhound.trainer import AdamW, CheckpointError, f1_at_half, load_checkpoint, save_checkpoint, train, write_loss_log
from model_helpers import cast_model, padded_batch
from test_cli import _rewritten_config

CFG = EncoderConfig(vocab_size=64, dim=8, layers=1, heads=2, max_len=12, ffn_mult=2)


def _commit(repo, sha, ts, label):
    base = make_planted_commits(1, seed=ts)[0]
    return CommitRecord(repo_id=repo, commit_hash=sha, timestamp=ts, label=label, files=base.files)


class TestCrossProjectSplit:
    def test_partitions_by_repo(self):
        recs = [_commit(r, f"{i:040x}", i, NVF) for i, r in enumerate(["a", "a", "b", "c"])]
        spec = SplitSpec(strategy=CROSS_PROJECT, train_repos=("a",), val_repos=("b",), test_repos=("c",))
        parts = split_dataset(recs, spec)
        assert [r.repo_id for r in parts["train"]] == ["a", "a"]
        assert [r.repo_id for r in parts["val"]] == ["b"]
        assert [r.repo_id for r in parts["test"]] == ["c"]

    def test_unlisted_repo_with_commits_is_fatal(self):
        recs = [_commit("mystery", "a" * 40, 1, NVF)]
        spec = SplitSpec(strategy=CROSS_PROJECT, train_repos=("a",))
        with pytest.raises(SplitError, match="mystery"):
            split_dataset(recs, spec)

    def test_repo_in_two_partitions_is_fatal(self):
        spec = SplitSpec(strategy=CROSS_PROJECT, train_repos=("a",), test_repos=("a",))
        with pytest.raises(SplitError):
            split_dataset([], spec)


class TestTemporalSplit:
    def _vf_stream(self, stamps, label=VF, repo="r"):
        return [_commit(repo, f"{i:040x}", ts, label) for i, ts in enumerate(stamps)]

    def test_ninety_percent_boundary(self):
        # 10 VF at ts 1..10, test_start far away: train gets ts 1..9, val ts 10
        recs = self._vf_stream(range(1, 11))
        parts = split_dataset(recs, SplitSpec(strategy=TEMPORAL, test_start=100))
        assert [r.timestamp for r in parts["train"]] == list(range(1, 10))
        assert [r.timestamp for r in parts["val"]] == [10]
        assert parts["test"] == []

    def test_timestamp_ties_extend_train(self):
        # boundary falls inside a tie: the whole tied group goes to train
        recs = self._vf_stream([1, 2, 3, 4, 5, 6, 7, 8, 9, 9])
        parts = split_dataset(recs, SplitSpec(strategy=TEMPORAL, test_start=100))
        assert all(r.timestamp <= 9 for r in parts["train"])
        assert len(parts["train"]) == 10 and parts["val"] == []

    def test_nvf_follow_the_boundary(self):
        recs = self._vf_stream(range(1, 11)) + [
            _commit("r", "e" * 40, 5, NVF),
            _commit("r", "f" * 40, 10, NVF),
        ]
        parts = split_dataset(recs, SplitSpec(strategy=TEMPORAL, test_start=100))
        nvf_train = [r for r in parts["train"] if r.label == NVF]
        nvf_val = [r for r in parts["val"] if r.label == NVF]
        assert [r.timestamp for r in nvf_train] == [5]
        assert [r.timestamp for r in nvf_val] == [10]

    def test_test_range(self):
        recs = self._vf_stream(range(1, 11))
        parts = split_dataset(recs, SplitSpec(strategy=TEMPORAL, test_start=8))
        assert all(r.timestamp >= 8 for r in parts["test"])
        assert all(r.timestamp < 8 for r in parts["train"] + parts["val"])

    def test_requires_test_start(self):
        with pytest.raises(SplitError):
            split_dataset([], SplitSpec(strategy=TEMPORAL))

    @given(
        stamps=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
        labels=st.lists(st.booleans(), min_size=40, max_size=40),
        test_start=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=100)
    def test_partition_properties(self, stamps, labels, test_start):
        recs = [
            _commit("r", f"{i:040x}", ts, VF if labels[i] else NVF)
            for i, ts in enumerate(stamps)
        ]
        parts = split_dataset(recs, SplitSpec(strategy=TEMPORAL, test_start=test_start))
        # exhaustive and disjoint
        all_out = parts["train"] + parts["val"] + parts["test"]
        assert sorted(r.commit_hash for r in all_out) == sorted(r.commit_hash for r in recs)
        # strict temporal ordering between partitions
        if parts["train"] and parts["val"]:
            assert max(r.timestamp for r in parts["train"]) < min(r.timestamp for r in parts["val"])
        for part in ("train", "val"):
            for r in parts[part]:
                assert r.timestamp < test_start
        for r in parts["test"]:
            assert r.timestamp >= test_start


class TestAdamW:
    def test_zero_lr_leaves_params_unchanged(self):
        params = {"w": np.ones((3, 3), dtype=np.float32)}
        before = params["w"].copy()
        opt = AdamW(params, TrainConfig(learning_rate=0.0))
        opt.step({"w": np.full((3, 3), 5.0)})
        assert np.array_equal(params["w"], before)

    def test_single_step_closed_form_without_decay(self):
        # with bias correction, the first step moves by lr * g / (|g| + eps)
        lr = 0.1
        params = {"w": np.zeros(2, dtype=np.float64)}
        opt = AdamW(params, TrainConfig(learning_rate=lr, weight_decay=0.0))
        g = np.array([3.0, -0.5])
        opt.step({"w": g})
        expected = -lr * g / (np.abs(g) + 1e-8)
        assert np.abs(params["w"] - expected).max() < 1e-9

    def test_decoupled_decay_shrinks_params_with_zero_grad(self):
        params = {"w": np.full(4, 10.0)}
        opt = AdamW(params, TrainConfig(learning_rate=0.1, weight_decay=0.5))
        opt.step({"w": np.zeros(4)})
        assert np.allclose(params["w"], 10.0 - 0.1 * 0.5 * 10.0)


class TestF1:
    def test_perfect(self):
        assert f1_at_half(np.array([0.9, 0.1]), np.array([1.0, 0.0])) == 1.0

    def test_no_predictions(self):
        assert f1_at_half(np.array([0.1, 0.2]), np.array([1.0, 0.0])) == 0.0

    def test_half_is_not_positive(self):
        assert f1_at_half(np.array([0.5]), np.array([1.0])) == 0.0

    def test_mixed(self):
        # tp=1 fp=1 fn=1 -> precision=recall=0.5 -> F1 0.5
        probs = np.array([0.9, 0.9, 0.1])
        labels = np.array([1.0, 0.0, 1.0])
        assert f1_at_half(probs, labels) == 0.5


def _toy_batches(n=16, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, CFG.vocab_size, size=(n, CFG.max_len))
    lens = np.full(n, CFG.max_len)
    labels = (np.arange(n) % 2).astype(np.float64)
    # plant a separable signal: positive examples start with token 5
    ids[labels > 0.5, 1] = 5
    ids[labels <= 0.5, 1] = 6
    batch = padded_batch(ids_a=ids, lens_a=lens, labels=labels)
    return batch, batch


class TestTrainLoop:
    def test_one_step_updates_every_parameter_group(self):
        # joint training: a single step must move the before-encoder, the
        # after-encoder, and the head all at once
        train_b, val_b = _toy_batches()
        (stream,) = train_b.streams
        ids = stream.ids.reshape(train_b.size, CFG.max_len)  # every toy row is max_len long
        dual = padded_batch(
            ids_a=ids,
            lens_a=stream.lens,
            ids_b=np.flip(ids, axis=1).copy(),
            lens_b=stream.lens.copy(),
            labels=train_b.labels,
        )
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=16, seed=0)
        init = init_model(EMBED_SUBTRACT_DUO, CFG, seed=cfg.seed)
        result = train(EMBED_SUBTRACT_DUO, CFG, dual, dual, cfg)  # 16 rows, batch_size 16, 1 epoch: one step
        trained = result.model.params
        reference = init.params
        for group in ("enc_before.", "enc_after.", "head."):
            moved = any(
                not np.array_equal(trained[name], reference[name])
                for name in trained
                if name.startswith(group)
            )
            assert moved, f"no parameter in {group} changed"

    def test_loss_log_shape_and_determinism(self):
        train_b, val_b = _toy_batches()
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=8, seed=1)
        r1 = train(RAW_GIT_DIFF, CFG, train_b, val_b, cfg)
        r2 = train(RAW_GIT_DIFF, CFG, train_b, val_b, cfg)
        assert r1.loss_log == r2.loss_log
        # 2 train steps per epoch plus one val row per epoch
        assert len(r1.loss_log) == 3 * (2 + 1)
        assert [row[3] for row in r1.loss_log].count("val") == 3

    def test_best_epoch_model_is_returned(self):
        train_b, val_b = _toy_batches()
        cfg = TrainConfig(learning_rate=2e-3, epochs=5, batch_size=8, seed=0)
        result = train(RAW_GIT_DIFF, CFG, train_b, val_b, cfg)
        val_loss = {epoch: loss for _, epoch, loss, split in result.loss_log if split == "val"}
        best_epochs = [e for e, f1 in result.val_history if f1 == result.best_val_f1]
        # among the epochs tied on F1, the lowest val loss (the earliest of equal losses)
        assert result.best_epoch == min(best_epochs, key=lambda e: (val_loss[e], e))
        # returned model reproduces the recorded best F1 on the val set
        probs = predict_batch(result.model, val_b)
        assert f1_at_half(probs, val_b.labels) == result.best_val_f1

    def test_zero_f1_everywhere_returns_the_lowest_val_loss(self):
        # a validation set without VF scores F1 0 in every epoch; training still
        # lowers its loss, and the epoch that reached the lowest one is kept
        train_b, _ = _toy_batches()
        val_b = train_b.take(np.flatnonzero(train_b.labels < 0.5))
        cfg = TrainConfig(learning_rate=2e-3, epochs=5, batch_size=8, seed=0)
        result = train(RAW_GIT_DIFF, CFG, train_b, val_b, cfg)
        assert [f1 for _, f1 in result.val_history] == [0.0] * 5
        val_loss = {epoch: loss for _, epoch, loss, split in result.loss_log if split == "val"}
        lowest = min(val_loss, key=lambda e: (val_loss[e], e))
        assert lowest > 0
        assert result.best_epoch == lowest
        assert dm.batch_loss(predict_batch(result.model, val_b), val_b.labels) == val_loss[lowest]

    def test_validation_scored_in_batch_size_chunks(self, monkeypatch):
        train_b, _ = _toy_batches()
        val_b, _ = _toy_batches(n=9, seed=1)
        rows = []

        def counting(model, batch):
            rows.append(batch.size)
            return predict_batch(model, batch)

        monkeypatch.setattr(dm, "predict_batch", counting)
        train(RAW_GIT_DIFF, CFG, train_b, val_b, TrainConfig(epochs=2, batch_size=4, seed=0))
        assert rows == [4, 4, 1] * 2

    def test_write_loss_log(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_log([(1, 0, 0.5, "train"), (1, 0, 0.6, "val")], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,epoch,loss,split"
        assert lines[1] == "1,0,0.5,train"


class TestPredictInChunks:
    @pytest.mark.parametrize("variant", [EMBED_SUBTRACT_DUO, RAW_GIT_DIFF])
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_chunks_match_one_batch_in_input_order(self, variant, dtype, tol):
        # shuffled lengths give each chunk its own trimmed width
        rng = np.random.default_rng(4)
        n = 9
        lens_a = rng.permutation(np.linspace(2, CFG.max_len, n).astype(np.int64))
        kw = {}
        if variant == EMBED_SUBTRACT_DUO:
            kw = {"ids_b": rng.integers(0, CFG.vocab_size, size=(n, CFG.max_len)), "lens_b": rng.permutation(lens_a)}
        batch = padded_batch(ids_a=rng.integers(0, CFG.vocab_size, size=(n, CFG.max_len)), lens_a=lens_a, **kw)
        model = cast_model(init_model(variant, CFG, seed=2), dtype)
        model.params["head.w2"] *= 50  # spread the probabilities away from 0.5

        expected = predict_batch(model, batch)
        # rows are told apart far beyond the tolerance, so a permutation shows
        assert np.diff(np.sort(expected)).min() > 10 * tol
        chunked = predict_in_chunks(model, batch, chunk=2)
        assert chunked.dtype == expected.dtype
        assert np.abs(chunked - expected).max() <= tol * np.abs(expected).max()

    def test_empty_batch(self):
        batch = padded_batch(ids_a=np.zeros((0, CFG.max_len), dtype=np.int64), lens_a=np.zeros(0, dtype=np.int64))
        assert predict_in_chunks(init_model(RAW_GIT_DIFF, CFG, seed=0), batch, chunk=4).shape == (0,)


# A checkpoint holds its vocabulary, so its encoder embeds exactly MIN_VOCAB + len(merges) tokens.
VOCAB = Vocabulary(merges=[(BYTE_BASE, BYTE_BASE + 1), (MIN_VOCAB, BYTE_BASE + 2)])
CKPT_CFG = replace(CFG, vocab_size=VOCAB.size)


class TestCheckpoints:
    def _trained(self, variant=EMBED_SUBTRACT_DUO, seed=0):
        return init_model(variant, CKPT_CFG, seed=seed)

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._trained()
        path = tmp_path / "m.bin"
        save_checkpoint(model, VOCAB, path, {"k": 3})
        loaded, vocab, extra = load_checkpoint(path)
        assert extra == {"k": 3}
        assert vocab.merges == VOCAB.merges
        assert loaded.variant == model.variant
        assert loaded.config == model.config
        assert loaded.params.keys() == model.params.keys()
        for name, arr in model.params.items():
            assert np.array_equal(loaded.params[name], arr), name

    def test_shared_encoder_round_trip_stays_shared(self, tmp_path):
        model = self._trained(RAW_GIT_DIFF)
        path = tmp_path / "m.bin"
        save_checkpoint(model, VOCAB, path)
        loaded, _, _ = load_checkpoint(path)
        assert {name.split(".")[0] for name in loaded.params} == {"enc_before", "head"}

    def test_same_seed_byte_identical_files(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(self._trained(seed=4), VOCAB, p1, {"k": 3})
        save_checkpoint(self._trained(seed=4), VOCAB, p2, {"k": 3})
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(self._trained(seed=4), VOCAB, p1)
        save_checkpoint(self._trained(seed=5), VOCAB, p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(self._trained(), VOCAB, path)
        data = bytearray(path.read_bytes())
        data[0] = 0x58
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(self._trained(), VOCAB, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda m: m.params.pop("enc_after.layer0.ffn.w1"), "missing tensor 'enc_after.layer0.ffn.w1'"),
            (lambda m: m.params.update({"head.extra": np.zeros(1, np.float32)}), "unexpected tensor 'head.extra'"),
            (lambda m: m.params.update({"enc_before.pos_emb": np.zeros((CKPT_CFG.max_len + 1, CKPT_CFG.dim), np.float32)}), "'enc_before.pos_emb' has shape"),
            (lambda m: setattr(m, "config", replace(m.config, vocab_size=VOCAB.size + 1)), "vocabulary has 263 tokens but the encoder embeds 264"),
            (lambda m: m.params["head.b2"].fill(np.nan), "tensor 'head.b2' holds non-finite values"),
        ],
        ids=["missing", "unexpected", "wrong-shape", "vocab-size", "non-finite"],
    )
    def test_names_and_shapes_checked(self, tmp_path, damage, match):
        model = self._trained()
        damage(model)
        path = tmp_path / "m.bin"
        save_checkpoint(model, VOCAB, path)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_unknown_variant_checked(self, tmp_path):
        # a name outside the variant table gives load_checkpoint no tensor names to expect
        path = tmp_path / "m.bin"
        save_checkpoint(self._trained(), VOCAB, path)
        _rewritten_config(lambda c: c.update(variant="Nope"))(path)
        with pytest.raises(CheckpointError, match="bad model config"):
            load_checkpoint(path)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = self._trained(RAW_GIT_DIFF, seed=2)
        path = tmp_path / "m.bin"
        save_checkpoint(model, VOCAB, path)
        loaded, _, _ = load_checkpoint(path)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, CKPT_CFG.vocab_size, size=(4, CKPT_CFG.max_len))
        batch = padded_batch(ids_a=ids, lens_a=np.full(4, CKPT_CFG.max_len))
        assert np.array_equal(predict_batch(model, batch), predict_batch(loaded, batch))
