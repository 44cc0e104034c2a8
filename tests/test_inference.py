import math

import numpy as np
import pytest

import bpe_oracle
import fixhound.delta_model as dm
import fixhound.inference as inf
from conftest import make_planted_commits, make_planted_file_change
from fixhound.change_builder import (
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    EMBED_SUBTRACT_DUO,
    RAW_GIT_DIFF,
    VARIANTS,
    build_example,
    build_examples,
)
from fixhound.delta_model import init_model, predict_batch
from fixhound.config import EncoderConfig, write_jsonl
from fixhound.evaluation import CommitPrediction, read_predictions_jsonl
from fixhound.inference import predict_corpus
from fixhound.records import NVF, VF, CommitRecord
from fixhound.tokenizer import train_vocab
from model_helpers import padded_batch, padded_encode, padded_encode_pair, padded_stack

VOCAB = train_vocab(["alpha beta gamma delta_ omega sigma kappa theta VULNCHECK"], 300)
CFG = EncoderConfig(vocab_size=VOCAB.size, dim=8, layers=1, heads=2, max_len=32, ffn_mult=2)
CHUNK = 4


def predict_one(commit, model):
    return predict_corpus(build_examples([commit], 3), model, VOCAB, CHUNK)[0]


def commit_with_files(n_files, repo="r", sha="a" * 40, ts=1):
    rng = np.random.default_rng(ts)
    files = tuple(make_planted_file_change(rng, vf=False, path=f"src/f{i}.c") for i in range(n_files))
    return CommitRecord(repo_id=repo, commit_hash=sha, timestamp=ts, label=NVF, files=files)


class _FakeModel:
    variant = RAW_GIT_DIFF
    config = CFG


def patch_probs(monkeypatch, probs):
    """Stub the scorer to give the files, in sorted-path order, the given probs."""

    def score(model, batch, chunk):
        assert batch.size == len(probs)
        return np.array(probs)

    monkeypatch.setattr(inf, "predict_in_chunks", score)


class TestAggregation:
    def test_mean_exactly_half_is_nvf(self, monkeypatch):
        # strict > 0.5: probs 0.2 and 0.8 average to exactly 0.5
        patch_probs(monkeypatch, [0.2, 0.8])
        pred = predict_one(commit_with_files(2), _FakeModel())
        assert pred.commit_prob == 0.5
        assert pred.predicted == NVF

    def test_single_confident_file_is_vf(self, monkeypatch):
        patch_probs(monkeypatch, [0.9])
        pred = predict_one(commit_with_files(1), _FakeModel())
        assert pred.commit_prob == 0.9
        assert pred.predicted == VF

    def test_three_file_mean(self, monkeypatch):
        patch_probs(monkeypatch, [0.6, 0.9, 0.3])
        pred = predict_one(commit_with_files(3), _FakeModel())
        assert abs(pred.commit_prob - 0.6) < 1e-15
        assert pred.predicted == VF

    def test_mean_identity_one_ulp(self, monkeypatch):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=7).tolist()
        patch_probs(monkeypatch, probs)
        pred = predict_one(commit_with_files(7), _FakeModel())
        expected = sum(probs) / len(probs)
        assert abs(pred.commit_prob - expected) <= np.spacing(expected)

    def test_zero_files_rejected(self):
        with pytest.raises(ValueError, match="no file changes"):
            CommitRecord(repo_id="r", commit_hash="a" * 40, timestamp=1, label=NVF, files=())

    def test_commit_loc_sums_all_files(self, monkeypatch):
        commit = commit_with_files(3)
        patch_probs(monkeypatch, [0.1, 0.2, 0.3])
        pred = predict_one(commit, _FakeModel())
        assert pred.commit_loc == sum(fc.removed_loc + fc.added_loc for fc in commit.files)


class TestFileOrderInvariance:
    def test_bitwise_invariant_under_permutation(self):
        model = init_model(RAW_GIT_DIFF, CFG, seed=0)
        commit = commit_with_files(5, ts=42)
        base = predict_one(commit, model)
        rng = np.random.default_rng(1)
        for _ in range(5):
            order = rng.permutation(len(commit.files))
            shuffled = CommitRecord(
                repo_id=commit.repo_id,
                commit_hash=commit.commit_hash,
                timestamp=commit.timestamp,
                label=commit.label,
                files=tuple(commit.files[i] for i in order),
            )
            out = predict_one(shuffled, model)
            assert out.commit_prob == base.commit_prob  # bitwise
            assert out.file_probs == base.file_probs  # sorted-path order


class TestCorpus:
    def test_empty(self):
        assert predict_corpus(build_examples([], 3), _FakeModel(), VOCAB, CHUNK) == []

    def test_one_prediction_per_commit_in_order(self):
        model = init_model(RAW_GIT_DIFF, CFG, seed=0)
        commits = make_planted_commits(6, seed=0)
        preds = predict_corpus(build_examples(commits, 3), model, VOCAB, CHUNK)
        assert [p.commit_hash for p in preds] == [c.commit_hash for c in commits]

    def test_corpus_order_permutes_with_input(self):
        model = init_model(RAW_GIT_DIFF, CFG, seed=0)
        commits = make_planted_commits(4, seed=1)
        fwd = predict_corpus(build_examples(commits, 3), model, VOCAB, CHUNK)
        rev = predict_corpus(build_examples(list(reversed(commits)), 3), model, VOCAB, CHUNK)
        assert rev == list(reversed(fwd))


def per_file_sequences(ex, variant, vocab, max_len):
    """One file's sequences, each segment tokenized on its own by the oracle."""
    tokens = [bpe_oracle.tokenize(t, vocab) for t in ex.variant_texts(variant)]
    if VARIANTS[variant].fusion != "Sequence":
        return tuple(padded_encode(t, max_len) for t in tokens)
    if len(VARIANTS[variant].fields) == 2:
        return (padded_encode_pair(*tokens, max_len),)
    return (padded_encode(tokens[0], max_len),)


def per_file_prediction(commit, model, vocab, k):
    """The replaced inference path: each file built, encoded and scored as a 1-row batch."""
    file_probs = []
    for fc in sorted(commit.files, key=lambda f: f.path):
        ex = build_example(fc, k, commit.label, commit.repo_id, commit.commit_hash)
        seqs = per_file_sequences(ex, model.variant, vocab, model.config.max_len)
        batch = padded_batch(*[arr for seq in seqs for arr in padded_stack([seq])])
        file_probs.append((fc.path, float(predict_batch(model, batch)[0])))
    total = 0.0
    for _, p in file_probs:
        total += p
    commit_prob = total / len(file_probs)
    return CommitPrediction(
        repo_id=commit.repo_id,
        commit_hash=commit.commit_hash,
        file_probs=tuple(file_probs),
        commit_prob=commit_prob,
        predicted=VF if commit_prob > 0.5 else NVF,
        commit_loc=sum(fc.removed_loc + fc.added_loc for fc in commit.files),
    )


def equivalence_corpus():
    return [
        commit_with_files(3, sha="a" * 40, ts=1),
        *make_planted_commits(3, seed=5),
        commit_with_files(2, sha="c" * 40, ts=7),
    ]


def equivalence_case(variant, max_len):
    """The corpus, a model, and the per-file path's predictions for it."""
    commits = equivalence_corpus()
    cfg = EncoderConfig(vocab_size=VOCAB.size, dim=8, layers=1, heads=2, max_len=max_len, ffn_mult=2)
    model = init_model(variant, cfg, seed=0)
    model.params["head.w2"] *= 50  # spread the probabilities away from 0.5
    truncated = {
        seq.truncated
        for c in commits
        for fc in c.files
        for seq in per_file_sequences(build_example(fc, 3, c.label, c.repo_id, c.commit_hash), variant, VOCAB, max_len)
    }
    assert truncated == {True, False}  # the fixture has truncated and whole views
    return commits, model, [per_file_prediction(c, model, VOCAB, 3) for c in commits]


class TestBatchedEquivalence:
    """One batched encode for the whole corpus scores like the per-file 1-row
    path: bit for bit at chunk 1, and within 1e-6 (f32) with identical
    verdicts in wider chunks.

    A row scored in a chunk wider than itself also sums its attention softmax
    over masked keys; those exact zeros can move the sum's rounding by one
    ulp, so wider chunks are not bit-identical to 1-row scoring in general.
    """

    TOL = 1e-6

    @pytest.mark.parametrize("variant,max_len", [(EMBED_SUBTRACT_DUO, 96), (CODE_CONCAT, 180)])
    def test_matches_per_file_path_bit_for_bit(self, variant, max_len):
        commits, model, expected = equivalence_case(variant, max_len)
        assert predict_corpus(build_examples(commits, 3), model, VOCAB, 1) == expected
        assert predict_corpus(build_examples(commits[::-1], 3), model, VOCAB, 1) == expected[::-1]

    @pytest.mark.parametrize("variant,max_len", [(EMBED_SUBTRACT_DUO, 96), (CODE_CONCAT, 180)])
    @pytest.mark.parametrize("chunk", [3, 64])
    def test_chunks_match_per_file_path_within_tolerance(self, variant, max_len, chunk):
        commits, model, expected = equivalence_case(variant, max_len)
        for order in (1, -1):
            got = predict_corpus(build_examples(commits[::order], 3), model, VOCAB, chunk)
            for g, e in zip(got, expected[::order], strict=True):
                assert (g.commit_hash, g.predicted, g.commit_loc) == (e.commit_hash, e.predicted, e.commit_loc)
                assert [path for path, _ in g.file_probs] == [path for path, _ in e.file_probs]
                assert np.allclose([pr for _, pr in g.file_probs], [pr for _, pr in e.file_probs], rtol=0, atol=self.TOL)
                assert abs(g.commit_prob - e.commit_prob) <= self.TOL


class TestScoringBudget:
    @pytest.mark.parametrize("chunk", [1, 3, 4, 64])
    def test_one_predict_batch_call_per_chunk(self, monkeypatch, chunk):
        commits = equivalence_corpus()
        n_files = sum(len(c.files) for c in commits)
        rows = []

        def counting(model, batch):
            rows.append(batch.size)
            return predict_batch(model, batch)

        monkeypatch.setattr(dm, "predict_batch", counting)
        predict_corpus(build_examples(commits, 3), init_model(CODE_CONCAT_NOCONTEXT, CFG, seed=0), VOCAB, chunk)
        assert len(rows) == math.ceil(n_files / chunk)
        assert max(rows) <= chunk
        assert sum(rows) == n_files


class TestSerialization:
    def test_round_trip(self, tmp_path):
        preds = [
            CommitPrediction(
                repo_id="r",
                commit_hash=f"{i:040x}",
                file_probs=(("a.c", 0.25 * i),),
                commit_prob=0.25 * i,
                predicted=VF if 0.25 * i > 0.5 else NVF,
                commit_loc=i + 1,
            )
            for i in range(4)
        ]
        path = tmp_path / "preds.jsonl"
        write_jsonl(preds, path)
        assert read_predictions_jsonl(path) == preds

    def test_empty_file(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        write_jsonl([], path)
        assert read_predictions_jsonl(path) == []
