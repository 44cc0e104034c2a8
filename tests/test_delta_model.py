import math
import threading
import zlib

import numpy as np
import pytest

from fixhound.change_builder import (
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    EMBED_CONCAT_DUO,
    EMBED_SUBTRACT_DUO,
    EMBED_SUBTRACT_SINGLE,
    RAW_GIT_DIFF,
    VARIANTS,
    build_example,
)
import fixhound.delta_model as dm
from fixhound.delta_model import (
    batch_loss,
    encode_examples,
    forward_model,
    fuse,
    fusion_width,
    init_model,
    loss_and_grads,
    predict_batch,
    predict_in_chunks,
)
from fixhound.config import EncoderConfig
from fixhound.records import NVF, VF
from fixhound.tokenizer import PAD, SEP, tokenize_batch, train_vocab
from gradcheck import fd_mismatches
from model_helpers import (
    SEP_MARKER,
    cast_model,
    cut,
    equivalent_concat_model,
    force_concurrent_streams,
    padded_batch,
    padded_encode,
    padded_encode_pair,
    padded_stack,
    tokenize,
)
from test_change_builder import make_fc

CFG = EncoderConfig(vocab_size=280, dim=8, layers=1, heads=2, max_len=16, ffn_mult=2)

VOCAB = train_vocab(["int main() { return 0; }", "if (x < 0) return -1;"], 280)


def random_batch(variant, rng, n=3, with_labels=False):
    dual = VARIANTS[variant].fusion != "Sequence"
    ids_a = rng.integers(0, CFG.vocab_size, size=(n, CFG.max_len))
    lens_a = rng.integers(2, CFG.max_len + 1, size=n)
    kw = {}
    if dual:
        kw["ids_b"] = rng.integers(0, CFG.vocab_size, size=(n, CFG.max_len))
        kw["lens_b"] = rng.integers(2, CFG.max_len + 1, size=n)
    labels = rng.integers(0, 2, size=n).astype(np.float64) if with_labels else None
    return padded_batch(ids_a=ids_a, lens_a=lens_a, labels=labels, **kw)


class TestFuse:
    def test_subtract_example(self):
        a = np.array([[3.0, 1.0]])
        b = np.array([[1.0, 4.0]])
        assert np.array_equal(fuse(a, b, "Subtract"), np.array([[2.0, -3.0]]))

    def test_subtract_antisymmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 4, 8))
        assert np.array_equal(fuse(a, b, "Subtract"), -fuse(b, a, "Subtract"))

    def test_concat_example(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert np.array_equal(fuse(a, b, "Concat"), np.array([[1.0, 2.0, 3.0, 4.0]]))

    def test_widths(self):
        assert fusion_width(EMBED_SUBTRACT_DUO, 8) == 8
        assert fusion_width(EMBED_CONCAT_DUO, 8) == 16
        assert fusion_width(CODE_CONCAT, 8) == 8


class TestStructure:
    def test_dual_variants_have_independent_encoders(self):
        for variant in [v for v, spec in VARIANTS.items() if spec.own_encoders]:
            m = init_model(variant, CFG, seed=0)
            assert not m.shared_encoders
            assert any(not np.array_equal(m.encoder_before[n], m.encoder_after[n]) for n in m.encoder_before)
            assert any(name.startswith("enc_after.") for name in m.all_params())

    def test_single_encoder_variants_alias(self):
        for variant in (EMBED_SUBTRACT_SINGLE, CODE_CONCAT, CODE_CONCAT_NOCONTEXT, RAW_GIT_DIFF):
            m = init_model(variant, CFG, seed=0)
            assert m.shared_encoders
            # writes through one handle are visible through the other
            m.encoder_before["tok_emb"][0, 0] = 123.0
            assert m.encoder_after["tok_emb"][0, 0] == 123.0
            assert not any(name.startswith("enc_after.") for name in m.all_params())

    def test_init_deterministic(self):
        a = init_model(EMBED_SUBTRACT_DUO, CFG, seed=5)
        b = init_model(EMBED_SUBTRACT_DUO, CFG, seed=5)
        for name in a.all_params():
            assert np.array_equal(a.all_params()[name], b.all_params()[name])


class TestForward:
    def test_zero_output_head_gives_half(self):
        rng = np.random.default_rng(1)
        for variant in VARIANTS:
            m = init_model(variant, CFG, seed=0)
            m.head["w2"][:] = 0.0
            probs = predict_batch(m, random_batch(variant, rng))
            assert np.all(probs == 0.5), variant

    def test_subtract_identical_streams_gives_half(self):
        # one shared encoder, identical inputs: delta is exactly zero and
        # the zero-initialized head biases leave the logit at zero
        m = init_model(EMBED_SUBTRACT_SINGLE, CFG, seed=3)
        rng = np.random.default_rng(2)
        ids = rng.integers(0, CFG.vocab_size, size=(2, CFG.max_len))
        lens = np.array([9, 16])
        batch = padded_batch(ids_a=ids, lens_a=lens, ids_b=ids.copy(), lens_b=lens.copy())
        # the single-stream variant normally gets one stream; drive fusion directly
        m_dual = init_model(EMBED_SUBTRACT_DUO, CFG, seed=3)
        m_dual.encoder_after = m_dual.encoder_before
        m_dual.head = m.head
        probs = predict_batch(m_dual, batch)
        assert np.all(probs == 0.5)

    def test_stream_arity_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        m = init_model(CODE_CONCAT, CFG, seed=0)
        with pytest.raises(ValueError):
            forward_model(m, random_batch(EMBED_SUBTRACT_DUO, rng))
        m2 = init_model(EMBED_SUBTRACT_DUO, CFG, seed=0)
        with pytest.raises(ValueError):
            forward_model(m2, random_batch(CODE_CONCAT, rng))

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for variant in VARIANTS:
            m = init_model(variant, CFG, seed=1)
            probs = predict_batch(m, random_batch(variant, rng, n=5))
            assert np.all((probs > 0) & (probs < 1))


class TestLoss:
    def test_half_probs_give_ln2(self):
        probs = np.array([0.5, 0.5])
        labels = np.array([0.0, 1.0])
        assert math.isclose(batch_loss(probs, labels), math.log(2), rel_tol=1e-12)

    def test_confident_correct(self):
        assert math.isclose(batch_loss(np.array([0.8]), np.array([1.0])), -math.log(0.8), rel_tol=1e-12)

    def test_clamp_floor(self):
        # a perfect prediction is clamped, not a log(0) blow-up
        val = batch_loss(np.array([1.0]), np.array([1.0]))
        assert 0.0 < val <= 1.7e-7

    def test_loss_and_grads_reports_batch_loss(self):
        rng = np.random.default_rng(5)
        m = init_model(RAW_GIT_DIFF, CFG, seed=2)
        batch = random_batch(RAW_GIT_DIFF, rng, with_labels=True)
        loss, _, probs = loss_and_grads(m, batch)
        assert math.isclose(loss, batch_loss(probs, batch.labels), rel_tol=1e-12)


def check_variant_gradients(variant: str, seed: int) -> list:
    """Finite-difference mismatches of every model gradient on one random batch."""
    rng = np.random.default_rng(seed)
    m = cast_model(init_model(variant, CFG, seed=0), np.float64)
    batch = random_batch(variant, rng, n=2, with_labels=True)
    _, grads, _ = loss_and_grads(m, batch)
    params = m.all_params()
    assert grads.keys() == params.keys()
    return fd_mismatches(lambda: loss_and_grads(m, batch)[0], params, grads, rng, per_tensor=4)


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        # str hash() is salted per process; crc32 gives each variant a fixed seed
        assert check_variant_gradients(variant, zlib.crc32(variant.encode())) == []

    def test_shared_encoder_grads_sum_both_streams(self):
        # drive the subtract fusion with two different streams through one
        # shared encoder; the enc_before grad must cover both paths
        m = cast_model(init_model(EMBED_SUBTRACT_DUO, CFG, seed=1), np.float64)
        m.encoder_after = m.encoder_before
        rng = np.random.default_rng(9)
        batch = random_batch(EMBED_SUBTRACT_DUO, rng, n=2, with_labels=True)
        _, grads, _ = loss_and_grads(m, batch)
        assert not any(n.startswith("enc_after.") for n in grads)
        tok_emb = {"enc_before.tok_emb": m.encoder_before["tok_emb"]}
        assert fd_mismatches(lambda: loss_and_grads(m, batch)[0], tok_emb, grads, rng, per_tensor=6) == []


class TestEquivalence:
    def test_logits_identical_over_random_inputs(self):
        rng = np.random.default_rng(11)
        for seed in range(3):
            sub = cast_model(init_model(EMBED_SUBTRACT_DUO, CFG, seed=seed), np.float64)
            cat = equivalent_concat_model(sub)
            assert cat.variant == EMBED_CONCAT_DUO
            batch = random_batch(EMBED_SUBTRACT_DUO, rng, n=100)
            _, cache_s = forward_model(sub, batch)
            _, cache_c = forward_model(cat, batch)
            diff = np.abs(cache_s["logit"] - cache_c["logit"]).max()
            assert diff <= 1e-6

    def test_requires_subtract_duo(self):
        with pytest.raises(ValueError):
            equivalent_concat_model(init_model(CODE_CONCAT, CFG, seed=0))

    def test_head_shape_doubles(self):
        sub = init_model(EMBED_SUBTRACT_DUO, CFG, seed=0)
        cat = equivalent_concat_model(sub)
        assert cat.head["w1"].shape == (2 * CFG.dim, CFG.dim)
        assert np.array_equal(cat.head["w1"][: CFG.dim], sub.head["w1"])
        assert np.array_equal(cat.head["w1"][CFG.dim :], -sub.head["w1"])


class TestEncodeInput:
    """`encode_examples`: one batch per variant, the encoding picked by the variant alone."""

    def test_dual_stream_yields_two_sequences(self):
        ex = build_example(make_fc(["int a;"], ["int b;"]), 3, VF)
        batch = encode_examples([ex, ex], EMBED_SUBTRACT_DUO, VOCAB, 16)
        assert len(batch.streams) == 2
        for stream in batch.streams:
            assert stream.lens.shape == (2,) and stream.ids.shape == (stream.lens.sum(),)
        assert batch.labels.tolist() == [1.0, 1.0]

    def test_sep_token_only_at_segment_boundary(self):
        # the file's own text holds the marker that `decode` renders SEP as,
        # on a context line and on the changed line
        old = ["int a;", "// x ⟨SEP⟩ y", "f(x ⟨SEP⟩ y);", "int b;"]
        new = ["int a;", "// x ⟨SEP⟩ y", "f(x ⟨SEP⟩ z);", "int b;"]
        ex = build_example(make_fc(old, new), 3, NVF)
        assert SEP_MARKER in ex.raw_diff and SEP_MARKER in ex.removed_code
        for variant in VARIANTS:
            batch = encode_examples([ex], variant, VOCAB, 256)
            assert len(batch.streams) == (1 if VARIANTS[variant].fusion == "Sequence" else 2), variant
            rows = [stream.ids[: stream.lens[0]] for stream in batch.streams]
            assert all(len(row) < 256 for row in rows), variant  # nothing truncated
            seps = [np.flatnonzero(row == SEP).tolist() for row in rows]
            if VARIANTS[variant].fusion == "Sequence" and len(VARIANTS[variant].fields) == 2:
                first = ex.variant_texts(variant)[0]
                assert seps == [[1 + len(tokenize(first, VOCAB))]], variant
            else:
                assert seps == [[]] * len(rows), variant

    def test_plain_single_stream_has_no_sep(self):
        ex = build_example(make_fc(["just a"], ["diff body"]), 3, NVF)
        batch = encode_examples([ex], RAW_GIT_DIFF, VOCAB, 32)
        (stream,) = batch.streams
        assert SEP not in stream.ids

    def test_empty_example_list(self):
        batch = encode_examples([], CODE_CONCAT, VOCAB, 16)
        assert batch.size == 0
        assert predict_in_chunks(init_model(CODE_CONCAT, CFG, seed=0), batch, 4).shape == (0,)

    def test_predict_in_chunks_variant_mismatch(self):
        m = init_model(CODE_CONCAT, EncoderConfig(vocab_size=VOCAB.size, dim=8, layers=0, heads=1, max_len=16), seed=0)
        ex = build_example(make_fc(["x"], ["y"]), 3, NVF)
        with pytest.raises(ValueError):
            predict_in_chunks(m, encode_examples([ex], EMBED_SUBTRACT_DUO, VOCAB, 16), 4)

    def test_predict_in_chunks_returns_probabilities(self):
        m = init_model(RAW_GIT_DIFF, EncoderConfig(vocab_size=VOCAB.size, dim=8, layers=1, heads=2, max_len=16, ffn_mult=2), seed=0)
        old, new = ["if (x < 0)", "return -{};"], ["if (x < 0)", "return 0;"]
        examples = [build_example(make_fc([old[0], old[1].format(i)], new), 3, NVF) for i in range(5)]
        p = predict_in_chunks(m, encode_examples(examples, RAW_GIT_DIFF, VOCAB, 16), 2)
        assert p.shape == (5,)
        assert np.all((0.0 < p) & (p < 1.0))



def padded_encode_examples(examples, variant, max_len):
    """The replaced `encode_examples`: every view PAD-filled to max_len, each
    stream stacked into one (N, max_len) id array with its row lengths."""
    segments = [ex.variant_texts(variant) for ex in examples]
    tokens = iter(tokenize_batch([t for seg in segments for t in seg], VOCAB))
    if VARIANTS[variant].fusion != "Sequence":
        seqs = [(padded_encode(next(tokens), max_len), padded_encode(next(tokens), max_len)) for _ in segments]
    elif len(VARIANTS[variant].fields) == 2:
        seqs = [(padded_encode_pair(next(tokens), next(tokens), max_len),) for _ in segments]
    else:
        seqs = [(padded_encode(next(tokens), max_len),) for _ in segments]
    return [padded_stack([row[i] for row in seqs]) for i in range(len(seqs[0]))], seqs


class TestPaddedPathEquivalence:
    """`encode_examples` and `EncodedBatch.take` against the padded path they
    replaced (tests/model_helpers.py): each view PAD-filled to max_len, the
    views stacked into an (N, max_len) array, and a batch cut to its longest
    row before the encoder. Every take must give the encoder the oracle's ids
    and lengths, while a stream stores only its real tokens."""

    MAX_LEN = 32
    TAKES = [
        np.array([9, 0, 5, 2]),  # a training batch of a permutation
        np.array([3, 3, 0]),  # a row taken twice
        np.arange(10)[::-1],
        np.array([7]),
        np.zeros(0, dtype=np.int64),
        slice(0, 4),
        slice(4, 8),
        slice(8, 12),  # runs past the last row
        slice(3, 3),  # empty
        slice(None),
    ]

    def _examples(self):
        # shuffled sizes, from one changed line to views far over MAX_LEN, with
        # the removed side longer, shorter or as long as the added one
        rng = np.random.default_rng(21)
        examples = []
        for i, n in enumerate(rng.permutation([1, 2, 3, 5, 8, 1, 13, 2, 21, 4])):
            old = [f"a{j}" for j in range(n if i % 3 else 1 + n // 4)]
            new = [f"b{j}" for j in range(n if i % 3 != 1 else 1 + n // 4)]
            examples.append(build_example(make_fc(old, new), 3, VF if i % 2 else NVF))
        return examples

    @pytest.mark.parametrize("variant", [EMBED_SUBTRACT_DUO, CODE_CONCAT, RAW_GIT_DIFF], ids=["dual", "pair", "single"])
    def test_every_take_gives_the_oracles_encoder_input(self, variant):
        examples = self._examples()
        batch = encode_examples(examples, variant, VOCAB, self.MAX_LEN)
        oracle, seqs = padded_encode_examples(examples, variant, self.MAX_LEN)
        truncated = [s.truncated for row in seqs for s in row]
        assert any(truncated) and not all(truncated)
        assert len({int(n) for ids, lens in oracle for n in lens}) > 3  # the rows' lengths differ
        if variant == CODE_CONCAT:  # overlong pairs split at more than one place
            assert len({s.ids.index(SEP) for (s,) in seqs if s.truncated}) > 1
        assert len(batch.streams) == len(oracle)
        for idx in self.TAKES:
            taken = batch.take(idx)
            assert np.array_equal(taken.labels, batch.labels[idx])
            for stream, (oracle_ids, oracle_lens) in zip(taken.streams, oracle):
                padded = stream.padded()
                assert padded.dtype == np.int64
                assert np.array_equal(stream.lens, oracle_lens[idx]), idx
                assert np.array_equal(padded, cut(oracle_ids[idx], oracle_lens[idx])), idx

    @pytest.mark.parametrize("variant", [EMBED_SUBTRACT_DUO, CODE_CONCAT, RAW_GIT_DIFF], ids=["dual", "pair", "single"])
    def test_each_stream_stores_only_its_real_tokens(self, variant):
        # encode_examples lays the rows end to end; a take copies no ids
        examples = self._examples()
        batch = encode_examples(examples, variant, VOCAB, self.MAX_LEN)
        oracle, _ = padded_encode_examples(examples, variant, self.MAX_LEN)
        assert len(batch.streams) == len(oracle)
        for stream, (_, oracle_lens) in zip(batch.streams, oracle):
            assert stream.ids.dtype == np.int64 and stream.ids.shape == (oracle_lens.sum(),)
            assert PAD not in stream.ids
            assert np.array_equal(stream.starts, np.cumsum(oracle_lens) - oracle_lens)
        for taken in (batch.take(np.array([9, 0, 5, 2])), batch.take(slice(2, 7))):
            assert all(t.ids is s.ids for t, s in zip(taken.streams, batch.streams))


class TestConcurrentStreams:
    """A dual-stream batch may run its two encoders on two threads; each stream
    does the same numpy ops on its own arrays, so every output is bit-identical
    to the serial path's."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_threaded_equals_serial(self, monkeypatch, variant, dtype):
        threads = force_concurrent_streams(monkeypatch)
        model = cast_model(init_model(variant, CFG, seed=4), dtype)
        batch = random_batch(variant, np.random.default_rng(8), n=5, with_labels=True)
        results = []
        for min_work in (math.inf, 0):
            monkeypatch.setattr(dm, "CONCURRENT_MIN_WORK", min_work)
            threads.clear()
            results.append(loss_and_grads(model, batch))
            on_worker = [t for t in threads if t != threading.main_thread().name]
            # the forward and the backward each put one stream on the worker
            assert len(on_worker) == (2 if min_work == 0 and VARIANTS[variant].fusion != "Sequence" else 0)
        (loss_s, grads_s, probs_s), (loss_t, grads_t, probs_t) = results
        assert loss_s == loss_t
        assert probs_s.dtype == probs_t.dtype and np.array_equal(probs_s, probs_t)
        assert grads_s.keys() == grads_t.keys()
        for name, g in grads_s.items():
            assert g.dtype == grads_t[name].dtype and np.array_equal(g, grads_t[name]), name

    def test_worker_stream_error_is_raised(self, monkeypatch):
        threads = force_concurrent_streams(monkeypatch)
        batch = random_batch(EMBED_SUBTRACT_DUO, np.random.default_rng(3))
        batch.streams[1].ids[0] = CFG.vocab_size  # only the after-stream, which runs on the worker
        with pytest.raises(ValueError, match="token id out of vocabulary range"):
            predict_batch(init_model(EMBED_SUBTRACT_DUO, CFG, seed=0), batch)
        assert set(threads) - {threading.main_thread().name}

    def test_worker_runs_under_the_callers_errstate(self, monkeypatch):
        # numpy keeps errstate in a context variable, which a new thread does not inherit
        force_concurrent_streams(monkeypatch)
        model = init_model(EMBED_SUBTRACT_DUO, CFG, seed=0)
        model.encoder_after["pos_emb"][...] = 3e38  # finite weights whose layer-norm sums overflow float32
        batch = random_batch(EMBED_SUBTRACT_DUO, np.random.default_rng(3))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            predict_batch(model, batch)

    def test_no_worker_thread_outlives_a_call(self, monkeypatch):
        force_concurrent_streams(monkeypatch)
        before = threading.enumerate()
        loss_and_grads(init_model(EMBED_CONCAT_DUO, CFG, seed=0), random_batch(EMBED_CONCAT_DUO, np.random.default_rng(1), with_labels=True))
        assert threading.enumerate() == before

    @pytest.mark.parametrize("cpus, blas", [(1, "1"), (2, "2"), (2, None)], ids=["one-cpu", "blas-2-threads", "blas-uncapped"])
    def test_serial_without_two_cpus_or_one_blas_thread(self, monkeypatch, cpus, blas):
        threads = force_concurrent_streams(monkeypatch)
        monkeypatch.setattr(dm, "_usable_cpus", lambda: cpus)
        for var in dm.BLAS_THREAD_VARS:
            monkeypatch.delenv(var)
        if blas is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", blas)
        loss_and_grads(init_model(EMBED_SUBTRACT_DUO, CFG, seed=0), random_batch(EMBED_SUBTRACT_DUO, np.random.default_rng(1), with_labels=True))
        assert threads and set(threads) == {threading.main_thread().name}

    def test_gate_measures_the_shorter_stream(self, monkeypatch):
        force_concurrent_streams(monkeypatch)
        monkeypatch.setattr(dm, "CONCURRENT_MIN_WORK", 2**16)
        long, short = np.full(4, 512), np.array([100, 3, 3, 3])
        assert dm._streams_concurrent([long, long])
        assert dm._streams_concurrent([np.array([128, 1, 1, 1]), long])  # 4 rows x 128^2 = 2^16
        assert not dm._streams_concurrent([short, long]) and not dm._streams_concurrent([long, short])
        assert not dm._streams_concurrent([long])  # one stream has nothing to overlap
        monkeypatch.setenv("MKL_NUM_THREADS", "4")  # one capped library is not enough
        assert not dm._streams_concurrent([long, long])

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(dm.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert dm._usable_cpus() == 1
