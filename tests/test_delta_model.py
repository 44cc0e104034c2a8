import math
import tracemalloc
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
from fixhound.delta_model import (
    ENCODER_PREFIXES,
    batch_loss,
    encode_examples,
    forward_model,
    fuse,
    init_model,
    loss_and_grads,
    params_under,
    predict_batch,
    predict_in_chunks,
    tensor_shapes,
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
    init_reference,
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
        assert tensor_shapes(EMBED_SUBTRACT_DUO, CFG)["head.w1"] == (8, 8)
        assert tensor_shapes(EMBED_CONCAT_DUO, CFG)["head.w1"] == (16, 8)
        assert tensor_shapes(CODE_CONCAT, CFG)["head.w1"] == (8, 8)


def prefixes(m) -> set[str]:
    return {name.split(".")[0] + "." for name in m.params}


def stream_encoders(m) -> list[dict]:
    return [params_under(m.params, prefix) for prefix in ENCODER_PREFIXES[m.variant]]


class TestStructure:
    def test_dual_variants_have_independent_encoders(self):
        for variant in [v for v, spec in VARIANTS.items() if spec.own_encoders]:
            m = init_model(variant, CFG, seed=0)
            assert prefixes(m) == {"enc_before.", "enc_after.", "head."}, variant
            before, after = stream_encoders(m)
            assert any(not np.array_equal(before[n], after[n]) for n in before)

    def test_single_encoder_variants_alias(self):
        for variant in (EMBED_SUBTRACT_SINGLE, CODE_CONCAT, CODE_CONCAT_NOCONTEXT, RAW_GIT_DIFF):
            m = init_model(variant, CFG, seed=0)
            assert prefixes(m) == {"enc_before.", "head."}, variant
        # the shared-encoder variant's two streams read the same arrays
        before, after = stream_encoders(init_model(EMBED_SUBTRACT_SINGLE, CFG, seed=0))
        assert before.keys() == after.keys() and all(before[n] is after[n] for n in before)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("layers, ffn_mult", [(0, 2), (2, 4)])
    def test_init_matches_the_two_rules_it_replaced(self, variant, seed, layers, ffn_mult):
        cfg = EncoderConfig(vocab_size=280, dim=8, layers=layers, heads=2, max_len=16, ffn_mult=ffn_mult)
        got, want = init_model(variant, cfg, seed).params, init_reference(variant, cfg, seed)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype == np.float32, name
            assert got[name].shape == want[name].shape and got[name].tobytes() == want[name].tobytes(), name

    def test_init_deterministic(self):
        a = init_model(EMBED_SUBTRACT_DUO, CFG, seed=5)
        b = init_model(EMBED_SUBTRACT_DUO, CFG, seed=5)
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])


class TestForward:
    def test_zero_output_head_gives_half(self):
        rng = np.random.default_rng(1)
        for variant in VARIANTS:
            m = init_model(variant, CFG, seed=0)
            m.params["head.w2"][:] = 0.0
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
        probs = predict_batch(m, batch)
        assert np.all(probs == 0.5)

    def test_stream_arity_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        m = init_model(CODE_CONCAT, CFG, seed=0)
        with pytest.raises(ValueError):
            forward_model(m, random_batch(EMBED_SUBTRACT_DUO, rng))
        m2 = init_model(EMBED_SUBTRACT_DUO, CFG, seed=0)
        with pytest.raises(ValueError):
            forward_model(m2, random_batch(CODE_CONCAT, rng))

    def test_predict_batch_frees_each_streams_activations(self):
        # forward_model keeps every stream's cache for backward; predict_batch
        # keeps only the first stream's pooled embedding while the second runs
        cfg = EncoderConfig(vocab_size=280, dim=8, layers=1, heads=2, max_len=512, ffn_mult=2)
        m = init_model(EMBED_SUBTRACT_DUO, cfg, seed=0)
        rng = np.random.default_rng(6)
        ids = rng.integers(0, cfg.vocab_size, size=(2, 4, cfg.max_len))
        lens = np.full(4, cfg.max_len)
        batch = padded_batch(ids_a=ids[0], lens_a=lens, ids_b=ids[1], lens_b=lens)
        attention_bytes = 4 * cfg.heads * cfg.max_len**2 * np.dtype(np.float32).itemsize

        def peak(run) -> int:
            tracemalloc.start()
            try:
                run(m, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(forward_model) - peak(predict_batch) >= attention_bytes

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
    assert grads.keys() == m.params.keys()
    return fd_mismatches(lambda: loss_and_grads(m, batch)[0], m.params, grads, rng, per_tensor=4)


class TestGradients:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_finite_differences(self, variant):
        # str hash() is salted per process; crc32 gives each variant a fixed seed
        assert check_variant_gradients(variant, zlib.crc32(variant.encode())) == []

    def test_shared_encoder_grads_sum_both_streams(self):
        # two different streams through one shared encoder; the enc_before
        # grad must cover both paths
        m = cast_model(init_model(EMBED_SUBTRACT_SINGLE, CFG, seed=1), np.float64)
        rng = np.random.default_rng(9)
        batch = random_batch(EMBED_SUBTRACT_SINGLE, rng, n=2, with_labels=True)
        _, grads, _ = loss_and_grads(m, batch)
        assert not any(n.startswith("enc_after.") for n in grads)
        tok_emb = {"enc_before.tok_emb": m.params["enc_before.tok_emb"]}
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
        assert cat.params["head.w1"].shape == (2 * CFG.dim, CFG.dim)
        assert np.array_equal(cat.params["head.w1"][: CFG.dim], sub.params["head.w1"])
        assert np.array_equal(cat.params["head.w1"][CFG.dim :], -sub.params["head.w1"])


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

