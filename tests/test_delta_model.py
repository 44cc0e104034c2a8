import math
import zlib

import numpy as np
import pytest

from fixhound.change_builder import (
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    DUAL_STREAM_VARIANTS,
    EMBED_CONCAT_DUO,
    EMBED_SUBTRACT_DUO,
    EMBED_SUBTRACT_SINGLE,
    PAIR_VARIANTS,
    RAW_GIT_DIFF,
    VARIANTS,
    build_example,
)
from fixhound.delta_model import (
    DUAL_ENCODER_VARIANTS,
    FUSION_CONCAT,
    FUSION_SUBTRACT,
    EncodedBatch,
    batch_from_sequences,
    batch_loss,
    cast_model,
    encode_examples,
    equivalent_concat_model,
    forward_model,
    fuse,
    fusion_width,
    init_model,
    loss_and_grads,
    predict_batch,
    predict_in_chunks,
)
from fixhound.config import EncoderConfig
from fixhound.repo_miner import NVF, VF
from fixhound.tokenizer import SEP, SEP_MARKER, encode, tokenize, train_vocab
from gradcheck import fd_mismatches
from test_change_builder import make_fc

CFG = EncoderConfig(vocab_size=280, dim=8, layers=1, heads=2, max_len=16, ffn_mult=2)

VOCAB = train_vocab(["int main() { return 0; }", "if (x < 0) return -1;"], 280)


def random_batch(variant, rng, n=3, with_labels=False):
    dual = variant in DUAL_STREAM_VARIANTS
    ids_a = rng.integers(0, CFG.vocab_size, size=(n, CFG.max_len))
    lens_a = rng.integers(2, CFG.max_len + 1, size=n)
    kw = {}
    if dual:
        kw["ids_b"] = rng.integers(0, CFG.vocab_size, size=(n, CFG.max_len))
        kw["lens_b"] = rng.integers(2, CFG.max_len + 1, size=n)
    labels = rng.integers(0, 2, size=n).astype(np.float64) if with_labels else None
    return EncodedBatch(ids_a=ids_a, lens_a=lens_a, labels=labels, **kw)


class TestFuse:
    def test_subtract_example(self):
        a = np.array([[3.0, 1.0]])
        b = np.array([[1.0, 4.0]])
        assert np.array_equal(fuse(a, b, FUSION_SUBTRACT), np.array([[2.0, -3.0]]))

    def test_subtract_antisymmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 4, 8))
        assert np.array_equal(fuse(a, b, FUSION_SUBTRACT), -fuse(b, a, FUSION_SUBTRACT))

    def test_concat_example(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert np.array_equal(fuse(a, b, FUSION_CONCAT), np.array([[1.0, 2.0, 3.0, 4.0]]))

    def test_widths(self):
        assert fusion_width(EMBED_SUBTRACT_DUO, 8) == 8
        assert fusion_width(EMBED_CONCAT_DUO, 8) == 16
        assert fusion_width(CODE_CONCAT, 8) == 8


class TestStructure:
    def test_dual_variants_have_independent_encoders(self):
        for variant in DUAL_ENCODER_VARIANTS:
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

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            init_model("Nonsense", CFG, seed=0)

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
        batch = EncodedBatch(ids_a=ids, lens_a=lens, ids_b=ids.copy(), lens_b=lens.copy())
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
        assert batch.ids_a.shape == batch.ids_b.shape == (2, 16)
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
            assert (batch.ids_b is not None) == (variant in DUAL_STREAM_VARIANTS), variant
            rows = [batch.ids_a[0]] if batch.ids_b is None else [batch.ids_a[0], batch.ids_b[0]]
            assert not any(row[-1] for row in rows), variant  # nothing truncated
            seps = [np.flatnonzero(row == SEP).tolist() for row in rows]
            if variant in PAIR_VARIANTS:
                first = ex.variant_texts(variant)[0]
                assert seps == [[1 + len(tokenize(first, VOCAB))]], variant
            else:
                assert seps == [[]] * len(rows), variant

    def test_plain_single_stream_has_no_sep(self):
        ex = build_example(make_fc(["just a"], ["diff body"]), 3, NVF)
        batch = encode_examples([ex], RAW_GIT_DIFF, VOCAB, 32)
        assert batch.ids_b is None
        assert SEP not in batch.ids_a[0]

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

    def test_batch_from_sequences_shapes(self):
        seqs = (encode(tokenize("a", VOCAB), 16), encode(tokenize("b", VOCAB), 16))
        batch = batch_from_sequences([seqs, seqs], labels=[1.0, 0.0])
        assert batch.size == 2
        assert batch.ids_b is not None
        assert batch.labels.tolist() == [1.0, 0.0]
