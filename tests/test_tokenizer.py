from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpe_oracle
from fixhound.change_builder import RAW_GIT_DIFF
from fixhound.config import EncoderConfig
from fixhound.delta_model import init_model
from fixhound.tokenizer import (
    BOS,
    BYTE_BASE,
    EOS,
    MIN_VOCAB,
    PAD,
    SEP,
    TokenSequence,
    Vocabulary,
    decode,
    encode,
    encode_pair,
    tokenize,
    tokenize_batch,
    train_vocab,
)
from fixhound.trainer import load_checkpoint, save_checkpoint


class TestTrainVocab:
    def test_zero_merge_budget(self):
        vocab = train_vocab(["hello world"], MIN_VOCAB)
        assert vocab.merges == []
        assert vocab.size == MIN_VOCAB

    def test_single_merge_matches_pair_count_oracle(self):
        corpus = ["abab" * 10]
        vocab = train_vocab(corpus, MIN_VOCAB + 1)
        # brute-force oracle: most frequent adjacent byte pair in the corpus
        pairs = Counter()
        for text in corpus:
            bs = text.encode()
            for a, b in zip(bs, bs[1:]):
                pairs[(a, b)] += 1
        (best, _), = pairs.most_common(1)
        assert len(vocab.merges) == 1
        left, right = vocab.merges[0]
        assert (vocab.token_bytes(left) + vocab.token_bytes(right)) == bytes(best)

    def test_deterministic(self):
        corpus = ["def foo():\n    return 1\n", "def bar():\n    return 2\n"]
        v1 = train_vocab(corpus, 300)
        v2 = train_vocab(corpus, 300)
        assert v1.merges == v2.merges

    def test_tie_break_lexicographic(self):
        # "ab" and "cd" both occur twice; ("a","b") is the smaller pair
        vocab = train_vocab(["ab", "ab", "cd", "cd"], MIN_VOCAB + 1)
        left, right = vocab.merges[0]
        assert vocab.token_bytes(left) == b"a" and vocab.token_bytes(right) == b"b"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_vocab([], 300)

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            train_vocab(["x"], MIN_VOCAB - 1)

    def test_merge_budget_exhausts_when_corpus_saturated(self):
        vocab = train_vocab(["aa"], MIN_VOCAB + 50)
        assert vocab.size < MIN_VOCAB + 50  # ran out of pairs early


@pytest.fixture(scope="module")
def vocab():
    corpus = ["the quick brown fox jumps over the lazy dog " * 3, "pack my box with five dozen jugs"]
    return train_vocab(corpus, 300)


class TestEncode:
    def test_empty_text(self, vocab):
        seq = encode(tokenize("", vocab), 8)
        assert seq.ids == (BOS, EOS, PAD, PAD, PAD, PAD, PAD, PAD)
        assert seq.attention_length == 2
        assert not seq.truncated

    def test_structure(self, vocab):
        seq = encode(tokenize("the fox", vocab), 32)
        assert seq.ids[0] == BOS
        assert seq.ids[seq.attention_length - 1] == EOS
        assert all(i == PAD for i in seq.ids[seq.attention_length :])
        assert len(seq.ids) == 32

    def test_round_trip_when_untruncated(self, vocab):
        for text in ["the quick brown fox", "zebra!", "tab\tand\nnewline"]:
            seq = encode(tokenize(text, vocab), 128)
            assert not seq.truncated
            assert decode(seq, vocab) == text

    def test_truncation_arithmetic(self, vocab):
        text = "q" * 100  # 'q' never merges fully in this corpus
        n_content = len(tokenize(text, vocab))
        assert n_content > 14
        seq = encode(tokenize(text, vocab), 16)
        assert seq.truncated
        assert seq.attention_length == 16  # BOS + 14 content + EOS

    def test_id_range(self, vocab):
        seq = encode(tokenize("the dog", vocab), 32)
        assert all(0 <= i < vocab.size for i in seq.ids)


class TestEncodePair:
    def test_both_empty(self, vocab):
        seq = encode_pair(tokenize("", vocab), tokenize("", vocab), 8)
        assert seq.ids[:3] == (BOS, SEP, EOS)
        assert all(i == PAD for i in seq.ids[3:])

    def test_proportional_truncation(self, vocab):
        # 10 and 10 content tokens with 13 content slots -> keep 7 + 6
        a = "q" * 10
        b = "z" * 10
        assert len(tokenize(a, vocab)) == 10 and len(tokenize(b, vocab)) == 10
        seq = encode_pair(tokenize(a, vocab), tokenize(b, vocab), 16)  # budget 13
        ids = list(seq.ids)
        sep_pos = ids.index(SEP)
        assert sep_pos - 1 == 7  # 7 kept from a
        assert ids.index(EOS) - sep_pos - 1 == 6  # 6 kept from b
        assert seq.truncated

    def test_short_side_untouched(self, vocab):
        a = "q" * 5
        b = "z" * 100
        seq = encode_pair(tokenize(a, vocab), tokenize(b, vocab), 64)
        ids = list(seq.ids)
        sep_pos = ids.index(SEP)
        assert sep_pos - 1 == 5  # a kept whole, only b truncated

    def test_no_truncation_when_fits(self, vocab):
        seq = encode_pair(tokenize("ab", vocab), tokenize("cd", vocab), 64)
        assert not seq.truncated
        assert decode(seq, vocab) == "ab ⟨SEP⟩ cd"


class TestSerialization:
    def test_round_trip_bit_exact(self, vocab, tmp_path):
        """A checkpoint carries the merges its model was trained with."""
        path = tmp_path / "m.bin"
        config = EncoderConfig(vocab_size=vocab.size, dim=8, layers=0, heads=2, max_len=16)
        save_checkpoint(init_model(RAW_GIT_DIFF, config, seed=0), vocab, path)
        _, loaded, _ = load_checkpoint(path)
        assert loaded.merges == vocab.merges
        text = "the quick brown fox"
        assert encode(tokenize(text, loaded), 64) == encode(tokenize(text, vocab), 64)

    @pytest.mark.parametrize(
        "merges",
        [[[9999, 5]], [[4, 5]], [[MIN_VOCAB, 5]], [[5, 6], [5, MIN_VOCAB + 1]], [[5]], [[5, "6"]], [[True, 5]], "x"],
    )
    def test_bad_merge_rejected(self, merges):
        with pytest.raises(ValueError):
            Vocabulary.from_dict({"merges": merges})

    def test_specials_occupy_first_ids(self):
        assert (PAD, BOS, EOS, SEP) == (0, 1, 2, 3)


# Texts over a small alphabet built from runs (`aaaa`, `ééé`), so that
# overlapping pairs, multi-byte UTF-8 and empty strings all come up.
_texts = st.lists(
    st.tuples(st.sampled_from(["a", "b", " ", "é", "中"]), st.integers(min_value=1, max_value=9)), max_size=8
).map(lambda runs: "".join(ch * n for ch, n in runs))
_corpora = st.lists(_texts, min_size=1, max_size=5)
_vocab_sizes = st.integers(min_value=MIN_VOCAB, max_value=MIN_VOCAB + 40)


class TestAgainstOracle:
    """The vectorised engine against the pure-Python BPE it replaced."""

    @given(_corpora, _vocab_sizes)
    @settings(max_examples=150, deadline=None)
    def test_merges_equal_oracle(self, corpus, vocab_size):
        assert train_vocab(corpus, vocab_size).merges == bpe_oracle.train_vocab(corpus, vocab_size).merges

    @given(_corpora, _corpora, _vocab_sizes)
    @settings(max_examples=150, deadline=None)
    def test_tokenize_batch_equals_oracle(self, corpus, texts, vocab_size):
        vocab = bpe_oracle.train_vocab(corpus, vocab_size)
        assert tokenize_batch(texts, vocab) == [bpe_oracle.tokenize(t, vocab) for t in texts]

    @given(_texts, _texts, _vocab_sizes)
    @settings(max_examples=150, deadline=None)
    def test_no_merge_crosses_text_boundary(self, a, b, vocab_size):
        vocab = train_vocab([a + b], vocab_size)  # merges that span the join exist
        assert tokenize_batch([a, b], vocab) == [tokenize(a, vocab), tokenize(b, vocab)]

    def test_overlapping_run_merges_left_to_right(self):
        a = BYTE_BASE + ord("a")
        vocab = Vocabulary(merges=[(a, a)])
        assert tokenize("aaaaa", vocab) == [MIN_VOCAB, MIN_VOCAB, a]
        assert tokenize_batch(["aaaaa", "", "aaaa"], vocab) == [[MIN_VOCAB, MIN_VOCAB, a], [], [MIN_VOCAB, MIN_VOCAB]]

    def test_empty_batch(self, vocab):
        assert tokenize_batch([], vocab) == []


class TestEncodingProperties:
    @given(st.text(max_size=60), st.integers(min_value=4, max_value=64))
    @settings(max_examples=150)
    def test_total_and_deterministic(self, text, max_len):
        v = _PROP_VOCAB
        s1 = encode(tokenize(text, v), max_len)
        s2 = encode(tokenize(text, v), max_len)
        assert s1 == s2
        assert len(s1.ids) == max_len
        assert s1.attention_length <= max_len
        content = s1.ids[1 : s1.attention_length - 1]
        assert all(i >= MIN_VOCAB - 256 for i in content)  # no specials inside content
        if not s1.truncated:
            assert decode(s1, v) == text


_PROP_VOCAB = train_vocab(["property testing corpus with some bytes é中"], 280)
