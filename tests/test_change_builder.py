from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixhound.change_builder import (
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    EMBED_CONCAT_DUO,
    EMBED_SUBTRACT_DUO,
    EMBED_SUBTRACT_SINGLE,
    RAW_GIT_DIFF,
    VARIANTS,
    added_code,
    build_example,
    context_regions,
    region_old_lines,
    removed_code,
)
from fixhound.repo_miner import CONTEXT_MAX, file_change

DATA = Path(__file__).parent / "data"


def make_fc(old, new, path="f.txt", context=CONTEXT_MAX):
    return file_change(path, tuple(old), tuple(new), context)


@pytest.fixture
def single_edit_fc():
    old = [f"L{i}" for i in range(1, 11)]
    new = list(old)
    new[4] = "L5x"
    return make_fc(old, new)


class TestContextCut:
    def test_k3_matches_golden(self, single_edit_fc):
        ex = build_example(single_edit_fc, 3, "NVF")
        assert ex.code_before == (DATA / "golden_before_k3.txt").read_text()
        assert ex.code_after == (DATA / "golden_after_k3.txt").read_text()

    def test_k0_matches_golden(self, single_edit_fc):
        ex = build_example(single_edit_fc, 0, "NVF")
        assert ex.code_before == (DATA / "golden_before_k0.txt").read_text()
        assert ex.code_after == (DATA / "golden_after_k0.txt").read_text()

    def test_k0_is_exactly_removed_and_added(self):
        old = ["a", "b", "c", "d", "e"]
        new = ["a", "X", "c", "Y", "e"]
        ex = build_example(make_fc(old, new), 0, "VF")
        assert ex.code_before == "b\nd"
        assert ex.code_after == "X\nY"

    def test_touching_contexts_merge(self):
        old = [f"L{i}" for i in range(1, 13)]
        new = list(old)
        new[4] = "L5x"
        new[8] = "L9x"
        fc = make_fc(old, new)
        regions = context_regions(fc, 3)
        assert len(regions) == 1
        # brute-force oracle: union of per-hunk context index sets
        expected = set()
        for h in fc.hunks:
            lo = h.old_start - 3
            hi = h.old_start + len(h.removed_lines) - 1 + 3
            expected |= set(range(max(1, lo), min(len(old), hi) + 1))
        got = set(range(regions[0].old_lo, regions[0].old_hi + 1))
        assert got == expected
        ex = build_example(fc, 3, "NVF")
        assert ex.code_before == "\n".join(old[1:12])

    def test_far_hunks_stay_separate(self):
        old = [f"L{i}" for i in range(1, 30)]
        new = list(old)
        new[2] = "edit A"
        new[24] = "edit B"
        fc = make_fc(old, new)
        regions = context_regions(fc, 3)
        assert len(regions) == 2
        ex = build_example(fc, 3, "NVF")
        assert "\n\n" in ex.code_before  # blank-line separator between regions

    def test_k_clamped_at_file_boundaries(self):
        old = ["a", "b"]
        new = ["a", "B"]
        ex = build_example(make_fc(old, new, context=99), 99, "NVF")
        assert ex.code_before == "a\nb"
        assert ex.code_after == "a\nB"

    def test_pure_addition_before_is_context_only(self):
        old = ["a", "b", "c", "d"]
        new = ["a", "b", "NEW", "c", "d"]
        fc = make_fc(old, new)
        ex = build_example(fc, 2, "NVF")
        for line in ex.code_before.split("\n"):
            assert line in old

    def test_deterministic(self, single_edit_fc):
        a = build_example(single_edit_fc, 3, "VF", "r", "h")
        b = build_example(single_edit_fc, 3, "VF", "r", "h")
        assert a == b

    def test_negative_k_rejected(self, single_edit_fc):
        with pytest.raises(ValueError):
            context_regions(single_edit_fc, -1)


def content_lines(fc, k):
    return [line for r in context_regions(fc, k) for line in region_old_lines(r, fc)]


def is_subsequence(small, big):
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


class TestMonotonicity:
    @given(
        old=st.lists(st.sampled_from(["p", "q", "r", "s"]), min_size=1, max_size=25),
        new=st.lists(st.sampled_from(["p", "q", "r", "s"]), min_size=1, max_size=25),
    )
    @settings(max_examples=150)
    def test_context_lines_grow_monotonically(self, old, new):
        fc = make_fc(old, new)
        if not fc.hunks:
            return
        ks = [0, 1, 3, 5, 7, 9]
        for k1, k2 in zip(ks, ks[1:]):
            assert is_subsequence(content_lines(fc, k1), content_lines(fc, k2))


@st.composite
def edited_files(draw):
    """An old file of up to 120 lines, some repeated, and a new one a few edits
    away, so hunks land both far apart and within 2 * CONTEXT_MAX lines of each other."""
    period = draw(st.integers(1, 120))
    old = [f"L{i % period}" for i in range(draw(st.integers(0, 120)))]
    new = list(old)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(new)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            new.insert(pos, draw(st.sampled_from(["x", "y", ""])))
        elif pos < len(new):
            new[pos : pos + 1] = [] if op == "delete" else [draw(st.sampled_from(["x", "y", ""]))]
    return old, new


class TestWindowedRecords:
    """A cut of a record that keeps CONTEXT_MAX lines of context equals the
    cut of a record that keeps both whole files, for every k <= CONTEXT_MAX."""

    @given(edited_files())
    @settings(max_examples=300, deadline=None)
    def test_cut_equals_whole_file_cut(self, files):
        old, new = files
        windowed = make_fc(old, new)
        whole = make_fc(old, new, context=max(len(old), len(new), CONTEXT_MAX))
        assert len(whole.windows) == (1 if whole.hunks else 0)
        for k in range(CONTEXT_MAX + 1):
            assert build_example(windowed, k, "VF") == build_example(whole, k, "VF")

    def test_windows_hold_only_lines_within_context(self):
        old = [f"L{i}" for i in range(1, 101)]
        new = list(old)
        new[49] = "L50x"
        (w,) = make_fc(old, new).windows
        assert (w.old_lo, w.old_lines) == (41, tuple(old[40:59]))
        assert (w.new_lo, w.new_lines) == (41, tuple(new[40:59]))

    def test_k_beyond_stored_context_rejected(self, single_edit_fc):
        with pytest.raises(ValueError, match="k=10 exceeds the 9 lines of context"):
            build_example(single_edit_fc, CONTEXT_MAX + 1, "NVF")


class TestVariantRendering:
    def test_embed_variants_pass_through(self, single_edit_fc):
        ex = build_example(single_edit_fc, 3, "NVF")
        for variant in (EMBED_SUBTRACT_DUO, EMBED_CONCAT_DUO):
            assert ex.variant_texts(variant) == (ex.code_before, ex.code_after)

    def test_code_concat_is_exact_concatenation(self, single_edit_fc):
        # the two sides of one SEP-joined sequence: the same cut as the dual variants
        ex = build_example(single_edit_fc, 3, "NVF")
        assert ex.variant_texts(CODE_CONCAT) == (ex.code_before, ex.code_after)

    def test_nocontext_drops_context(self):
        fc = make_fc(["a"], ["b"])
        ex = build_example(fc, 3, "NVF")
        assert ex.variant_texts(CODE_CONCAT_NOCONTEXT) == ("a", "b")

    def test_raw_git_diff_order(self, single_edit_fc):
        ex = build_example(single_edit_fc, 3, "NVF")
        expected = "\n".join(["L2", "L3", "L4", "L5x", "L5", "L6", "L7", "L8"])
        assert ex.variant_texts(RAW_GIT_DIFF) == (expected,)

    def test_segment_count_invariant(self, single_edit_fc):
        ex = build_example(single_edit_fc, 3, "NVF")
        for variant in VARIANTS:
            assert len(ex.variant_texts(variant)) == (1 if variant == RAW_GIT_DIFF else 2)

    def test_unknown_variant_rejected(self, single_edit_fc):
        with pytest.raises(ValueError):
            build_example(single_edit_fc, 3, "NVF").variant_texts("Nonsense")

    def test_removed_added_code(self):
        fc = make_fc(["a", "b", "c"], ["a", "X", "Y", "c"])
        assert removed_code(fc) == "b"
        assert added_code(fc) == "X\nY"


class TestBuiltExample:
    def test_variant_texts_cover_all_variants(self, single_edit_fc):
        ex = build_example(single_edit_fc, 3, "VF", "r", "h")
        expected = {
            EMBED_SUBTRACT_DUO: (ex.code_before, ex.code_after),
            EMBED_SUBTRACT_SINGLE: (ex.code_before, ex.code_after),
            EMBED_CONCAT_DUO: (ex.code_before, ex.code_after),
            CODE_CONCAT: (ex.code_before, ex.code_after),
            CODE_CONCAT_NOCONTEXT: (removed_code(single_edit_fc), added_code(single_edit_fc)),
            RAW_GIT_DIFF: (ex.raw_diff,),
        }
        assert expected.keys() == set(VARIANTS)
        for variant in VARIANTS:
            assert ex.variant_texts(variant) == expected[variant]

    def test_round_trip(self, single_edit_fc):
        ex = build_example(single_edit_fc, 3, "VF", "r", "h")
        from fixhound.change_builder import BuiltExample

        assert BuiltExample.from_dict(ex.to_dict()) == ex

    def test_raw_diff_text_k0(self):
        fc = make_fc(["a", "b", "c"], ["a", "B", "c"])
        assert build_example(fc, 0, "NVF").raw_diff == "B\nb"
