import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixhound.evaluation import (
    REPORT_VARIANT_ORDER,
    CommitPrediction,
    EvalReport,
    EvaluationError,
    bucket_of,
    bucketed_f1,
    classification_metrics,
    cost_effort,
    emit_report,
    evaluate,
)
from fixhound.repo_miner import NVF, VF


def pred(sha, prob, loc, repo="r"):
    return CommitPrediction(
        repo_id=repo,
        commit_hash=sha,
        file_probs=(("f.c", prob),),
        commit_prob=prob,
        predicted=VF if prob > 0.5 else NVF,
        commit_loc=loc,
    )


def label_map(preds, vf_hashes):
    return {(p.repo_id, p.commit_hash): (VF if p.commit_hash in vf_hashes else NVF) for p in preds}


class TestClassificationMetrics:
    def test_perfect(self):
        preds = [pred("a", 0.9, 5), pred("b", 0.1, 5)]
        f1, precision, recall, counts = classification_metrics(preds, label_map(preds, {"a"}))
        assert (f1, precision, recall) == (1.0, 1.0, 1.0)
        assert counts == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}

    def test_half_precision_full_recall(self):
        preds = [pred("a", 0.9, 5), pred("b", 0.9, 5)]
        f1, precision, recall, _ = classification_metrics(preds, label_map(preds, {"a"}))
        assert precision == 0.5 and recall == 1.0
        assert math.isclose(f1, 2 / 3)

    def test_no_positive_predictions_is_zero_not_nan(self):
        preds = [pred("a", 0.1, 5)]
        f1, precision, recall, _ = classification_metrics(preds, label_map(preds, {"a"}))
        assert (f1, precision, recall) == (0.0, 0.0, 0.0)

    def test_missing_label_is_fatal(self):
        with pytest.raises(EvaluationError):
            classification_metrics([pred("a", 0.9, 5)], {})


def brute_force_cost_effort(preds, labels, level):
    """Oracle: best ranked prefix under the budget, same ordering rule."""
    total_vf = sum(1 for p in preds if labels[(p.repo_id, p.commit_hash)] == VF)
    budget = math.ceil(level / 100.0 * sum(p.commit_loc for p in preds))
    ranked = sorted(preds, key=lambda p: (-p.commit_prob, p.commit_loc, p.repo_id, p.commit_hash))
    best = 0
    cum = 0
    found = 0
    for p in ranked:
        if cum + p.commit_loc > budget:
            break
        cum += p.commit_loc
        found += labels[(p.repo_id, p.commit_hash)] == VF
    return found / total_vf


class TestCostEffort:
    def test_hand_worked_example(self):
        # 4 commits, total LOC 100, L=20 -> budget 20. Ranking by prob:
        # c1 (p .9, 10 loc, VF), c2 (p .8, 15 loc, NVF) stops the walk at
        # cumulative 25 > 20, so only c1 is inspected: 1 of 2 VF found.
        preds = [
            pred("c1", 0.9, 10),
            pred("c2", 0.8, 15),
            pred("c3", 0.7, 30, repo="s"),
            pred("c4", 0.1, 45, repo="s"),
        ]
        labels = label_map(preds, {"c1", "c3"})
        assert cost_effort(preds, labels, 20) == 0.5

    def test_full_budget_finds_everything(self):
        preds = [pred(f"c{i}", 0.5 + i / 100, 10) for i in range(5)]
        labels = label_map(preds, {"c0", "c4"})
        assert cost_effort(preds, labels, 100) == 1.0

    def test_tie_break_prefers_smaller_commit(self):
        # equal probs: the 5-LOC commit ranks above the 50-LOC one
        preds = [pred("big", 0.9, 50), pred("small", 0.9, 5)]
        labels = label_map(preds, {"small"})
        assert cost_effort(preds, labels, 10) == 1.0  # budget 6 covers only "small"

    def test_zero_vf_rejected(self):
        preds = [pred("a", 0.9, 10)]
        with pytest.raises(EvaluationError):
            cost_effort(preds, label_map(preds, set()), 5)

    def test_monotone_in_level(self):
        preds = [pred(f"{i:03d}", (i * 37 % 100) / 100, 1 + i * 7 % 40) for i in range(20)]
        labels = label_map(preds, {p.commit_hash for p in preds[::3]})
        values = [cost_effort(preds, labels, lvl) for lvl in (1, 5, 10, 20, 50, 100)]
        assert values == sorted(values)

    def test_invariant_under_monotone_prob_transform(self):
        preds = [pred(f"{i:03d}", 0.05 + 0.9 * i / 10, 3 + i) for i in range(10)]
        labels = label_map(preds, {p.commit_hash for p in preds[:4]})
        squashed = [
            pred(p.commit_hash, p.commit_prob**3, p.commit_loc) for p in preds
        ]
        for lvl in (5, 20, 60):
            assert cost_effort(preds, labels, lvl) == cost_effort(squashed, labels, lvl)

    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),  # prob percent
                st.integers(min_value=0, max_value=50),  # loc
                st.booleans(),  # vf
            ),
            min_size=1,
            max_size=20,
        ),
        level=st.sampled_from([1, 5, 20, 50, 100]),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_oracle(self, data, level):
        if not any(vf for _, _, vf in data):
            return
        preds = [pred(f"{i:040x}", p / 100, loc) for i, (p, loc, _) in enumerate(data)]
        labels = {(q.repo_id, q.commit_hash): (VF if vf else NVF) for q, (_, _, vf) in zip(preds, data)}
        assert cost_effort(preds, labels, level) == brute_force_cost_effort(preds, labels, level)


class TestBuckets:
    def test_edges(self):
        assert bucket_of(2) == "(1,20]"
        assert bucket_of(20) == "(1,20]"
        assert bucket_of(21) == "(20,40]"
        assert bucket_of(100) == "(80,100]"
        assert bucket_of(101) == "(100,inf)"
        assert bucket_of(10**9) == "(100,inf)"

    def test_tiny_commits_land_in_first_bucket(self):
        assert bucket_of(1) == "(1,20]"
        assert bucket_of(0) == "(1,20]"

    def test_empty_bucket_has_no_f1(self):
        preds = [pred("a", 0.9, 5), pred("b", 0.2, 150)]
        buckets = bucketed_f1(preds, label_map(preds, {"a"}))
        assert buckets["(1,20]"]["f1"] == 1.0
        assert "f1" not in buckets["(20,40]"]
        assert buckets["(20,40]"]["commit_count"] == 0

    def test_proportions_sum_to_one(self):
        preds = [pred(f"{i:02d}", 0.3, 10 + i * 25) for i in range(6)]
        buckets = bucketed_f1(preds, label_map(preds, {"00"}))
        assert math.isclose(sum(b["proportion"] for b in buckets.values()), 1.0)


class TestReports:
    def _reports(self, methods):
        out = {}
        for i, m in enumerate(methods):
            out[m] = EvalReport(
                f1=0.1 * i, precision=0.2, recall=0.3, counts={"tp": 1, "fp": 0, "fn": 0, "tn": 0},
                cost_effort={5: 0.25, 20: 0.5},
            )
        return out

    def test_single_method_csv_shape(self):
        text = emit_report(self._reports(["RawGitDiff"]), "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "Method,F1,Precision,Recall,CostEffort@5,CostEffort@20"
        assert lines[1] == "RawGitDiff,0.000,0.200,0.300,0.250,0.500"

    def test_six_methods_follow_table_order(self):
        # insert in scrambled order; output must follow the fixed row order
        scrambled = list(REPORT_VARIANT_ORDER)[::-1]
        text = emit_report(self._reports(scrambled), "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 7
        assert [l.split(",")[0] for l in lines[1:]] == list(REPORT_VARIANT_ORDER)

    def test_three_decimal_places(self):
        reports = {"RawGitDiff": EvalReport(f1=1 / 3, precision=2 / 3, recall=0.5, counts={}, cost_effort={5: 0.1, 20: 0.9})}
        line = emit_report(reports, "csv").strip().split("\n")[1]
        assert line.split(",")[1:4] == ["0.333", "0.667", "0.500"]

    def test_text_format_aligned(self):
        text = emit_report(self._reports(["RawGitDiff", "CodeConcat"]), "text")
        lines = text.strip().split("\n")
        assert lines[0].startswith("Method")
        assert len({line.index("0.") for line in lines[1:]}) == 1  # columns aligned

    def test_json_round_trips_values(self):
        import json

        reports = self._reports(["CodeConcat"])
        data = json.loads(emit_report(reports, "json"))
        assert data["CodeConcat"]["precision"] == 0.2
        assert data["CodeConcat"]["cost_effort"]["20"] == 0.5

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report({}, "xml")


class TestEvaluate:
    def test_end_to_end_report(self):
        preds = [pred("a", 0.9, 10), pred("b", 0.8, 30), pred("c", 0.2, 120)]
        labels = label_map(preds, {"a", "c"})
        report = evaluate(preds, labels, levels=(5, 20))
        assert report.counts == {"tp": 1, "fp": 1, "fn": 1, "tn": 0}
        assert set(report.cost_effort) == {5, 20}
        assert sum(b["commit_count"] for b in report.buckets.values()) == 3
