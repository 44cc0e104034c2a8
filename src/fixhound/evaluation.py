"""Commit predictions (predictions.jsonl) and their metrics: classification
metrics, effort-aware CostEffort@L, and report emission.

CostEffort@L ranks commits by predicted probability (ties: smaller commit
first, then repo and hash) and walks the ranking under a LOC budget of L%
of the total; the value is the fraction of actual vulnerability fixes
inside the inspected prefix. Commit sizes use removed+added LOC. The
change-size bucket analysis mirrors the six ranges used in the ablation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .change_builder import (
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    EMBED_CONCAT_DUO,
    EMBED_SUBTRACT_DUO,
    EMBED_SUBTRACT_SINGLE,
    RAW_GIT_DIFF,
)
from .config import DataError, atomic_write, read_jsonl, write_jsonl
from .repo_miner import VF

# Ablation table row order: variants first, the dual-subtract model last.
REPORT_VARIANT_ORDER = (
    EMBED_CONCAT_DUO,
    EMBED_SUBTRACT_SINGLE,
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    RAW_GIT_DIFF,
    EMBED_SUBTRACT_DUO,
)

# Change-size ranges (lo, hi]; loc <= 1 is assigned to the first bucket.
SIZE_BUCKETS = ((1, 20), (20, 40), (40, 60), (60, 80), (80, 100), (100, None))

Labels = dict[tuple[str, str], str]


class EvaluationError(DataError):
    pass


@dataclass(frozen=True)
class CommitPrediction:
    repo_id: str
    commit_hash: str
    file_probs: tuple[tuple[str, float], ...]
    commit_prob: float
    predicted: str  # VF or NVF
    commit_loc: int  # removed + added lines over all files

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "CommitPrediction":
        return cls(**{**d, "file_probs": tuple((p, pr) for p, pr in d["file_probs"])})


def write_predictions_jsonl(preds: Iterable[CommitPrediction], path: str | Path) -> int:
    return write_jsonl(preds, path)


def read_predictions_jsonl(path: str | Path) -> list[CommitPrediction]:
    return read_jsonl(path, CommitPrediction.from_dict)


@dataclass
class EvalReport:
    f1: float
    precision: float
    recall: float
    counts: dict[str, int]
    cost_effort: dict[int, float] = field(default_factory=dict)
    buckets: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**self.__dict__, "cost_effort": {str(k): v for k, v in self.cost_effort.items()}}


def _label_of(pred: CommitPrediction, labels: Labels) -> str:
    key = (pred.repo_id, pred.commit_hash)
    if key not in labels:
        raise EvaluationError(f"no label for commit {key}")
    return labels[key]


def classification_metrics(preds: list[CommitPrediction], labels: Labels):
    """Binary precision/recall/F1 on the VF class; 0/0 counts as 0."""
    tp = fp = fn = tn = 0
    for p in preds:
        actual_vf = _label_of(p, labels) == VF
        pred_vf = p.predicted == VF
        if pred_vf and actual_vf:
            tp += 1
        elif pred_vf:
            fp += 1
        elif actual_vf:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f1, precision, recall, {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def cost_effort(preds: list[CommitPrediction], labels: Labels, level: float) -> float:
    """Fraction of actual VF commits found inspecting top-ranked commits
    whose cumulative LOC stays within level% of the total LOC."""
    total_vf = sum(1 for p in preds if _label_of(p, labels) == VF)
    if total_vf == 0:
        raise EvaluationError("cost_effort undefined with zero actual VF commits")
    total_loc = sum(p.commit_loc for p in preds)
    budget = math.ceil(level / 100.0 * total_loc)
    ranked = sorted(preds, key=lambda p: (-p.commit_prob, p.commit_loc, p.repo_id, p.commit_hash))
    found = 0
    cum = 0
    for p in ranked:
        if cum + p.commit_loc > budget:
            break
        cum += p.commit_loc
        if _label_of(p, labels) == VF:
            found += 1
    return found / total_vf


def _bucket_name(lo: int, hi: int | None) -> str:
    return f"({lo},{hi}]" if hi is not None else f"({lo},inf)"


def bucket_of(loc: int) -> str:
    for lo, hi in SIZE_BUCKETS:
        if hi is None or loc <= hi:
            if loc > lo or (lo, hi) == SIZE_BUCKETS[0]:
                return _bucket_name(lo, hi)
    return _bucket_name(*SIZE_BUCKETS[-1])


def bucketed_f1(preds: list[CommitPrediction], labels: Labels) -> dict[str, dict]:
    """Per-change-size-bucket F1, count, and proportion; empty buckets have
    no f1 entry rather than a zero."""
    groups: dict[str, list[CommitPrediction]] = {_bucket_name(lo, hi): [] for lo, hi in SIZE_BUCKETS}
    for p in preds:
        groups[bucket_of(p.commit_loc)].append(p)
    total = len(preds)
    out: dict[str, dict] = {}
    for name, members in groups.items():
        entry: dict = {"commit_count": len(members), "proportion": (len(members) / total) if total else 0.0}
        if members:
            entry["f1"] = classification_metrics(members, labels)[0]
        out[name] = entry
    return out


def evaluate(preds: list[CommitPrediction], labels: Labels, levels=(5, 20)) -> EvalReport:
    f1, precision, recall, counts = classification_metrics(preds, labels)
    report = EvalReport(f1=f1, precision=precision, recall=recall, counts=counts)
    for level in levels:
        report.cost_effort[int(level)] = cost_effort(preds, labels, level)
    report.buckets = bucketed_f1(preds, labels)
    return report


def report_rows(reports: dict[str, EvalReport], levels=(5, 20)) -> list[list[str]]:
    """Header plus one row per method, in the ablation table's row order."""
    header = ["Method", "F1", "Precision", "Recall"] + [f"CostEffort@{l}" for l in levels]
    ordered = [v for v in REPORT_VARIANT_ORDER if v in reports]
    ordered += [m for m in reports if m not in ordered]
    rows = [header]
    for method in ordered:
        r = reports[method]
        rows.append(
            [method, f"{r.f1:.3f}", f"{r.precision:.3f}", f"{r.recall:.3f}"]
            + [f"{r.cost_effort[int(l)]:.3f}" for l in levels]
        )
    return rows


def emit_report(reports: dict[str, EvalReport], fmt: str = "csv", levels=(5, 20)) -> str:
    """Render reports as CSV or aligned text, three decimal places."""
    rows = report_rows(reports, levels)
    if fmt == "csv":
        return "\n".join(",".join(row) for row in rows) + "\n"
    if fmt == "text":
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows) + "\n"
    if fmt == "json":
        return json.dumps({m: r.to_dict() for m, r in reports.items()}, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(reports: dict[str, EvalReport], path: str | Path, fmt: str = "csv", levels=(5, 20)) -> None:
    with atomic_write(path) as fh:
        fh.write(emit_report(reports, fmt, levels))
