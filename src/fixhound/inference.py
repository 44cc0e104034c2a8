"""Commit-level prediction by averaging file-level probabilities."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .change_builder import build_example
from .delta_model import DeltaModel, encode_examples, predict_in_chunks
from .repo_miner import NVF, VF, CommitRecord
from .tokenizer import Vocabulary


@dataclass(frozen=True)
class CommitPrediction:
    repo_id: str
    commit_hash: str
    file_probs: tuple[tuple[str, float], ...]
    commit_prob: float
    predicted: str  # VF or NVF
    commit_loc: int  # removed + added lines over all files

    def to_dict(self) -> dict:
        return {
            "repo_id": self.repo_id,
            "commit_hash": self.commit_hash,
            "file_probs": [[p, pr] for p, pr in self.file_probs],
            "commit_prob": self.commit_prob,
            "predicted": self.predicted,
            "commit_loc": self.commit_loc,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CommitPrediction":
        return cls(
            repo_id=d["repo_id"],
            commit_hash=d["commit_hash"],
            file_probs=tuple((p, pr) for p, pr in d["file_probs"]),
            commit_prob=d["commit_prob"],
            predicted=d["predicted"],
            commit_loc=d["commit_loc"],
        )


def predict_corpus(
    commits: Iterable[CommitRecord], model: DeltaModel, vocab: Vocabulary, k: int, chunk: int
) -> list[CommitPrediction]:
    """One prediction per commit, input order preserved.

    Files take training's path: `build_example`, one `encode_examples`
    call, then `predict_in_chunks` at `chunk` rows per call. A commit's
    probability is the mean of its file probabilities, strict > 0.5 for a
    VF verdict. Files are processed in sorted-path order and summed in
    64-bit, so the result is bitwise independent of the input file order.
    """
    commits = list(commits)
    files_by_commit = []
    for commit in commits:
        if not commit.files:
            raise ValueError(f"commit {commit.commit_hash} has no file changes")
        files_by_commit.append(sorted(commit.files, key=lambda f: f.path))
    examples = [
        build_example(fc, k, c.label, c.repo_id, c.commit_hash) for c, files in zip(commits, files_by_commit) for fc in files
    ]
    batch = encode_examples(examples, model.variant, vocab, model.config.max_len)
    probs = iter(predict_in_chunks(model, batch, chunk).tolist())
    preds = []
    for commit, files in zip(commits, files_by_commit):
        file_probs = [(fc.path, next(probs)) for fc in files]
        total = 0.0
        for _, p in file_probs:
            total += p
        commit_prob = total / len(file_probs)
        preds.append(
            CommitPrediction(
                repo_id=commit.repo_id,
                commit_hash=commit.commit_hash,
                file_probs=tuple(file_probs),
                commit_prob=commit_prob,
                predicted=VF if commit_prob > 0.5 else NVF,
                commit_loc=sum(fc.removed_loc + fc.added_loc for fc in files),
            )
        )
    return preds


def write_predictions_jsonl(preds: Iterable[CommitPrediction], path: str | Path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for p in preds:
            fh.write(json.dumps(p.to_dict(), ensure_ascii=False) + "\n")
            n += 1
    return n


def read_predictions_jsonl(path: str | Path) -> list[CommitPrediction]:
    with open(path, encoding="utf-8") as fh:
        return [CommitPrediction.from_dict(json.loads(line)) for line in fh if line.strip()]
