"""Commit-level prediction by averaging file-level probabilities."""

from __future__ import annotations

from typing import Iterable

from .change_builder import build_example
from .delta_model import DeltaModel, encode_examples, predict_in_chunks
from .evaluation import CommitPrediction
from .repo_miner import NVF, VF, CommitRecord
from .tokenizer import Vocabulary


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
