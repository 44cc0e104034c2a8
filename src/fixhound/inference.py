"""Commit-level prediction by averaging file-level probabilities."""

from __future__ import annotations

import reprlib
from typing import Iterable

import numpy as np

from .change_builder import BuiltExample
from .config import DataError
from .delta_model import DeltaModel, encode_examples, predict_in_chunks
from .evaluation import CommitPrediction
from .records import NVF, VF
from .tokenizer import Vocabulary


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a non-finite probability, refused below
def predict_corpus(
    examples: Iterable[BuiltExample], model: DeltaModel, vocab: Vocabulary, chunk: int
) -> list[CommitPrediction]:
    """One prediction per commit, in the order its first example appears.

    The examples (`build_examples` output) take training's path: one
    `encode_examples` call, then `predict_in_chunks` at `chunk` rows per
    call. A commit's probability is the mean of its file probabilities,
    strict > 0.5 for a VF verdict. A commit's files are processed in
    sorted-path order and summed in 64-bit, so the result is bitwise
    independent of the input file order; a non-finite one is a DataError.
    """
    by_commit: dict[tuple[str, str], list[BuiltExample]] = {}
    for ex in examples:
        by_commit.setdefault((ex.repo_id, ex.commit_hash), []).append(ex)
    commits = [sorted(files, key=lambda ex: ex.path) for files in by_commit.values()]
    batch = encode_examples([ex for files in commits for ex in files], model.variant, vocab, model.config.max_len)
    probs = iter(predict_in_chunks(model, batch, chunk).tolist())
    preds = []
    for files in commits:
        file_probs = [(ex.path, next(probs)) for ex in files]
        total = 0.0
        for _, p in file_probs:
            total += p
        commit_prob = total / len(file_probs)
        if not np.isfinite(commit_prob):
            raise DataError(f"{model.variant} gives commit {reprlib.repr(files[0].commit_hash)} a probability of {commit_prob}: its weights overflow")
        preds.append(
            CommitPrediction(
                repo_id=files[0].repo_id,
                commit_hash=files[0].commit_hash,
                file_probs=tuple(file_probs),
                commit_prob=commit_prob,
                predicted=VF if commit_prob > 0.5 else NVF,
                commit_loc=sum(ex.removed_loc + ex.added_loc for ex in files),
            )
        )
    return preds
