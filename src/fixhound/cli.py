"""Operator command line: mine, build, train, predict, evaluate, ablate.

All commands read one JSON config file; individual flags override config
values, which override defaults. Every command writes a manifest (config
digest, seed, package version) next to its outputs, and a lock file keeps
two commands from sharing a workdir concurrently.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .change_builder import VARIANTS, BuiltExample, build_examples, read_examples_jsonl, write_examples_jsonl
from .config import DataError, RunConfig, TrainingError, UsageError, atomic_write, load_config
from .evaluation import emit_report, evaluate, read_predictions_jsonl, write_predictions_jsonl, write_report
from .repo_miner import (
    CONTEXT_MAX,
    NVF,
    VF,
    CommitRecord,
    attach_labels,
    downsample_nvf,
    load_labels,
    mine_repository,
    read_commits_jsonl,
    split_dataset,
    write_commits_jsonl,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


def _lock_holder_alive(lock: Path) -> bool:
    """False only when the lock names a pid that no longer exists."""
    try:
        os.kill(int(lock.read_text()), 0)
    except (ProcessLookupError, FileNotFoundError):
        return False
    except (OSError, ValueError, OverflowError):  # another user's process, or a lock still being written
        return True
    return True


@contextlib.contextmanager
def workdir_lock(workdir: Path):
    """Hold workdir/.lock (our pid) for the block; a dead run's lock is taken over once."""
    workdir.mkdir(parents=True, exist_ok=True)
    lock = workdir / ".lock"
    for attempt in (1, 2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if attempt == 2 or _lock_holder_alive(lock):
                raise DataError(f"workdir {workdir} is locked by a running process (pid in {lock})")
            lock.unlink(missing_ok=True)
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock.unlink(missing_ok=True)


def write_manifest(workdir: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config_digest": cfg.digest(),
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "version": __version__,
        "outputs": outputs,
    }
    with atomic_write(workdir / f"manifest_{command}.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))


# ---------------------------------------------------------------- mine

def cmd_mine(cfg: RunConfig, workdir: Path) -> int:
    if not cfg.labels_file or not Path(cfg.labels_file).exists():
        raise DataError(f"labels file not found: {cfg.labels_file!r}")
    labels = load_labels(cfg.labels_file)
    records: list[CommitRecord] = []
    seen: set[tuple[str, str]] = set()
    for repo in cfg.repos:
        if not Path(repo).exists():
            raise DataError(f"repository path not found: {repo}")
        for rec in attach_labels(mine_repository(repo, cfg.since, cfg.until, context=max(CONTEXT_MAX, cfg.k)), labels):
            if (rec.repo_id, rec.commit_hash) in seen:
                raise DataError(f"repository {repo}: commit {rec.commit_hash} of {rec.repo_id} was already mined (repository listed twice?)")
            seen.add((rec.repo_id, rec.commit_hash))
            records.append(rec)
    out = workdir / "commits.jsonl"
    write_commits_jsonl(records, out)
    counts = {
        "VF": sum(1 for r in records if r.label == VF),
        "NVF": sum(1 for r in records if r.label == NVF),
        "commits": len(records),
        "files": sum(len(r.files) for r in records),
    }
    with atomic_write(workdir / "mine_summary.json") as fh:
        fh.write(json.dumps(counts, indent=2))
    print(f"{'':12s}{'VF':>8s}{'NVF':>10s}{'Commits':>10s}{'Files':>10s}")
    print(f"{'mined':12s}{counts['VF']:>8d}{counts['NVF']:>10d}{counts['commits']:>10d}{counts['files']:>10d}")
    write_manifest(workdir, "mine", cfg, ["commits.jsonl", "mine_summary.json"])
    return EXIT_OK


# ---------------------------------------------------------------- build

def _check_context(commits: list[CommitRecord], k: int, path: Path) -> None:
    """A cut at k reads only lines the records store: refuse it up front otherwise."""
    stored = min((fc.context for rec in commits for fc in rec.files), default=k)
    if k > stored:
        raise DataError(f"{path} stores {stored} lines of context, too few for k={k}; re-run mine with k={k}")


def _split_and_downsample(cfg: RunConfig, commits: list[CommitRecord]):
    parts = split_dataset(commits, cfg.split_spec())
    for name in ("train", "val"):
        if any(r.label == VF for r in parts[name]):
            parts[name] = downsample_nvf(parts[name], cfg.downsample_ratio, cfg.seed)
    return parts


def cmd_build(cfg: RunConfig, workdir: Path) -> int:
    commits_path = workdir / "commits.jsonl"
    if not commits_path.exists():
        raise DataError(f"mined commits not found: {commits_path} (run mine first)")
    commits = read_commits_jsonl(commits_path)
    _check_context(commits, cfg.k, commits_path)
    parts = _split_and_downsample(cfg, commits)
    for name in ("train", "val"):
        write_examples_jsonl(build_examples(parts[name], cfg.k), workdir / f"{name}.jsonl")
    write_commits_jsonl(parts["test"], workdir / "test_commits.jsonl")
    write_manifest(workdir, "build", cfg, ["train.jsonl", "val.jsonl", "test_commits.jsonl"])
    print(f"built train={len(parts['train'])} val={len(parts['val'])} test={len(parts['test'])} commits at k={cfg.k}")
    return EXIT_OK


# ---------------------------------------------------------------- train

def _train_vocab(cfg: RunConfig, train_examples: list[BuiltExample]):
    """BPE vocabulary over both views of every training example."""
    from .tokenizer import train_vocab

    if not train_examples:
        raise DataError("the train split holds no examples to learn a vocabulary from")
    return train_vocab([text for ex in train_examples for text in (ex.code_before, ex.code_after)], cfg.vocab_size)


def _train_and_save(cfg: RunConfig, variant: str, train_examples, val_examples, vocab, workdir: Path, suffix: str = ""):
    """Train `variant`, then write checkpoint{suffix}.bin (model and vocabulary) and loss_log{suffix}.csv."""
    from . import delta_model as dm
    from . import trainer as tr

    train_batch = dm.encode_examples(train_examples, variant, vocab, cfg.max_len)
    val_batch = dm.encode_examples(val_examples, variant, vocab, cfg.max_len)
    result = tr.train(variant, cfg.encoder_config(vocab.size), train_batch, val_batch, cfg.train_config())
    tr.save_checkpoint(result.model, vocab, workdir / f"checkpoint{suffix}.bin", {"k": cfg.k, "seed": cfg.seed})
    tr.write_loss_log(result.loss_log, workdir / f"loss_log{suffix}.csv")
    return result


def cmd_train(cfg: RunConfig, workdir: Path) -> int:
    train_path = workdir / "train.jsonl"
    val_path = workdir / "val.jsonl"
    if not train_path.exists() or not val_path.exists():
        raise DataError(f"built dataset not found in {workdir} (run build first)")
    train_examples = read_examples_jsonl(train_path)
    val_examples = read_examples_jsonl(val_path)
    for path, examples in ((train_path, train_examples), (val_path, val_examples)):
        for ex in examples:
            if ex.k != cfg.k:
                raise DataError(f"{path} holds examples built at k={ex.k}, but train is configured with k={cfg.k}; re-run build")
    vocab = _train_vocab(cfg, train_examples)
    result = _train_and_save(cfg, cfg.variant, train_examples, val_examples, vocab, workdir)
    write_manifest(workdir, "train", cfg, ["checkpoint.bin", "loss_log.csv"])
    print(f"trained {cfg.variant}: best epoch {result.best_epoch}, val F1 {result.best_val_f1:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------- predict / evaluate

def cmd_predict(cfg: RunConfig, workdir: Path, checkpoint: str | None) -> int:
    import numpy as np

    from .inference import predict_corpus
    from .trainer import load_checkpoint

    ckpt_path = Path(checkpoint) if checkpoint else workdir / "checkpoint.bin"
    if not ckpt_path.exists():
        raise DataError(f"checkpoint not found: {ckpt_path}")
    model, vocab, extra = load_checkpoint(ckpt_path)
    if model.config.max_len != cfg.max_len:
        raise DataError(f"checkpoint max_len {model.config.max_len} does not match configured max_len {cfg.max_len}")
    if extra.get("k") != cfg.k:
        raise DataError(f"checkpoint context window k={extra.get('k')} does not match configured k={cfg.k}")
    test_path = workdir / "test_commits.jsonl"
    if not test_path.exists():
        raise DataError(f"test commits not found: {test_path} (run build first)")
    commits = read_commits_jsonl(test_path)
    _check_context(commits, cfg.k, test_path)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite probability, refused below
        preds = predict_corpus(build_examples(commits, cfg.k), model, vocab, cfg.train_config().batch_size)
    for pred in preds:
        if not math.isfinite(pred.commit_prob):  # the mean of the file probabilities, so any NaN shows here
            raise DataError(f"{ckpt_path} gives commit {pred.commit_hash} a probability of {pred.commit_prob}: its weights overflow")
    write_predictions_jsonl(preds, workdir / "predictions.jsonl")
    write_manifest(workdir, "predict", cfg, ["predictions.jsonl"])
    print(f"predicted {len(preds)} commits")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, workdir: Path, predictions: str | None) -> int:
    preds_path = Path(predictions) if predictions else workdir / "predictions.jsonl"
    if not preds_path.exists():
        raise DataError(f"predictions not found: {preds_path}")
    test_path = workdir / "test_commits.jsonl"
    if not test_path.exists():
        raise DataError(f"test commits not found: {test_path}")
    preds = read_predictions_jsonl(preds_path)
    labels = {(c.repo_id, c.commit_hash): c.label for c in read_commits_jsonl(test_path)}
    report = evaluate(preds, labels, cfg.cost_effort_levels)
    reports = {cfg.variant: report}
    write_report(reports, workdir / "report.csv", "csv", cfg.cost_effort_levels)
    write_report(reports, workdir / "report.json", "json", cfg.cost_effort_levels)
    print(emit_report(reports, "text", cfg.cost_effort_levels), end="")
    write_manifest(workdir, "evaluate", cfg, ["report.csv", "report.json"])
    return EXIT_OK


# ---------------------------------------------------------------- ablate

def cmd_ablate(cfg: RunConfig, workdir: Path, sweep_k: list[int] | None) -> int:
    """Train, predict and evaluate every variant at the configured k, or the configured variant at each `sweep_k` value."""
    from .inference import predict_corpus

    commits_path = workdir / "commits.jsonl"
    if not commits_path.exists():
        raise DataError(f"mined commits not found: {commits_path} (run mine first)")
    commits = read_commits_jsonl(commits_path)
    ks, variants, name = (sweep_k, (cfg.variant,), "sweep_report") if sweep_k else ([cfg.k], VARIANTS, "ablation_report")
    _check_context(commits, max(ks), commits_path)
    parts = _split_and_downsample(cfg, commits)
    labels = {(c.repo_id, c.commit_hash): c.label for c in parts["test"]}
    reports = {}
    for k in ks:
        # Each k learns its own vocabulary, as `--k <k> build` and `train` would.
        sub = replace(cfg, k=k)
        train, val, test = (build_examples(parts[split], k) for split in ("train", "val", "test"))
        vocab = _train_vocab(sub, train)
        for variant in variants:
            tag, key = (f"{variant}_k{k}", f"{variant}@k={k}") if sweep_k else (variant, variant)
            result = _train_and_save(sub, variant, train, val, vocab, workdir, f"_{tag}")
            preds = predict_corpus(test, result.model, vocab, cfg.train_config().batch_size)
            write_predictions_jsonl(preds, workdir / f"predictions_{tag}.jsonl")
            reports[key] = evaluate(preds, labels, cfg.cost_effort_levels)
            # partial results stay on disk if a later run fails
            write_report(reports, workdir / f"{name}.csv", "csv", cfg.cost_effort_levels)
    write_report(reports, workdir / f"{name}.json", "json", cfg.cost_effort_levels)
    print(emit_report(reports, "text", cfg.cost_effort_levels), end="")
    write_manifest(workdir, "ablate", cfg, [f"{name}.csv", f"{name}.json"])
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fixhound", description="Silent vulnerability-fix detection pipeline")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--k", type=int, help="override context window size")
    parser.add_argument("--variant", help="override model variant")
    parser.add_argument("--out", help="override workdir")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("mine", help="mine commit records from configured repositories")
    sub.add_parser("build", help="split, downsample, and cut context windows")
    sub.add_parser("train", help="train the configured variant")
    p_predict = sub.add_parser("predict", help="predict commit probabilities for the test split")
    p_predict.add_argument("--checkpoint", help="checkpoint path (default workdir/checkpoint.bin)")
    p_eval = sub.add_parser("evaluate", help="score predictions against labels")
    p_eval.add_argument("--predictions", help="predictions path (default workdir/predictions.jsonl)")
    p_ablate = sub.add_parser("ablate", help="train and evaluate all six variants")
    p_ablate.add_argument("--sweep-k", help="comma-separated context sizes; sweep the configured variant instead")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config, {"seed": args.seed, "k": args.k, "variant": args.variant, "workdir": args.out})
        workdir = Path(cfg.workdir)
        sweep_k = None
        if getattr(args, "sweep_k", None) is not None:
            try:
                sweep_k = [int(x) for x in args.sweep_k.split(",") if x.strip()]
                if not sweep_k or min(sweep_k) < 0:
                    raise ValueError("no k, or a negative k")
            except ValueError:
                raise UsageError(f"bad --sweep-k list {args.sweep_k!r}: expected one or more non-negative integers")
        with workdir_lock(workdir):
            if args.command == "mine":
                return cmd_mine(cfg, workdir)
            if args.command == "build":
                return cmd_build(cfg, workdir)
            if args.command == "train":
                return cmd_train(cfg, workdir)
            if args.command == "predict":
                return cmd_predict(cfg, workdir, args.checkpoint)
            if args.command == "evaluate":
                return cmd_evaluate(cfg, workdir, args.predictions)
            if args.command == "ablate":
                return cmd_ablate(cfg, workdir, sweep_k)
            raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
