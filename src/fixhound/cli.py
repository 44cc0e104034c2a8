"""Operator command line: mine, build, train, predict, evaluate, ablate.

All commands read one JSON config file; individual flags override config
values, which override defaults. Every command writes a manifest (config
digest, seed, package version) next to its outputs. An exclusive flock(2) on
the workdir keeps two commands from sharing it: the kernel releases it when
the process exits for any reason, and it leaves no file behind (POSIX only).

Each command loads only the modules it runs: this module imports no other
fixhound module at load time, so `--help` and a usage error load none, and
each `cmd_*` imports what it uses (`repo_miner` for mine alone, the model
layer for the model commands alone).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .change_builder import BuiltExample
    from .config import RunConfig
    from .records import CommitRecord

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


@contextlib.contextmanager
def workdir_lock(workdir: Path):
    """Hold an exclusive flock(2) on the workdir itself for the block; the kernel drops it when the process exits."""
    import fcntl

    from .config import DataError

    fd = None
    try:
        try:
            workdir.mkdir(parents=True, exist_ok=True)
            fd = os.open(workdir, os.O_RDONLY | os.O_DIRECTORY)  # not inheritable: mine's git children never hold the lock
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DataError(f"workdir {workdir} is locked by a running process") from None
        except OSError as exc:  # a file in place of the workdir or of a parent
            raise DataError(f"workdir {workdir}: not a usable directory ({exc.strerror})") from None
        if not os.access(workdir, os.W_OK | os.X_OK):  # else the first artifact write is a traceback
            raise DataError(f"workdir {workdir}: not a usable directory (not writable)")
        yield
    finally:
        if fd is not None:
            os.close(fd)


def write_manifest(workdir: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    import json

    from .config import atomic_write

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
    import json

    from .config import DataError, atomic_write
    from .records import NVF, VF, write_commits_jsonl
    from .repo_miner import CONTEXT_MAX, attach_labels, load_labels, mine_repository

    if not cfg.labels_file:  # Path("") would read the current directory
        raise DataError("no labels_file in the config: mine needs the label feed")
    labels = load_labels(cfg.labels_file)
    records: list[CommitRecord] = []
    seen: set[tuple[str, str]] = set()
    for repo in cfg.repos:
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

def _read_commits(path: Path, k: int) -> list[CommitRecord]:
    """The commit records at `path`. A cut at k reads only lines the records store: refuse it up front otherwise."""
    from .config import DataError
    from .records import read_commits_jsonl

    commits = read_commits_jsonl(path)
    stored = min((fc.context for rec in commits for fc in rec.files), default=k)
    if k > stored:
        raise DataError(f"{path} stores {stored} lines of context, too few for k={k}; re-run mine with k={k}")
    return commits


def _split_and_downsample(cfg: RunConfig, commits: list[CommitRecord]):
    from .records import VF, downsample_nvf, split_dataset

    parts = split_dataset(commits, cfg.split_spec())
    for name in ("train", "val"):
        if any(r.label == VF for r in parts[name]):
            parts[name] = downsample_nvf(parts[name], cfg.downsample_ratio, cfg.seed)
    return parts


def cmd_build(cfg: RunConfig, workdir: Path) -> int:
    from .change_builder import build_examples
    from .config import write_jsonl
    from .records import write_commits_jsonl

    parts = _split_and_downsample(cfg, _read_commits(workdir / "commits.jsonl", cfg.k))
    for name in ("train", "val"):
        write_jsonl(build_examples(parts[name], cfg.k), workdir / f"{name}.jsonl")
    write_commits_jsonl(parts["test"], workdir / "test_commits.jsonl")
    write_manifest(workdir, "build", cfg, ["train.jsonl", "val.jsonl", "test_commits.jsonl"])
    print(f"built train={len(parts['train'])} val={len(parts['val'])} test={len(parts['test'])} commits at k={cfg.k}")
    return EXIT_OK


# ---------------------------------------------------------------- train

def _train_vocab(cfg: RunConfig, train_examples: list[BuiltExample], val_examples: list[BuiltExample]):
    """BPE vocabulary over both views of every training example, once both splits are fit to train on."""
    from .config import DataError
    from .records import VF
    from .tokenizer import train_vocab

    for split, examples in (("train", train_examples), ("val", val_examples)):
        if not examples:
            raise DataError(f"the {split} split holds no examples to train on")
    if not any(ex.label == VF for ex in train_examples):
        raise DataError("the train split holds no VF example to learn from")
    return train_vocab([text for ex in train_examples for text in (ex.code_before, ex.code_after)], cfg.vocab_size)


def _train_and_save(cfg: RunConfig, variant: str, train_examples, val_examples, vocab, workdir: Path, suffix: str = ""):
    """Train `variant`, then write checkpoint{suffix}.bin (model and vocabulary) and loss_log{suffix}.csv."""
    from . import delta_model as dm
    from . import trainer as tr
    from .config import TrainingError

    try:
        train_batch = dm.encode_examples(train_examples, variant, vocab, cfg.max_len)
        val_batch = dm.encode_examples(val_examples, variant, vocab, cfg.max_len)
        result = tr.train(variant, cfg.encoder_config(vocab.size), train_batch, val_batch, cfg.train_config())
    except MemoryError as exc:  # the load checks bound the model's size, not this machine's memory
        raise TrainingError(f"out of memory: {exc}") from None
    tr.save_checkpoint(result.model, vocab, workdir / f"checkpoint{suffix}.bin", {"k": cfg.k, "seed": cfg.seed})
    tr.write_loss_log(result.loss_log, workdir / f"loss_log{suffix}.csv")
    return result


def cmd_train(cfg: RunConfig, workdir: Path) -> int:
    from .change_builder import BuiltExample
    from .config import DataError, read_jsonl

    train_path = workdir / "train.jsonl"
    val_path = workdir / "val.jsonl"
    train_examples = read_jsonl(train_path, BuiltExample.from_dict)
    val_examples = read_jsonl(val_path, BuiltExample.from_dict)
    for path, examples in ((train_path, train_examples), (val_path, val_examples)):
        for ex in examples:
            if ex.k != cfg.k:
                raise DataError(f"{path} holds examples built at k={ex.k}, but train is configured with k={cfg.k}; re-run build")
    vocab = _train_vocab(cfg, train_examples, val_examples)
    result = _train_and_save(cfg, cfg.variant, train_examples, val_examples, vocab, workdir)
    write_manifest(workdir, "train", cfg, ["checkpoint.bin", "loss_log.csv"])
    print(f"trained {cfg.variant}: best epoch {result.best_epoch}, val F1 {result.best_val_f1:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------- predict / evaluate

def cmd_predict(cfg: RunConfig, workdir: Path, checkpoint: str | None) -> int:
    from .change_builder import build_examples
    from .config import DataError, write_jsonl
    from .inference import predict_corpus
    from .trainer import load_checkpoint

    ckpt_path = Path(checkpoint) if checkpoint else workdir / "checkpoint.bin"
    model, vocab, extra = load_checkpoint(ckpt_path)
    if model.variant != cfg.variant:
        raise DataError(f"checkpoint variant {model.variant} does not match configured variant {cfg.variant}")
    if model.config.max_len != cfg.max_len:
        raise DataError(f"checkpoint max_len {model.config.max_len} does not match configured max_len {cfg.max_len}")
    if extra.get("k") != cfg.k:
        raise DataError(f"checkpoint context window k={extra.get('k')} does not match configured k={cfg.k}")
    commits = _read_commits(workdir / "test_commits.jsonl", cfg.k)
    preds = predict_corpus(build_examples(commits, cfg.k), model, vocab, cfg.train_config().batch_size)
    write_jsonl(preds, workdir / "predictions.jsonl")
    write_manifest(workdir, "predict", cfg, ["predictions.jsonl"])
    print(f"predicted {len(preds)} commits")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, workdir: Path, predictions: str | None) -> int:
    from .evaluation import evaluate, read_predictions_jsonl, write_reports
    from .records import read_commits_jsonl

    preds = read_predictions_jsonl(Path(predictions) if predictions else workdir / "predictions.jsonl")
    labels = {(c.repo_id, c.commit_hash): c.label for c in read_commits_jsonl(workdir / "test_commits.jsonl")}
    report = evaluate(preds, labels, cfg.cost_effort_levels)
    print(write_reports({cfg.variant: report}, workdir / "report", cfg.cost_effort_levels), end="")
    write_manifest(workdir, "evaluate", cfg, ["report.csv", "report.json"])
    return EXIT_OK


# ---------------------------------------------------------------- ablate

def cmd_ablate(cfg: RunConfig, workdir: Path, sweep_k: list[int] | None) -> int:
    """Train, predict and evaluate every variant at the configured k, or the configured variant at each `sweep_k` value."""
    from dataclasses import replace

    from .change_builder import VARIANTS, build_examples
    from .config import write_jsonl
    from .evaluation import evaluate, write_reports
    from .inference import predict_corpus

    ks, variants, name = (sweep_k, (cfg.variant,), "sweep_report") if sweep_k else ([cfg.k], VARIANTS, "ablation_report")
    parts = _split_and_downsample(cfg, _read_commits(workdir / "commits.jsonl", max(ks)))
    labels = {(c.repo_id, c.commit_hash): c.label for c in parts["test"]}
    reports = {}
    for k in ks:
        # Each k learns its own vocabulary, as `--k <k> build` and `train` would.
        sub = replace(cfg, k=k)
        train, val, test = (build_examples(parts[split], k) for split in ("train", "val", "test"))
        vocab = _train_vocab(sub, train, val)
        for variant in variants:
            tag, key = (f"{variant}_k{k}", f"{variant}@k={k}") if sweep_k else (variant, variant)
            result = _train_and_save(sub, variant, train, val, vocab, workdir, f"_{tag}")
            preds = predict_corpus(test, result.model, vocab, cfg.train_config().batch_size)
            write_jsonl(preds, workdir / f"predictions_{tag}.jsonl")
            reports[key] = evaluate(preds, labels, cfg.cost_effort_levels)
            table = write_reports(reports, workdir / name, cfg.cost_effort_levels)  # partial results stay on disk if a later run fails
    print(table, end="")
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


def _one_line(exc: Exception) -> str:
    """The error's message with each character that `str.isprintable` refuses
    escaped (a newline as `\\n`), so a path from the config or the command line
    cannot break the one stderr line."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii") for c in str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    from .config import DataError, TrainingError, UsageError, load_config

    try:
        cfg = load_config(args.config, {"seed": args.seed, "k": args.k, "variant": args.variant, "workdir": args.out})
        workdir = Path(cfg.workdir)
        sweep_k = None
        if getattr(args, "sweep_k", None) is not None:
            try:
                sweep_k = [int(x) for x in args.sweep_k.split(",") if x.strip()]
                if not sweep_k or min(sweep_k) < 0 or len(set(sweep_k)) < len(sweep_k):
                    raise ValueError("no k, a negative k or a repeated k")
            except ValueError:
                raise UsageError(f"bad --sweep-k list {args.sweep_k!r}: expected one or more distinct non-negative integers")
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
            return cmd_ablate(cfg, workdir, sweep_k)  # the parser admits no other command
    except UsageError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training failed: {_one_line(exc)}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
