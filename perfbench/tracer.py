"""Span recorder for the traced benchmark run, and the layer metrics it gives.

Run as a script, it executes one fixhound CLI command with every public
function of every fixhound module wrapped in a span:

    python perfbench/tracer.py SPANS.json RUN_ID -- --config cfg.json train

A span records name, start, end, parent and run id. Spans are kept in
memory and written to SPANS.json when the command ends. Each function is
wrapped once and the wrapper is installed under every module attribute
that holds the function, so a caller that imported it by name
(`cli.train_vocab`, `delta_model.encode`, `inference.predict_file`) goes
through the same wrapper as one that looks it up on its home module
(`enc.forward_batch`). `repo_miner`'s `subprocess.run` calls are recorded
as `repo_miner.git` spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = (
    "repo_miner", "change_builder", "tokenizer", "encoder", "delta_model",
    "trainer", "inference", "evaluation", "cli",
)


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.run_id])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def dump(self, path: Path) -> None:
        doc = {"spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(doc), encoding="utf-8")


def _count_bytes(rec: Recorder, args, result) -> None:
    rec.counts["tokenize_bytes"] += len(args[0].encode("utf-8"))


def _count_sequence(rec: Recorder, args, result) -> None:
    rec.counts["sequences"] += 1
    rec.counts["sequence_slots"] += len(result.ids)
    rec.counts["padding_slots"] += len(result.ids) - result.attention_length
    rec.counts["truncated"] += bool(result.truncated)


def _count_merges(rec: Recorder, args, result) -> None:
    rec.counts["merges"] += len(result.merges)


def _count_tokens(rec: Recorder, args, result) -> None:
    _, _, ids, attn_lens = args
    rec.counts["padded_tokens"] += ids.size
    rec.counts["real_tokens"] += int(attn_lens.sum())


def _count_rows(rec: Recorder, args, result) -> None:
    rec.counts["predict_rows"] += args[1].size


# Counters read from arguments or results at the layer boundary. Every
# caller in fixhound passes these arguments positionally.
HOOKS = {
    "tokenizer.tokenize": _count_bytes,
    "tokenizer.encode": _count_sequence,
    "tokenizer.encode_pair": _count_sequence,
    "tokenizer.train_vocab": _count_merges,
    "encoder.forward_batch": _count_tokens,
    "delta_model.predict_batch": _count_rows,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)
    if inspect.isgeneratorfunction(fn):
        # One span per resumption, so spans stay nested while the consumer runs.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = rec.span(name, next, (it,), {})
                except StopIteration:
                    return
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.span(name, fn, args, kwargs)
        if hook is not None:
            hook(rec, args, result)
        return result
    return wrapper


class _SubprocessProxy:
    """Stands in for `subprocess` inside repo_miner; only `run` is traced."""

    def __init__(self, rec: Recorder):
        self.run = _wrap(rec, "repo_miner.git", subprocess.run)

    def __getattr__(self, name):
        return getattr(subprocess, name)


def install(rec: Recorder) -> None:
    mods = {name: importlib.import_module(f"fixhound.{name}") for name in MODULES}
    wrappers = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_") and attr != "main":
                wrappers[obj] = _wrap(rec, f"{short}.{attr}", obj)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    adamw = mods["trainer"].AdamW
    adamw.step = _wrap(rec, "trainer.AdamW.step", adamw.step)
    mods["repo_miner"].subprocess = _SubprocessProxy(rec)


def run_traced(spans_path: Path, run_id: str, argv: list[str]) -> int:
    rec = Recorder(run_id)
    install(rec)
    from fixhound import cli

    command = next(a for a in argv if a in ("mine", "build", "train", "predict", "evaluate", "ablate"))
    try:
        return rec.span(f"cli.{command}", cli.main, (argv,), {})
    finally:
        rec.dump(spans_path)


# ---------------------------------------------------------------- aggregation

def _span_stats(doc: dict):
    """Total time, call count and self time per span name in one trace."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, calls, self_t = defaultdict(float), defaultdict(int), defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_t[name] += end - start - child_time[i]
    return total, calls, self_t


def layer_metrics(traces: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traces of one pipeline, keyed by stage."""
    total, calls, self_t = defaultdict(float), defaultdict(int), defaultdict(float)
    counts = defaultdict(float)
    out: dict[str, tuple[float, str]] = {}
    for stage, doc in traces.items():
        t, c, s = _span_stats(doc)
        for name in t:
            total[name] += t[name]
            calls[name] += c[name]
            self_t[name] += s[name]
        for key, value in doc["counts"].items():
            counts[key] += value
        out[f"cli.{stage}.self_s"] = (sum(v for k, v in s.items() if k.startswith("cli.")), "s")

    def layer_self(prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(v for k, v in self_t.items() if k.startswith(prefix) and k not in exclude)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    jsonl = ("repo_miner.write_commits_jsonl", "repo_miner.read_commits_jsonl")
    trainer_parts = ("trainer.AdamW.step", "trainer.predict_in_chunks", "trainer.save_checkpoint", "trainer.load_checkpoint")
    out.update({
        "repo_miner.git_procs": (calls["repo_miner.git"], "count"),
        "repo_miner.git_s": (total["repo_miner.git"], "s"),
        "repo_miner.diff_lines_s": (total["repo_miner.diff_lines"], "s"),
        "repo_miner.diff_lines_calls": (calls["repo_miner.diff_lines"], "count"),
        "repo_miner.jsonl_io_s": (sum(total[k] for k in jsonl), "s"),
        "repo_miner.self_s": (layer_self("repo_miner.", ("repo_miner.git", "repo_miner.diff_lines") + jsonl), "s"),
        "change_builder.build_example_s": (total["change_builder.build_example"], "s"),
        "change_builder.build_example_calls": (calls["change_builder.build_example"], "count"),
        "change_builder.contextual_change_s": (total["change_builder.build_contextual_change"], "s"),
        "tokenizer.train_vocab_s": (total["tokenizer.train_vocab"], "s"),
        "tokenizer.merges": (counts["merges"], "count"),
        "tokenizer.tokenize_s": (total["tokenizer.tokenize"], "s"),
        "tokenizer.tokenize_calls": (calls["tokenizer.tokenize"], "count"),
        "tokenizer.tokenize_bytes": (counts["tokenize_bytes"], "bytes"),
        "tokenizer.padding_frac": (ratio(counts["padding_slots"], counts["sequence_slots"]), "ratio"),
        "tokenizer.truncated_frac": (ratio(counts["truncated"], counts["sequences"]), "ratio"),
        "encoder.forward_s": (total["encoder.forward_batch"], "s"),
        "encoder.forward_calls": (calls["encoder.forward_batch"], "count"),
        "encoder.backward_s": (total["encoder.backward_batch"], "s"),
        "encoder.backward_calls": (calls["encoder.backward_batch"], "count"),
        "encoder.padded_tokens": (counts["padded_tokens"], "tokens"),
        "encoder.real_tokens": (counts["real_tokens"], "tokens"),
        "encoder.useful_token_frac": (ratio(counts["real_tokens"], counts["padded_tokens"]), "ratio"),
        "delta_model.head_self_s": (self_t["delta_model.forward_model"] + self_t["delta_model.backward_model"], "s"),
        "delta_model.predict_calls": (calls["delta_model.predict_batch"], "count"),
        "delta_model.rows_per_predict_call": (ratio(counts["predict_rows"], calls["delta_model.predict_batch"]), "rows/call"),
        "trainer.steps": (calls["trainer.AdamW.step"], "count"),
        "trainer.adamw_s": (total["trainer.AdamW.step"], "s"),
        "trainer.val_predict_s": (total["trainer.predict_in_chunks"], "s"),
        "trainer.checkpoint_io_s": (total["trainer.save_checkpoint"] + total["trainer.load_checkpoint"], "s"),
        "trainer.self_s": (layer_self("trainer.", trainer_parts), "s"),
        "inference.files_scored": (calls["delta_model.predict_file"], "count"),
        "inference.self_s": (layer_self("inference."), "s"),
        "evaluation.evaluate_s": (total["evaluation.evaluate"], "s"),
    })
    return out


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SPANS.json RUN_ID -- <fixhound arguments>")
    sys.exit(run_traced(Path(sys.argv[1]), sys.argv[2], sys.argv[4:]))
