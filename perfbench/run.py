"""Stage-level benchmark of the fixhound pipeline.

Generates a seeded git repository for a workload, then runs the real CLI
(`python -m fixhound.cli --config cfg.json <stage>`) for mine, build,
train, predict and evaluate, one fresh process per stage, repeating the
whole pipeline until --seconds have been spent (at least twice, for the
determinism check). Run it from the repository root:

    python3 perfbench/run.py --workload short-changes --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 the pipeline runs untraced, under
perfbench/tracer.py, and untraced again, and the line holds the per-layer
metrics.
All files go to .perfbench/ under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"
STAGES = ("mine", "build", "train", "predict", "evaluate")
# One BLAS thread (at most nproc): on a 2-core x86_64 box with OpenBLAS
# 0.3.31, two threads left stage wall times unchanged, doubled their CPU
# time and made `fixhound --help` ~25% slower and noisier.
BLAS_THREADS = 1
STAGE_TIMEOUT_S = 150
MIN_ITERATIONS = 2

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    **{f"{stage}_s": ("s", "lower") for stage in STAGES},
    "mine_commits_per_s": ("commits/s", "higher"),
    "train_examples_per_s": ("examples/s", "higher"),
    "predict_files_per_s": ("files/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "test_f1": ("ratio", "higher"),
    "cost_effort_20": ("ratio", "higher"),
}
# Printed, but left out of the JSON metrics. failed_frac is 0 on a correct
# run (the result line carries it as `failed` / `attempted`). The two
# detection results are fixed for a seed and quantised on the small test
# splits (CostEffort@20 is 0 when no commit fits the LOC budget), so they
# go out with the per-layer metrics instead, where no bound applies.
NOT_IN_RESULT = ("failed_frac", "test_f1", "cost_effort_20")


class CheckFailed(Exception):
    pass


def bench_env() -> dict:
    env = workloads.git_env(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one process; returns (wall seconds, ru_maxrss in MB, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def machine_facts(env: dict) -> dict:
    probe = (
        "import json, platform, numpy\n"
        "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, 'blas': deps.get('blas', {})}))\n"
    )
    facts = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True).stdout)
    git_env = dict(env, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True)
    facts.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_thread_cap": BLAS_THREADS,
        "git": subprocess.run(["git", "--version"], env=env, capture_output=True, text=True).stdout.strip(),
        "commit": head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)",
        "loadavg_at_start": os.getloadavg(),
    })
    return facts


# ---------------------------------------------------------------- output checks

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_stage(stage: str, wd: Path, meta: dict, out: dict) -> None:
    """Check one stage's outputs and collect the numbers the metrics need."""
    if stage == "mine":
        summary = json.loads((wd / "mine_summary.json").read_text())
        if (summary["commits"], summary["VF"]) != (meta["commits"], meta["vf"]):
            raise CheckFailed(f"mined {summary['commits']} commits / {summary['VF']} VF, generated {meta['commits']} / {meta['vf']}")
        out["commits"] = summary["commits"]
    elif stage == "build":
        test = _jsonl(wd / "test_commits.jsonl")
        if len(test) != meta["test_commits"]:
            raise CheckFailed(f"{len(test)} test commits, generated {meta['test_commits']}")
        out["test_hashes"] = {c["commit_hash"] for c in test}
    elif stage == "train":
        with open(wd / "train.jsonl", encoding="utf-8") as fh:
            out["train_examples"] = sum(1 for line in fh if line.strip())
        with open(wd / "loss_log.csv", encoding="utf-8") as fh:
            out["epochs"] = sum(1 for line in fh if line.rstrip().endswith(",val"))
        out["checkpoint_sha256"] = _sha256(wd / "checkpoint.bin")
    elif stage == "predict":
        preds = _jsonl(wd / "predictions.jsonl")
        hashes = [p["commit_hash"] for p in preds]
        if len(hashes) != len(set(hashes)) or set(hashes) != out["test_hashes"]:
            raise CheckFailed("predictions do not cover each test commit exactly once")
        for p in preds:
            prob = p["commit_prob"]
            total = 0.0
            for _, fp in p["file_probs"]:
                total += fp
            if not (math.isfinite(prob) and 0.0 <= prob <= 1.0 and prob == total / len(p["file_probs"])):
                raise CheckFailed(f"commit {p['commit_hash']}: commit_prob {prob} is not the mean of its file probabilities")
        out["files_scored"] = sum(len(p["file_probs"]) for p in preds)
        out["predictions_sha256"] = _sha256(wd / "predictions.jsonl")
    elif stage == "evaluate":
        report = next(iter(json.loads((wd / "report.json").read_text()).values()))
        if sum(report["counts"].values()) != meta["test_commits"]:
            raise CheckFailed(f"report counts {report['counts']} do not sum to {meta['test_commits']} test commits")
        out["test_f1"] = report["f1"]
        out["cost_effort_20"] = report["cost_effort"]["20"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


def measure_setup(env: dict, log: Path, tally: Tally, setup: list[float]) -> None:
    """One fresh `fixhound --help` process: interpreter, imports, parser."""
    tally.attempted += 1
    wall, _, code = spawn([sys.executable, "-m", "fixhound.cli", "--help"], env, log)
    if code != 0:
        tally.fail(f"fixhound --help exited {code}")
    else:
        setup.append(wall)


def run_pipeline(cfg: dict, wd: Path, meta: dict, env: dict, tally: Tally, setup: list[float],
                 trace_id: str | None = None) -> dict | None:
    """One mine..evaluate pass in a fresh workdir; None if a stage failed.

    A setup sample is taken before each stage, so that the setup_s samples
    spread over the whole run like the stage samples do.
    """
    wd.mkdir(parents=True)
    cfg_path = wd.parent / f"{wd.name}.config.json"
    cfg_path.write_text(json.dumps(dict(cfg, workdir=str(wd)), indent=1), encoding="utf-8")
    out: dict = {"stage_s": {}, "rss_mb": [], "traces": {}}
    for stage in STAGES:
        cli_args = ["--config", str(cfg_path), stage]
        if trace_id is None:
            argv = [sys.executable, "-m", "fixhound.cli", *cli_args]
        else:
            spans = wd.parent / f"{wd.name}.{stage}.spans.json"
            argv = [sys.executable, str(TRACER), str(spans), f"{trace_id}/{stage}", "--", *cli_args]
        measure_setup(env, wd.parent / "help.log", tally, setup)
        tally.attempted += 1
        wall, rss, code = spawn(argv, env, wd.parent / f"{wd.name}.{stage}.log")
        if code != 0:
            tally.fail(f"{stage} exited {code} (log {wd.parent / f'{wd.name}.{stage}.log'})")
            return None
        try:
            check_stage(stage, wd, meta, out)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            tally.fail(f"{stage} output check: {exc}")
            return None
        out["stage_s"][stage] = wall
        out["rss_mb"].append(rss)
        if trace_id is not None:
            out["traces"][stage] = json.loads(spans.read_text(encoding="utf-8"))
    return out


def end_to_end(setup: list[float], iters: list[dict], tally: Tally) -> dict[str, list[float]]:
    """Samples of every end-to-end metric; a metric's value is their median."""
    s: dict[str, list[float]] = {"setup_s": setup}
    s["pipeline_s"] = [sum(it["stage_s"].values()) for it in iters]
    for stage in STAGES:
        s[f"{stage}_s"] = [it["stage_s"][stage] for it in iters]
    s["mine_commits_per_s"] = [it["commits"] / it["stage_s"]["mine"] for it in iters]
    s["train_examples_per_s"] = [it["train_examples"] * it["epochs"] / it["stage_s"]["train"] for it in iters]
    s["predict_files_per_s"] = [it["files_scored"] / it["stage_s"]["predict"] for it in iters]
    s["peak_rss_mb"] = [max(r for it in iters for r in it["rss_mb"])]
    s["failed_frac"] = [tally.failed / max(1, tally.attempted)]
    s["test_f1"] = [it["test_f1"] for it in iters]
    s["cost_effort_20"] = [it["cost_effort_20"] for it in iters]
    return s


def upper(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    xs = sorted(values)
    if len(xs) <= 10:
        return "max", xs[-1]
    q = (len(xs) - 10) / len(xs)
    return f"p{100 * q:.0f}", xs[len(xs) - 11]


def print_table(title: str, samples: dict[str, list[float]], units: dict[str, tuple[str, str]]) -> None:
    print(f"\n== {title}")
    print(f"{'metric':34s} {'unit':>11s} {'better':>7s} {'n':>3s} {'median':>12s} {'upper':>18s}")
    for name, values in samples.items():
        unit, better = units[name]
        label, hi = upper(values)
        print(f"{name:34s} {unit:>11s} {better:>7s} {len(values):3d} {statistics.median(values):12.4f} {label:>5s} {hi:12.4f}")


def measure(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    w = workloads.WORKLOADS[name]
    tally = Tally()
    run_dir = WORK / "runs" / f"{name}-s{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    result: dict = {"workload": name, "seed": seed, "trace": int(trace), "machine": machine_facts(env)}
    tally.attempted += 1
    try:
        data, meta = workloads.prepare(w, seed, WORK / "data", env)  # not timed
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        tally.fail(f"generating the repository: {exc}")
        return finish(result, run_dir, tally, {})
    cfg = workloads.config_for(w, seed, data, meta, run_dir)

    setup: list[float] = []
    measure_setup(env, run_dir / "help.log", tally, [])  # warms the bytecode cache; not a sample
    start = time.perf_counter()
    iters: list[dict] = []
    if trace:
        # Untraced before and after the traced pipeline, so that a cold first
        # pass does not bias trace.overhead_frac.
        iters = [run_pipeline(cfg, run_dir / "iter0", meta, env, tally, setup)]
        traced = run_pipeline(cfg, run_dir / "traced", meta, env, tally, setup, trace_id=f"{name}-s{seed}")
        iters += [traced, run_pipeline(cfg, run_dir / "iter1", meta, env, tally, setup)]
        iters = [it for it in iters if it is not None]
    else:
        while True:
            it = run_pipeline(cfg, run_dir / f"iter{len(iters)}", meta, env, tally, setup)
            if it is None:
                break
            iters.append(it)
            elapsed = time.perf_counter() - start
            if len(iters) >= MIN_ITERATIONS and elapsed * (len(iters) + 1) / len(iters) > seconds:
                break

    for i, it in enumerate(iters[1:], start=1):
        for key in ("checkpoint_sha256", "predictions_sha256"):
            if it[key] != iters[0][key]:
                tally.fail(f"{key} of pipeline {i} differs from pipeline 0 for the same seed")

    result.update({"meta": meta, "stage_s": [it["stage_s"] for it in iters]})
    metrics: dict[str, dict] = {}
    if trace and len(iters) == 3:
        layers = tracer.layer_metrics(traced["traces"])
        untraced_s = statistics.mean(sum(it["stage_s"].values()) for it in (iters[0], iters[2]))
        overhead = sum(traced["stage_s"].values()) / untraced_s - 1.0
        layers["trace.overhead_frac"] = (overhead, "ratio")
        layers["evaluation.test_f1"] = (iters[0]["test_f1"], "ratio")
        layers["evaluation.cost_effort_20"] = (iters[0]["cost_effort_20"], "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        print_table(f"{name} seed {seed}: per-layer metrics (one traced pipeline)",
                    {k: [v] for k, (v, _) in layers.items()}, {k: (u, "") for k, (_, u) in layers.items()})
    elif not trace and iters and setup:
        samples = end_to_end(setup, iters, tally)
        print_table(f"{name} seed {seed}: end-to-end metrics over {len(iters)} pipelines", samples, END_TO_END)
        metrics = {
            k: {"value": statistics.median(v), "unit": END_TO_END[k][0]}
            for k, v in samples.items() if k not in NOT_IN_RESULT
        }
        result["samples"] = samples
    return finish(result, run_dir, tally, metrics)


def finish(result: dict, run_dir: Path, tally: Tally, metrics: dict) -> dict:
    """Complete the result and write it to .perfbench/results/."""
    print(f"failed_frac {tally.failed}/{tally.attempted}")
    result.update({
        "metrics": metrics,
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    })
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run_dir.name}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fixhound" / "cli.py").is_file():
        print(f"error: {SRC / 'fixhound'} not found; run from the root of a fixhound checkout", file=sys.stderr)
        return 2
    env = bench_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace), env) for n in names}
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({n: {k: r[k] for k in keys} for n, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
