"""Microbenchmark of the encoder kernels against the test oracle they replaced.

Run from the repository root (pytest does not collect this file):

    python tests/encoder_microbench.py [--repeats N]

It times `encoder.forward_batch`/`backward_batch` and the oracle's
(`tests/encoder_oracle.py`) at the benchmark's model shape (vocab 512,
dim 32, 1 layer, 2 heads, ffn_mult 2, max_len 512) on full-width batches
of B=4 and B=32 rows of T=512 tokens, in float32 with one BLAS thread.
Each repeat runs both sides, alternating which goes first. It also times
the forward attention core (scores, softmax, context) untiled and tiled
over query blocks, the one kernel change left out unless it pays.

It prints one JSON object: per batch size, the median and quartiles in
milliseconds of every timing, the oracle/new ratio of the medians, whether
the pooled outputs are bit-identical and the largest gradient difference
relative to the largest gradient entry, the backward's peak allocation
(`tracemalloc`) next to the size of one (B, heads, T, T) scores tensor,
reported without a gate; plus the machine facts (nproc, usable CPUs,
BLAS, numpy and Python versions, BLAS thread cap, commit). It exits 1
when a batch's pooled outputs differ from the oracle's or its gradients
differ by more than GRAD_TOLERANCE, so CI can run it with `--repeats 1`
as a check.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so cap it before the imports below.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import encoder_oracle  # noqa: E402
from fixhound import encoder  # noqa: E402
from fixhound.config import EncoderConfig  # noqa: E402
from model_helpers import init_params  # noqa: E402

CONFIG = EncoderConfig(vocab_size=512, dim=32, layers=1, heads=2, max_len=512, ffn_mult=2)
BATCH_SIZES = (4, 32)
QUERY_BLOCKS = (64, 128)
GRAD_TOLERANCE = 1e-6  # largest gradient difference, relative to the largest gradient entry


def _stats(samples: list[float]) -> dict:
    q1, med, q3 = np.percentile(np.array(samples) * 1e3, [25, 50, 75])
    return {"median_ms": round(float(med), 3), "q1_ms": round(float(q1), 3), "q3_ms": round(float(q3), 3), "n": len(samples)}


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _attention_core(q, k, v, scale, block: int):
    """The forward softmax-attention core, `block` queries at a time (block=T: untiled)."""
    b, h, t, dh = q.shape
    attn = np.empty((b, h, t, t), dtype=q.dtype)
    ctx = np.empty((b, h, t, dh), dtype=q.dtype)
    kt = k.transpose(0, 1, 3, 2)
    for lo in range(0, t, block):
        a = attn[:, :, lo : lo + block]
        np.matmul(q[:, :, lo : lo + block], kt, out=a)
        a /= scale
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        np.matmul(a, v, out=ctx[:, :, lo : lo + block])
    return ctx


def bench_batch(batch: int, repeats: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    params = init_params(CONFIG, seed=seed)
    ids = rng.integers(0, CONFIG.vocab_size, size=(batch, CONFIG.max_len))
    lens = np.full(batch, CONFIG.max_len)
    d_pooled = rng.normal(size=(batch, CONFIG.dim)).astype(np.float32)

    pooled, cache = encoder.forward_batch(params, CONFIG, ids, lens)
    ref_pooled, ref_cache = encoder_oracle.forward_batch(params, CONFIG, ids, lens)
    grads = encoder.backward_batch(params, CONFIG, cache, d_pooled)
    ref_grads = encoder_oracle.backward_batch(params, CONFIG, ref_cache, d_pooled)
    scale = max(float(np.abs(g).max()) for g in ref_grads.values())
    grad_diff = max(float(np.abs(grads[n] - ref_grads[n]).max()) for n in grads) / scale

    tracemalloc.start()
    encoder.backward_batch(params, CONFIG, cache, d_pooled)
    backward_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    scores_bytes = batch * CONFIG.heads * CONFIG.max_len**2 * np.dtype(np.float32).itemsize

    sides = {"oracle": encoder_oracle, "new": encoder}
    samples = {f"{kind}_{side}": [] for kind in ("forward", "backward") for side in sides}
    for r in range(repeats):
        for side in sorted(sides, reverse=bool(r % 2)):
            mod = sides[side]
            samples[f"forward_{side}"].append(_time(lambda: mod.forward_batch(params, CONFIG, ids, lens)))
            side_cache = cache if mod is encoder else ref_cache
            samples[f"backward_{side}"].append(_time(lambda: mod.backward_batch(params, CONFIG, side_cache, d_pooled)))

    layer = cache["layers"][0]
    q, k, v = layer["q"], layer["k"], layer["v"]
    att_scale = np.sqrt(np.float32(CONFIG.dim // CONFIG.heads))
    blocks = (CONFIG.max_len, *QUERY_BLOCKS)
    core = {blk: [] for blk in blocks}
    for r in range(repeats):
        for blk in (blocks if r % 2 == 0 else blocks[::-1]):
            core[blk].append(_time(lambda: _attention_core(q, k, v, att_scale, blk)))

    out = {name: _stats(s) for name, s in samples.items()}
    out["forward_speedup"] = round(out["forward_oracle"]["median_ms"] / out["forward_new"]["median_ms"], 3)
    out["backward_speedup"] = round(out["backward_oracle"]["median_ms"] / out["backward_new"]["median_ms"], 3)
    out["pooled_bit_identical"] = bool(np.array_equal(pooled, ref_pooled))
    out["grad_max_rel_diff"] = grad_diff
    out["backward_peak_alloc_mb"] = round(backward_peak / 2**20, 3)
    out["scores_tensor_mb"] = round(scores_bytes / 2**20, 3)
    out["attention_core"] = {("untiled" if blk == CONFIG.max_len else f"query_block_{blk}"): _stats(s) for blk, s in core.items()}
    return out


def machine_facts() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=TESTS.parent, capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: v for k, v in deps.get("blas", {}).items() if "directory" not in k},
        "blas_thread_cap": BLAS_THREADS,
        "commit": head.stdout.strip() if head.returncode == 0 else "unknown",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed runs per side and batch size")
    args = parser.parse_args(argv)
    result = {
        "config": dataclasses.asdict(CONFIG),
        "dtype": "float32",
        "repeats": args.repeats,
        "batches": {str(b): bench_batch(b, args.repeats) for b in BATCH_SIZES},
        "machine": machine_facts(),
    }
    print(json.dumps(result, indent=2))
    failed = [
        b for b, r in result["batches"].items() if not r["pooled_bit_identical"] or r["grad_max_rel_diff"] > GRAD_TOLERANCE
    ]
    if failed:
        print(f"error: B={','.join(failed)}: outputs differ from the oracle beyond GRAD_TOLERANCE", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
