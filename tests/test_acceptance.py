"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion pins its tolerance in the assertion; the printed line makes
the verdicts scannable in captured output.
"""

import json
import time
from pathlib import Path

import numpy as np

import fixhound.inference as inf
from conftest import commit_files, init_repo, make_planted_commits, make_planted_file_change
from fixhound.change_builder import (
    EMBED_SUBTRACT_DUO,
    VARIANTS,
    build_example,
    build_examples,
    context_regions,
    region_old_lines,
)
from fixhound.cli import EXIT_OK, main
from fixhound.delta_model import (
    encode_examples,
    forward_model,
    init_model,
    loss_and_grads,
    predict_batch,
)
from fixhound.config import EncoderConfig, TrainConfig
from fixhound.evaluation import CommitPrediction, cost_effort
from fixhound.inference import predict_corpus
from fixhound.records import (
    CROSS_PROJECT,
    NVF,
    TEMPORAL,
    VF,
    CommitRecord,
    SplitSpec,
    split_dataset,
    write_commits_jsonl,
)
from fixhound.repo_miner import mine_repository
from fixhound.tokenizer import train_vocab
from fixhound.trainer import f1_at_half, load_checkpoint, save_checkpoint, train
from model_helpers import cast_model, equivalent_concat_model, padded_batch
from test_change_builder import make_fc
from test_evaluation import brute_force_cost_effort


def report(capfd, number, name, ok, detail=""):
    with capfd.disabled():
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"\nACCEPTANCE {number} [{name}]: {verdict}{suffix}")


GRAD_CFG = EncoderConfig(vocab_size=64, dim=16, layers=2, heads=2, max_len=32, ffn_mult=2)


def _random_batch(variant, rng, n=2):
    dual = VARIANTS[variant].fusion != "Sequence"
    ids_a = rng.integers(0, GRAD_CFG.vocab_size, size=(n, GRAD_CFG.max_len))
    lens_a = rng.integers(2, GRAD_CFG.max_len + 1, size=n)
    kw = {}
    if dual:
        kw["ids_b"] = rng.integers(0, GRAD_CFG.vocab_size, size=(n, GRAD_CFG.max_len))
        kw["lens_b"] = rng.integers(2, GRAD_CFG.max_len + 1, size=n)
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    return padded_batch(ids_a=ids_a, lens_a=lens_a, labels=labels, **kw)


def test_criterion_1_gradient_correctness(capfd):
    """Analytic vs central-FD gradients, every variant, 5 seeds, <= 1e-3."""
    t0 = time.monotonic()
    eps = 1e-4
    worst = 0.0
    for variant in VARIANTS:
        for seed in range(5):
            rng = np.random.default_rng(seed * 131 + 7)
            model = cast_model(init_model(variant, GRAD_CFG, seed=seed), np.float64)
            batch = _random_batch(variant, rng)
            _, grads, _ = loss_and_grads(model, batch)
            for name, arr in model.params.items():
                flat = arr.reshape(-1)
                for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + eps
                    lp, _, _ = loss_and_grads(model, batch)
                    flat[i] = orig - eps
                    lm, _, _ = loss_and_grads(model, batch)
                    flat[i] = orig
                    fd = (lp - lm) / (2 * eps)
                    analytic = grads[name].reshape(-1)[i]
                    worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 120
    report(capfd, 1, "gradient correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 120


def test_criterion_2_subtract_concat_identity(capfd):
    """equivalent_concat_model logits within 1e-6 of the source, 100 inputs, 5 seeds."""
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed + 500)
        sub = cast_model(init_model(EMBED_SUBTRACT_DUO, GRAD_CFG, seed=seed), np.float64)
        cat = equivalent_concat_model(sub)
        batch = _random_batch(EMBED_SUBTRACT_DUO, rng, n=100)
        _, cache_s = forward_model(sub, batch)
        _, cache_c = forward_model(cat, batch)
        worst = max(worst, float(np.abs(cache_s["logit"] - cache_c["logit"]).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60
    report(capfd, 2, "subtract/concat identity", ok, f"max |logit diff| {worst:.2e}")
    assert worst <= 1e-6
    assert elapsed < 60


def test_criterion_3_aggregation_exactness(capfd, monkeypatch):
    """Mean identity to 1 ulp, bitwise permutation invariance, strict threshold."""
    rng = np.random.default_rng(42)
    vocab = train_vocab(["alpha beta gamma"], 280)

    class FakeModel:
        variant = "RawGitDiff"
        config = EncoderConfig(vocab_size=vocab.size, dim=8, layers=1, heads=2, max_len=32)

    failures = 0
    for case in range(1000):
        n = int(rng.integers(1, 8))
        probs = rng.uniform(size=n).tolist()
        files = tuple(make_planted_file_change(rng, vf=False, path=f"f{i}.c") for i in range(n))
        commit = CommitRecord(repo_id="r", commit_hash=f"{case:040x}", timestamp=case, label=NVF, files=files)

        monkeypatch.setattr(inf, "predict_in_chunks", lambda m, batch, chunk, out=np.array(probs): out)
        pred = predict_corpus(build_examples([commit], 3), FakeModel(), vocab, 4)[0]
        expected = float(np.sum(np.array(probs, dtype=np.float64)) / n)
        if abs(pred.commit_prob - expected) > np.spacing(max(expected, 1e-300)):
            failures += 1
        if pred.predicted != (VF if pred.commit_prob > 0.5 else NVF):
            failures += 1
        # bitwise permutation invariance: shuffle files (probs follow paths)
        order = rng.permutation(n)
        by_path = dict(zip([f.path for f in files], probs))
        shuffled_files = tuple(files[i] for i in order)
        monkeypatch.setattr(
            inf, "predict_in_chunks", lambda m, batch, chunk, out=np.array([by_path[p] for p in sorted(by_path)]): out
        )
        shuffled = CommitRecord(
            repo_id="r", commit_hash=commit.commit_hash, timestamp=case, label=NVF, files=shuffled_files
        )
        pred2 = predict_corpus(build_examples([shuffled], 3), FakeModel(), vocab, 4)[0]
        if pred2.commit_prob != pred.commit_prob:
            failures += 1
    # explicit boundary case
    monkeypatch.setattr(inf, "predict_in_chunks", lambda m, batch, chunk: np.array([0.2, 0.8]))
    files = tuple(make_planted_file_change(rng, vf=False, path=f"g{i}.c") for i in range(2))
    boundary = predict_corpus(
        build_examples([CommitRecord(repo_id="r", commit_hash="b" * 40, timestamp=0, label=NVF, files=files)], 3),
        FakeModel(),
        vocab,
        4,
    )[0]
    if not (boundary.commit_prob == 0.5 and boundary.predicted == NVF):
        failures += 1
    ok = failures == 0
    report(capfd, 3, "aggregation exactness", ok, f"{failures} failures in 1001 cases")
    assert failures == 0


def test_criterion_4_cost_effort_oracle(capfd):
    """cost_effort matches the brute-force ranked-prefix oracle on 1000 instances."""
    rng = np.random.default_rng(7)
    mismatches = 0
    non_monotone = 0
    for trial in range(1000):
        n = int(rng.integers(1, 21))
        preds = []
        labels = {}
        any_vf = False
        for i in range(n):
            sha = f"{trial:030x}{i:010x}"
            vf = bool(rng.integers(0, 2)) or (i == n - 1 and not any_vf)
            any_vf = any_vf or vf
            p = CommitPrediction(
                repo_id=f"repo{int(rng.integers(0, 3))}",
                commit_hash=sha,
                file_probs=(("f.c", 0.0),),
                commit_prob=float(rng.integers(0, 101)) / 100,
                predicted=NVF,
                commit_loc=int(rng.integers(0, 60)),
            )
            preds.append(p)
            labels[(p.repo_id, p.commit_hash)] = VF if vf else NVF
        levels = [1, 5, 20, 50, 100]
        values = []
        for level in levels:
            got = cost_effort(preds, labels, level)
            want = brute_force_cost_effort(preds, labels, level)
            if got != want:
                mismatches += 1
            values.append(got)
        if values != sorted(values):
            non_monotone += 1
    ok = mismatches == 0 and non_monotone == 0
    report(capfd, 4, "CostEffort oracle equivalence", ok, f"{mismatches} mismatches, {non_monotone} non-monotone")
    assert mismatches == 0
    assert non_monotone == 0


def _planted_dataset(rng, n):
    examples = []
    for i in range(n):
        vf = i % 2 == 0
        fc = make_planted_file_change(rng, vf)
        examples.append(build_example(fc, 3, VF if vf else NVF, "planted", f"{i:040x}"))
    return examples


def test_criterion_5_planted_pattern_learnability(capfd):
    """EmbedSubtract_Duo: train F1 1.0 in <= 200 steps, held-out F1 >= 0.9, 3 seeds."""
    t0 = time.monotonic()
    results = []
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        train_examples = _planted_dataset(rng, 64)
        heldout_examples = _planted_dataset(rng, 32)
        corpus = [t for ex in train_examples for t in (ex.code_before, ex.code_after)]
        vocab = train_vocab(corpus, 300)
        cfg = EncoderConfig(vocab_size=vocab.size, dim=16, layers=1, heads=2, max_len=64, ffn_mult=2)
        train_batch = encode_examples(train_examples, EMBED_SUBTRACT_DUO, vocab, 64)
        heldout_batch = encode_examples(heldout_examples, EMBED_SUBTRACT_DUO, vocab, 64)
        tc = TrainConfig(learning_rate=3e-3, epochs=100, batch_size=32, seed=seed)
        result = train(EMBED_SUBTRACT_DUO, cfg, train_batch, heldout_batch, tc)  # 100 epochs x 2 steps = 200 steps
        train_f1 = f1_at_half(predict_batch(result.model, train_batch), train_batch.labels)
        heldout_f1 = f1_at_half(predict_batch(result.model, heldout_batch), heldout_batch.labels)
        results.append((seed, train_f1, heldout_f1))
    elapsed = time.monotonic() - t0
    ok = all(tf == 1.0 and hf >= 0.9 for _, tf, hf in results) and elapsed < 300
    detail = "; ".join(f"seed {s}: train {tf:.3f} heldout {hf:.3f}" for s, tf, hf in results)
    report(capfd, 5, "planted-pattern learnability", ok, f"{detail}; {elapsed:.1f}s")
    for seed, train_f1, heldout_f1 in results:
        assert train_f1 == 1.0, f"seed {seed} train F1 {train_f1}"
        assert heldout_f1 >= 0.9, f"seed {seed} held-out F1 {heldout_f1}"
    assert elapsed < 300


def test_criterion_6_ablation_harness(capfd, tmp_path):
    """cmd_ablate emits a six-row report and per-variant loss logs."""
    workdir = tmp_path / "out"
    workdir.mkdir()
    write_commits_jsonl(make_planted_commits(40, seed=0), workdir / "commits.jsonl")
    config = {
        "workdir": str(workdir),
        "k": 3,
        "max_len": 48,
        "vocab_size": 280,
        "encoder": {"dim": 8, "layers": 1, "heads": 2, "ffn_mult": 2},
        "train": {"learning_rate": 1e-3, "epochs": 1, "batch_size": 32},
        "split": {"strategy": "Temporal", "test_start": 1_000_000 + 30 * 60},
        "seed": 0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["--config", str(config_path), "ablate"])
    lines = (workdir / "ablation_report.csv").read_text().strip().splitlines()
    logs_ok = all((workdir / f"loss_log_{v}.csv").exists() for v in VARIANTS)
    curves_ok = all(
        (workdir / f"loss_log_{v}.csv").read_text().startswith("step,epoch,loss,split") for v in VARIANTS
    )
    ok = code == EXIT_OK and len(lines) == 7 and logs_ok and curves_ok
    report(capfd, 6, "ablation harness", ok, f"{len(lines) - 1} report rows")
    assert code == EXIT_OK
    assert len(lines) == 7  # header + six variants
    assert logs_ok and curves_ok


def test_criterion_7_determinism(capfd, tmp_path):
    """Byte-identical checkpoints and mining output; 0-ulp checkpoint round-trip."""
    rng = np.random.default_rng(0)
    examples = _planted_dataset(rng, 32)
    vocab = train_vocab([t for ex in examples for t in (ex.code_before, ex.code_after)], 280)
    cfg = EncoderConfig(vocab_size=vocab.size, dim=8, layers=1, heads=2, max_len=48, ffn_mult=2)
    batch = encode_examples(examples, EMBED_SUBTRACT_DUO, vocab, 48)
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=9)

    paths = []
    for tag in ("a", "b"):
        result = train(EMBED_SUBTRACT_DUO, cfg, batch, batch, tc)
        path = tmp_path / f"ckpt_{tag}.bin"
        save_checkpoint(result.model, vocab, path, {"k": 3})
        paths.append(path)
    ckpt_identical = paths[0].read_bytes() == paths[1].read_bytes()

    loaded, loaded_vocab, _ = load_checkpoint(paths[0])
    result_probs = predict_batch(loaded, batch)
    original, _, _ = load_checkpoint(paths[1])
    round_trip_ok = np.array_equal(result_probs, predict_batch(original, batch)) and loaded_vocab.merges == vocab.merges

    repo = init_repo(tmp_path / "repo")
    commit_files(repo, {"a.c": "one\ntwo\n"}, "c1", 1000)
    commit_files(repo, {"a.c": "one\nTWO\nthree\n"}, "c2", 2000)
    mine_a = list(mine_repository(repo))
    mine_b = list(mine_repository(repo))
    p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
    write_commits_jsonl(mine_a, p1)
    write_commits_jsonl(mine_b, p2)
    mine_identical = p1.read_bytes() == p2.read_bytes()

    ok = ckpt_identical and round_trip_ok and mine_identical
    report(
        capfd, 7, "determinism", ok,
        f"checkpoints identical={ckpt_identical}, round-trip exact={round_trip_ok}, mining identical={mine_identical}",
    )
    assert ckpt_identical
    assert round_trip_ok
    assert mine_identical


def test_criterion_8_context_golden_and_monotone(capfd):
    """Golden k=3/k=0 cuts plus the monotone-subsequence property over the sweep ks."""
    data = Path(__file__).parent / "data"
    old = [f"L{i}" for i in range(1, 11)]
    new = list(old)
    new[4] = "L5x"
    fc = make_fc(old, new)
    ex3 = build_example(fc, 3, NVF)
    ex0 = build_example(fc, 0, NVF)
    golden_ok = (
        ex3.code_before == (data / "golden_before_k3.txt").read_text()
        and ex3.code_after == (data / "golden_after_k3.txt").read_text()
        and ex0.code_before == (data / "golden_before_k0.txt").read_text()
        and ex0.code_after == (data / "golden_after_k0.txt").read_text()
    )

    def content_lines(fc, k):
        return [line for r in context_regions(fc, k) for line in region_old_lines(r, fc)]

    def is_subsequence(small, big):
        it = iter(big)
        return all(any(x == y for y in it) for x in small)

    rng = np.random.default_rng(3)
    violations = 0
    ks = [0, 1, 3, 5, 7, 9]
    for _ in range(200):
        n_old = int(rng.integers(1, 26))
        n_new = int(rng.integers(1, 26))
        alphabet = ["p", "q", "r", "s"]
        f_old = [alphabet[i] for i in rng.integers(0, 4, size=n_old)]
        f_new = [alphabet[i] for i in rng.integers(0, 4, size=n_new)]
        fz = make_fc(f_old, f_new)
        if not fz.hunks:
            continue
        for k1, k2 in zip(ks, ks[1:]):
            if not is_subsequence(content_lines(fz, k1), content_lines(fz, k2)):
                violations += 1
    ok = golden_ok and violations == 0
    report(capfd, 8, "context golden + monotonicity", ok, f"golden={golden_ok}, {violations} violations")
    assert golden_ok
    assert violations == 0


def test_criterion_9_split_invariants(capfd):
    """CrossProject repo-disjointness and Temporal ordering on randomized sets."""
    rng = np.random.default_rng(11)
    base = make_planted_commits(1, seed=0)[0]
    violations = 0
    for trial in range(200):
        n = int(rng.integers(1, 40))
        repos = [f"repo{int(rng.integers(0, 6))}" for _ in range(n)]
        records = [
            CommitRecord(
                repo_id=repos[i],
                commit_hash=f"{trial:030x}{i:010x}",
                timestamp=int(rng.integers(0, 50)),
                label=VF if rng.integers(0, 2) else NVF,
                files=base.files,
            )
            for i in range(n)
        ]
        # CrossProject: assign every repo to exactly one partition
        all_repos = sorted(set(repos))
        cut1, cut2 = len(all_repos) * 2 // 3, len(all_repos) * 5 // 6
        spec = SplitSpec(
            strategy=CROSS_PROJECT,
            train_repos=tuple(all_repos[:cut1]),
            val_repos=tuple(all_repos[cut1:cut2]),
            test_repos=tuple(all_repos[cut2:]),
        )
        parts = split_dataset(records, spec)
        seen = [
            {r.repo_id for r in parts["train"]},
            {r.repo_id for r in parts["val"]},
            {r.repo_id for r in parts["test"]},
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                if seen[a] & seen[b]:
                    violations += 1
        if sum(len(p) for p in parts.values()) != n:
            violations += 1

        # Temporal: strict train/val boundary and the test range cut
        test_start = int(rng.integers(0, 60))
        tparts = split_dataset(records, SplitSpec(strategy=TEMPORAL, test_start=test_start))
        if tparts["train"] and tparts["val"]:
            if max(r.timestamp for r in tparts["train"]) >= min(r.timestamp for r in tparts["val"]):
                violations += 1
        if any(r.timestamp >= test_start for r in tparts["train"] + tparts["val"]):
            violations += 1
        if any(r.timestamp < test_start for r in tparts["test"]):
            violations += 1
        pre_vf = [r for r in records if r.timestamp < test_start and r.label == VF]
        train_vf = sum(1 for r in tparts["train"] if r.label == VF)
        if pre_vf and train_vf < int(len(pre_vf) * 0.9):
            violations += 1
    ok = violations == 0
    report(capfd, 9, "split invariants", ok, f"{violations} violations in 200 trials")
    assert violations == 0
