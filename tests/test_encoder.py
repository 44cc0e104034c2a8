import tracemalloc

import numpy as np
import pytest

import encoder_oracle
from fixhound import encoder
from fixhound.config import EncoderConfig
from fixhound.encoder import (
    LN_EPS,
    backward_batch,
    cast_params,
    forward_batch,
    init_params,
    param_shapes,
)
from gradcheck import fd_mismatches

CFG = EncoderConfig(vocab_size=11, dim=16, layers=2, heads=2, max_len=12)


def reference_forward(params, config, ids_row, attn_len):
    """Independent per-position oracle: plain loops, no batching, float64."""
    d = config.dim
    nh = config.heads
    dh = d // nh
    T = config.max_len

    def ln(vec, g, b):
        mu = sum(vec) / d
        var = sum((x - mu) ** 2 for x in vec) / d
        return [g[j] * (vec[j] - mu) / np.sqrt(var + LN_EPS) + b[j] for j in range(d)]

    x = [[float(params["tok_emb"][ids_row[t], j]) + float(params["pos_emb"][t, j]) for j in range(d)] for t in range(T)]
    for layer in range(config.layers):
        p = f"layer{layer}."
        h = [ln(x[t], params[p + "ln1.g"], params[p + "ln1.b"]) for t in range(T)]

        def proj(w, b):
            return [[sum(h[t][i] * float(params[p + "attn." + w][i, j]) for i in range(d)) + float(params[p + "attn." + b][j]) for j in range(d)] for t in range(T)]

        q, k, v = proj("wq", "bq"), proj("wk", "bk"), proj("wv", "bv")
        ctx = [[0.0] * d for _ in range(T)]
        for head in range(nh):
            sl = slice(head * dh, (head + 1) * dh)
            for t in range(T):
                scores = []
                for s in range(attn_len):
                    dot = sum(q[t][sl][i] * k[s][sl][i] for i in range(dh))
                    scores.append(dot / np.sqrt(dh))
                m = max(scores)
                ex = [np.exp(sc - m) for sc in scores]
                z = sum(ex)
                weights = [e / z for e in ex]
                for i in range(dh):
                    ctx[t][head * dh + i] = sum(weights[s] * v[s][sl][i] for s in range(attn_len))
        out = [[sum(ctx[t][i] * float(params[p + "attn.wo"][i, j]) for i in range(d)) + float(params[p + "attn.bo"][j]) for j in range(d)] for t in range(T)]
        x = [[x[t][j] + out[t][j] for j in range(d)] for t in range(T)]

        h2 = [ln(x[t], params[p + "ln2.g"], params[p + "ln2.b"]) for t in range(T)]
        hidden = config.ffn_hidden
        u = [[np.tanh(sum(h2[t][i] * float(params[p + "ffn.w1"][i, j]) for i in range(d)) + float(params[p + "ffn.b1"][j])) for j in range(hidden)] for t in range(T)]
        f = [[sum(u[t][i] * float(params[p + "ffn.w2"][i, j]) for i in range(hidden)) + float(params[p + "ffn.b2"][j]) for j in range(d)] for t in range(T)]
        x = [[x[t][j] + f[t][j] for j in range(d)] for t in range(T)]

    y = [ln(x[t], params["ln_f.g"], params["ln_f.b"]) for t in range(T)]
    return np.array([sum(y[t][j] for t in range(attn_len)) / attn_len for j in range(config.dim)])


class TestForward:
    def test_matches_independent_reimplementation(self):
        params = init_params(CFG, seed=0, dtype=np.float64)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, CFG.vocab_size, size=(1, CFG.max_len))
        attn_len = 9
        pooled = forward_batch(params, CFG, ids, np.array([attn_len]))[0]
        ref = reference_forward(params, CFG, ids[0], attn_len)
        assert np.abs(pooled[0] - ref).max() / max(np.abs(ref).max(), 1e-12) < 1e-6

    def test_zero_layer_constant_input_closed_form(self):
        cfg = EncoderConfig(vocab_size=4, dim=8, layers=0, heads=2, max_len=6)
        params = init_params(cfg, seed=0, dtype=np.float64)
        v = np.arange(8, dtype=np.float64)
        params["tok_emb"][:] = v  # every token embeds to the same vector
        params["pos_emb"][:] = 0.0
        ids = np.ones((1, 6), dtype=np.int64)
        pooled = forward_batch(params, cfg, ids, np.array([4]))[0]
        # pooled = layer_norm(v) with unit gain, zero bias
        mu = v.mean()
        expected = (v - mu) / np.sqrt(v.var() + LN_EPS)
        assert np.abs(pooled[0] - expected).max() < 1e-12

    def test_pad_invariance(self):
        params = init_params(CFG, seed=1, dtype=np.float64)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, CFG.vocab_size, size=(1, CFG.max_len))
        attn_len = 7
        base = forward_batch(params, CFG, ids, np.array([attn_len]))[0]
        for pad_id in range(CFG.vocab_size):
            alt = ids.copy()
            alt[0, attn_len:] = pad_id
            out = forward_batch(params, CFG, alt, np.array([attn_len]))[0]
            assert np.array_equal(out, base)

    def test_pad_invariance_zero_layers(self):
        cfg = EncoderConfig(vocab_size=7, dim=8, layers=0, heads=1, max_len=10)
        params = init_params(cfg, seed=2, dtype=np.float64)
        ids = np.arange(10, dtype=np.int64)[None, :] % 7
        base = forward_batch(params, cfg, ids, np.array([4]))[0]
        alt = ids.copy()
        alt[0, 4:] = 6
        assert np.array_equal(forward_batch(params, cfg, alt, np.array([4]))[0], base)

    def test_out_of_range_id_rejected(self):
        params = init_params(CFG, seed=0)
        ids = np.full((1, CFG.max_len), CFG.vocab_size, dtype=np.int64)
        with pytest.raises(ValueError):
            forward_batch(params, CFG, ids, np.array([3]))

    @pytest.mark.parametrize("attn_lens", [[3, 0], [3, CFG.max_len + 1], [3]])
    def test_bad_attn_lens_rejected(self, attn_lens):
        # 0 gave an all-NaN embedding, > max_len a mis-scaled mean
        params = init_params(CFG, seed=0)
        ids = np.zeros((2, CFG.max_len), dtype=np.int64)
        with pytest.raises(ValueError, match="attn_lens"):
            forward_batch(params, CFG, ids, np.array(attn_lens))

    def test_out_of_range_id_past_longest_row_rejected(self):
        params = init_params(CFG, seed=0)
        ids = np.zeros((1, CFG.max_len), dtype=np.int64)
        ids[0, -1] = CFG.vocab_size  # in a PAD column the encoder never reads
        with pytest.raises(ValueError, match="vocabulary"):
            forward_batch(params, CFG, ids, np.array([3]))

    def test_deterministic(self):
        params = init_params(CFG, seed=4)
        ids = np.zeros((2, CFG.max_len), dtype=np.int64)
        lens = np.array([5, 12])
        a = forward_batch(params, CFG, ids, lens)[0]
        b = forward_batch(params, CFG, ids, lens)[0]
        assert np.array_equal(a, b)


class TestBackward:
    def _setup(self, seed=0):
        params = init_params(CFG, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed + 100)
        ids = rng.integers(0, CFG.vocab_size, size=(2, CFG.max_len))
        lens = np.array([8, CFG.max_len])
        return params, ids, lens, rng

    def test_zero_upstream_gives_zero_grads(self):
        params, ids, lens, _ = self._setup()
        _, cache = forward_batch(params, CFG, ids, lens)
        grads = backward_batch(params, CFG, cache, np.zeros((2, CFG.dim)))
        for name, g in grads.items():
            assert not np.any(g), name

    def test_unused_pad_positional_rows_have_zero_grad(self):
        params, ids, lens, rng = self._setup(1)
        lens = np.array([6, 6])
        _, cache = forward_batch(params, CFG, ids, lens)
        grads = backward_batch(params, CFG, cache, rng.normal(size=(2, CFG.dim)))
        assert not np.any(grads["pos_emb"][6:])
        assert np.any(grads["pos_emb"][:6])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_finite_differences(self, seed):
        params, ids, lens, rng = self._setup(seed)
        _, cache = forward_batch(params, CFG, ids, lens)
        d_pooled = rng.normal(size=(2, CFG.dim))
        grads = backward_batch(params, CFG, cache, d_pooled)

        def objective():
            out, _ = forward_batch(params, CFG, ids, lens)
            return float((out * d_pooled).sum())

        assert fd_mismatches(objective, params, grads, rng, per_tensor=5) == []


class TestTrimEquivalence:
    """The batch is cut to its longest real row; a max_len-wide batch is the
    padded path it replaces. Rows must encode (and back-propagate) the same
    whether they run at their own width or padded to max_len."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_trimmed_matches_padded(self, dtype, tol):
        params = init_params(CFG, seed=3, dtype=dtype)
        rng = np.random.default_rng(11)
        lens = np.array([2, 7, 4, 9, 5])
        ids = rng.integers(1, CFG.vocab_size, size=(len(lens), CFG.max_len))
        ids[np.arange(CFG.max_len)[None, :] >= lens[:, None]] = 0
        d_pooled = rng.normal(size=(len(lens), CFG.dim)).astype(dtype)

        alone_pooled = []
        alone_grads = {name: np.zeros_like(v) for name, v in params.items()}
        for i, n in enumerate(lens):
            pooled, cache = forward_batch(params, CFG, ids[i : i + 1], lens[i : i + 1])
            assert cache["lnf"][0].shape[1] == n
            alone_pooled.append(pooled[0])
            for name, g in backward_batch(params, CFG, cache, d_pooled[i : i + 1]).items():
                alone_grads[name] += g

        long_row = rng.integers(1, CFG.vocab_size, size=(1, CFG.max_len))
        padded_ids = np.concatenate([ids, long_row])
        padded_lens = np.append(lens, CFG.max_len)
        pooled, cache = forward_batch(params, CFG, padded_ids, padded_lens)
        assert cache["lnf"][0].shape[1] == CFG.max_len
        padded_grads = backward_batch(params, CFG, cache, np.vstack([d_pooled, np.zeros((1, CFG.dim), dtype)]))

        alone_pooled = np.array(alone_pooled)
        assert np.abs(pooled[:-1] - alone_pooled).max() <= tol * np.abs(alone_pooled).max()
        scale = max(np.abs(g).max() for g in padded_grads.values())
        for name, g in padded_grads.items():
            assert np.abs(g - alone_grads[name]).max() <= tol * scale, name

    def test_cache_width_is_longest_real_row(self):
        params = init_params(CFG, seed=0)
        ids = np.zeros((3, CFG.max_len), dtype=np.int64)
        _, cache = forward_batch(params, CFG, ids, np.array([3, 6, 2]))
        assert cache["ids"].shape == (3, 6)
        assert cache["lnf"][0].shape[:2] == (3, 6)
        for layer in cache["layers"]:
            assert layer["attn"].shape[-2:] == (6, 6)


class TestOracleEquivalence:
    """The in-place softmax, GEMM weight gradients and sorted embedding
    scatter against the kernels they replaced (tests/encoder_oracle.py):
    the forward pass does the same arithmetic in the same order, so pooled
    outputs are bit-identical; the backward pass sums in another order."""

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("layers", [0, 2])
    @pytest.mark.parametrize("lens", [[12, 12, 12], [2, 7, 12, 4], [5, 9, 3], [6]], ids=["full", "mixed", "cut", "single"])
    def test_matches_oracle(self, dtype, tol, layers, lens):
        cfg = EncoderConfig(vocab_size=11, dim=16, layers=layers, heads=2, max_len=12)
        params = init_params(cfg, seed=5, dtype=dtype)
        rng = np.random.default_rng(len(lens) + layers)
        lens = np.array(lens)
        # few distinct ids, so the embedding scatter sums many rows per id
        ids = rng.integers(1, 4, size=(len(lens), cfg.max_len))
        ids[np.arange(cfg.max_len)[None, :] >= lens[:, None]] = 0
        d_pooled = rng.normal(size=(len(lens), cfg.dim)).astype(dtype)

        pooled, cache = forward_batch(params, cfg, ids, lens)
        ref_pooled, ref_cache = encoder_oracle.forward_batch(params, cfg, ids, lens)
        assert pooled.dtype == ref_pooled.dtype == dtype
        assert np.array_equal(pooled, ref_pooled)
        for layer, ref_layer in zip(cache["layers"], ref_cache["layers"]):
            assert np.array_equal(layer["attn"], ref_layer["attn"])

        grads = backward_batch(params, cfg, cache, d_pooled)
        ref_grads = encoder_oracle.backward_batch(params, cfg, ref_cache, d_pooled)
        assert grads.keys() == ref_grads.keys()
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, g in grads.items():
            assert g.dtype == dtype, name
            assert np.abs(g - ref_grads[name]).max() <= tol * scale, name


class TestRowwiseAttentionBackward:
    """The attention backward runs one batch row at a time; the whole-batch
    version it replaced (tests/encoder_oracle.py) does the same BLAS calls
    and elementwise steps in the same order, so every gradient is
    bit-identical, while the backward's peak allocation drops below one
    (B, heads, T, T) scores tensor."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layers", [0, 2])
    @pytest.mark.parametrize("lens", [[9], [2, 12, 5], [12, 3, 7, 1, 10]], ids=["B1", "B3", "B5"])
    def test_bit_identical_to_whole_batch(self, monkeypatch, dtype, layers, lens):
        cfg = EncoderConfig(vocab_size=11, dim=16, layers=layers, heads=2, max_len=12)
        params = init_params(cfg, seed=6, dtype=dtype)
        rng = np.random.default_rng(len(lens) + layers)
        lens = np.array(lens)
        ids = rng.integers(1, cfg.vocab_size, size=(len(lens), cfg.max_len))
        ids[np.arange(cfg.max_len)[None, :] >= lens[:, None]] = 0
        d_pooled = rng.normal(size=(len(lens), cfg.dim)).astype(dtype)

        _, cache = forward_batch(params, cfg, ids, lens)
        grads = backward_batch(params, cfg, cache, d_pooled)
        monkeypatch.setattr(encoder, "_attention_backward", encoder_oracle.attention_backward_whole_batch)
        ref_grads = backward_batch(params, cfg, cache, d_pooled)
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == dtype, name
            assert np.array_equal(g, ref_grads[name]), name

    def test_peak_allocation_below_half_a_scores_tensor(self):
        # dim small next to T, so the (B, heads, T, T) tensor dominates the (B, T, dim) activations
        B, T = 8, 512
        cfg = EncoderConfig(vocab_size=11, dim=8, layers=1, heads=2, max_len=T)
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, cfg.vocab_size, size=(B, T))
        _, cache = forward_batch(params, cfg, ids, np.full(B, T))
        d_pooled = rng.normal(size=(B, cfg.dim)).astype(np.float32)
        scores_bytes = B * cfg.heads * T * T * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            backward_batch(params, cfg, cache, d_pooled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scores_bytes / 2, f"backward peaked at {peak / scores_bytes:.2f} of one scores tensor"


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(CFG, seed=7)
        b = init_params(CFG, seed=7)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = init_params(CFG, seed=7)
        b = init_params(CFG, seed=8)
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_layer_norm_init_values(self):
        params = init_params(CFG, seed=0)
        for name, arr in params.items():
            if name.endswith(".g"):
                assert np.all(arr == 1.0), name
            if name.endswith((".b",)) and "ln" in name:
                assert np.all(arr == 0.0), name

    def test_shapes_match_config(self):
        params = init_params(CFG, seed=0)
        for name, shape in param_shapes(CFG).items():
            assert params[name].shape == shape

    def test_cast_round_trip_dtype(self):
        params = init_params(CFG, seed=0)
        p64 = cast_params(params, np.float64)
        assert all(v.dtype == np.float64 for v in p64.values())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, dim=10, layers=1, heads=3, max_len=8)
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, dim=8, layers=-1, heads=2, max_len=8)
