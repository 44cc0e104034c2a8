"""Small trainable text encoder with exact analytic gradients.

Token + learned positional embeddings feed a stack of pre-norm
self-attention/feed-forward blocks; PAD positions are masked out of
attention and the final layer-normed states are mean-pooled over the
non-PAD positions. Everything is plain numpy so the backward pass can be
checked against finite differences in 64-bit arithmetic.

Inputs arrive PAD-filled to ``max_len``, but a batch is cut to its longest
real sequence before embedding, so encoder cost scales with
``max(attn_lens)`` per batch and ``max_len`` is only the cap (and the size
of the positional table). The cut is exact: PAD keys are masked and PAD
queries are never pooled, so the dropped columns move no output or
gradient.
"""

from __future__ import annotations

import numpy as np

from .config import EncoderConfig

LN_EPS = 1e-5
INIT_STD = 0.02

Params = dict[str, np.ndarray]


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    d, h = config.dim, config.ffn_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_len, d),
        "ln_f.g": (d,),
        "ln_f.b": (d,),
    }
    for i in range(config.layers):
        p = f"layer{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + w] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[p + "attn." + b] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "ffn.w1"] = (d, h)
        shapes[p + "ffn.b1"] = (h,)
        shapes[p + "ffn.w2"] = (h, d)
        shapes[p + "ffn.b2"] = (d,)
    return shapes


def init_params(config: EncoderConfig, seed: int, dtype=np.float32) -> Params:
    """Scaled-normal weights (std 0.02), layer-norm gain 1 / bias 0."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".g"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith((".b", ".b1", ".b2", "bq", "bk", "bv", "bo")):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
    return params


def cast_params(params: Params, dtype) -> Params:
    return {k: v.astype(dtype) for k, v in params.items()}


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    return g * xhat + b, (xhat, inv_std)

def _layer_norm_backward(dy: np.ndarray, g: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv_std = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _weight_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over batch and time of outer(a, b): einsum("btd,bte->de") as one GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def _attention_backward(attn, q, k, v, dctx, scale):
    """Gradients (dq, dk, dv), each (B, heads, T, dh), of ctx = softmax(q kᵀ / scale) @ v.

    The softmax backward runs one batch row at a time, in place on that
    row's (heads, T, T) scores: dscores = attn * (dattn - rowsum(dattn * attn)) / scale.
    numpy runs one BLAS call per 2-D slice either way, so the per-row loop
    does the same arithmetic in the same order as the whole-batch product,
    while its largest temporary is one row's scores instead of the batch's.
    """
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dq, dk = np.empty_like(dv), np.empty_like(dv)
    for b in range(len(attn)):
        dscores = dctx[b] @ v[b].transpose(0, 2, 1)
        dscores -= np.einsum("hij,hij->hi", dscores, attn[b])[..., None]
        dscores *= attn[b]
        dscores /= scale
        np.matmul(dscores, k[b], out=dq[b])
        np.matmul(dscores.transpose(0, 2, 1), q[b], out=dk[b])
        del dscores  # free this row's scores before the next row's are made
    return dq, dk, dv


def forward_batch(params: Params, config: EncoderConfig, ids: np.ndarray, attn_lens: np.ndarray):
    """Pooled embeddings for a batch; returns (pooled (B,d), cache).

    ids is (B, max_len) int; attn_lens (B,) counts of non-PAD positions,
    each in [1, max_len]. Only the first max(attn_lens) columns are
    encoded; the cache holds that width.
    """
    if ids.shape[1] != config.max_len:
        raise ValueError("sequence length does not match config max_len")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if attn_lens.shape != ids.shape[:1] or attn_lens.min() < 1 or attn_lens.max() > ids.shape[1]:
        raise ValueError("attn_lens must have shape (B,) with entries in [1, max_len]")
    dtype = params["tok_emb"].dtype
    T = int(attn_lens.max())
    ids = ids[:, :T]
    key_mask = np.arange(T)[None, :] < attn_lens[:, None]  # (B,T)
    # adding 0 or -inf masks exactly; a batch of full rows needs no mask
    key_bias = None if attn_lens.min() == T else np.where(key_mask, 0.0, -np.inf).astype(dtype)[:, None, None, :]
    scale = np.sqrt(np.asarray(config.dim // config.heads, dtype=dtype))

    x = params["tok_emb"][ids] + params["pos_emb"][None, :T, :]
    layer_caches = []
    for i in range(config.layers):
        p = f"layer{i}."
        h1, ln1_cache = _layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        q = _split_heads(h1 @ params[p + "attn.wq"] + params[p + "attn.bq"], config.heads)
        k = _split_heads(h1 @ params[p + "attn.wk"] + params[p + "attn.bk"], config.heads)
        v = _split_heads(h1 @ params[p + "attn.wv"] + params[p + "attn.bv"], config.heads)
        # softmax in place on one (B, heads, T, T) buffer, which becomes attn
        attn = q @ k.transpose(0, 1, 3, 2)
        attn /= scale
        if key_bias is not None:
            attn += key_bias
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn @ v)
        attn_out = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        x = x + attn_out

        h2, ln2_cache = _layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        u = np.tanh(h2 @ params[p + "ffn.w1"] + params[p + "ffn.b1"])
        ffn_out = u @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        x = x + ffn_out
        # only what backward_batch reads: the residual stream x is not kept
        layer_caches.append(
            {"h1": h1, "ln1": ln1_cache, "q": q, "k": k, "v": v,
             "attn": attn, "ctx": ctx, "h2": h2, "ln2": ln2_cache, "u": u}
        )

    y, lnf_cache = _layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    pool_mask = key_mask.astype(dtype)
    pooled = (y * pool_mask[:, :, None]).sum(axis=1) / attn_lens[:, None].astype(dtype)
    cache = {
        "ids": ids, "attn_lens": attn_lens, "key_mask": key_mask,
        "layers": layer_caches, "lnf": lnf_cache, "dtype": dtype,
    }
    return pooled, cache


def backward_batch(params: Params, config: EncoderConfig, cache, d_pooled: np.ndarray) -> Params:
    """Exact reverse-mode gradients for every encoder parameter."""
    dtype = cache["dtype"]
    ids = cache["ids"]
    attn_lens = cache["attn_lens"]
    key_mask = cache["key_mask"]
    T = ids.shape[1]
    grads: Params = {name: np.zeros_like(params[name]) for name in params}
    scale = np.sqrt(np.asarray(config.dim // config.heads, dtype=dtype))

    pool_mask = key_mask.astype(dtype)
    dy = (d_pooled[:, None, :] / attn_lens[:, None, None].astype(dtype)) * pool_mask[:, :, None]
    dx, dg, db = _layer_norm_backward(dy, params["ln_f.g"], cache["lnf"])
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    for i in reversed(range(config.layers)):
        p = f"layer{i}."
        c = cache["layers"][i]
        # FFN block: x = x_mid + tanh(ln2(x_mid) W1 + b1) W2 + b2
        d_ffn_out = dx
        du = d_ffn_out @ params[p + "ffn.w2"].T
        grads[p + "ffn.w2"] += _weight_grad(c["u"], d_ffn_out)
        grads[p + "ffn.b2"] += d_ffn_out.sum(axis=(0, 1))
        dpre = du * (1.0 - c["u"] ** 2)
        grads[p + "ffn.w1"] += _weight_grad(c["h2"], dpre)
        grads[p + "ffn.b1"] += dpre.sum(axis=(0, 1))
        dh2 = dpre @ params[p + "ffn.w1"].T
        dx_mid, dg2, db2 = _layer_norm_backward(dh2, params[p + "ln2.g"], c["ln2"])
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        dx = dx + dx_mid  # residual

        # Attention block: x_mid = x_in + (merge(attn @ v)) Wo + bo
        d_attn_out = dx
        grads[p + "attn.wo"] += _weight_grad(c["ctx"], d_attn_out)
        grads[p + "attn.bo"] += d_attn_out.sum(axis=(0, 1))
        dctx = _split_heads(d_attn_out @ params[p + "attn.wo"].T, config.heads)
        dq, dk, dv = _attention_backward(c["attn"], c["q"], c["k"], c["v"], dctx, scale)
        dq, dk, dv = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        dh1 = np.zeros_like(c["h1"])
        for w, b, dmat in (("wq", "bq", dq), ("wk", "bk", dk), ("wv", "bv", dv)):
            grads[p + "attn." + w] += _weight_grad(c["h1"], dmat)
            grads[p + "attn." + b] += dmat.sum(axis=(0, 1))
            dh1 += dmat @ params[p + "attn." + w].T
        dx_in, dg1, db1 = _layer_norm_backward(dh1, params[p + "ln1.g"], c["ln1"])
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        dx = dx + dx_in  # residual

    # token-embedding scatter: stable sort by id, then one summed row per distinct id
    order = np.argsort(ids, axis=None, kind="stable")
    sorted_ids = ids.reshape(-1)[order]
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    grads["tok_emb"][sorted_ids[starts]] += np.add.reduceat(dx.reshape(-1, dx.shape[-1])[order], starts, axis=0)
    grads["pos_emb"][:T] += dx.sum(axis=0)
    return grads

