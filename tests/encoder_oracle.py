"""The encoder kernels that `encoder.forward_batch`/`backward_batch` replaced, kept as test oracles.

The forward pass masks scores with `np.where` and builds the softmax in
fresh temporaries; the backward pass forms `dscores` out of place, takes
each weight gradient with `np.einsum("btd,bte->de")` and scatters the
token-embedding gradient with `np.add.at`. Layer norm, head split/merge,
the parameter layout and the cache layout are the production ones, so a
difference can only come from the rewritten kernels.

`attention_backward_whole_batch` is the attention backward that
`encoder._attention_backward` replaced: the same in-place softmax
backward, run on one (B, heads, T, T) scores tensor for the whole batch
instead of one batch row at a time.
"""

from __future__ import annotations

import numpy as np

from fixhound.config import EncoderConfig
from fixhound.encoder import (
    Params,
    _layer_norm,
    _layer_norm_backward,
    _merge_heads,
    _split_heads,
)


def forward_batch(params: Params, config: EncoderConfig, ids: np.ndarray, attn_lens: np.ndarray):
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

    x = params["tok_emb"][ids] + params["pos_emb"][None, :T, :]
    x = x.astype(dtype)
    layer_caches = []
    for i in range(config.layers):
        p = f"layer{i}."
        x_in = x
        h1, ln1_cache = _layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"])
        q = _split_heads(h1 @ params[p + "attn.wq"] + params[p + "attn.bq"], config.heads)
        k = _split_heads(h1 @ params[p + "attn.wk"] + params[p + "attn.bk"], config.heads)
        v = _split_heads(h1 @ params[p + "attn.wv"] + params[p + "attn.bv"], config.heads)
        dh = config.dim // config.heads
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(np.asarray(dh, dtype=dtype))
        scores = np.where(key_mask[:, None, None, :], scores, -np.inf)
        scores = scores - scores.max(axis=-1, keepdims=True)
        exps = np.exp(scores)
        attn = exps / exps.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn @ v)
        attn_out = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        x = x_in + attn_out

        x_mid = x
        h2, ln2_cache = _layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"])
        u = np.tanh(h2 @ params[p + "ffn.w1"] + params[p + "ffn.b1"])
        ffn_out = u @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        x = x_mid + ffn_out
        layer_caches.append(
            {"x_in": x_in, "h1": h1, "ln1": ln1_cache, "q": q, "k": k, "v": v,
             "attn": attn, "ctx": ctx, "x_mid": x_mid, "h2": h2, "ln2": ln2_cache, "u": u}
        )

    y, lnf_cache = _layer_norm(x, params["ln_f.g"], params["ln_f.b"])
    pool_mask = key_mask.astype(dtype)
    pooled = (y * pool_mask[:, :, None]).sum(axis=1) / attn_lens[:, None].astype(dtype)
    cache = {
        "ids": ids, "attn_lens": attn_lens, "key_mask": key_mask,
        "layers": layer_caches, "x_final": x, "y": y, "lnf": lnf_cache, "dtype": dtype,
    }
    return pooled, cache


def backward_batch(params: Params, config: EncoderConfig, cache, d_pooled: np.ndarray) -> Params:
    dtype = cache["dtype"]
    ids = cache["ids"]
    attn_lens = cache["attn_lens"]
    key_mask = cache["key_mask"]
    T = ids.shape[1]
    grads: Params = {name: np.zeros_like(params[name]) for name in params}

    pool_mask = key_mask.astype(dtype)
    dy = (d_pooled[:, None, :] / attn_lens[:, None, None].astype(dtype)) * pool_mask[:, :, None]
    dx, dg, db = _layer_norm_backward(dy, params["ln_f.g"], cache["lnf"])
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    for i in reversed(range(config.layers)):
        p = f"layer{i}."
        c = cache["layers"][i]
        d_ffn_out = dx
        du = d_ffn_out @ params[p + "ffn.w2"].T
        grads[p + "ffn.w2"] += np.einsum("bth,btd->hd", c["u"], d_ffn_out)
        grads[p + "ffn.b2"] += d_ffn_out.sum(axis=(0, 1))
        dpre = du * (1.0 - c["u"] ** 2)
        grads[p + "ffn.w1"] += np.einsum("btd,bth->dh", c["h2"], dpre)
        grads[p + "ffn.b1"] += dpre.sum(axis=(0, 1))
        dh2 = dpre @ params[p + "ffn.w1"].T
        dx_mid, dg2, db2 = _layer_norm_backward(dh2, params[p + "ln2.g"], c["ln2"])
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        dx = dx + dx_mid

        d_attn_out = dx
        grads[p + "attn.wo"] += np.einsum("btd,bte->de", c["ctx"], d_attn_out)
        grads[p + "attn.bo"] += d_attn_out.sum(axis=(0, 1))
        dctx = _split_heads(d_attn_out @ params[p + "attn.wo"].T, config.heads)
        dattn = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["attn"].transpose(0, 1, 3, 2) @ dctx
        dscores = c["attn"] * (dattn - (dattn * c["attn"]).sum(axis=-1, keepdims=True))
        dh = config.dim // config.heads
        dscores = dscores / np.sqrt(np.asarray(dh, dtype=dtype))
        dq = dscores @ c["k"]
        dk = dscores.transpose(0, 1, 3, 2) @ c["q"]
        dq, dk, dv = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
        dh1 = np.zeros_like(c["h1"])
        for w, b, dmat in (("wq", "bq", dq), ("wk", "bk", dk), ("wv", "bv", dv)):
            grads[p + "attn." + w] += np.einsum("btd,bte->de", c["h1"], dmat)
            grads[p + "attn." + b] += dmat.sum(axis=(0, 1))
            dh1 += dmat @ params[p + "attn." + w].T
        dx_in, dg1, db1 = _layer_norm_backward(dh1, params[p + "ln1.g"], c["ln1"])
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        dx = dx + dx_in

    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:T] += dx.sum(axis=0)
    return grads


def attention_backward_whole_batch(attn, q, k, v, dctx, scale):
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = dctx @ v.transpose(0, 1, 3, 2)
    dscores -= np.einsum("bhij,bhij->bhi", dscores, attn)[..., None]
    dscores *= attn
    dscores /= scale
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    return dq, dk, dv
