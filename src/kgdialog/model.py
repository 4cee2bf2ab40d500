"""Compact decoder-only transformer in NumPy with analytic gradients.

Five embedding tables (token, position, entity group, triple, segment type)
are summed and layer-normalized, then fed through pre-norm residual blocks
with masked multi-head attention and a GELU feed-forward. The output head is
tied to the token table. Forward caches every intermediate needed by the
hand-written backward pass, which is validated against central finite
differences in the test suite. One row gather, ``gather_batch``, packs every
batch with true position ids; a batch without a mask attends causally.
``Batch.lengths`` counts each sample's real rows: uncached forward and
backward run every row-wise op on those rows alone, flattened to (R, d),
and only attention sees the padded (B, heads, n, d_head) layout.
Decoding prefills an empty per-call ``KVCache`` once with
the keys and values of the context positions the knowledge mask leaves
visible, then adds one row per call, on that row's (d,) vectors; the cache
holds only rows every later row may read, so cached calls take no mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masking import NEG_INF, AttentionMask, causal_key_columns
from .sequence import TYPE_SYSTEM, InputSequence, SequenceTooLongError


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 512
    max_positions: int = 512
    max_entity_ids: int = 64
    max_triple_ids: int = 128
    n_types: int = 3
    dropout: float = 0.1
    use_entity_emb: bool = True
    use_triple_emb: bool = True
    use_type_emb: bool = True

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_positions",
                     "max_entity_ids", "max_triple_ids"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_types < TYPE_SYSTEM + 1:  # the sequence layer writes types 0..TYPE_SYSTEM
            raise ValueError(f"n_types must be >= {TYPE_SYSTEM + 1}, one per segment type")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class ModelState:
    cfg: ModelConfig
    params: dict[str, np.ndarray]
    opt_m: dict[str, np.ndarray] | None = None
    opt_v: dict[str, np.ndarray] | None = None
    opt_step: int = 0

    @property
    def dtype(self) -> np.dtype:
        return self.params["tok_emb"].dtype

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, ff = cfg.d_model, cfg.d_ff
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (cfg.vocab_size, d)),
        ("pos_emb", (cfg.max_positions, d)),
        ("ent_emb", (cfg.max_entity_ids, d)),
        ("tri_emb", (cfg.max_triple_ids, d)),
        ("typ_emb", (cfg.n_types, d)),
        ("ln_e.g", (d,)),
        ("ln_e.b", (d,)),
    ]
    for i in range(cfg.n_layers):
        p = f"h{i}."
        shapes += [
            (p + "ln1.g", (d,)),
            (p + "ln1.b", (d,)),
            (p + "attn.wq", (d, d)),
            (p + "attn.bq", (d,)),
            (p + "attn.wk", (d, d)),
            (p + "attn.bk", (d,)),
            (p + "attn.wv", (d, d)),
            (p + "attn.bv", (d,)),
            (p + "attn.wo", (d, d)),
            (p + "attn.bo", (d,)),
            (p + "ln2.g", (d,)),
            (p + "ln2.b", (d,)),
            (p + "ff.w1", (d, ff)),
            (p + "ff.b1", (ff,)),
            (p + "ff.w2", (ff, d)),
            (p + "ff.b2", (d,)),
        ]
    shapes += [("ln_f.g", (d,)), ("ln_f.b", (d,))]
    return shapes


def init_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelState:
    """Gaussian init (std 0.02; positions 0.01), zero biases, identity norms."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg):
        if name.endswith(".g"):
            arr = np.ones(shape)
        elif name.endswith((".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")):
            arr = np.zeros(shape)
        elif name == "pos_emb":
            arr = rng.normal(0.0, 0.01, shape)
        else:
            arr = rng.normal(0.0, 0.02, shape)
        params[name] = arr.astype(dtype)
    return ModelState(cfg, params)


# --- primitive ops ----------------------------------------------------------

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU; also returns the inner tanh for reuse in the backward pass.

    In-place ufuncs in the order of 0.5 * x * (1 + tanh(c * (x + a * x**3))),
    so the result is bit-identical to the expression with fewer temporaries.
    """
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * x
    y *= 1.0 + t
    return y, t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t**2) c (1 + 3 a x**2), in place in that order."""
    s = x * x
    s *= 3.0 * _GELU_A
    s += 1.0
    s *= _GELU_C
    u = t * t
    np.subtract(1.0, u, out=u)
    g = 0.5 * x
    g *= u
    g *= s
    np.add(t, 1.0, out=u)
    u *= 0.5
    g += u
    return g


# Means are np.add.reduce(...) / d rather than ndarray.mean, whose Python-level
# wrapper costs more than a one-row reduction. The result is bit-identical:
# NumPy's float32 mean divides the float32 sum in float64 and rounds, which
# equals the correctly rounded float32 division.


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    invstd = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * invstd
    return xhat * g + b, (xhat, invstd)


def layernorm_bwd(dy: np.ndarray, cache, g: np.ndarray):
    xhat, invstd = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    d = dy.shape[-1]
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    dx = invstd * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def softmax_rows(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masked attention softmax(q k^T / sqrt(d_k) + m) v over the last two axes.

    Leading axes (batch, head) broadcast, and so does the additive mask ``m``.
    Returns (context, probabilities); the backward pass reuses the probabilities.
    """
    probs = softmax_rows(q @ np.swapaxes(k, -1, -2) * (1.0 / math.sqrt(q.shape[-1])) + m)
    return probs @ v, probs


# --- batched forward / backward ---------------------------------------------


@dataclass
class Batch:
    """Padded index streams for a list of sequences; no mask means causal attention.

    ``lengths[i]`` counts sample ``i``'s real rows, which come first; the rows
    after them are padding, which the uncached ``forward_batch`` and
    ``backward_batch`` do not compute. No lengths means every row is real.
    """

    tok: np.ndarray  # (B, n) int64
    pos: np.ndarray
    ent: np.ndarray
    tri: np.ndarray
    typ: np.ndarray
    mask: np.ndarray | None = None  # (B, n, n) float32 additive
    targets: np.ndarray | None = None  # (B, n) int64 aligned to logit rows; -1 = ignore
    lengths: np.ndarray | None = None  # (B,) int64 real rows per sample

    @property
    def shape(self) -> tuple[int, int]:
        return self.tok.shape

    def span(self, start: int, stop: int) -> "Batch":
        """Rows ``start:stop`` of the five streams, without mask, targets or lengths: every row is real."""
        return Batch(*(a[:, start:stop] for a in (self.tok, self.pos, self.ent, self.tri, self.typ)))

    def real_rows(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(sample, row) indices of the real rows in row-major order, or None when no row is padding."""
        bsz, n = self.shape
        if self.lengths is None or np.all(self.lengths == n):
            return None
        return np.nonzero(np.arange(n) < self.lengths[:, None])


def gather_batch(seqs: list[InputSequence], rows: list[np.ndarray], width: int, with_targets: bool) -> Batch:
    """Pack rows ``rows[i]`` of ``seqs[i]``, in that order, padded at the end to ``width``.

    Each row keeps its true position id; padding is id 0 in every stream but
    ``pos``, which counts on. Row ``j``'s target is the token of row ``j + 1``
    when that row lies in the response span, and -1 otherwise. No mask is set:
    padding follows every real row, so causality alone hides it, and it
    carries no target. ``lengths[i]`` is ``rows[i].size``, so forward and
    backward compute no padding row.
    """
    b = len(seqs)
    tok, ent, tri, typ = (np.zeros((b, width), dtype=np.int64) for _ in range(4))
    pos = np.broadcast_to(np.arange(width, dtype=np.int64), (b, width)).copy()
    targets = np.full((b, width), -1, dtype=np.int64) if with_targets else None
    for i, (s, r) in enumerate(zip(seqs, rows)):
        m = r.size
        tok[i, :m] = s.token_ids[r]
        pos[i, :m] = s.position_ids[r]
        ent[i, :m] = s.entity_ids[r]
        tri[i, :m] = s.triple_ids[r]
        typ[i, :m] = s.type_ids[r]
        if with_targets:
            nxt = r[1:]
            answer = nxt >= s.response_start
            if not answer.any():
                raise ValueError("training sample has an empty response span")
            targets[i, : m - 1] = np.where(answer, s.token_ids[nxt], -1)
    lengths = np.array([r.size for r in rows], dtype=np.int64)
    return Batch(tok, pos, ent, tri, typ, targets=targets, lengths=lengths)


def pack_batch(
    seqs: list[InputSequence], masks: list[AttentionMask], with_targets: bool
) -> Batch:
    """Every row of each sequence, padded to the longest, under the caller's masks."""
    n = max(s.n for s in seqs)
    if any(m.values.shape[0] != n for m in masks):
        raise ValueError("mask padding does not match batch length")
    batch = gather_batch(seqs, [np.arange(s.n) for s in seqs], n, with_targets)
    batch.mask = np.stack([m.values for m in masks])
    return batch


def _check_bounds(batch: Batch, cfg: ModelConfig) -> None:
    limits = (
        ("token", batch.tok, cfg.vocab_size),
        ("position", batch.pos, cfg.max_positions),
        ("entity", batch.ent, cfg.max_entity_ids),
        ("triple", batch.tri, cfg.max_triple_ids),
        ("type", batch.typ, cfg.n_types),
    )
    for name, arr, bound in limits:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= bound:
            raise IndexError(f"{name} stream index out of range: [{lo}, {hi}] vs table size {bound}")


@dataclass
class KVCache:
    """Per-layer attention keys and values of the rows one decode computed.

    ``k`` and ``v`` are (n_layers, n_heads, capacity, d_head); slot ``j``
    holds batch row ``skip + j``. The first ``skip`` batch rows are never
    computed or stored: ``sample_response`` packs there the context rows whose
    keys the knowledge mask hides. Every stored row is visible to every later
    one. ``forward_batch`` fills an empty cache once with a prefill, then adds
    one row per call. A cache belongs to one ``sample_response`` call; nothing
    is shared.
    """

    k: np.ndarray
    v: np.ndarray
    skip: int = 0
    rows: int = 0

    @classmethod
    def empty(cls, cfg: ModelConfig, capacity: int, dtype, skip: int = 0) -> "KVCache":
        shape = (cfg.n_layers, cfg.n_heads, capacity, cfg.d_head)
        return cls(np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype), skip)


def _dropout_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    u = rng.random(shape, dtype=np.float32 if dtype == np.float32 else np.float64)
    return (u >= p).astype(dtype) / dtype.type(1.0 - p)


def _embedding_sum(p: dict[str, np.ndarray], cfg: ModelConfig, tok, pos, ent, tri, typ) -> np.ndarray:
    """Sum of the token and position tables and the enabled entity, triple and type tables.

    The five ids are index arrays of one shape, or five scalars for one row's (d,) vector.
    """
    x = p["tok_emb"][tok] + p["pos_emb"][pos]
    if cfg.use_entity_emb:
        x = x + p["ent_emb"][ent]
    if cfg.use_triple_emb:
        x = x + p["tri_emb"][tri]
    if cfg.use_type_emb:
        x = x + p["typ_emb"][typ]
    return x


# Row-wise ops run on the (R, ...) real rows of a batch; only attention needs the
# padded (B, heads, n, d_head) layout. ``real`` is Batch.real_rows(): None when
# every row is real, and the layouts are then plain reshapes of each other.


def _take_rows(a: np.ndarray, real) -> np.ndarray:
    """(B, n, ...) -> (R, ...): the real rows, row-major."""
    return a.reshape(-1, *a.shape[2:]) if real is None else a[real]


def _pad_rows(x: np.ndarray, real, bsz: int, n: int) -> np.ndarray:
    """(R, ...) -> (B, n, ...), zeros in the padding rows."""
    if real is None:
        return x.reshape(bsz, n, *x.shape[1:])
    out = np.zeros((bsz, n, *x.shape[1:]), dtype=x.dtype)
    out[real] = x
    return out


def _to_heads(x: np.ndarray, real, bsz: int, n: int, nh: int) -> np.ndarray:
    """(R, d) -> (B, heads, n, d_head), zeros in the padding rows."""
    return _pad_rows(x, real, bsz, n).reshape(bsz, n, nh, -1).transpose(0, 2, 1, 3)


def _from_heads(x: np.ndarray, real) -> np.ndarray:
    """(B, heads, n, d_head) -> (R, d): the real rows, heads concatenated."""
    bsz, nh, n, dh = x.shape
    return _take_rows(x.transpose(0, 2, 1, 3), real).reshape(-1, nh * dh)


def scatter_add_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``out[ids[j]] += rows[j]`` for every ``j``, repeated ids summed, as ``np.add.at`` does.

    Sorts the ids stably, sums each run of equal ids with one
    ``np.add.reduceat`` and adds the sums to their rows: much faster than
    ``np.add.at``, and its cost grows with the R rows, not with the table.
    """
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    out[ids[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def forward_batch(
    state: ModelState,
    batch: Batch,
    train: bool = False,
    rng: np.random.Generator | None = None,
    kv: KVCache | None = None,
):
    """Run the transformer; returns (logits, cache) with cache for backward.

    Attention reads ``batch.mask`` when the caller supplies one; otherwise
    the batch is causal: the row in key slot ``r`` reads slots ``0..r``.
    Only the real rows ``batch.lengths`` counts are computed: every op but
    attention runs on them alone, and attention on the padded layout, with
    zero queries, keys and values in the padding rows, which no real row
    reads. The (B, n, vocab) logits are zero in the padding rows. Dropout
    masks are drawn at the padded shape, so they do not depend on padding.
    A call with a ``kv`` cache takes one sample and is one of two kinds. On
    an empty cache it prefills: rows ``[kv.skip:n]`` of ``batch`` are
    computed causally, whatever its lengths or mask, and their keys and
    values stored. On a filled cache it adds the one row ``kv.skip +
    kv.rows``, which attends to every stored row (``_forward_row``). Any
    other cached call raises ValueError. The logits returned are the new
    rows' alone. Cached calls are eval-mode only and return no backward
    cache (None).
    """
    cfg, p = state.cfg, state.params
    bsz, n = batch.shape
    if kv is not None:
        if train:
            raise ValueError("a KV cache serves eval-mode forward passes only")
        start = kv.skip + kv.rows
        if bsz != 1 or not start < n <= kv.skip + kv.k.shape[2] or (kv.rows and n != start + 1):
            raise ValueError(f"a batch of {bsz} x {n} is neither a prefill nor one new row "
                             f"for a KV cache holding rows up to {start}")
        if kv.rows:
            return _forward_row(state, batch, kv), None
        batch = batch.span(start, n)  # the rows to prefill
        n -= start
    _check_bounds(batch, cfg)
    dt = state.dtype
    d, nh = cfg.d_model, cfg.n_heads
    drop = cfg.dropout if train else 0.0
    if drop > 0.0 and rng is None:
        raise ValueError("training-mode forward needs an RNG for dropout")

    real = batch.real_rows()

    def dropout_mask() -> np.ndarray:
        return _take_rows(_dropout_mask(rng, (bsz, n, d), drop, np.dtype(dt)), real)

    ids = tuple(_take_rows(a, real) for a in (batch.tok, batch.pos, batch.ent, batch.tri, batch.typ))
    h, ln_e_cache = layernorm_fwd(_embedding_sum(p, cfg, *ids), p["ln_e.g"], p["ln_e.b"])
    emb_drop = None
    if drop > 0.0:
        emb_drop = dropout_mask()
        h = h * emb_drop

    if batch.mask is not None:
        add_mask = batch.mask.astype(dt)[:, None, :, :]  # broadcast over heads
    else:
        add_mask = causal_key_columns(np.zeros(n, dtype=dt))
    layers = []
    for i in range(cfg.n_layers):
        pre = f"h{i}."
        a_in, ln1_cache = layernorm_fwd(h, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = _to_heads(a_in @ p[pre + "attn.wq"] + p[pre + "attn.bq"], real, bsz, n, nh)
        k = _to_heads(a_in @ p[pre + "attn.wk"] + p[pre + "attn.bk"], real, bsz, n, nh)
        v = _to_heads(a_in @ p[pre + "attn.wv"] + p[pre + "attn.bv"], real, bsz, n, nh)
        if kv is not None:
            kv.k[i, :, :n], kv.v[i, :, :n] = k[0], v[0]
        ctx, probs = attention(q, k, v, add_mask)
        ctx = _from_heads(ctx, real)
        attn_out = ctx @ p[pre + "attn.wo"] + p[pre + "attn.bo"]
        attn_drop = None
        if drop > 0.0:
            attn_drop = dropout_mask()
            attn_out = attn_out * attn_drop
        h_mid = h + attn_out

        f_in, ln2_cache = layernorm_fwd(h_mid, p[pre + "ln2.g"], p[pre + "ln2.b"])
        z1 = f_in @ p[pre + "ff.w1"] + p[pre + "ff.b1"]
        a1, tanh1 = gelu(z1)
        f_out = a1 @ p[pre + "ff.w2"] + p[pre + "ff.b2"]
        ff_drop = None
        if drop > 0.0:
            ff_drop = dropout_mask()
            f_out = f_out * ff_drop
        h_next = h_mid + f_out

        if kv is None:
            layers.append(
                dict(
                    a_in=a_in, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, ctx=ctx,
                    attn_drop=attn_drop, f_in=f_in, ln2=ln2_cache, z1=z1, a1=a1,
                    tanh1=tanh1, ff_drop=ff_drop,
                )
            )
        h = h_next

    hf, ln_f_cache = layernorm_fwd(h, p["ln_f.g"], p["ln_f.b"])
    logits = hf @ p["tok_emb"].T
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    logits = _pad_rows(logits, real, bsz, n)
    if kv is not None:
        kv.rows = n
        return logits, None

    cache = dict(ids=ids, real=real, emb_drop=emb_drop, ln_e=ln_e_cache, layers=layers, hf=hf, ln_f=ln_f_cache)
    return logits, cache


def _forward_row(state: ModelState, batch: Batch, kv: KVCache) -> np.ndarray:
    """``forward_batch`` for a cached call that adds the one row ``kv.skip + kv.rows``.

    The same computation on that row's (d,) vectors, so a decode step pays no
    per-call cost for batch and row axes. Returns (1, 1, vocab) logits.
    """
    cfg, p = state.cfg, state.params
    j, slot = kv.skip + kv.rows, kv.rows
    ids = [int(a[0, j]) for a in (batch.tok, batch.pos, batch.ent, batch.tri, batch.typ)]
    sizes = (cfg.vocab_size, cfg.max_positions, cfg.max_entity_ids, cfg.max_triple_ids, cfg.n_types)
    for name, i, bound in zip(("token", "position", "entity", "triple", "type"), ids, sizes):
        if not 0 <= i < bound:
            raise IndexError(f"{name} stream index out of range: [{i}, {i}] vs table size {bound}")

    nh, dh = cfg.n_heads, cfg.d_head
    filled = slot + 1
    h, _ = layernorm_fwd(_embedding_sum(p, cfg, *ids), p["ln_e.g"], p["ln_e.b"])
    for i in range(cfg.n_layers):
        pre = f"h{i}."
        a_in, _ = layernorm_fwd(h, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = a_in @ p[pre + "attn.wq"] + p[pre + "attn.bq"]
        kv.k[i, :, slot] = (a_in @ p[pre + "attn.wk"] + p[pre + "attn.bk"]).reshape(nh, dh)
        kv.v[i, :, slot] = (a_in @ p[pre + "attn.wv"] + p[pre + "attn.bv"]).reshape(nh, dh)
        ctx, _ = attention(q.reshape(nh, 1, dh), kv.k[i, :, :filled], kv.v[i, :, :filled], 0.0)
        h = h + (ctx.reshape(cfg.d_model) @ p[pre + "attn.wo"] + p[pre + "attn.bo"])
        f_in, _ = layernorm_fwd(h, p[pre + "ln2.g"], p[pre + "ln2.b"])
        a1, _ = gelu(f_in @ p[pre + "ff.w1"] + p[pre + "ff.b1"])
        h = h + (a1 @ p[pre + "ff.w2"] + p[pre + "ff.b2"])

    hf, _ = layernorm_fwd(h, p["ln_f.g"], p["ln_f.b"])
    logits = hf @ p["tok_emb"].T
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    kv.rows = filled
    return logits.reshape(1, 1, -1)


def backward_batch(state: ModelState, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every parameter given d(loss)/d(logits), over the real rows alone."""
    cfg, p = state.cfg, state.params
    real = cache["real"]
    bsz, n = dlogits.shape[:2]
    nh, dh = cfg.n_heads, cfg.d_head
    scale = 1.0 / math.sqrt(dh)
    grads = {k: np.zeros_like(v) for k, v in p.items()}

    dlogits = _take_rows(dlogits, real)
    grads["tok_emb"] += dlogits.T @ cache["hf"]
    dh_cur = dlogits @ p["tok_emb"]
    dh_cur, dg, db = layernorm_bwd(dh_cur, cache["ln_f"], p["ln_f.g"])
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    for i in reversed(range(cfg.n_layers)):
        pre = f"h{i}."
        lc = cache["layers"][i]

        d_f_out = dh_cur if lc["ff_drop"] is None else dh_cur * lc["ff_drop"]
        grads[pre + "ff.w2"] += lc["a1"].T @ d_f_out
        grads[pre + "ff.b2"] += d_f_out.sum(axis=0)
        d_z1 = (d_f_out @ p[pre + "ff.w2"].T) * gelu_grad(lc["z1"], lc["tanh1"])
        grads[pre + "ff.w1"] += lc["f_in"].T @ d_z1
        grads[pre + "ff.b1"] += d_z1.sum(axis=0)
        d_f_in = d_z1 @ p[pre + "ff.w1"].T
        d_h_mid, dg, db = layernorm_bwd(d_f_in, lc["ln2"], p[pre + "ln2.g"])
        grads[pre + "ln2.g"] += dg
        grads[pre + "ln2.b"] += db
        dh_cur = dh_cur + d_h_mid

        d_attn_out = dh_cur if lc["attn_drop"] is None else dh_cur * lc["attn_drop"]
        grads[pre + "attn.wo"] += lc["ctx"].T @ d_attn_out
        grads[pre + "attn.bo"] += d_attn_out.sum(axis=0)
        d_ctx = _to_heads(d_attn_out @ p[pre + "attn.wo"].T, real, bsz, n, nh)

        probs, q, k, v = lc["probs"], lc["q"], lc["k"], lc["v"]
        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = probs.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
        d_q = d_scores @ k * scale
        d_k = d_scores.transpose(0, 1, 3, 2) @ q * scale

        a_in = lc["a_in"]
        d_a_in = np.zeros_like(a_in)
        for name, dx in (("q", d_q), ("k", d_k), ("v", d_v)):
            dx = _from_heads(dx, real)
            grads[pre + f"attn.w{name}"] += a_in.T @ dx
            grads[pre + f"attn.b{name}"] += dx.sum(axis=0)
            d_a_in += dx @ p[pre + f"attn.w{name}"].T
        d_h_in, dg, db = layernorm_bwd(d_a_in, lc["ln1"], p[pre + "ln1.g"])
        grads[pre + "ln1.g"] += dg
        grads[pre + "ln1.b"] += db
        dh_cur = dh_cur + d_h_in

    if cache["emb_drop"] is not None:
        dh_cur = dh_cur * cache["emb_drop"]
    dx, dg, db = layernorm_bwd(dh_cur, cache["ln_e"], p["ln_e.g"])
    grads["ln_e.g"] += dg
    grads["ln_e.b"] += db

    tok, pos, ent, tri, typ = cache["ids"]
    scatter_add_rows(grads["tok_emb"], tok, dx)
    scatter_add_rows(grads["pos_emb"], pos, dx)
    if cfg.use_entity_emb:
        scatter_add_rows(grads["ent_emb"], ent, dx)
    if cfg.use_triple_emb:
        scatter_add_rows(grads["tri_emb"], tri, dx)
    if cfg.use_type_emb:
        scatter_add_rows(grads["typ_emb"], typ, dx)
    return grads


def loss_batch(logits: np.ndarray, targets: np.ndarray):
    """Per-sample mean NLL over target positions, averaged over the batch.

    ``targets[b, p]`` is the token that logit row ``p`` must predict, or -1
    for positions outside the response span. Returns (loss, dlogits).
    """
    bsz = logits.shape[0]
    valid = targets >= 0
    counts = valid.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("a sample in the batch has an empty response span")

    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))  # (B, n)
    safe = np.where(valid, targets, 0)
    tok_logp = np.take_along_axis(z, safe[:, :, None], axis=-1)[:, :, 0] - lse
    nll = -(tok_logp * valid)
    per_sample = nll.sum(axis=1) / counts
    loss = float(per_sample.mean())

    probs = np.exp(z - lse[:, :, None])
    dlogits = probs
    np.put_along_axis(
        dlogits, safe[:, :, None],
        np.take_along_axis(dlogits, safe[:, :, None], axis=-1) - 1.0, axis=-1,
    )
    w = (valid / counts[:, None] / bsz).astype(logits.dtype)
    dlogits *= w[:, :, None]
    return loss, dlogits


# --- single-sequence contract surface ---------------------------------------


def forward(seq: InputSequence, mask: AttentionMask, state: ModelState) -> np.ndarray:
    """Deterministic eval-mode forward for one sequence, (n, vocab) logits."""
    logits, _ = forward_batch(state, pack_batch([seq], [mask], False))
    return logits[0]


def loss(logits: np.ndarray, seq: InputSequence):
    """Mean next-token NLL over the response span, plus d(loss)/d(logits)."""
    targets = gather_batch([seq], [np.arange(seq.n)], seq.n, True).targets  # refuses an empty response span
    value, dlogits = loss_batch(logits[None, :, :], targets)
    return value, dlogits[0]


def backward(state: ModelState, seq: InputSequence, mask: AttentionMask):
    """Loss and analytic gradients for one training sequence (eval-mode graph)."""
    batch = pack_batch([seq], [mask], True)
    logits, cache = forward_batch(state, batch)
    value, dlogits = loss_batch(logits, batch.targets)
    return value, backward_batch(state, cache, dlogits)


# --- sampling ----------------------------------------------------------------


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.68
    top_k: int = 6
    top_p: float = 0.9
    max_response_length: int = 100
    seed: int = 7

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_response_length < 1:
            raise ValueError(f"max_response_length must be >= 1, not {self.max_response_length}")
        if self.seed < 0:
            raise ValueError(f"decoding seed must be >= 0, not {self.seed}")


def sample_next(logits: np.ndarray, params: DecodingParams, rng: np.random.Generator) -> int:
    """Temperature, then top-k, then nucleus truncation, then sample."""
    z = logits.astype(np.float64) / params.temperature
    if params.top_k == 1:  # the first of the stable descending order, ties and infinities included
        return int(np.argmax(z))
    order = np.argsort(-z, kind="stable")[: params.top_k]
    probs = softmax_rows(z[order])
    cum = np.cumsum(probs)
    cut = int(np.searchsorted(cum, params.top_p, side="left")) + 1
    kept = probs[:cut] / probs[:cut].sum()
    return int(order[np.searchsorted(np.cumsum(kept), rng.random(), side="right")])


def sample_response(
    state: ModelState,
    seq: InputSequence,
    mask: AttentionMask,
    params: DecodingParams,
    eos_id: int,
) -> list[int]:
    """Autoregressive sampling from a context sequence with a per-call KV cache.

    The context and every position the response may take are gathered once
    into one batch of length ``seq.n + max_response_length``; each step calls
    ``forward_batch`` on the prefix decoded so far and writes the sampled id
    into the token row. The key columns of the last context row of ``mask``
    apply to every step under causality, so a context key they hide is read
    by no query. Those hidden rows are gathered first, each keeping its
    position id, and the cache skips them: decoding computes and stores only
    the context positions the knowledge mask leaves visible, and as every
    stored row is visible to every later one, the calls run causally. The hidden
    rows stay in the batch, unread, only so that each call keeps the shape
    the perfbench tracer counts (the context plus the tokens decoded so far).
    The first call prefills the empty cache with the visible rows; every
    later call adds the one new row. A mask that hides the last context key is
    refused (ValueError): that row's logits pick the first token. Appended
    positions carry entity/triple id 0 and SYSTEM type. Returns the
    generated ids without the terminating [EOS].
    """
    n0 = seq.n
    total = n0 + params.max_response_length
    if total > state.cfg.max_positions:
        raise SequenceTooLongError(
            f"context of {n0} tokens plus max_response_length {params.max_response_length} "
            f"exceeds max_positions {state.cfg.max_positions}"
        )
    visible = mask.values[n0 - 1, :n0] != NEG_INF  # the last context row holds the key-column pattern
    if not visible[-1]:
        raise ValueError("the mask hides the last context key, whose row picks the first token")
    rng = np.random.default_rng(params.seed)
    order = np.argsort(visible, kind="stable")  # hidden rows first, then visible ones in order
    batch = gather_batch([seq], [order], total, False)
    batch.typ[0, n0:] = TYPE_SYSTEM
    hidden = n0 - int(np.count_nonzero(visible))
    kv = KVCache.empty(state.cfg, total - hidden, state.dtype, skip=hidden)
    out: list[int] = []
    for n in range(n0, total):
        logits, _ = forward_batch(state, batch.span(0, n), kv=kv)
        tok_id = sample_next(logits[0, -1], params, rng)
        if tok_id == eos_id:
            break
        out.append(tok_id)
        batch.tok[0, n] = tok_id
    return out
