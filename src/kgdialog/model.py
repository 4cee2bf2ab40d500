"""Compact decoder-only transformer in NumPy with analytic gradients.

Five embedding tables (token, position, entity group, triple, segment type)
are summed and layer-normalized, then fed through pre-norm residual blocks
with masked multi-head attention and a GELU feed-forward. The output head is
tied to the token table. Forward caches every intermediate needed by the
hand-written backward pass, which is validated against central finite
differences in the test suite. Decoding prefills a per-call ``KVCache`` with
the keys and values of the context positions the knowledge mask leaves
visible, then computes one new row per step; the cache holds only rows every
later row may read, so cached calls take no mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .masking import NEG_INF, AttentionMask
from .sequence import InputSequence, SequenceTooLongError


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
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
    """Tanh-form GELU; also returns the inner tanh for reuse in the backward pass."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (_GELU_C * (1.0 + 3.0 * _GELU_A * (x * x)))


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * invstd
    return xhat * g + b, (xhat, invstd)


def layernorm_bwd(dy: np.ndarray, cache, g: np.ndarray):
    xhat, invstd = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
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
    """Padded index streams for a list of sequences, plus per-sample masks (None for cached calls)."""

    tok: np.ndarray  # (B, n) int64
    pos: np.ndarray
    ent: np.ndarray
    tri: np.ndarray
    typ: np.ndarray
    mask: np.ndarray | None = None  # (B, n, n) float32 additive
    targets: np.ndarray | None = None  # (B, n) int64 aligned to logit rows; -1 = ignore

    @property
    def shape(self) -> tuple[int, int]:
        return self.tok.shape


def pack_batch(
    seqs: list[InputSequence], masks: list[AttentionMask], with_targets: bool
) -> Batch:
    n = max(s.n for s in seqs)
    b = len(seqs)
    tok = np.zeros((b, n), dtype=np.int64)
    ent = np.zeros((b, n), dtype=np.int64)
    tri = np.zeros((b, n), dtype=np.int64)
    typ = np.zeros((b, n), dtype=np.int64)
    pos = np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)).copy()
    mask = np.empty((b, n, n), dtype=np.float32)
    targets = np.full((b, n), -1, dtype=np.int64) if with_targets else None

    for i, (s, m) in enumerate(zip(seqs, masks)):
        ln = s.n
        tok[i, :ln] = s.token_ids
        ent[i, :ln] = s.entity_ids
        tri[i, :ln] = s.triple_ids
        typ[i, :ln] = s.type_ids
        if m.values.shape[0] != n:
            raise ValueError("mask padding does not match batch length")
        mask[i] = m.values
        if with_targets:
            if s.response_start >= ln:
                raise ValueError("training sample has an empty response span")
            # logit row p predicts token p+1; response tokens start at response_start
            targets[i, s.response_start - 1 : ln - 1] = s.token_ids[s.response_start :]
    return Batch(tok, pos, ent, tri, typ, mask, targets)


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

    ``k`` and ``v`` are (n_layers, 1, n_heads, capacity, d_head); slot ``j``
    holds batch row ``skip + j``. The first ``skip`` batch rows are never
    computed or stored: ``sample_response`` packs there the context rows whose
    keys the knowledge mask hides. Every stored row is visible to every later
    one. A cache belongs to one ``sample_response`` call; nothing is shared.
    """

    k: np.ndarray
    v: np.ndarray
    skip: int = 0
    rows: int = 0

    @classmethod
    def empty(cls, cfg: ModelConfig, capacity: int, dtype, skip: int = 0) -> "KVCache":
        shape = (cfg.n_layers, 1, cfg.n_heads, capacity, cfg.d_head)
        return cls(np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype), skip)


def _dropout_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    u = rng.random(shape, dtype=np.float32 if dtype == np.float32 else np.float64)
    return (u >= p).astype(dtype) / dtype.type(1.0 - p)


def _embedding_sum(p: dict[str, np.ndarray], cfg: ModelConfig, batch: Batch) -> np.ndarray:
    """Sum of the token and position tables and the enabled entity, triple and type tables."""
    x = p["tok_emb"][batch.tok] + p["pos_emb"][batch.pos]
    if cfg.use_entity_emb:
        x = x + p["ent_emb"][batch.ent]
    if cfg.use_triple_emb:
        x = x + p["tri_emb"][batch.tri]
    if cfg.use_type_emb:
        x = x + p["typ_emb"][batch.typ]
    return x


def forward_batch(
    state: ModelState,
    batch: Batch,
    train: bool = False,
    rng: np.random.Generator | None = None,
    kv: KVCache | None = None,
):
    """Run the transformer; returns (logits, cache) with cache for backward.

    With a ``kv`` cache, only rows ``[kv.skip + kv.rows:n]`` of ``batch`` are
    computed. Every row the cache stores is visible to them, so the call reads
    no mask: the new rows attend to the stored rows and, causally by slot, to
    each other, and their keys and values are appended to the cache. The
    logits returned are the new rows' alone. Cached calls are eval-mode only
    and return no backward cache (None).
    """
    cfg, p = state.cfg, state.params
    bsz, n = batch.shape
    start = 0
    if kv is not None:
        if train:
            raise ValueError("a KV cache serves eval-mode forward passes only")
        start = kv.skip + kv.rows
        if kv.k.shape[1] != bsz or not start < n <= kv.skip + kv.k.shape[3]:
            raise ValueError(f"batch of {bsz} x {n} does not extend a KV cache of {kv.k.shape[1]} x {start}")
        batch = Batch(  # the new rows only
            batch.tok[:, start:], batch.pos[:, start:], batch.ent[:, start:], batch.tri[:, start:],
            batch.typ[:, start:],
        )
    _check_bounds(batch, cfg)
    dt = state.dtype
    nh, dh = cfg.n_heads, cfg.d_head
    drop = cfg.dropout if train else 0.0
    if drop > 0.0 and rng is None:
        raise ValueError("training-mode forward needs an RNG for dropout")

    h, ln_e_cache = layernorm_fwd(_embedding_sum(p, cfg, batch), p["ln_e.g"], p["ln_e.b"])
    emb_drop = None
    if drop > 0.0:
        emb_drop = _dropout_mask(rng, h.shape, drop, np.dtype(dt))
        h = h * emb_drop

    rows = n - start
    if kv is None:
        add_mask = batch.mask.astype(dt)[:, None, :, :]  # broadcast over heads
    else:  # new row r sits in slot kv.rows + r and reads the slots up to it
        filled = kv.rows + rows
        add_mask = np.triu(np.full((rows, filled), NEG_INF, dtype=dt), kv.rows + 1)
    layers = []
    for i in range(cfg.n_layers):
        pre = f"h{i}."
        a_in, ln1_cache = layernorm_fwd(h, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = (a_in @ p[pre + "attn.wq"] + p[pre + "attn.bq"]).reshape(bsz, rows, nh, dh).transpose(0, 2, 1, 3)
        k = (a_in @ p[pre + "attn.wk"] + p[pre + "attn.bk"]).reshape(bsz, rows, nh, dh).transpose(0, 2, 1, 3)
        v = (a_in @ p[pre + "attn.wv"] + p[pre + "attn.bv"]).reshape(bsz, rows, nh, dh).transpose(0, 2, 1, 3)
        if kv is not None:
            kv.k[i, :, :, kv.rows : filled] = k
            kv.v[i, :, :, kv.rows : filled] = v
            k, v = kv.k[i, :, :, :filled], kv.v[i, :, :, :filled]
        ctx, probs = attention(q, k, v, add_mask)
        ctx = ctx.transpose(0, 2, 1, 3).reshape(bsz, rows, cfg.d_model)
        attn_out = ctx @ p[pre + "attn.wo"] + p[pre + "attn.bo"]
        attn_drop = None
        if drop > 0.0:
            attn_drop = _dropout_mask(rng, attn_out.shape, drop, np.dtype(dt))
            attn_out = attn_out * attn_drop
        h_mid = h + attn_out

        f_in, ln2_cache = layernorm_fwd(h_mid, p[pre + "ln2.g"], p[pre + "ln2.b"])
        z1 = f_in @ p[pre + "ff.w1"] + p[pre + "ff.b1"]
        a1, tanh1 = gelu(z1)
        f_out = a1 @ p[pre + "ff.w2"] + p[pre + "ff.b2"]
        ff_drop = None
        if drop > 0.0:
            ff_drop = _dropout_mask(rng, f_out.shape, drop, np.dtype(dt))
            f_out = f_out * ff_drop
        h_next = h_mid + f_out

        if kv is None:
            layers.append(
                dict(
                    a_in=a_in, ln1=ln1_cache, q=q, k=k, v=v, probs=probs, ctx=ctx,
                    attn_drop=attn_drop, h_in=h, f_in=f_in, ln2=ln2_cache, z1=z1, a1=a1,
                    tanh1=tanh1, ff_drop=ff_drop, h_mid=h_mid,
                )
            )
        h = h_next

    hf, ln_f_cache = layernorm_fwd(h, p["ln_f.g"], p["ln_f.b"])
    logits = hf @ p["tok_emb"].T
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    if kv is not None:
        kv.rows = filled
        return logits, None

    cache = dict(batch=batch, emb_drop=emb_drop, ln_e=ln_e_cache, layers=layers, hf=hf, ln_f=ln_f_cache)
    return logits, cache


def backward_batch(state: ModelState, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every parameter given d(loss)/d(logits)."""
    cfg, p = state.cfg, state.params
    batch: Batch = cache["batch"]
    bsz, n = batch.shape
    d, nh, dh = cfg.d_model, cfg.n_heads, cfg.d_head
    scale = 1.0 / math.sqrt(dh)
    grads = {k: np.zeros_like(v) for k, v in p.items()}

    hf = cache["hf"]
    grads["tok_emb"] += dlogits.reshape(-1, dlogits.shape[-1]).T @ hf.reshape(-1, d)
    dh_cur = dlogits @ p["tok_emb"]
    dh_cur, dg, db = layernorm_bwd(dh_cur, cache["ln_f"], p["ln_f.g"])
    grads["ln_f.g"] += dg
    grads["ln_f.b"] += db

    for i in reversed(range(cfg.n_layers)):
        pre = f"h{i}."
        lc = cache["layers"][i]

        d_f_out = dh_cur if lc["ff_drop"] is None else dh_cur * lc["ff_drop"]
        a1_2d = lc["a1"].reshape(-1, cfg.d_ff)
        d_f_out_2d = d_f_out.reshape(-1, d)
        grads[pre + "ff.w2"] += a1_2d.T @ d_f_out_2d
        grads[pre + "ff.b2"] += d_f_out_2d.sum(axis=0)
        d_z1 = (d_f_out @ p[pre + "ff.w2"].T) * gelu_grad(lc["z1"], lc["tanh1"])
        f_in_2d = lc["f_in"].reshape(-1, d)
        d_z1_2d = d_z1.reshape(-1, cfg.d_ff)
        grads[pre + "ff.w1"] += f_in_2d.T @ d_z1_2d
        grads[pre + "ff.b1"] += d_z1_2d.sum(axis=0)
        d_f_in = d_z1 @ p[pre + "ff.w1"].T
        d_h_mid, dg, db = layernorm_bwd(d_f_in, lc["ln2"], p[pre + "ln2.g"])
        grads[pre + "ln2.g"] += dg
        grads[pre + "ln2.b"] += db
        dh_cur = dh_cur + d_h_mid

        d_attn_out = dh_cur if lc["attn_drop"] is None else dh_cur * lc["attn_drop"]
        ctx_2d = lc["ctx"].reshape(-1, d)
        d_attn_2d = d_attn_out.reshape(-1, d)
        grads[pre + "attn.wo"] += ctx_2d.T @ d_attn_2d
        grads[pre + "attn.bo"] += d_attn_2d.sum(axis=0)
        d_ctx = (d_attn_out @ p[pre + "attn.wo"].T).reshape(bsz, n, nh, dh).transpose(0, 2, 1, 3)

        probs, q, k, v = lc["probs"], lc["q"], lc["k"], lc["v"]
        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
        d_v = probs.transpose(0, 1, 3, 2) @ d_ctx
        d_scores = probs * (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True))
        d_q = d_scores @ k * scale
        d_k = d_scores.transpose(0, 1, 3, 2) @ q * scale

        a_in_2d = lc["a_in"].reshape(-1, d)
        d_a_in = np.zeros_like(lc["a_in"])
        for name, dx in (("q", d_q), ("k", d_k), ("v", d_v)):
            dx_2d = dx.transpose(0, 2, 1, 3).reshape(-1, d)
            grads[pre + f"attn.w{name}"] += a_in_2d.T @ dx_2d
            grads[pre + f"attn.b{name}"] += dx_2d.sum(axis=0)
            d_a_in += (dx_2d @ p[pre + f"attn.w{name}"].T).reshape(bsz, n, d)
        d_h_in, dg, db = layernorm_bwd(d_a_in, lc["ln1"], p[pre + "ln1.g"])
        grads[pre + "ln1.g"] += dg
        grads[pre + "ln1.b"] += db
        dh_cur = dh_cur + d_h_in

    if cache["emb_drop"] is not None:
        dh_cur = dh_cur * cache["emb_drop"]
    dx, dg, db = layernorm_bwd(dh_cur, cache["ln_e"], p["ln_e.g"])
    grads["ln_e.g"] += dg
    grads["ln_e.b"] += db

    dx_2d = dx.reshape(-1, d)
    np.add.at(grads["tok_emb"], batch.tok.ravel(), dx_2d)
    np.add.at(grads["pos_emb"], batch.pos.ravel(), dx_2d)
    if cfg.use_entity_emb:
        np.add.at(grads["ent_emb"], batch.ent.ravel(), dx_2d)
    if cfg.use_triple_emb:
        np.add.at(grads["tri_emb"], batch.tri.ravel(), dx_2d)
    if cfg.use_type_emb:
        np.add.at(grads["typ_emb"], batch.typ.ravel(), dx_2d)
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


def embed(seq: InputSequence, state: ModelState) -> np.ndarray:
    """Layer-normalized sum of the five embedding streams, (n, d_model)."""
    batch = pack_batch([seq], [AttentionMask(np.zeros((seq.n, seq.n), dtype=np.float32), seq.n)], False)
    cfg, p = state.cfg, state.params
    _check_bounds(batch, cfg)
    h, _ = layernorm_fwd(_embedding_sum(p, cfg, batch), p["ln_e.g"], p["ln_e.b"])
    return h[0]


def forward(seq: InputSequence, mask: AttentionMask, state: ModelState) -> np.ndarray:
    """Deterministic eval-mode forward for one sequence, (n, vocab) logits."""
    logits, _ = forward_batch(state, pack_batch([seq], [mask], False))
    return logits[0]


def loss(logits: np.ndarray, seq: InputSequence):
    """Mean next-token NLL over the response span, plus d(loss)/d(logits)."""
    if seq.response_start >= seq.n:
        raise ValueError("sequence has an empty response span")
    targets = np.full((1, seq.n), -1, dtype=np.int64)
    targets[0, seq.response_start - 1 : seq.n - 1] = seq.token_ids[seq.response_start :]
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


def sample_next(logits: np.ndarray, params: DecodingParams, rng: np.random.Generator) -> int:
    """Temperature, then top-k, then nucleus truncation, then sample."""
    z = logits.astype(np.float64) / params.temperature
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
    type_system: int = 2,
) -> list[int]:
    """Autoregressive sampling from a context sequence with a per-call KV cache.

    The context and every position the response may take are packed once
    into one batch of length ``seq.n + max_response_length``; each step calls
    ``forward_batch`` on the prefix decoded so far and writes the sampled id
    into the token row. The key columns of the last context row of ``mask``
    apply to every step under causality, so a context key they hide is read
    by no query. Those hidden rows are packed first, each keeping its
    position id, and the cache skips them: decoding computes and stores only
    the context positions the knowledge mask leaves visible, and as every
    stored row is visible to every later one, no mask is built. The hidden
    rows stay in the batch, unread, only so that each call keeps the shape
    the perfbench tracer counts (the context plus the tokens decoded so far).
    The first call prefills the cache with the visible rows; every later call
    computes only the one new row. A mask that hides the last context key is
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

    def stream(ids: np.ndarray, fill: int) -> np.ndarray:
        row = np.full((1, total), fill, dtype=np.int64)
        row[0, :n0] = ids[order]
        return row

    pos = np.arange(total, dtype=np.int64)[None, :]
    pos[0, :n0] = order
    tok, ent, tri, typ = (stream(seq.token_ids, 0), stream(seq.entity_ids, 0), stream(seq.triple_ids, 0),
                          stream(seq.type_ids, type_system))
    hidden = n0 - int(np.count_nonzero(visible))
    kv = KVCache.empty(state.cfg, total - hidden, state.dtype, skip=hidden)
    out: list[int] = []
    for n in range(n0, total):
        logits, _ = forward_batch(state, Batch(tok[:, :n], pos[:, :n], ent[:, :n], tri[:, :n], typ[:, :n]), kv=kv)
        tok_id = sample_next(logits[0, -1], params, rng)
        if tok_id == eos_id:
            break
        out.append(tok_id)
        tok[0, n] = tok_id
    return out
