import dataclasses
import math

import numpy as np
import pytest

from kgdialog.corpus import build_graph
from kgdialog.graph_weights import Selection
from kgdialog.masking import (
    NEG_INF,
    compose_mask,
    knowledge_column_mask,
    unmasked_columns,
)
from kgdialog.model import (
    Batch,
    DecodingParams,
    KVCache,
    ModelConfig,
    _embedding_sum,
    attention,
    backward,
    backward_batch,
    forward,
    forward_batch,
    gather_batch,
    gelu,
    gelu_grad,
    init_model,
    layernorm_bwd,
    layernorm_fwd,
    loss,
    loss_batch,
    pack_batch,
    sample_next,
    sample_response,
    scatter_add_rows,
    softmax_rows,
)
from kgdialog.sequence import TYPE_SYSTEM, AssemblyLimits, assemble_input, linearize_graph
from test_sequence import vocab_over

from oracles import add_at_scatter, finite_diff_grads, naive_attention, naive_response_nll

GRAPH = build_graph([["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"]])
VOCAB = vocab_over("s1 s2 r1 r2 o1 o2 o3 what is the of ? answer it")
LIMITS = AssemblyLimits()


def make_seq(gold="it is o1", question="what is the r1 of s1 ?"):
    return assemble_input(linearize_graph(GRAPH), [], question, gold, VOCAB, LIMITS)


def make_model(**overrides):
    cfg = dict(
        vocab_size=len(VOCAB), d_model=16, n_heads=2, n_layers=1, d_ff=32,
        dropout=0.0, max_entity_ids=8, max_triple_ids=16, max_positions=128,
    )
    cfg.update(overrides)
    return init_model(ModelConfig(**cfg), seed=3)


def full_mask(seq):
    return compose_mask(seq, unmasked_columns(seq))


def scaled_model(**overrides):
    """Seed-2 model with larger weights, so greedy decodes vary and the knowledge mask matters."""
    state = init_model(make_model(**overrides).cfg, seed=2)
    for name, arr in state.params.items():
        if name.endswith(("emb", ".wq", ".wk", ".wv", ".wo", ".w1", ".w2")):
            arr *= 25.0
    return state


def masked_triple_columns(seq):
    """Key columns under a selection that hides triple 2 (s1, r2, o2)."""
    cols = knowledge_column_mask(seq, Selection(frozenset({0, 1}), frozenset({0}), 7, 7), GRAPH)
    assert (cols == NEG_INF).any()
    return cols


def embed(seq, state):
    """Layer-normalized sum of the five embedding streams of every row of ``seq``, (n, d_model)."""
    p = state.params
    batch = gather_batch([seq], [np.arange(seq.n)], seq.n, False)
    x = _embedding_sum(p, state.cfg, batch.tok, batch.pos, batch.ent, batch.tri, batch.typ)
    h, _ = layernorm_fwd(x, p["ln_e.g"], p["ln_e.b"])
    return h[0]


class TestEmbed:
    def test_layernorm_statistics(self):
        seq = make_seq()
        state = init_model(make_model().cfg, seed=3, dtype=np.float64)
        # unit-scale tables so the 1e-5 norm epsilon is negligible relative to
        # the input variance; gamma=1 beta=0 at init means post == pre-affine
        rng = np.random.default_rng(0)
        for name in ("tok_emb", "pos_emb", "ent_emb", "tri_emb", "typ_emb"):
            state.params[name] = rng.normal(size=state.params[name].shape)
        h = embed(seq, state)
        np.testing.assert_allclose(h.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(h.var(axis=-1), 1.0, atol=1e-5)

    def test_token_only_when_other_tables_zero(self):
        seq = make_seq()
        state = make_model()
        for name in ("pos_emb", "ent_emb", "tri_emb", "typ_emb"):
            state.params[name][:] = 0.0
        x = state.params["tok_emb"][seq.token_ids]
        mu = x.mean(-1, keepdims=True)
        ref = (x - mu) / np.sqrt(((x - mu) ** 2).mean(-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(embed(seq, state), ref, atol=1e-6)

    def test_hand_computed_two_position_toy(self):
        # d=4 toy with hand-set tables; H0 = LN(tok+pos+ent+tri+typ)
        cfg = ModelConfig(vocab_size=len(VOCAB), d_model=4, n_heads=1, n_layers=1, d_ff=8,
                          dropout=0.0, max_entity_ids=4, max_triple_ids=4, max_positions=8)
        state = init_model(cfg, seed=0)
        for name in state.params:
            if name.endswith("emb"):
                state.params[name][:] = 0.0
        state.params["tok_emb"][1] = [1.0, 2.0, 3.0, 4.0]
        state.params["pos_emb"][0] = [0.5, 0.5, 0.5, 0.5]
        g = build_graph([])
        seq = assemble_input(linearize_graph(g), [], "is ?", None, VOCAB, LIMITS)
        h = embed(seq, state)
        # position 0 is [BOS] (token id 1): x = [1.5, 2.5, 3.5, 4.5]
        x = np.array([1.5, 2.5, 3.5, 4.5])
        ref = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        np.testing.assert_allclose(h[0], ref, atol=1e-6)

    def test_out_of_range_index_names_stream(self):
        seq = make_seq()
        state = make_model(max_triple_ids=2)
        with pytest.raises(IndexError, match="triple"):
            forward(seq, full_mask(seq), state)


class TestAttention:
    def test_degenerate_single_visible_key(self, rng):
        n, dk = 4, 8
        q, k, v = (rng.normal(size=(n, dk)) for _ in range(3))
        m = np.full((n, n), NEG_INF, dtype=np.float64)
        m[:, 0] = 0.0
        out, _ = attention(q, k, v, m)
        for i in range(n):
            np.testing.assert_allclose(out[i], v[0], atol=1e-12)

    def test_zero_queries_uniform_over_unmasked(self, rng):
        n, dk = 5, 4
        k, v = rng.normal(size=(n, dk)), rng.normal(size=(n, dk))
        q = np.zeros((n, dk))
        m = np.zeros((n, n))
        m[:, 3:] = NEG_INF
        out, _ = attention(q, k, v, m)
        np.testing.assert_allclose(out, np.broadcast_to(v[:3].mean(0), (n, dk)), atol=1e-12)

    def test_matches_naive_loop_oracle(self, rng):
        q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
        m = np.where(rng.random((3, 3)) < 0.3, NEG_INF, 0.0).astype(np.float64)
        m[:, 0] = 0.0
        ctx, _ = attention(q, k, v, m)
        np.testing.assert_allclose(ctx, naive_attention(q, k, v, m), atol=1e-10)

        # batched (B, H, n, d) input with one mask per sample, broadcast over heads
        b, h, n, d = 2, 3, 5, 4
        q, k, v = (rng.normal(size=(b, h, n, d)) for _ in range(3))
        m = np.where(rng.random((b, 1, n, n)) < 0.3, NEG_INF, 0.0).astype(np.float64)
        m[..., 0] = 0.0
        ctx, _ = attention(q, k, v, m)
        assert ctx.shape == (b, h, n, d)
        for i in range(b):
            for j in range(h):
                np.testing.assert_allclose(ctx[i, j], naive_attention(q[i, j], k[i, j], v[i, j], m[i, 0]), atol=1e-10)


class TestForward:
    def test_zero_blocks_reduce_to_embedding_head(self):
        seq = make_seq()
        state = make_model()
        for name, arr in state.params.items():
            if name.startswith("h0.") and not name.endswith(".g"):
                arr[:] = 0.0
        logits = forward(seq, full_mask(seq), state)
        p = state.params
        x = p["tok_emb"][seq.token_ids] + p["pos_emb"][np.arange(seq.n)]
        x += p["ent_emb"][seq.entity_ids] + p["tri_emb"][seq.triple_ids] + p["typ_emb"][seq.type_ids]
        h, _ = layernorm_fwd(x, p["ln_e.g"], p["ln_e.b"])
        hf, _ = layernorm_fwd(h, p["ln_f.g"], p["ln_f.b"])
        np.testing.assert_allclose(logits, hf @ p["tok_emb"].T, atol=1e-5)

    def test_duplicated_sample_identical_logits(self):
        seq = make_seq()
        state = make_model()
        mask = full_mask(seq)
        batch = pack_batch([seq, seq], [mask, mask], False)
        logits, _ = forward_batch(state, batch)
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_identity_gather_is_pack_batch(self):
        seqs = [make_seq(), make_seq(gold="it is o1 of s1 and o2")]
        n = max(s.n for s in seqs)
        packed = pack_batch(seqs, [compose_mask(s, unmasked_columns(s), n - s.n) for s in seqs], True)
        gathered = gather_batch(seqs, [np.arange(s.n) for s in seqs], n, True)
        assert gathered.mask is None
        assert gathered.lengths.tolist() == [s.n for s in seqs]
        for name in ("tok", "pos", "ent", "tri", "typ", "targets", "lengths"):
            np.testing.assert_array_equal(getattr(gathered, name), getattr(packed, name))

    def test_maskless_padded_batch_is_causal(self):
        seqs = [make_seq(), make_seq(gold="it is o1 of s1 and o2")]
        n = max(s.n for s in seqs)
        assert len({s.n for s in seqs}) == 2
        state = init_model(make_model().cfg, seed=3, dtype=np.float64)
        logits, _ = forward_batch(state, gather_batch(seqs, [np.arange(s.n) for s in seqs], n, False))
        masks = [compose_mask(s, unmasked_columns(s), n - s.n) for s in seqs]
        masked, _ = forward_batch(state, pack_batch(seqs, masks, False))
        for i, seq in enumerate(seqs):
            np.testing.assert_array_equal(logits[i, : seq.n], masked[i, : seq.n])
            np.testing.assert_allclose(logits[i, : seq.n], forward(seq, full_mask(seq), state), rtol=1e-10, atol=1e-12)

    def test_matches_dense_float64_reference(self, rng):
        # independent single-sequence re-implementation with plain loops over heads
        seq = make_seq()
        state = init_model(make_model(d_model=8, n_heads=2, d_ff=16).cfg, seed=3, dtype=np.float64)
        mask = full_mask(seq)
        logits = forward(seq, mask, state)

        p = state.params
        n = seq.n
        d, nh, dk = 8, 2, 4
        x = p["tok_emb"][seq.token_ids] + p["pos_emb"][np.arange(n)]
        x += p["ent_emb"][seq.entity_ids] + p["tri_emb"][seq.triple_ids] + p["typ_emb"][seq.type_ids]

        def ln(v, g, b):
            mu = v.mean(-1, keepdims=True)
            s = ((v - mu) ** 2).mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(s + 1e-5) * g + b

        h = ln(x, p["ln_e.g"], p["ln_e.b"])
        a_in = ln(h, p["h0.ln1.g"], p["h0.ln1.b"])
        q = a_in @ p["h0.attn.wq"] + p["h0.attn.bq"]
        k = a_in @ p["h0.attn.wk"] + p["h0.attn.bk"]
        v = a_in @ p["h0.attn.wv"] + p["h0.attn.bv"]
        heads = []
        for hh in range(nh):
            sl = slice(hh * dk, (hh + 1) * dk)
            heads.append(naive_attention(q[:, sl], k[:, sl], v[:, sl], mask.values.astype(np.float64)))
        ctx = np.concatenate(heads, axis=1)
        h = h + ctx @ p["h0.attn.wo"] + p["h0.attn.bo"]
        f_in = ln(h, p["h0.ln2.g"], p["h0.ln2.b"])
        z = f_in @ p["h0.ff.w1"] + p["h0.ff.b1"]
        a = 0.5 * z * (1 + np.tanh(math.sqrt(2 / math.pi) * (z + 0.044715 * z**3)))
        h = h + a @ p["h0.ff.w2"] + p["h0.ff.b2"]
        ref = ln(h, p["ln_f.g"], p["ln_f.b"]) @ p["tok_emb"].T
        np.testing.assert_allclose(logits, ref, atol=1e-8)

    def test_causality_bit_identical(self):
        seq = make_seq()
        state = make_model()
        mask = full_mask(seq)
        base = forward(seq, mask, state)
        j = seq.n - 3
        perturbed = dataclasses.replace(seq, token_ids=seq.token_ids.copy())
        perturbed.token_ids[j] = (perturbed.token_ids[j] + 1) % len(VOCAB)
        after = forward(perturbed, mask, state)
        assert np.array_equal(base[:j], after[:j])
        assert not np.array_equal(base[j:], after[j:])

    def test_masked_triple_isolated_bit_identical(self):
        seq = make_seq()
        state = make_model()
        # mask out triple 2 entirely (relation r2 not selected)
        sel = Selection(frozenset({0, 1}), frozenset({0}), 7, 7)
        cols = knowledge_column_mask(seq, sel, GRAPH)
        start, end = seq.triple_spans[2]
        assert (cols[start:end] == NEG_INF).all()
        mask = compose_mask(seq, cols)
        base = forward(seq, mask, state)
        perturbed = dataclasses.replace(seq, token_ids=seq.token_ids.copy())
        for pos in range(start, end):
            perturbed.token_ids[pos] = (perturbed.token_ids[pos] + 3) % len(VOCAB)
        after = forward(perturbed, mask, state)
        rs = seq.response_start
        assert np.array_equal(base[rs - 1 :], after[rs - 1 :])


class TestPaddingFree:
    """Forward and backward compute only the rows ``Batch.lengths`` counts."""

    @staticmethod
    def _run(state, batch):
        logits, cache = forward_batch(state, batch)
        value, dlogits = loss_batch(logits, batch.targets)
        return logits, value, backward_batch(state, cache, dlogits)

    def test_widening_changes_no_real_row(self):
        seqs = [make_seq(), make_seq(gold="it is o1 of s1 and o2")]
        rows = [np.arange(s.n) for s in seqs]
        n = max(s.n for s in seqs)
        state = init_model(make_model().cfg, seed=3, dtype=np.float64)
        logits, value, grads = self._run(state, gather_batch(seqs, rows, n, True))
        wide_logits, wide_value, wide_grads = self._run(state, gather_batch(seqs, rows, n + 9, True))
        assert wide_value == pytest.approx(value, rel=1e-12)
        for i, seq in enumerate(seqs):
            np.testing.assert_allclose(wide_logits[i, : seq.n], logits[i, : seq.n], rtol=1e-12, atol=0)
            assert (wide_logits[i, seq.n :] == 0).all()
        for name, ref in grads.items():
            if name.endswith("attn.bk"):  # zero in exact arithmetic
                np.testing.assert_allclose(wide_grads[name], ref, rtol=0, atol=1e-15)
            else:
                assert np.linalg.norm(wide_grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name

    def test_decode_batch_rows_past_lengths_are_computed(self):
        seq = make_seq()
        state = make_model()
        kv = KVCache.empty(state.cfg, seq.n, state.dtype)
        # a prefill, then single-row steps, each computing every row it adds past the gather's lengths
        for n, added in ((seq.n - 2, seq.n - 2), (seq.n - 1, 1), (seq.n, 1)):
            batch = gather_batch([seq], [np.arange(seq.n - 4)], n, False)
            assert batch.lengths.tolist() == [seq.n - 4]
            logits, _ = forward_batch(state, batch, kv=kv)
            assert logits.shape[:2] == (1, added) and (logits != 0).all()


class TestScatterAddRows:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_add_at_oracle(self, rng, dtype):
        ids = np.array([3, 0, 3, 5, 5, 5, 1, 3, 0, 7])  # repeats; ids 2, 4, 6 unused
        rows = rng.normal(size=(ids.size, 6)).astype(dtype)
        out = rng.normal(size=(10, 6)).astype(dtype)
        ref = out.copy()
        scatter_add_rows(out, ids, rows)
        add_at_scatter(ref, ids, rows)
        np.testing.assert_allclose(out, ref, rtol=1e-6 if dtype == np.float32 else 1e-12)
        np.testing.assert_array_equal(out[[2, 4, 6, 8, 9]], ref[[2, 4, 6, 8, 9]])


class TestLoss:
    def test_uniform_logits_log_vocab(self):
        seq = make_seq()
        logits = np.zeros((seq.n, len(VOCAB)), dtype=np.float32)
        value, _ = loss(logits, seq)
        assert value == pytest.approx(math.log(len(VOCAB)), abs=1e-6)

    def test_confident_correct_near_zero(self):
        seq = make_seq()
        logits = np.zeros((seq.n, len(VOCAB)), dtype=np.float32)
        for t in range(seq.response_start, seq.n):
            logits[t - 1, seq.token_ids[t]] = 50.0
        value, _ = loss(logits, seq)
        assert value < 1e-6

    def test_matches_naive_oracle(self, rng):
        seq = make_seq()
        logits = rng.normal(size=(seq.n, len(VOCAB)))
        value, _ = loss(logits, seq)
        ref = naive_response_nll(logits, seq.token_ids, seq.response_start)
        assert value == pytest.approx(ref, abs=1e-10)

    def test_pre_response_positions_excluded(self, rng):
        seq = make_seq()
        logits = rng.normal(size=(seq.n, len(VOCAB)))
        value, dlogits = loss(logits, seq)
        perturbed = logits.copy()
        perturbed[: seq.response_start - 1] += rng.normal(size=(seq.response_start - 1, len(VOCAB)))
        value2, _ = loss(perturbed, seq)
        assert value2 == pytest.approx(value, abs=1e-12)
        assert (dlogits[: seq.response_start - 1] == 0).all()

    def test_empty_response_rejected(self):
        seq = make_seq(gold=None)
        logits = np.zeros((seq.n, len(VOCAB)), dtype=np.float32)
        with pytest.raises(ValueError):
            loss(logits, seq)


class TestBackward:
    def test_unused_embedding_row_zero_grad(self):
        seq = make_seq()
        state = init_model(make_model().cfg, seed=3, dtype=np.float64)
        _, grads = backward(state, seq, full_mask(seq))
        used = set(seq.token_ids.tolist())
        unused = [i for i in range(len(VOCAB)) if i not in used]
        assert unused
        # rows only receive head-gradient if the token is a possible target;
        # embedding-scatter contributes only at used rows. Unused rows still
        # get head gradients (tied output), so check a never-used entity row.
        assert (grads["ent_emb"][7] == 0).all()
        assert (grads["pos_emb"][seq.n :] == 0).all()

    def test_finite_difference_agreement(self, rng):
        seq = make_seq()
        state = init_model(make_model().cfg, seed=3, dtype=np.float64)
        mask = full_mask(seq)
        value, grads = backward(state, seq, mask)

        def loss_fn():
            lg = forward(seq, mask, state)
            v, _ = loss(lg, seq)
            return v

        picks = []
        names = list(state.params)
        for _ in range(120):
            name = names[int(rng.integers(len(names)))]
            picks.append((name, int(rng.integers(state.params[name].size))))
        numeric = finite_diff_grads(loss_fn, state.params, picks, step=1e-5)
        worst = 0.0
        for (name, idx), num in zip(picks, numeric):
            ana = grads[name].flat[idx]
            err = abs(num - ana) / max(abs(num), abs(ana), 1e-6)
            worst = max(worst, err)
        assert worst <= 1e-3

    def test_memorization_loss_decreases(self):
        from kgdialog.training import TrainConfig, adamw_step

        seq = make_seq()
        state = make_model()
        mask = full_mask(seq)
        cfg = TrainConfig(lr=5e-3, weight_decay=0.0)
        first = None
        for _ in range(50):
            value, grads = backward(state, seq, mask)
            if first is None:
                first = value
            adamw_step(state, grads, cfg)
        final, _ = backward(state, seq, mask)
        assert final < first
        assert final < math.log(len(VOCAB))
        assert final < 0.1 * first


class TestSampling:
    def test_top_k_one_is_greedy(self, rng):
        logits = rng.normal(size=20)
        params = DecodingParams(top_k=1, temperature=0.9, top_p=0.5, seed=0)
        for seed in range(5):
            got = sample_next(logits, dataclasses.replace(params, seed=seed), np.random.default_rng(seed))
            assert got == int(np.argmax(logits))

    def test_tiny_temperature_is_greedy(self, rng):
        logits = rng.normal(size=20)
        params = DecodingParams(top_k=10, temperature=1e-6, top_p=1.0, seed=0)
        got = sample_next(logits, params, np.random.default_rng(0))
        assert got == int(np.argmax(logits))

    def test_nucleus_restricts_to_prefix(self):
        logits = np.log(np.array([0.6, 0.3, 0.05, 0.05]))
        params = DecodingParams(top_k=4, temperature=1.0, top_p=0.5, seed=0)
        draws = {sample_next(logits, params, np.random.default_rng(s)) for s in range(40)}
        assert draws == {0}

    def test_fixed_seed_reproducible(self):
        seq = make_seq(gold=None)
        state = make_model()
        mask = full_mask(seq)
        params = DecodingParams(temperature=0.8, top_k=4, top_p=0.9, max_response_length=8, seed=5)
        a = sample_response(state, seq, mask, params, VOCAB.eos_id)
        b = sample_response(state, seq, mask, params, VOCAB.eos_id)
        assert a == b

    def test_greedy_matches_full_prefix_reference(self):
        seq = make_seq(gold=None)
        state = scaled_model()
        cols = masked_triple_columns(seq)  # hidden at every step
        params = DecodingParams(top_k=1, max_response_length=6)
        got = sample_response(state, seq, compose_mask(seq, cols), params, VOCAB.eos_id)
        assert len(set(got)) > 1
        assert got != sample_response(state, seq, full_mask(seq), params, VOCAB.eos_id)
        # no cache state carries over from the unmasked call
        assert sample_response(state, seq, compose_mask(seq, cols), params, VOCAB.eos_id) == got

        want: list[int] = []
        ext = seq
        for _ in range(params.max_response_length):
            tok = int(np.argmax(forward(ext, compose_mask(ext, cols), state)[-1]))
            if tok == VOCAB.eos_id:
                break
            want.append(tok)
            ext = dataclasses.replace(
                ext,
                token_ids=np.append(ext.token_ids, tok),
                position_ids=np.append(ext.position_ids, ext.n),
                entity_ids=np.append(ext.entity_ids, 0),
                triple_ids=np.append(ext.triple_ids, 0),
                type_ids=np.append(ext.type_ids, TYPE_SYSTEM),
            )
        assert got == want

    def test_hidden_context_rows_not_computed(self, monkeypatch):
        seq = make_seq(gold=None)
        state = scaled_model()
        params = DecodingParams(top_k=1, max_response_length=4)
        calls: list[tuple[int, int]] = []  # (first row computed, prefix length)

        def recording(state, batch, train=False, rng=None, kv=None):
            calls.append((kv.skip + kv.rows, batch.shape[1]))
            assert batch.mask is None
            return forward_batch(state, batch, train=train, rng=rng, kv=kv)

        monkeypatch.setattr("kgdialog.model.forward_batch", recording)
        cols = masked_triple_columns(seq)
        sample_response(state, seq, compose_mask(seq, cols), params, VOCAB.eos_id)
        hidden = int(np.count_nonzero(cols == NEG_INF))
        assert len(calls) > 1
        # the prefill computes the n0 - hidden visible rows, every later call one row
        assert calls == [(hidden, seq.n)] + [(seq.n + i - 1, seq.n + i) for i in range(1, len(calls))]

        calls.clear()
        sample_response(state, seq, full_mask(seq), params, VOCAB.eos_id)
        assert calls[0] == (0, seq.n)

    def test_mask_hiding_last_context_key_refused(self):
        seq = make_seq(gold=None)
        mask = compose_mask(seq, masked_triple_columns(seq))
        mask.values[seq.n - 1, seq.n - 1] = NEG_INF  # no query reads the key whose row picks the first token
        with pytest.raises(ValueError, match="last context key"):
            sample_response(make_model(), seq, mask, DecodingParams(max_response_length=1), VOCAB.eos_id)

    def test_respects_max_response_length(self):
        seq = make_seq(gold=None)
        state = make_model()
        params = DecodingParams(temperature=1.0, top_k=3, top_p=1.0, max_response_length=4, seed=1)
        out = sample_response(state, seq, full_mask(seq), params, VOCAB.eos_id)
        assert len(out) <= 4


class TestKVCache:
    def test_cached_rows_match_full_prefix_forward(self):
        self.check_cached_rows(scaled_model(n_layers=2))

    @pytest.mark.parametrize("table", ["use_entity_emb", "use_triple_emb", "use_type_emb"])
    def test_cached_rows_without_table(self, table):
        self.check_cached_rows(scaled_model(n_layers=2, **{table: False}))

    def check_cached_rows(self, state):
        """Cached logits and stored keys and values against one full-prefix forward pass."""
        seq = make_seq()
        mask = compose_mask(seq, masked_triple_columns(seq))
        full_batch = pack_batch([seq], [mask], False)
        full, cache = forward_batch(state, full_batch)
        full = full[0]
        visible = mask.values[seq.n - 1] != NEG_INF
        order = np.argsort(visible, kind="stable")  # hidden rows first, each with its own position id
        hidden = seq.n - int(np.count_nonzero(visible))
        assert 0 < hidden < seq.n - 6
        streams = [a[:, order] for a in (full_batch.tok, full_batch.pos, full_batch.ent, full_batch.tri,
                                         full_batch.typ)]
        kv = KVCache.empty(state.cfg, seq.n - hidden, state.dtype, skip=hidden)
        # a prefill, then single-row steps
        for n in range(seq.n - 6, seq.n + 1):
            start = kv.skip + kv.rows
            logits, step_cache = forward_batch(state, Batch(*(a[:, :n] for a in streams)), kv=kv)
            assert step_cache is None and kv.skip + kv.rows == n
            assert logits.shape == (1, n - start, len(VOCAB))
            # float32 sums run in another order over fewer rows; a logit near zero is judged
            # against its row's scale rather than its own
            want = full[order[start:n]]
            np.testing.assert_allclose(logits[0], want, rtol=1e-5, atol=1e-5 * float(np.abs(want).max()))
        # slot j of the cache holds the keys and values of batch row hidden + j
        for i, layer in enumerate(cache["layers"]):
            for stored, ref in ((kv.k[i], layer["k"]), (kv.v[i], layer["v"])):
                want = ref[0][:, order[hidden:]]
                np.testing.assert_allclose(stored, want, rtol=1e-5, atol=1e-5 * float(np.abs(want).max()))

    def prefilled(self, state, seq):
        """A cache prefilled with every row of ``seq`` but the last, and the batch of all rows."""
        batch = gather_batch([seq], [np.arange(seq.n)], seq.n, False)
        kv = KVCache.empty(state.cfg, seq.n, state.dtype)
        forward_batch(state, batch.span(0, seq.n - 1), kv=kv)
        return batch, kv

    def test_one_row_step_position_past_table_refused(self):
        seq = make_seq()
        state = make_model(max_positions=seq.n + 1)
        batch, kv = self.prefilled(state, seq)
        batch.pos[0, seq.n - 1] = seq.n + 1
        with pytest.raises(IndexError, match=rf"position stream index out of range: \[{seq.n + 1}, {seq.n + 1}\] "
                                             rf"vs table size {seq.n + 1}"):
            forward_batch(state, batch, kv=kv)
        assert kv.rows == seq.n - 1

    def test_one_row_step_non_finite_weight_refused(self):
        seq = make_seq()
        state = make_model()
        batch, kv = self.prefilled(state, seq)
        state.params["ln_f.g"][0] = np.nan
        with pytest.raises(FloatingPointError):
            forward_batch(state, batch, kv=kv)

    def test_train_mode_and_stale_batches_refused(self):
        seq = make_seq()
        state = make_model()
        batch = pack_batch([seq], [full_mask(seq)], False)
        kv = KVCache.empty(state.cfg, seq.n, state.dtype)
        with pytest.raises(ValueError):
            forward_batch(state, batch, train=True, rng=np.random.default_rng(0), kv=kv)
        assert kv.rows == 0
        forward_batch(state, batch.span(0, seq.n - 3), kv=kv)
        for stale in (batch.span(0, seq.n - 3),  # holds no row past the cache
                      batch.span(0, seq.n - 1),  # several rows onto a filled cache
                      Batch(*(np.repeat(a[:, : seq.n - 2], 2, axis=0)  # a two-sample batch
                              for a in (batch.tok, batch.pos, batch.ent, batch.tri, batch.typ)))):
            with pytest.raises(ValueError):
                forward_batch(state, stale, kv=kv)
        assert kv.rows == seq.n - 3


class TestAblationEquivalence:
    def test_disabled_tables_equal_zeroed_tables(self):
        seq = make_seq()
        mask = full_mask(seq)
        ablated = make_model(use_entity_emb=False, use_triple_emb=False)
        zeroed = make_model()
        zeroed.params["ent_emb"][:] = 0.0
        zeroed.params["tri_emb"][:] = 0.0
        la = forward(seq, mask, ablated)
        lz = forward(seq, mask, zeroed)
        np.testing.assert_array_equal(la, lz)


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [16, 100, 128, 130])
    @pytest.mark.parametrize("lead", [(7,), (3, 5)])
    def test_equals_mean_formulas_bit_for_bit(self, rng, dtype, width, lead):
        x, dy = (rng.normal(size=lead + (width,)).astype(dtype) * 3 + 1 for _ in range(2))
        g, b = (rng.normal(size=width).astype(dtype) for _ in range(2))
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        invstd = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * invstd
        y, cache = layernorm_fwd(x, g, b)
        for got, want in zip((y, *cache), (xhat * g + b, xhat, invstd)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
        dxhat = dy * g
        dx = invstd * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        got_dx, _, _ = layernorm_bwd(dy, cache, g)
        assert got_dx.dtype == dtype
        np.testing.assert_array_equal(got_dx, dx)


class TestGelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(512,), (7, 130)])
    def test_equals_expression_bit_for_bit(self, rng, dtype, shape):
        x = (rng.normal(size=shape) * 3).astype(dtype)
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        t = np.tanh(c * (x + a * (x * x * x)))
        y, got_t = gelu(x)
        for got, want in ((y, 0.5 * x * (1.0 + t)), (got_t, t),
                          (gelu_grad(x, t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3.0 * a * (x * x))))):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)


class TestSoftmaxRows:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(6, 9)).astype(np.float32) * 8
        p = softmax_rows(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
