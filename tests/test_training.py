import dataclasses

import numpy as np
import pytest

from kgdialog.corpus import DatasetSplit, SynthConfig, generate_synthetic
from kgdialog.masking import NEG_INF, compose_mask
from kgdialog.model import ModelConfig, backward_batch, forward_batch, init_model, loss_batch, pack_batch
from kgdialog.sequence import AssemblyLimits, SequenceTooLongError, build_vocab
from kgdialog.training import (
    TrainConfig,
    TrainingDiverged,
    _make_batch,
    adamw_step,
    build_sample_inputs,
    dataset_loss,
    save_history,
    train,
)


@pytest.fixture(scope="module")
def small_world():
    split = generate_synthetic(SynthConfig(n_dialogues=8, n_subjects_per_graph=2, n_relations=2, seed=17))
    train_samples = DatasetSplit("train", split.samples[:8])
    valid_samples = DatasetSplit("valid", split.samples[8:10] or split.samples[:2])
    vocab = build_vocab([split])
    mcfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, n_layers=1, d_ff=64,
                       dropout=0.0, max_entity_ids=8, max_triple_ids=16)
    return train_samples, valid_samples, vocab, mcfg


class TestOptimizer:
    def test_zero_grad_zero_decay_is_noop(self):
        state = init_model(ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, d_ff=16), seed=0)
        before = {k: v.copy() for k, v in state.params.items()}
        grads = {k: np.zeros_like(v) for k, v in state.params.items()}
        adamw_step(state, grads, TrainConfig(weight_decay=0.0))
        for k in before:
            np.testing.assert_array_equal(state.params[k], before[k])

    def test_zero_grad_with_decay_shrinks_only(self):
        state = init_model(ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, d_ff=16), seed=0)
        before = {k: v.copy() for k, v in state.params.items()}
        cfg = TrainConfig(weight_decay=0.1, lr=0.5)
        grads = {k: np.zeros_like(v) for k, v in state.params.items()}
        adamw_step(state, grads, cfg)
        for k in before:
            np.testing.assert_allclose(state.params[k], before[k] * (1 - 0.5 * 0.1), atol=1e-6)

    def test_warmup_scales_early_steps(self):
        state = init_model(ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, d_ff=16), seed=0)
        cfg = TrainConfig(lr=1.0, warmup_steps=10, weight_decay=0.0)
        grads = {k: np.ones_like(v) for k, v in state.params.items()}
        before = state.params["tok_emb"].copy()
        adamw_step(state, grads, cfg)
        moved = np.abs(state.params["tok_emb"] - before).max()
        # first step uses lr * 1/10; unscaled Adam step magnitude is ~lr
        assert moved < 0.2


class TestTrainLoop:
    def test_memorization_single_sample(self, small_world):
        train_split, _, vocab, mcfg = small_world
        one = DatasetSplit("train", train_split.samples[:1])
        cfg = TrainConfig(lr=5e-3, epochs=50, batch_size=1, grad_accum_steps=1,
                          weight_decay=0.0, seed=5, k_entity=2, k_relation=2)
        state, history = train(one, None, vocab, mcfg, cfg)
        assert history[-1]["train_loss"] < 0.1 * history[0]["train_loss"]

    def test_two_runs_identical_parameters(self, small_world):
        train_split, valid_split, vocab, mcfg = small_world
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=2, grad_accum_steps=2, seed=9)
        s1, h1 = train(train_split, valid_split, vocab, mcfg, cfg)
        s2, h2 = train(train_split, valid_split, vocab, mcfg, cfg)
        assert h1 == h2
        for k in s1.params:
            assert np.array_equal(s1.params[k], s2.params[k])

    def test_best_validation_state_retained(self, small_world):
        train_split, valid_split, vocab, mcfg = small_world
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=2, grad_accum_steps=1, seed=4)
        state, history = train(train_split, valid_split, vocab, mcfg, cfg)
        best = min(h["valid_loss"] for h in history)
        final = dataset_loss(valid_split, vocab, state, cfg)
        assert final == pytest.approx(best, abs=1e-6)

    def test_epochs_configurable(self, small_world):
        train_split, valid_split, vocab, mcfg = small_world
        for epochs in (1, 3):
            cfg = TrainConfig(lr=1e-3, epochs=epochs, batch_size=4, grad_accum_steps=1, seed=2)
            _, history = train(train_split, valid_split, vocab, mcfg, cfg)
            assert len(history) == epochs

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_reported_with_context(self, small_world):
        train_split, valid_split, vocab, mcfg = small_world
        cfg = TrainConfig(lr=1e30, epochs=3, batch_size=2, grad_accum_steps=1, seed=2, weight_decay=0.0)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(train_split, valid_split, vocab, mcfg, cfg)

    def test_history_csv(self, small_world, tmp_path):
        train_split, valid_split, vocab, mcfg = small_world
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4, grad_accum_steps=1, seed=2)
        _, history = train(train_split, valid_split, vocab, mcfg, cfg)
        path = tmp_path / "history.csv"
        save_history(history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,valid_loss"
        assert len(lines) == 3


class TestSampleInputs:
    @pytest.mark.parametrize("use_kg_mask,k", [(False, 7), (True, 1), (True, 100)])
    def test_ids_past_tables_refused_whatever_the_selection(self, small_world, use_kg_mask, k):
        train_split, _, vocab, mcfg = small_world
        sample = train_split.samples[0]
        groups = len({t.subject for t in sample.graph.triples})
        small = dataclasses.replace(mcfg, max_entity_ids=groups)  # group ids run 1..groups
        state = init_model(small, seed=0)
        with pytest.raises(SequenceTooLongError, match="entity ids reach .* table of size"):
            build_sample_inputs(sample, vocab, state, k, k, use_kg_mask, AssemblyLimits())
        fits = init_model(dataclasses.replace(mcfg, max_entity_ids=groups + 1), seed=0)
        seq, _ = build_sample_inputs(sample, vocab, fits, k, k, use_kg_mask, AssemblyLimits())
        assert int(seq.entity_ids.max()) == groups

    def test_positions_past_table_refused(self, small_world):
        train_split, _, vocab, mcfg = small_world
        sample = train_split.samples[0]
        n = build_sample_inputs(sample, vocab, init_model(mcfg, seed=0), 7, 7, True, AssemblyLimits())[0].n
        state = init_model(dataclasses.replace(mcfg, max_positions=n - 1), seed=0)
        with pytest.raises(SequenceTooLongError, match="position ids"):
            build_sample_inputs(sample, vocab, state, 7, 7, True, AssemblyLimits())


class TestVisibleRowBatch:
    """Training batches keep only the rows the knowledge mask leaves visible;
    the full masked batch (every row, ``compose_mask``) is the oracle."""

    @staticmethod
    def _loss_and_grads(state, batch):
        logits, cache = forward_batch(state, batch)
        value, dlogits = loss_batch(logits, batch.targets)
        return value, backward_batch(state, cache, dlogits)

    @pytest.mark.parametrize("k, use_kg_mask, drops", [(1, True, True), (0, True, False), (7, False, False)],
                             ids=["hides-triples", "all-hidden-fallback", "no-kg-mask"])
    def test_matches_full_masked_batch(self, small_world, k, use_kg_mask, drops):
        train_split, _, vocab, mcfg = small_world
        state = init_model(mcfg, seed=3, dtype=np.float64)
        pairs = [build_sample_inputs(s, vocab, state, k, k, use_kg_mask, AssemblyLimits())
                 for s in train_split.samples[:4]]
        n = max(seq.n for seq, _ in pairs)
        full = pack_batch([seq for seq, _ in pairs], [compose_mask(seq, cols, n - seq.n) for seq, cols in pairs], True)
        batch = _make_batch(pairs)

        lengths = []
        for i, (seq, cols) in enumerate(pairs):
            kept = np.flatnonzero(np.concatenate([cols != NEG_INF, np.ones(seq.n - cols.shape[0], dtype=bool)]))
            m = kept.size
            lengths.append(m)
            np.testing.assert_array_equal(batch.pos[i, :m], kept)
            np.testing.assert_array_equal(batch.tok[i, :m], seq.token_ids[kept])
            rows = np.flatnonzero(batch.targets[i] >= 0)
            np.testing.assert_array_equal(rows, np.flatnonzero(batch.targets[i, :m] >= 0))
            # each target row predicts the token its full-batch row predicts
            np.testing.assert_array_equal(batch.targets[i, rows], full.targets[i, batch.pos[i, rows]])
            assert rows.size == np.count_nonzero(full.targets[i] >= 0)
        assert len(set(lengths)) > 1  # padded
        assert (sum(lengths) < sum(seq.n for seq, _ in pairs)) == drops
        if not drops:
            for name in ("tok", "pos", "ent", "tri", "typ", "targets"):
                np.testing.assert_array_equal(getattr(batch, name), getattr(full, name))

        value, grads = self._loss_and_grads(state, batch)
        ref_value, ref_grads = self._loss_and_grads(state, full)
        assert value == pytest.approx(ref_value, rel=1e-9)
        for name, ref in ref_grads.items():
            if name.endswith("attn.bk"):  # zero in exact arithmetic
                np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12)
            else:
                assert np.linalg.norm(grads[name] - ref) <= 1e-9 * np.linalg.norm(ref), name
