import math
from dataclasses import replace

import pytest

from kgdialog.corpus import DatasetSplit, SynthConfig, entity_lexicon, generate_synthetic
from kgdialog.evaluation import (
    EntityMatcher,
    entity_counts,
    entity_f1,
    evaluate,
    f1_from_counts,
    save_report,
    sentence_bleu,
)
from kgdialog.model import DecodingParams, ModelConfig, init_model
from kgdialog.sequence import build_vocab
from kgdialog.training import TrainConfig


class TestBleu:
    def test_identical_sentences_exactly_one(self):
        sent = "the quick brown fox jumps over the lazy dog today".split()
        assert sentence_bleu(sent, sent) == 1.0

    def test_disjoint_sentences_below_smoothing_floor(self):
        # with the 1/(2*count) substitution the geometric mean of the four
        # smoothed precisions sits near 1/(2*len); 60 disjoint tokens push the
        # score under 1%
        hyp = [f"a{i}" for i in range(60)]
        ref = [f"b{i}" for i in range(60)]
        assert sentence_bleu(hyp, ref) < 0.01

    def test_hand_computed_partial_overlap(self):
        # hyp "the cat sat" vs ref "the cat sat down":
        #   p1 = 3/3, p2 = 2/2, p3 = 1/1, p4 = 1/(2*max(0,1)) = 0.5
        #   BP = exp(1 - 4/3)
        # BLEU = exp(-1/3) * (0.5) ** 0.25
        expected = math.exp(1.0 - 4.0 / 3.0) * 0.5**0.25
        got = sentence_bleu("the cat sat".split(), "the cat sat down".split())
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_hypothesis_zero(self):
        assert sentence_bleu([], "a b".split()) == 0.0

    def test_brevity_penalty_only_when_shorter(self):
        hyp = "a b c d".split()
        assert sentence_bleu(hyp, hyp) == 1.0
        longer = sentence_bleu("a b c d e".split(), hyp)
        assert longer < 1.0  # extra token breaks precision but BP stays 1

    def test_bounds(self, rng):
        words = [f"w{i}" for i in range(8)]
        for _ in range(50):
            hyp = [words[i] for i in rng.integers(0, 8, size=rng.integers(1, 12))]
            ref = [words[i] for i in rng.integers(0, 8, size=rng.integers(1, 12))]
            assert 0.0 <= sentence_bleu(hyp, ref) <= 1.0


class TestEntityExtraction:
    def test_longest_match_consumes_span(self):
        matcher = EntityMatcher(["4 miles", "miles"])
        assert matcher.extract("it is 4 miles away") == {"4 miles"}

    def test_overlapping_phrases(self):
        matcher = EntityMatcher(["bedoin st", "792 bedoin st"])
        assert matcher.extract("at 792 bedoin st now") == {"792 bedoin st"}

    def test_no_entities(self):
        matcher = EntityMatcher(["starbucks"])
        assert matcher.extract("nothing to see here") == set()


class TestEntityF1:
    def test_perfect_match(self):
        lex = ["a", "b"]
        assert entity_f1(["a and b"], ["b then a"], lex) == 1.0

    def test_half_overlap_hand_case(self):
        # gold {a, b}, predicted {b, c}: P = R = 0.5, F1 = 0.5 exactly
        lex = ["a", "b", "c"]
        assert entity_f1(["b c"], ["a b"], lex) == 0.5

    def test_empty_prediction_zero(self):
        lex = ["a", "b"]
        assert entity_f1(["nothing"], ["a b"], lex) == 0.0

    def test_micro_average_concatenation_consistency(self):
        lex = ["a", "b", "c", "d"]
        hyps1, golds1 = ["a b"], ["a c"]
        hyps2, golds2 = ["d", "c d"], ["d b", "c"]
        m = EntityMatcher(lex)
        tp1, fp1, fn1, _ = entity_counts(hyps1, golds1, m)
        tp2, fp2, fn2, _ = entity_counts(hyps2, golds2, m)
        combined = entity_f1(hyps1 + hyps2, golds1 + golds2, lex)
        assert combined == f1_from_counts(tp1 + tp2, fp1 + fp2, fn1 + fn2)


@pytest.fixture(scope="module")
def setup():
    split = generate_synthetic(SynthConfig(n_dialogues=4, n_subjects_per_graph=2, n_relations=2, seed=11))
    vocab = build_vocab([split])
    lexicon = entity_lexicon([split])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, n_layers=1, d_ff=64,
                      dropout=0.0, max_entity_ids=8, max_triple_ids=16)
    state = init_model(cfg, seed=2)
    return state, split, vocab, lexicon


class TestEvaluate:

    def test_self_evaluation_perfect_scores(self, setup):
        state, split, vocab, lexicon = setup
        report = evaluate(state, split, vocab, lexicon, DecodingParams(seed=1), TrainConfig(), hyp_from_gold=True)
        assert report.bleu == pytest.approx(100.0)
        assert report.entity_f1 == pytest.approx(100.0)

    def test_deterministic_reports(self, setup):
        state, split, vocab, lexicon = setup
        params = DecodingParams(temperature=0.9, top_k=5, top_p=0.9, max_response_length=6, seed=3)
        a = evaluate(state, split, vocab, lexicon, params, TrainConfig())
        b = evaluate(state, split, vocab, lexicon, params, TrainConfig())
        assert a.to_dict() == b.to_dict()

    def test_threaded_matches_sequential(self, setup):
        state, split, vocab, lexicon = setup
        params = DecodingParams(temperature=0.9, top_k=5, top_p=0.9, max_response_length=6, seed=3)
        seq = evaluate(state, split, vocab, lexicon, params, TrainConfig(), threads=1)
        par = evaluate(state, split, vocab, lexicon, params, TrainConfig(), threads=2)
        assert [r["hypothesis"] for r in seq.records] == [r["hypothesis"] for r in par.records]

    def test_threads_share_graph_indices(self, setup):
        """Samples of one dialogue share a graph; with fresh graphs every
        index is built during the run, by whichever thread gets there first."""
        state, split, vocab, lexicon = setup
        params = DecodingParams(temperature=0.9, top_k=5, top_p=0.9, max_response_length=6, seed=3)

        def fresh_graphs():
            copies = {}
            return DatasetSplit(split.name, tuple(
                replace(s, graph=copies.setdefault(id(s.graph), replace(s.graph))) for s in split.samples))

        one = fresh_graphs()
        assert len({id(s.graph) for s in one.samples}) < len(one.samples)
        seq = evaluate(state, one, vocab, lexicon, params, TrainConfig(), threads=1)
        par = evaluate(state, fresh_graphs(), vocab, lexicon, params, TrainConfig(), threads=2)
        assert seq.to_dict() == par.to_dict()

    @pytest.mark.parametrize("max_samples, kept", [(None, 4), (0, 0), (1, 1), (9, 4)])
    def test_max_samples_keeps_first_samples(self, setup, max_samples, kept):
        state, split, vocab, lexicon = setup
        split = DatasetSplit(split.name, split.samples[:4])
        report = evaluate(state, split, vocab, lexicon, DecodingParams(seed=1), TrainConfig(), hyp_from_gold=True,
                          max_samples=max_samples)
        assert [r["id"] for r in report.records] == [s.id for s in split.samples[:kept]]
        assert report.config["n_samples"] == kept

    def test_negative_max_samples_refused(self, setup):
        state, split, vocab, lexicon = setup
        with pytest.raises(ValueError, match="max_samples"):
            evaluate(state, split, vocab, lexicon, DecodingParams(seed=1), TrainConfig(), max_samples=-1)

    def test_report_round_trips_to_json(self, setup, tmp_path):
        state, split, vocab, lexicon = setup
        report = evaluate(state, split, vocab, lexicon, DecodingParams(seed=1), TrainConfig(), hyp_from_gold=True)
        path = tmp_path / "report.json"
        save_report(report, path)
        import json

        doc = json.loads(path.read_text())
        assert doc["bleu"] == pytest.approx(100.0)
        assert len(doc["records"]) == len(split.samples)
        assert "bleu_smoothing" in doc

    def test_metric_bounds_on_random_model(self, setup):
        state, split, vocab, lexicon = setup
        params = DecodingParams(temperature=1.2, top_k=8, top_p=0.95, max_response_length=8, seed=5)
        report = evaluate(state, split, vocab, lexicon, params, TrainConfig())
        assert 0.0 <= report.bleu <= 100.0
        assert 0.0 <= report.entity_f1 <= 100.0
