import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog.corpus import build_graph
from kgdialog.graph_weights import (
    TokenEmbedder,
    WeightedGraph,
    build_bipartite,
    compute_weighted_graph,
    cosine,
    feature_vector,
    inspect_dump,
    relation_weights,
    select_topk,
    softmax_map,
)
from kgdialog.sequence import SPECIAL_TOKENS, Vocabulary

from oracles import naive_cosine, naive_graph_pipeline


def make_embedder(words, dim=16, seed=5):
    tokens = SPECIAL_TOKENS + tuple(sorted(set(words)))
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
    table = np.random.default_rng(seed).normal(size=(len(tokens), dim))
    table[vocab.unk_id] = 0.0
    return vocab, TokenEmbedder(vocab, table)


def words_of(triples):
    return [w for t in triples for part in t for w in part.split()]


class TestScorer:
    def test_shared_token_dominates_with_onehot(self):
        words = ["find", "starbucks", "home"]
        tokens = SPECIAL_TOKENS + tuple(words)
        vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
        table = np.zeros((len(tokens), len(words)))
        for i, w in enumerate(words):
            table[vocab.token_to_id[w], i] = 1.0
        g = build_graph([["starbucks", "near", "home"]])
        x = feature_vector(build_bipartite(g), "find starbucks", TokenEmbedder(vocab, table))
        ids = {e.surface: e.id for e in g.entities}
        assert x[ids["starbucks"]] > x[ids["home"]]

    def test_unknown_tokens_zero_with_zero_unk_row(self):
        _, emb = make_embedder(["find", "starbucks"])
        g = build_graph([["completely unseen words", "find", "starbucks"]])
        x = feature_vector(build_bipartite(g), "find starbucks", emb)
        assert x[g.entities[0].id] == 0.0

    def test_cosine_matches_naive_oracle(self, rng):
        for _ in range(20):
            u = rng.normal(size=16)
            v = rng.normal(size=16)
            assert abs(cosine(u, v) - naive_cosine(u, v)) < 1e-12

    def test_scorer_matches_oracle_on_random_embeddings(self):
        triples = [["alpha", "r1", "beta"], ["gamma", "r1", "delta"], ["alpha", "r2", "beta two"]]
        vocab, emb = make_embedder(words_of(triples) + ["which", "two"])
        g = build_graph(triples)
        question = "which alpha two"
        x = feature_vector(build_bipartite(g), question, emb)
        ids = {e.surface: e.id for e in g.entities}
        rows = {t: list(emb.table[vocab.token_to_id[t]]) for t in vocab.id_to_token}
        from oracles import naive_mean_vector

        for surface in ["alpha", "beta two", "delta"]:
            got = x[ids[surface]]
            qv = naive_mean_vector(question, rows, 16)
            sv = naive_mean_vector(surface, rows, 16)
            assert abs(got - naive_cosine(qv, sv)) < 1e-12


class TestBipartite:
    def test_single_triple_path_graph(self):
        bg = build_bipartite(build_graph([["s", "r", "o"]]))
        assert bg.d_g == 3
        assert int(bg.adjacency.sum()) == 4  # s-r and r-o, symmetric

    def test_shared_subject_shared_relation(self):
        # subject + 2 objects + 1 relation node = 4 nodes, relation degree 3
        g = build_graph([["s", "distance", "o1"], ["s", "distance", "o2"]])
        bg = build_bipartite(g)
        assert bg.d_g == 4
        rel_node = bg.n_entities + 0
        assert bg.adjacency[rel_node].sum() == 3.0
        expected = np.zeros((4, 4))
        s, o1, o2, r = 0, 1, 2, 3
        for a, b in [(s, r), (r, o1), (r, o2)]:
            expected[a, b] = expected[b, a] = 1.0
        np.testing.assert_array_equal(bg.adjacency, expected)

    def test_empty_graph(self):
        bg = build_bipartite(build_graph([]))
        assert bg.d_g == 0
        assert bg.adjacency.shape == (0, 0)

    def test_symmetry_and_row_stochasticity(self, rng):
        for _ in range(10):
            n_s, n_r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            triples = [
                [f"s{i}", f"r{rng.integers(n_r)}", f"o{i}_{j}"]
                for i in range(n_s)
                for j in range(int(rng.integers(1, 4)))
            ]
            bg = build_bipartite(build_graph(triples))
            np.testing.assert_array_equal(bg.adjacency, bg.adjacency.T)
            norm = (bg.adjacency + np.eye(bg.d_g)) / bg.degrees[:, None]
            np.testing.assert_allclose(norm.sum(axis=1), 1.0, atol=1e-12)


class TestRelationWeights:
    def test_single_triple_hand_value(self):
        # X = (1, 0, 0) on (s, o, r): relation node averages itself and both
        # neighbours -> (1 + 0 + 0) / 3
        bg = build_bipartite(build_graph([["s", "r", "o"]]))
        x = np.array([1.0, 0.0, 0.0])
        raw = relation_weights(bg, x)
        assert raw == {0: pytest.approx(1.0 / 3.0, abs=1e-15)}

    def test_zero_features_zero_weights(self):
        g = build_graph([["s", "r", "o"], ["s", "q", "o2"]])
        bg = build_bipartite(g)
        raw = relation_weights(bg, np.zeros(bg.d_g))
        assert all(v == 0.0 for v in raw.values())

    def test_isolated_entity_survives(self):
        # entity mentioned by no triple cannot occur via build_graph, but a
        # lone self-degree node arises in a single-entity graph slice; the
        # (A+I) self loop keeps D invertible for every node anyway
        bg = build_bipartite(build_graph([["s", "r", "o"]]))
        assert (bg.degrees > 0).all()

    def test_identical_question_and_surface_feature_is_one(self):
        vocab, emb = make_embedder(["route", "distance", "s", "o"])
        bg = build_bipartite(build_graph([["s", "distance", "o"]]))
        x = feature_vector(bg, "distance", emb)
        assert x[bg.n_entities + 0] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_onehot_zero(self):
        words = ["s", "o", "r", "q"]
        tokens = SPECIAL_TOKENS + tuple(words)
        vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
        table = np.eye(len(tokens))
        emb = TokenEmbedder(vocab, table)
        bg = build_bipartite(build_graph([["s", "r", "o"]]))
        x = feature_vector(bg, "q", emb)
        np.testing.assert_array_equal(x, np.zeros(3))


class TestWeightedGraph:
    def test_singleton_sums_to_one(self):
        g = build_graph([["s", "r", "o"]])
        vocab, emb = make_embedder(["s", "r", "o", "hi"])
        wg = compute_weighted_graph(g, "hi", emb)
        assert wg.relation_weights == {0: pytest.approx(1.0)}
        assert sum(wg.entity_weights.values()) == pytest.approx(1.0)

    def test_uniform_scores_uniform_weights(self):
        w = softmax_map({0: 0.3, 1: 0.3, 2: 0.3, 3: 0.3})
        assert all(v == pytest.approx(0.25) for v in w.values())

    def test_empty_graph_empty_maps(self):
        g = build_graph([])
        vocab, emb = make_embedder(["hi"])
        wg = compute_weighted_graph(g, "hi", emb)
        assert wg.entity_weights == {} and wg.relation_weights == {}

    def test_matches_naive_dense_oracle(self, rng):
        for trial in range(25):
            n_subj = int(rng.integers(1, 3))
            n_rel = int(rng.integers(1, 3))
            triples = []
            for i in range(n_subj):
                for j in range(n_rel):
                    triples.append((f"s{i}", f"rel{j}", f"o{i}{j}"))
            g = build_graph([list(t) for t in triples])
            if g.n_entities + g.n_relations > 8:
                continue
            words = words_of([list(t) for t in triples]) + ["ask", "about"]
            vocab, emb = make_embedder(words, dim=12, seed=trial)
            question = f"ask about s0 rel0"
            wg = compute_weighted_graph(g, question, emb)

            rows = {t: list(emb.table[vocab.token_to_id[t]]) for t in vocab.id_to_token}
            ents, rels, ew, rw = naive_graph_pipeline(list(triples), question, rows, 12)
            for i, surf in enumerate(ents):
                eid = next(e.id for e in g.entities if e.surface == surf)
                assert abs(wg.entity_weights[eid] - ew[i]) < 1e-9
            for i, surf in enumerate(rels):
                rid = next(r.id for r in g.relations if r.surface == surf)
                assert abs(wg.relation_weights[rid] - rw[i]) < 1e-9

    def test_inspect_dump_weights_match(self):
        triples = [["s1", "r1", "o1"], ["s2", "r2", "o2"], ["s1", "r2", "o3"]]
        vocab, emb = make_embedder(words_of(triples) + ["q"])
        g = build_graph(triples)
        wg = compute_weighted_graph(g, "q s1 r2", emb)
        dump = inspect_dump(g, "q s1 r2", emb, 2, 1)
        assert dump["entity_weights"] == {str(k): v for k, v in sorted(wg.entity_weights.items())}
        assert dump["relation_weights"] == {str(k): v for k, v in sorted(wg.relation_weights.items())}
        sel = select_topk(wg, 2, 1)
        assert (dump["top_entities"], dump["top_relations"]) == (sorted(sel.top_entities), sorted(sel.top_relations))

    def test_triple_order_invariance(self, rng):
        triples = [["s1", "r1", "o1"], ["s2", "r2", "o2"], ["s1", "r2", "o3"]]
        vocab, emb = make_embedder(words_of(triples) + ["q"])
        g1 = build_graph(triples)
        wg1 = compute_weighted_graph(g1, "q s1", emb)
        # same node first-appearance order, shuffled triple list
        reordered = [triples[0], triples[2], triples[1]]
        g2 = build_graph(reordered)
        # first-appearance order of entities changes (o3 before s2's o2), so
        # compare by surface, which must be invariant
        wg2 = compute_weighted_graph(g2, "q s1", emb)
        by_surface1 = {g1.entities[i].surface: w for i, w in wg1.entity_weights.items()}
        by_surface2 = {g2.entities[i].surface: w for i, w in wg2.entity_weights.items()}
        for s in by_surface1:
            assert by_surface1[s] == pytest.approx(by_surface2[s], abs=1e-12)


class TestSelect:
    def test_topk_basic(self):
        wg = WeightedGraph({0: 0.5, 1: 0.3, 2: 0.2}, {0: 1.0})
        sel = select_topk(wg, 2, 1)
        assert sel.top_entities == {0, 1}

    def test_tie_broken_by_first_appearance(self):
        wg = WeightedGraph({0: 0.4, 1: 0.3, 2: 0.3}, {0: 1.0})
        sel = select_topk(wg, 2, 1)
        assert sel.top_entities == {0, 1}

    def test_k_clamped(self):
        wg = WeightedGraph({0: 0.6, 1: 0.4}, {0: 1.0})
        sel = select_topk(wg, 10, 10)
        assert sel.top_entities == {0, 1}
        assert sel.top_relations == {0}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10))
    def test_selection_size_invariant(self, k):
        wg = WeightedGraph({i: 1.0 / 5 for i in range(5)}, {i: 1.0 / 3 for i in range(3)})
        sel = select_topk(wg, k, k)
        assert len(sel.top_entities) == min(k, 5)
        assert len(sel.top_relations) == min(k, 3)
