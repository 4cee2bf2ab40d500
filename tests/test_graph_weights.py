import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdialog.corpus import Entity, KnowledgeGraph, RelationLabel, Triple, build_graph
from kgdialog.graph_weights import (
    TokenEmbedder,
    WeightedGraph,
    compute_weighted_graph,
    feature_vector,
    inspect_dump,
    propagate,
    select_topk,
    softmax,
)
from kgdialog.sequence import SPECIAL_TOKENS, Vocabulary, graph_index

from oracles import naive_cosine, naive_graph_pipeline, naive_mean_vector


def make_embedder(words, dim=16, seed=5):
    tokens = SPECIAL_TOKENS + tuple(sorted(set(words)))
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
    table = np.random.default_rng(seed).normal(size=(len(tokens), dim))
    table[vocab.unk_id] = 0.0
    return vocab, TokenEmbedder(vocab, table)


def dense_adjacency(index) -> np.ndarray:
    """(d_g, d_g) symmetric 0/1 matrix with zero diagonal, from the index's edge list."""
    a = np.zeros((index.d_g, index.d_g))
    a[index.edge_entities, index.edge_relations] = 1.0
    a[index.edge_relations, index.edge_entities] = 1.0
    return a


def same_weights(a, b) -> bool:
    return np.array_equal(a.entity_weights, b.entity_weights) and np.array_equal(a.relation_weights, b.relation_weights)


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
        x = feature_vector(graph_index(g), "find starbucks", TokenEmbedder(vocab, table))
        ids = {e.surface: e.id for e in g.entities}
        assert x[ids["starbucks"]] > x[ids["home"]]

    def test_unknown_tokens_zero_with_zero_unk_row(self):
        _, emb = make_embedder(["find", "starbucks"])
        g = build_graph([["completely unseen words", "find", "starbucks"]])
        x = feature_vector(graph_index(g), "find starbucks", emb)
        assert x[g.entities[0].id] == 0.0

    def test_feature_vector_matches_naive_cosine_per_node(self):
        triples = [["alpha beta", "r1", "gamma"], ["unseen words", "r2", "alpha"], ["delta", "r1 r2", "beta gamma"]]
        vocab, emb = make_embedder([w for w in words_of(triples) if w not in ("unseen", "words")] + ["which"])
        g = build_graph(triples)
        bg = graph_index(g)
        question = "which alpha r2 ?"
        x = feature_vector(bg, question, emb)
        unk = list(emb.table[vocab.unk_id])
        rows = {t: list(emb.table[vocab.token_to_id[t]]) for t in vocab.id_to_token}
        rows.update({w: unk for w in ("unseen", "words", "?")})
        qv = naive_mean_vector(question, rows, 16)
        assert x.shape == (bg.d_g,)
        surfaces = [e.surface for e in g.entities] + [r.surface for r in g.relations]
        for i, surface in enumerate(surfaces):
            assert abs(x[i] - naive_cosine(qv, naive_mean_vector(surface, rows, 16))) < 1e-12
        assert x[surfaces.index("unseen words")] == 0.0  # zero-norm node

    def test_zero_norm_question_scores_zero(self):
        _, emb = make_embedder(["s", "r", "o"])
        bg = graph_index(build_graph([["s", "r", "o"]]))
        np.testing.assert_array_equal(feature_vector(bg, "nothing known", emb), np.zeros(3))
        np.testing.assert_array_equal(feature_vector(bg, "", emb), np.zeros(3))

    def test_scorer_matches_oracle_on_random_embeddings(self):
        triples = [["alpha", "r1", "beta"], ["gamma", "r1", "delta"], ["alpha", "r2", "beta two"]]
        vocab, emb = make_embedder(words_of(triples) + ["which", "two"])
        g = build_graph(triples)
        question = "which alpha two"
        x = feature_vector(graph_index(g), question, emb)
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
        bg = graph_index(build_graph([["s", "r", "o"]]))
        assert bg.d_g == 3
        assert int(dense_adjacency(bg).sum()) == 4  # s-r and r-o, symmetric

    def test_shared_subject_shared_relation(self):
        # subject + 2 objects + 1 relation node = 4 nodes, relation degree 3
        g = build_graph([["s", "distance", "o1"], ["s", "distance", "o2"]])
        bg = graph_index(g)
        assert bg.d_g == 4
        rel_node = bg.n_entities + 0
        assert dense_adjacency(bg)[rel_node].sum() == 3.0
        expected = np.zeros((4, 4))
        s, o1, o2, r = 0, 1, 2, 3
        for a, b in [(s, r), (r, o1), (r, o2)]:
            expected[a, b] = expected[b, a] = 1.0
        np.testing.assert_array_equal(dense_adjacency(bg), expected)

    def test_empty_graph(self):
        bg = graph_index(build_graph([]))
        assert bg.d_g == 0
        assert dense_adjacency(bg).shape == (0, 0)

    def test_symmetry_and_row_stochasticity(self, rng):
        for _ in range(10):
            n_s, n_r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            triples = [
                [f"s{i}", f"r{rng.integers(n_r)}", f"o{i}_{j}"]
                for i in range(n_s)
                for j in range(int(rng.integers(1, 4)))
            ]
            bg = graph_index(build_graph(triples))
            np.testing.assert_array_equal(dense_adjacency(bg), dense_adjacency(bg).T)
            norm = (dense_adjacency(bg) + np.eye(bg.d_g)) / bg.degrees[:, None]
            np.testing.assert_allclose(norm.sum(axis=1), 1.0, atol=1e-12)


@st.composite
def index_graphs(draw):
    """Graphs built straight from index triples: repeated (subject, relation)
    and (relation, object) pairs, subject == object, and relation or entity
    nodes that no triple touches all occur."""
    ne = draw(st.integers(1, 6))
    nr = draw(st.integers(1, 4))
    triples = draw(st.lists(
        st.tuples(st.integers(0, ne - 1), st.integers(0, nr - 1), st.integers(0, ne - 1)),
        max_size=14, unique=True,
    ))
    return KnowledgeGraph(
        tuple(Entity(i, f"e{i}") for i in range(ne)),
        tuple(RelationLabel(i, f"r{i}") for i in range(nr)),
        tuple(Triple(*t) for t in triples),
    )


def loop_adjacency(graph: KnowledgeGraph) -> np.ndarray:
    ne = graph.n_entities
    d = ne + graph.n_relations
    a = np.zeros((d, d))
    for t in graph.triples:
        for e in (t.subject, t.object):
            a[e, ne + t.relation] = a[ne + t.relation, e] = 1.0
    return a


class TestPropagate:
    @settings(max_examples=60, deadline=None)
    @given(index_graphs(), st.integers(0, 2**32 - 1))
    @example(  # (s, r) twice, (r, o) twice, s == o, and relation node 2 isolated
        KnowledgeGraph(
            tuple(Entity(i, f"e{i}") for i in range(4)),
            tuple(RelationLabel(i, f"r{i}") for i in range(3)),
            (Triple(0, 0, 1), Triple(0, 0, 2), Triple(3, 0, 2), Triple(1, 1, 1), Triple(2, 1, 0)),
        ),
        7,
    )
    def test_matches_dense_reference(self, graph, seed):
        a = loop_adjacency(graph)
        bg = graph_index(graph)
        x = np.random.default_rng(seed).normal(size=bg.d_g)
        a_i = a + np.eye(bg.d_g)
        deg = a_i.sum(axis=1)
        np.testing.assert_array_equal(dense_adjacency(bg), a)
        np.testing.assert_array_equal(bg.degrees, deg)
        np.testing.assert_allclose(propagate(bg, x), (a_i @ x) / deg, rtol=0, atol=1e-12)

    def test_empty_graph(self):
        bg = graph_index(build_graph([]))
        assert propagate(bg, np.zeros(0)).shape == (0,)


class TestRelationWeights:
    def test_single_triple_hand_value(self):
        # X = (1, 0, 0) on (s, o, r): relation node averages itself and both
        # neighbours -> (1 + 0 + 0) / 3
        bg = graph_index(build_graph([["s", "r", "o"]]))
        x = np.array([1.0, 0.0, 0.0])
        raw = propagate(bg, x)[bg.n_entities :]
        assert raw.tolist() == [pytest.approx(1.0 / 3.0, abs=1e-15)]

    def test_zero_features_zero_weights(self):
        g = build_graph([["s", "r", "o"], ["s", "q", "o2"]])
        bg = graph_index(g)
        raw = propagate(bg, np.zeros(bg.d_g))[bg.n_entities :]
        assert raw.shape == (2,) and all(v == 0.0 for v in raw)

    def test_isolated_entity_survives(self):
        # entity mentioned by no triple cannot occur via build_graph, but a
        # lone self-degree node arises in a single-entity graph slice; the
        # (A+I) self loop keeps D invertible for every node anyway
        bg = graph_index(build_graph([["s", "r", "o"]]))
        assert (bg.degrees > 0).all()

    def test_identical_question_and_surface_feature_is_one(self):
        vocab, emb = make_embedder(["route", "distance", "s", "o"])
        bg = graph_index(build_graph([["s", "distance", "o"]]))
        x = feature_vector(bg, "distance", emb)
        assert x[bg.n_entities + 0] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_onehot_zero(self):
        words = ["s", "o", "r", "q"]
        tokens = SPECIAL_TOKENS + tuple(words)
        vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
        table = np.eye(len(tokens))
        emb = TokenEmbedder(vocab, table)
        bg = graph_index(build_graph([["s", "r", "o"]]))
        x = feature_vector(bg, "q", emb)
        np.testing.assert_array_equal(x, np.zeros(3))


class TestWeightedGraph:
    def test_singleton_sums_to_one(self):
        g = build_graph([["s", "r", "o"]])
        vocab, emb = make_embedder(["s", "r", "o", "hi"])
        wg = compute_weighted_graph(g, "hi", emb)
        assert wg.relation_weights.tolist() == [pytest.approx(1.0)]
        assert sum(wg.entity_weights.tolist()) == pytest.approx(1.0)

    def test_uniform_scores_uniform_weights(self):
        w = softmax(np.array([0.3, 0.3, 0.3, 0.3]))
        assert all(v == pytest.approx(0.25) for v in w.tolist())

    def test_empty_graph_empty_maps(self):
        g = build_graph([])
        vocab, emb = make_embedder(["hi"])
        wg = compute_weighted_graph(g, "hi", emb)
        assert wg.entity_weights.size == 0 and wg.relation_weights.size == 0

    @pytest.mark.parametrize("triples", [[], [["s", "r", "o"]], [["s", "r", "o"], ["s", "q", "o2"], ["t", "r", "o"]]])
    def test_weights_are_float64_vectors_indexed_by_id(self, triples):
        g = build_graph(triples)
        vocab, emb = make_embedder(words_of(triples) + ["hi"])
        wg = compute_weighted_graph(g, "hi s r", emb)
        assert isinstance(wg.entity_weights, np.ndarray) and isinstance(wg.relation_weights, np.ndarray)
        assert wg.entity_weights.dtype == np.float64 and wg.relation_weights.dtype == np.float64
        assert wg.entity_weights.shape == (g.n_entities,)
        assert wg.relation_weights.shape == (g.n_relations,)

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

    def test_300_triples_match_naive_pipeline(self):
        rng = np.random.default_rng(11)
        pool = [f"w{i}" for i in range(60)]
        # distinct word sets, so no two surfaces share a mean vector and no weight tie is exact
        surfaces = sorted({" ".join(sorted(rng.choice(pool, size=int(rng.integers(1, 3)), replace=False)))
                           for _ in range(200)})
        relations = [f"rel{i} of" if i % 3 else f"rel{i}" for i in range(12)]
        triples = set()
        while len(triples) < 300:
            triples.add((surfaces[rng.integers(len(surfaces))], relations[rng.integers(len(relations))],
                         surfaces[rng.integers(len(surfaces))]))
        triples = sorted(triples)
        question = "which w3 w7 rel4 of unknown"
        vocab, emb = make_embedder(words_of(triples) + ["which"], dim=12, seed=3)
        g = build_graph([list(t) for t in triples])
        assert g.n_entities > 100 and g.n_relations == 12
        wg = compute_weighted_graph(g, question, emb)

        rows = {t: list(emb.table[vocab.token_to_id[t]]) for t in vocab.id_to_token}
        rows["unknown"] = rows["[UNK]"]
        ents, rels, ew, rw = naive_graph_pipeline(triples, question, rows, 12)
        assert ents == [e.surface for e in g.entities] and rels == [r.surface for r in g.relations]
        np.testing.assert_allclose(wg.entity_weights, ew, rtol=0, atol=1e-12)
        np.testing.assert_allclose(wg.relation_weights, rw, rtol=0, atol=1e-12)
        for k in (1, 7, 40):
            sel = select_topk(wg, k, k)
            assert sel.top_entities == set(sorted(range(len(ew)), key=lambda i: (-ew[i], i))[:k])
            assert sel.top_relations == set(sorted(range(len(rw)), key=lambda i: (-rw[i], i))[:k])

    def test_inspect_dump_weights_match(self):
        triples = [["s1", "r1", "o1"], ["s2", "r2", "o2"], ["s1", "r2", "o3"]]
        vocab, emb = make_embedder(words_of(triples) + ["q"])
        g = build_graph(triples)
        wg = compute_weighted_graph(g, "q s1 r2", emb)
        dump = inspect_dump(g, "q s1 r2", emb, 2, 1)
        assert dump["entity_weights"] == {str(i): v for i, v in enumerate(wg.entity_weights.tolist())}
        assert dump["relation_weights"] == {str(i): v for i, v in enumerate(wg.relation_weights.tolist())}
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
        by_surface1 = {g1.entities[i].surface: w for i, w in enumerate(wg1.entity_weights.tolist())}
        by_surface2 = {g2.entities[i].surface: w for i, w in enumerate(wg2.entity_weights.tolist())}
        for s in by_surface1:
            assert by_surface1[s] == pytest.approx(by_surface2[s], abs=1e-12)


class TestIndexLifetime:
    """The per-graph index holds nothing of a vocabulary or an embedding table."""

    TRIPLES = [["alpha beta", "near", "gamma"], ["alpha beta", "far from", "delta"], ["delta", "near", "alpha"]]

    def test_in_place_table_update_reaches_a_built_index(self):
        from kgdialog.model import ModelConfig, init_model
        from kgdialog.training import TrainConfig, adamw_step

        g = build_graph(self.TRIPLES)
        vocab, _ = make_embedder(words_of(self.TRIPLES) + ["where"])
        state = init_model(ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1, d_ff=16), seed=1)
        emb = TokenEmbedder(vocab, state.params["tok_emb"])
        before = compute_weighted_graph(g, "where is alpha beta", emb)  # builds g's index
        rng = np.random.default_rng(0)
        adamw_step(state, {k: rng.normal(size=v.shape).astype(v.dtype) for k, v in state.params.items()},
                   TrainConfig(lr=0.1))
        after = compute_weighted_graph(g, "where is alpha beta", emb)
        fresh = compute_weighted_graph(build_graph(self.TRIPLES), "where is alpha beta", emb)
        assert same_weights(after, fresh)
        assert not same_weights(after, before)

    def test_one_graph_two_vocabularies(self):
        from kgdialog.sequence import AssemblyLimits, assemble_input, linearize_graph

        g = build_graph(self.TRIPLES)
        words = sorted(set(words_of(self.TRIPLES)))
        vectors = {w: np.random.default_rng(i).normal(size=4) for i, w in enumerate(words)}
        weights = []
        for vocab_words in (words, words[::-1], words[1:]):  # the last leaves "alpha" out: [UNK]
            tokens = SPECIAL_TOKENS + tuple(vocab_words)
            vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
            stream = linearize_graph(g)
            seq = assemble_input(stream, [], "where ?", None, vocab, AssemblyLimits())
            want = [vocab.token_to_id.get(t, vocab.unk_id) for t in (*stream.tokens, "[SEP]", "[Q]", "where", "?")]
            assert seq.token_ids.tolist() == want
            table = np.zeros((len(tokens), 4))
            for w in vocab_words:
                table[vocab.token_to_id[w]] = vectors[w]
            emb = TokenEmbedder(vocab, table)
            weights.append(compute_weighted_graph(g, "alpha near", emb))
            assert same_weights(weights[-1], compute_weighted_graph(build_graph(self.TRIPLES), "alpha near", emb))
        assert same_weights(weights[0], weights[1])  # the same vector per word under other ids
        assert not same_weights(weights[2], weights[0])

class TestSelect:
    def test_topk_basic(self):
        wg = WeightedGraph(np.array([0.5, 0.3, 0.2]), np.array([1.0]))
        sel = select_topk(wg, 2, 1)
        assert sel.top_entities == {0, 1}

    def test_tie_broken_by_first_appearance(self):
        wg = WeightedGraph(np.array([0.4, 0.3, 0.3]), np.array([1.0]))
        sel = select_topk(wg, 2, 1)
        assert sel.top_entities == {0, 1}

    def test_k_clamped(self):
        wg = WeightedGraph(np.array([0.6, 0.4]), np.array([1.0]))
        sel = select_topk(wg, 10, 10)
        assert sel.top_entities == {0, 1}
        assert sel.top_relations == {0}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10))
    def test_selection_size_invariant(self, k):
        wg = WeightedGraph(np.full(5, 1.0 / 5), np.full(3, 1.0 / 3))
        sel = select_topk(wg, k, k)
        assert len(sel.top_entities) == min(k, 5)
        assert len(sel.top_relations) == min(k, 3)
