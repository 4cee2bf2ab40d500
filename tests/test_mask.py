import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog.corpus import build_graph
from kgdialog.graph_weights import Selection
from kgdialog.masking import (
    NEG_INF,
    compose_mask,
    knowledge_column_mask,
    mask_summary,
    unmasked_columns,
)
from kgdialog.sequence import AssemblyLimits, assemble_input, linearize_graph, shuffled_order
from oracles import naive_knowledge_columns
from test_sequence import vocab_over

TWO_SUBJ = build_graph(
    [["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"]]
)
VOCAB = vocab_over("s1 s2 r1 r2 o1 o2 o3 q ?")
LIMITS = AssemblyLimits()


def seq_for(graph=TWO_SUBJ, question="q ?", gold=None):
    return assemble_input(linearize_graph(graph), [], question, gold, VOCAB, LIMITS)


def sel(entities, relations, k=7):
    return Selection(frozenset(entities), frozenset(relations), k, k)


def span_values(seq, cols, triple_id):
    start, end = seq.triple_spans[triple_id]
    return cols[start:end]


class TestKnowledgeColumns:
    def test_selected_triple_visible_others_masked(self):
        seq = seq_for()
        # triple 0 = (s1, r1, o1): s1=0, r1=0, o1=1
        s = sel({0, 1}, {0})
        cols = knowledge_column_mask(seq, s, TWO_SUBJ)
        assert (span_values(seq, cols, 1) == 0).all()  # (s1, r1, o1) kept
        assert (span_values(seq, cols, 2) == NEG_INF).all()  # r2 not selected
        # shared subject span of group 1 stays visible (one triple kept)
        subj_positions = [
            p for p in range(seq.knowledge_end) if seq.entity_ids[p] == 1 and seq.triple_ids[p] == 0
        ]
        assert subj_positions and all(cols[p] == 0 for p in subj_positions)

    def test_empty_selection_falls_back_to_all_visible(self):
        seq = seq_for()
        cols = knowledge_column_mask(seq, sel(set(), set()), TWO_SUBJ)
        assert (cols == 0).all()

    def test_group_fully_masked_when_only_other_subject_selected(self):
        seq = seq_for()
        # select subject 2's triple only: s2 entity id, r1
        s2_id = next(e.id for e in TWO_SUBJ.entities if e.surface == "s2")
        s = sel({s2_id}, {0})
        cols = knowledge_column_mask(seq, s, TWO_SUBJ)
        # hand-built expectation: group 1 entirely masked (both triples + subject span),
        # group 2 entirely visible
        expected = np.zeros(seq.knowledge_end + 1, dtype=np.float32)
        for p in range(seq.knowledge_end):
            if seq.entity_ids[p] == 1:
                expected[p] = NEG_INF
        np.testing.assert_array_equal(cols, expected)

    def test_bos_and_sep_always_visible(self):
        seq = seq_for()
        cols = knowledge_column_mask(seq, sel({99}, {99}), TWO_SUBJ)  # nothing matches -> fallback
        assert cols[0] == 0 and cols[seq.knowledge_end] == 0
        s = sel({0, 1}, {0})
        cols = knowledge_column_mask(seq, s, TWO_SUBJ)
        assert cols[0] == 0 and cols[seq.knowledge_end] == 0

    def test_object_membership_counts(self):
        seq = seq_for()
        # o3 selected (entity of subject-2 triple): triple (s2, r1, o3) visible via object
        o3 = next(e.id for e in TWO_SUBJ.entities if e.surface == "o3")
        cols = knowledge_column_mask(seq, sel({o3}, {0}), TWO_SUBJ)
        assert (span_values(seq, cols, 3) == 0).all()
        assert (span_values(seq, cols, 1) == NEG_INF).all()

    def test_matches_loop_oracle_on_random_selections(self, rng):
        fallbacks = masked = shared = 0
        for trial in range(60):
            # several triples per subject, so subject spans are shared
            triples = [(f"s{int(rng.integers(4))}", f"r{int(rng.integers(3))}", f"o{int(rng.integers(6))}")
                       for _ in range(int(rng.integers(1, 12)))]
            graph = build_graph([list(t) for t in dict.fromkeys(triples)])
            order = None if trial % 2 else shuffled_order(graph, rng)
            vocab = vocab_over("s0 s1 s2 s3 r0 r1 r2 o0 o1 o2 o3 o4 o5 q ?")
            seq = assemble_input(linearize_graph(graph, order), [], "q ?", None, vocab, LIMITS)
            ne, nr = graph.n_entities, graph.n_relations
            s = sel(rng.choice(ne, size=int(rng.integers(0, ne + 1)), replace=False).tolist(),
                    rng.choice(nr, size=int(rng.integers(0, nr + 1)), replace=False).tolist())
            want = naive_knowledge_columns(
                [(t.subject, t.relation, t.object) for t in graph.triples], seq.triple_sources,
                seq.triple_ids, seq.entity_ids, seq.knowledge_end, s.top_entities, s.top_relations, float(NEG_INF),
            )
            got = knowledge_column_mask(seq, s, graph)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, np.asarray(want, dtype=np.float32))
            fallbacks += mask_summary(seq, s, graph)["fallback_all_visible"]
            masked += bool((got < 0).any())
            shared += any(len(g) > 1 for _, g in graph.subject_groups())
        assert fallbacks >= 5 and masked >= 20 and shared >= 20  # every case actually exercised


class TestCompose:
    def test_pure_causal_for_dialogue_only(self):
        g = build_graph([])
        seq = assemble_input(linearize_graph(g), [], "q ?", None, VOCAB, LIMITS)
        mask = compose_mask(seq, unmasked_columns(seq))
        n = seq.n
        for i in range(n):
            for j in range(n):
                assert mask.values[i, j] == (0.0 if j <= i else NEG_INF)

    def test_masked_knowledge_column_in_every_row(self):
        seq = seq_for()
        s2_id = next(e.id for e in TWO_SUBJ.entities if e.surface == "s2")
        cols = knowledge_column_mask(seq, sel({s2_id}, {0}), TWO_SUBJ)
        mask = compose_mask(seq, cols)
        j = seq.triple_spans[1][0]  # masked key
        assert cols[j] == NEG_INF
        for i in range(j, seq.n):
            assert mask.values[i, j] == NEG_INF

    def test_padding_rows_and_columns(self):
        seq = seq_for()
        mask = compose_mask(seq, unmasked_columns(seq), pad_len=3)
        n = seq.n
        assert mask.values.shape == (n + 3, n + 3)
        assert (mask.values[:, n:] == NEG_INF).all()
        for i in range(n, n + 3):
            assert mask.values[i, 0] == 0.0
            assert (mask.values[i, 1:] == NEG_INF).all()

    def test_row_safety_randomized(self, rng):
        for _ in range(30):
            seq = seq_for()
            ents = set(rng.choice(5, size=int(rng.integers(0, 5)), replace=False).tolist())
            rels = set(rng.choice(2, size=int(rng.integers(0, 2)), replace=False).tolist())
            pad = int(rng.integers(0, 4))
            cols = knowledge_column_mask(seq, sel(ents, rels), TWO_SUBJ)
            mask = compose_mask(seq, cols, pad_len=pad)
            zero_per_row = (mask.values == 0.0).sum(axis=1)
            assert (zero_per_row >= 1).all()


    def test_bit_identical_to_cell_by_cell_reference(self, rng):
        seq = seq_for()
        for pad in (0, 1, 4):
            cols = np.where(rng.random(seq.knowledge_end + 1) < 0.4, NEG_INF, 0.0).astype(np.float32)
            n, total = seq.n, seq.n + pad
            want = np.full((total, total), NEG_INF, dtype=np.float32)
            for i in range(n):
                for j in range(i + 1):
                    want[i, j] = cols[j] if j < cols.shape[0] else 0.0
            want[n:, 0] = 0.0
            got = compose_mask(seq, cols, pad_len=pad).values
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

class TestSoftmaxContract:
    def test_nullification_and_normalization(self, rng):
        seq = seq_for()
        s = sel({0, 1}, {0})
        cols = knowledge_column_mask(seq, s, TWO_SUBJ)
        mask = compose_mask(seq, cols, pad_len=2)
        scores = rng.normal(size=mask.values.shape).astype(np.float32) * 5
        z = scores + mask.values
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        assert (p[mask.values == NEG_INF] == 0.0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert not np.isnan(p).any()

    def test_monotone_selection(self):
        seq = seq_for()
        small = sel({0, 1}, {0})
        big = sel({0, 1, 4}, {0, 1})
        cols_small = knowledge_column_mask(seq, small, TWO_SUBJ)
        cols_big = knowledge_column_mask(seq, big, TWO_SUBJ)
        # enlarging the selection never masks a previously visible key
        assert ((cols_small == 0) <= (cols_big == 0)).all()

    @settings(max_examples=30, deadline=None)
    @given(
        ents=st.sets(st.integers(0, 4), max_size=5),
        extra_e=st.sets(st.integers(0, 4), max_size=5),
        rels=st.sets(st.integers(0, 1), max_size=2),
        extra_r=st.sets(st.integers(0, 1), max_size=2),
    )
    def test_monotone_selection_property(self, ents, extra_e, rels, extra_r):
        seq = seq_for()
        small = sel(ents, rels)
        big = sel(ents | extra_e, rels | extra_r)
        cols_small = knowledge_column_mask(seq, small, TWO_SUBJ)
        cols_big = knowledge_column_mask(seq, big, TWO_SUBJ)
        if not any(
            (t.subject in small.top_entities or t.object in small.top_entities)
            and t.relation in small.top_relations
            for t in TWO_SUBJ.triples
        ):
            return  # fallback case: small mask is all-visible by design
        assert ((cols_small == 0) <= (cols_big == 0)).all()


class TestSummary:
    def test_summary_counts(self):
        seq = seq_for()
        s = sel({0, 1}, {0})
        summary = mask_summary(seq, s, TWO_SUBJ)
        assert [t["selected"] for t in summary["triples"]] == [True, False, False]
        cols = knowledge_column_mask(seq, s, TWO_SUBJ)
        assert summary["masked_key_positions"] == int((cols < 0).sum())
