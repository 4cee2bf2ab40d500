import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgdialog.corpus import DialogueTurn, SynthConfig, build_graph, generate_synthetic
from kgdialog.sequence import (
    EOS,
    SPECIAL_TOKENS,
    AssemblyLimits,
    EmptyCorpusError,
    SequenceTooLongError,
    TYPE_SYSTEM,
    TYPE_USER,
    assemble_input,
    build_vocab,
    linearize_graph,
    load_vocab,
    save_vocab,
    vocab_sha256,
)

from oracles import decode_triple_span

STARBUCKS = build_graph(
    [["starbucks", "distance", "4 miles"], ["starbucks", "address", "792 bedoin st"]]
)


def vocab_over(*texts):
    from kgdialog.sequence import Vocabulary

    words = sorted({t for text in texts for t in text.split()})
    tokens = SPECIAL_TOKENS + tuple(words)
    return Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})


# Graphs whose subject groups a shuffle must keep whole: the cases the walk once refused orders for
SHUFFLE_GRAPHS = {
    "empty": [],
    "one_triple": [["a", "r", "b"]],
    "one_subject": [["a", "r1", "b"], ["a", "r2", "c"], ["a", "r1", "d"]],
    "interleaved_subjects": [["a", "r", "b"], ["c", "r", "d"], ["a", "q", "e"], ["c", "q", "a"]],
    "object_is_a_subject": [["a", "r", "b"], ["b", "r", "c"], ["c", "r", "a"]],
    "multiword_surfaces": [["a b", "r s", "c d"], ["e", "r s", "a b"], ["a b", "t", "f g h"]],
}


class TestVocab:
    def test_specials_first_and_pad_zero(self, tiny_vocab):
        assert tiny_vocab.id_to_token[: len(SPECIAL_TOKENS)] == SPECIAL_TOKENS
        assert tiny_vocab.token_to_id["[PAD]"] == 0

    def test_min_freq_threshold(self, tiny_split):
        # craft via synthetic split: every template word appears often; check
        # that min_freq high enough drops rare tokens but keeps specials
        v1 = build_vocab([tiny_split], min_freq=1)
        v_hi = build_vocab([tiny_split], min_freq=10**6)
        assert len(v_hi) == len(SPECIAL_TOKENS)
        assert len(v1) > len(v_hi)

    def test_deterministic_assignment(self, tiny_split):
        a = build_vocab([tiny_split])
        b = build_vocab([tiny_split])
        assert a.id_to_token == b.id_to_token

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([])

    def test_synthetic_corpus_fully_in_vocab(self):
        split = generate_synthetic(SynthConfig(n_dialogues=50, seed=9))
        vocab = build_vocab([split])
        # oracle: scan every surface and turn for out-of-vocabulary tokens
        oov = set()
        for s in split.samples:
            for text in [s.question, s.gold_response] + [t.text for t in s.history]:
                oov.update(t for t in text.split() if t not in vocab.token_to_id)
            for e in s.graph.entities:
                oov.update(t for t in e.surface.split() if t not in vocab.token_to_id)
            for r in s.graph.relations:
                oov.update(t for t in r.surface.split() if t not in vocab.token_to_id)
        assert oov == set()

    def test_save_load_round_trip(self, tiny_vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(tiny_vocab, path)
        again = load_vocab(path)
        assert again.id_to_token == tiny_vocab.id_to_token
        assert vocab_sha256(again) == vocab_sha256(tiny_vocab)
        assert path.read_bytes().endswith(b"\n")
        assert b"\r" not in path.read_bytes()


class TestLinearize:
    def test_two_triples_one_subject(self):
        stream = linearize_graph(STARBUCKS)
        assert list(stream.tokens) == [
            "[BOS]", "[S]", "starbucks",
            "[R]", "distance", "[O]", "4", "miles",
            "[R]", "address", "[O]", "792", "bedoin", "st",
        ]
        assert list(stream.entity_ids) == [0] + [1] * 13
        assert list(stream.triple_ids) == [0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
        assert stream.triple_sources == (0, 1)

    def test_single_triple_special_counts(self):
        g = build_graph([["a", "r", "b"]])
        stream = linearize_graph(g)
        assert stream.tokens.count("[S]") == 1
        assert stream.tokens.count("[R]") == 1
        assert stream.tokens.count("[O]") == 1

    def test_empty_graph(self):
        g = build_graph([])
        stream = linearize_graph(g)
        assert list(stream.tokens) == ["[BOS]"]

    def test_group_swap_preserves_triple_multiset(self, rng):
        g = build_graph(
            [["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"], ["s2", "r2", "o4"]]
        )

        def decoded(rng=None):
            stream = linearize_graph(g, rng)
            return sorted(g.triple_surfaces(i) for i in stream.triple_sources)

        base = decoded()
        for _ in range(5):
            assert decoded(rng) == base

    def test_file_order_groups_by_first_appearance(self):
        g = build_graph([["s1", "r1", "o1"], ["s2", "r1", "o2"], ["s1", "r2", "o3"]])
        stream = linearize_graph(g)
        assert stream.triple_sources == (0, 2, 1)  # s1's triples in file order, then s2's
        assert [t for t in stream.tokens if t in ("s1", "s2")] == ["s1", "s2"]

    def test_same_seed_same_stream(self):
        g = build_graph([["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"], ["s2", "r2", "o4"]])
        a = linearize_graph(g, np.random.default_rng(7))
        b = linearize_graph(g, np.random.default_rng(7))
        assert a.tokens == b.tokens and a.triple_sources == b.triple_sources
        file_order = linearize_graph(g).triple_sources
        assert any(linearize_graph(g, np.random.default_rng(s)).triple_sources != file_order for s in range(10))

    def test_shuffle_leaves_the_index_stream(self):
        g = build_graph([["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"]])
        index_stream = linearize_graph(g)
        tokens = index_stream.tokens
        for seed in range(5):
            shuffled = linearize_graph(g, np.random.default_rng(seed))
            assert shuffled is not index_stream and shuffled.strings is index_stream.strings
        assert linearize_graph(g) is index_stream and index_stream.tokens == tokens

    @pytest.mark.parametrize("triples", SHUFFLE_GRAPHS.values(), ids=SHUFFLE_GRAPHS.keys())
    def test_shuffled_stream_is_well_formed(self, triples):
        # every triple once, under a header of its own subject, and no header without a triple
        g = build_graph(triples)
        for seed in range(8):
            stream = linearize_graph(g, np.random.default_rng(seed))
            tokens, ent, tri = stream.tokens, stream.entity_ids.tolist(), stream.triple_ids.tolist()
            assert tokens[0] == "[BOS]" and ent[0] == tri[0] == 0
            assert sorted(stream.triple_sources) == list(range(len(g.triples)))
            group_of = [ent[start] for start in stream.triple_starts.tolist()]
            subjects = [g.triples[src].subject for src in stream.triple_sources]
            # groups run 1, 2, ... in emission order; a group holds one subject and a subject one group
            assert group_of == sorted(group_of)
            assert sorted(set(group_of)) == list(range(1, len(set(subjects)) + 1))
            assert len(set(zip(group_of, subjects))) == len(set(subjects))
            covered = 1  # [BOS]
            for gid, subject in set(zip(group_of, subjects)):
                header = [tokens[p] for p in range(len(tokens)) if ent[p] == gid and tri[p] == 0]
                assert header == ["[S]", *g.entities[subject].surface.split()]
                covered += len(header)
            for t, src in enumerate(stream.triple_sources):
                start, end = int(stream.triple_starts[t]), int(stream.triple_ends[t])
                _, rel, obj = g.triple_surfaces(src)
                assert list(tokens[start:end]) == ["[R]", *rel.split(), "[O]", *obj.split()]
                assert set(tri[start:end]) == {t + 1}
                covered += end - start
            assert covered == len(tokens)  # nothing but [BOS], headers and triple spans


def assemble(sample, vocab, limits, rng=None, gold=True):
    return assemble_input(
        linearize_graph(sample.graph, rng), sample.history, sample.question,
        sample.gold_response if gold else None, vocab, limits, sample.id,
    )


class TestAssemble:
    def test_stream_alignment_and_layout(self, tiny_split, tiny_vocab, limits):
        s = tiny_split.samples[0]
        seq = assemble(s, tiny_vocab, limits)
        toks = tiny_vocab.decode(seq.token_ids)
        assert toks[0] == "[BOS]"
        assert toks[seq.knowledge_end] == "[SEP]"
        assert toks[seq.question_start - 1] == "[Q]"
        assert toks[-1] == EOS
        assert seq.type_ids[seq.response_start] == TYPE_SYSTEM
        assert seq.type_ids[seq.question_start] == TYPE_USER

    def test_empty_history_sep_then_q(self, tiny_vocab, limits):
        g = STARBUCKS
        seq = assemble_input(linearize_graph(g), [], "how far is starbucks ?", None, tiny_vocab, limits)
        toks = tiny_vocab.decode(seq.token_ids)
        assert toks[seq.knowledge_end] == "[SEP]"
        assert toks[seq.knowledge_end + 1] == "[Q]"
        assert seq.response_start == seq.n  # context-only

    def test_history_turn_budget(self, tiny_vocab, limits):
        turns = [
            DialogueTurn("user", f"question number {i}") if i % 2 == 0 else DialogueTurn("system", f"answer number {i}")
            for i in range(5)
        ]
        lim = AssemblyLimits(max_history_turns=4, max_history_tokens=128, context_limit=412)
        vocab = vocab_over("question answer number 0 1 2 3 4 final ?", "starbucks distance 4 miles address 792 bedoin st")
        seq = assemble_input(linearize_graph(STARBUCKS), turns, "final question ?", None, vocab, lim)
        toks = vocab.decode(seq.token_ids)
        joined = " ".join(toks)
        assert "number 0" not in joined  # oldest turn dropped
        assert "number 1" in joined

    def test_history_token_budget_trims_oldest(self):
        from kgdialog.corpus import expand_dialogues

        turns = [
            {"speaker": "user", "text": "a b c d e f"},
            {"speaker": "system", "text": "g h i j k l"},
            {"speaker": "user", "text": "q ?"},
            {"speaker": "system", "text": "fine"},
        ]
        split = expand_dialogues(
            [{"id": "d", "domain": "x", "kg": {"triples": [["s", "r", "o"]]}, "turns": turns}], "train"
        )
        vocab = build_vocab([split])
        sample = split.samples[1]
        lim = AssemblyLimits(max_history_tokens=4, max_history_turns=4, context_limit=412)
        seq = assemble_input(linearize_graph(sample.graph), sample.history, sample.question, None, vocab, lim)
        toks = vocab.decode(seq.token_ids)
        hist = toks[seq.knowledge_end + 1 : seq.question_start - 1]
        assert hist == ["i", "j", "k", "l"]
        assert list(seq.type_ids[seq.knowledge_end + 1 : seq.knowledge_end + 5]) == [TYPE_SYSTEM] * 4

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_history_token_budget_keeps_at_most_budget(self, budget):
        history = (DialogueTurn("user", "a b c"), DialogueTurn("system", "d e"))
        stream = linearize_graph(build_graph([["s", "r", "o"]]))
        vocab = vocab_over("s r o a b c d e q ?")
        seq = assemble_input(stream, history, "q ?", None, vocab, AssemblyLimits(max_history_tokens=budget))
        hist = vocab.decode(seq.token_ids[seq.knowledge_end + 1 : seq.question_start - 1])
        assert hist == ["a", "b", "c", "d", "e"][5 - budget :]

    def test_knowledge_truncation_drops_whole_triples(self):
        g = build_graph(
            [["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s1", "r3", "o3"]]
        )
        vocab = vocab_over("s1 s2 r1 r2 r3 o1 o2 o3 q ?")
        # [BOS] [S] s1 = 3 tokens, each triple [R] r [O] o = 4 tokens
        lim = AssemblyLimits(max_knowledge_tokens=11, context_limit=412)
        seq = assemble_input(linearize_graph(g), [], "q ?", None, vocab, lim)
        assert len(seq.triple_spans) == 2
        decoded = [decode_triple_span(seq, vocab, t) for t in sorted(seq.triple_spans)]
        assert decoded == [("r1", "o1"), ("r2", "o2")]

    def test_truncation_never_splits_triple(self, tiny_vocab):
        g = STARBUCKS
        for budget in range(1, 20):
            lim = AssemblyLimits(max_knowledge_tokens=budget, context_limit=412)
            seq = assemble_input(linearize_graph(g), [], "q ?", None, tiny_vocab, lim)
            toks = tiny_vocab.decode(seq.token_ids[: seq.knowledge_end])
            # every [R] must be followed by a matching [O] before the next [R]/end
            for t in sorted(seq.triple_spans):
                rel, obj = decode_triple_span(seq, tiny_vocab, t)
                assert rel and obj

    def test_context_limit_error_names_sample(self, tiny_vocab):
        lim = AssemblyLimits(context_limit=10)
        with pytest.raises(SequenceTooLongError, match="sample-x"):
            assemble_input(linearize_graph(STARBUCKS), [], "too long ?", None, tiny_vocab, lim, sample_id="sample-x")

    def test_span_fidelity(self, tiny_split, tiny_vocab, limits):
        for s in tiny_split.samples:
            seq = assemble(s, tiny_vocab, limits)
            for t in sorted(seq.triple_spans):
                rel, obj = decode_triple_span(seq, tiny_vocab, t)
                src = s.graph.triple_surfaces(seq.triple_sources[t - 1])
                assert (rel, obj) == (src[1], src[2])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_shuffle_content_invariance(self, seed, tiny_split, tiny_vocab, limits):
        s = tiny_split.samples[0]
        rng = np.random.default_rng(seed)
        seq_a = assemble(s, tiny_vocab, limits)
        seq_b = assemble(s, tiny_vocab, limits, rng=rng)
        def multiset(seq):
            return sorted(s.graph.triple_surfaces(src) for src in seq.triple_sources)
        assert multiset(seq_a) == multiset(seq_b)
        assert seq_a.n == seq_b.n


# --- the graph index against the token-by-token loop oracle -------------------

WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta")
INDEX_VOCAB = vocab_over(" ".join(WORDS[:-1]) + " ?")  # "theta" encodes as [UNK]
INDEX_MODEL = None


def index_model():
    global INDEX_MODEL
    if INDEX_MODEL is None:
        from kgdialog.model import ModelConfig, init_model

        cfg = ModelConfig(vocab_size=len(INDEX_VOCAB), d_model=8, n_heads=2, n_layers=1, d_ff=16,
                          max_positions=1024, max_entity_ids=64, max_triple_ids=256)
        INDEX_MODEL = init_model(cfg, seed=4)
    return INDEX_MODEL


surfaces = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


@st.composite
def multiword_graphs(draw):
    """Graphs over a small word pool: multi-word surfaces, shared subjects,
    relations and objects, and words that are the whole of one surface and
    part of another."""
    subjects = draw(st.lists(surfaces, min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.tuples(st.sampled_from(subjects), surfaces, surfaces), min_size=0, max_size=12))
    unique = list(dict.fromkeys(raw))  # build_graph refuses duplicate triples
    return build_graph([list(t) for t in unique])


def turns_strategy():
    return st.lists(st.tuples(st.booleans(), surfaces), max_size=4).map(
        lambda ts: tuple(DialogueTurn("user" if u else "system", text) for u, text in ts))


def seq_fields(seq):
    return {
        "token_ids": seq.token_ids.tolist(),
        "position_ids": seq.position_ids.tolist(),
        "entity_ids": seq.entity_ids.tolist(),
        "triple_ids": seq.triple_ids.tolist(),
        "type_ids": seq.type_ids.tolist(),
        "knowledge_end": seq.knowledge_end,
        "question_start": seq.question_start,
        "response_start": seq.response_start,
        "triple_spans": seq.triple_spans,
        "triple_sources": seq.triple_sources,
    }


EMPTY_GRAPH = build_graph([])
ONE_TRIPLE = build_graph([["alpha beta", "gamma", "delta"]])
ONE_SUBJECT = build_graph([["alpha", "beta", "gamma"], ["alpha", "delta eps", "zeta"], ["alpha", "beta", "theta"]])


def rng_pair(shuffle, seed):
    """Two equal RNGs, one for the package and one for the oracle's ``shuffled_groups``; (None, None) for file order."""
    return (np.random.default_rng(seed), np.random.default_rng(seed)) if shuffle else (None, None)


def oracle_order(graph, rng):
    from oracles import shuffled_groups

    return None if rng is None else shuffled_groups(graph, rng)


class TestIndexMatchesLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(multiword_graphs(), st.booleans(), st.integers(0, 2**32 - 1))
    @example(EMPTY_GRAPH, True, 0)
    @example(ONE_TRIPLE, False, 0)
    @example(ONE_TRIPLE, True, 0)
    @example(ONE_SUBJECT, False, 0)
    @example(ONE_SUBJECT, True, 1)
    def test_linearize_and_truncate(self, graph, shuffle, seed):
        from kgdialog.sequence import truncate_stream
        from oracles import loop_linearize, loop_truncate

        rng, oracle_rng = rng_pair(shuffle, seed)
        stream = linearize_graph(graph, rng)
        expected = loop_linearize(graph, oracle_order(graph, oracle_rng))
        got = (list(stream.tokens), stream.entity_ids.tolist(), stream.triple_ids.tolist(), list(stream.triple_sources))
        assert got == expected
        assert len(stream.triple_starts) == len(stream.triple_ends) == len(stream.triple_sources)

        ends = [p for p in range(1, len(expected[2])) if expected[2][p - 1] != 0 and expected[2][p] != expected[2][p - 1]]
        ends.append(len(expected[2]))
        budgets = {0, 1, len(expected[0]), len(expected[0]) + 1} | {e + d for e in ends for d in (-1, 0, 1)}
        for budget in sorted(budgets):
            cut = truncate_stream(stream, budget)
            want = loop_truncate(*expected, budget)
            assert (list(cut.tokens), cut.entity_ids.tolist(), cut.triple_ids.tolist(),
                    list(cut.triple_sources)) == want, budget

    @settings(max_examples=100, deadline=None)
    @given(
        multiword_graphs(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        turns_strategy(),
        surfaces,
        st.one_of(st.none(), surfaces),
        st.integers(0, 3),
        st.integers(0, 10),
        st.booleans(),
        st.sampled_from([40, 400]),
    )
    @example(EMPTY_GRAPH, True, 0, (), "alpha ?", "beta", 1, 4, True, 400)
    @example(ONE_TRIPLE, True, 0, (), "alpha ?", "beta", 1, 4, True, 400)
    @example(ONE_SUBJECT, True, 3, (), "alpha ?", None, 1, 4, True, 400)
    def test_assembled_sample(self, graph, shuffle, seed, history, question, gold, turns, hist_tokens,
                              use_kg_mask, context_limit):
        from kgdialog.corpus import DialogueSample
        from kgdialog.graph_weights import TokenEmbedder, compute_weighted_graph, select_topk
        from kgdialog.masking import NEG_INF
        from kgdialog.training import build_sample_inputs
        from oracles import loop_assemble, loop_linearize, naive_knowledge_columns

        # a new RNG pair per budget: each call consumes its RNG
        order = oracle_order(graph, rng_pair(shuffle, seed)[1])
        tri = loop_linearize(graph, order)[2]
        ends = [p for p in range(1, len(tri)) if tri[p - 1] != 0 and tri[p] != tri[p - 1]] + [len(tri)]
        # on, one before and one after every triple boundary; 0 and 1 keep only [BOS]
        budgets = sorted({0, 1} | {e + d for e in ends for d in (-1, 0, 1)})
        sample = DialogueSample("s", "d", graph, history, question, gold or "")
        state = index_model()
        weights = compute_weighted_graph(graph, question, TokenEmbedder(INDEX_VOCAB, state.params["tok_emb"]))
        sel = select_topk(weights, 2, 2)
        for budget in budgets:
            limits = AssemblyLimits(max_knowledge_tokens=budget, max_history_tokens=hist_tokens,
                                    max_history_turns=turns, context_limit=context_limit)
            rng, oracle_rng = rng_pair(shuffle, seed)
            expected = loop_assemble(graph, oracle_order(graph, oracle_rng), history, question, gold,
                                     INDEX_VOCAB.token_to_id, limits)
            if expected is None:
                with pytest.raises(SequenceTooLongError):
                    build_sample_inputs(sample, INDEX_VOCAB, state, 2, 2, use_kg_mask, limits, rng=rng,
                                        with_gold=gold is not None)
                continue
            seq, cols = build_sample_inputs(sample, INDEX_VOCAB, state, 2, 2, use_kg_mask, limits, rng=rng,
                                            with_gold=gold is not None)
            assert seq_fields(seq) == expected, budget
            if use_kg_mask and graph.triples:
                want = naive_knowledge_columns(
                    [(t.subject, t.relation, t.object) for t in graph.triples], seq.triple_sources,
                    seq.triple_ids, seq.entity_ids, seq.knowledge_end, sel.top_entities, sel.top_relations,
                    NEG_INF)
                assert cols.tolist() == want, budget
            else:
                assert cols.tolist() == [0.0] * (seq.knowledge_end + 1), budget


def test_index_built_by_racing_threads_is_one_index():
    """Threads that find a graph unindexed may each build its index; every
    one of them must get the same index, and the graph keeps one of those."""
    import sys
    import threading

    from kgdialog.sequence import graph_index

    triples = [[f"s{i % 7}", f"r{i % 3}", f"o{i} x"] for i in range(60)]
    want = linearize_graph(build_graph(triples))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph = build_graph(triples)
            got = []
            threads = [threading.Thread(target=lambda: got.append(graph_index(graph))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads) and len(got) == 8
            assert graph_index(graph) in got
            for index in got:
                assert index.stream.tokens == want.tokens
                assert index.stream.triple_sources == want.triple_sources
                assert index.node_codes.tolist() == graph_index(graph).node_codes.tolist()
    finally:
        sys.setswitchinterval(interval)
