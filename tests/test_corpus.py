import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgdialog.corpus import (
    SchemaError,
    SynthConfig,
    ValidationError,
    build_graph,
    entity_lexicon,
    generate_synthetic,
    load_dataset,
    normalize_text,
)
from oracles import loop_build_graph, loop_load_dataset, loop_normalize_text


def write_dataset(tmp_path, dialogues, name="train.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"dialogues": dialogues}), encoding="utf-8")
    return path


def minimal_dialogue(did="d1", turns=None, triples=None):
    return {
        "id": did,
        "domain": "navigation",
        "kg": {
            "triples": triples
            if triples is not None
            else [["starbucks", "distance", "4 miles"], ["starbucks", "address", "792 bedoin st"]]
        },
        "turns": turns
        or [
            {"speaker": "user", "text": "where is the nearest coffee shop ?"},
            {"speaker": "system", "text": "starbucks is 4 miles away"},
        ],
    }


class TestNormalize:
    def test_lowercase_and_whitespace(self):
        assert normalize_text("  Hello   World  ") == "hello world"

    def test_terminal_punctuation_separated(self):
        assert normalize_text("where is starbucks?") == "where is starbucks ?"
        assert normalize_text("go now!") == "go now !"

    def test_idempotent(self):
        once = normalize_text("Find me The Quickest route?")
        assert normalize_text(once) == once

    @given(st.text(alphabet=st.sampled_from(list("aBcZé İ\t\n\r\x0b\x1c\u00a0\u2003\u3000.!?,")) | st.characters(),
                   max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle(self, text):
        assert normalize_text(text) == loop_normalize_text(text)

    @pytest.mark.parametrize("text", ["", " \t\n", "?!", " ... ", "a...", "Why?! ", "x . y", "\u00a0?\u3000"])
    def test_matches_loop_oracle_on_punctuation(self, text):
        assert normalize_text(text) == loop_normalize_text(text)


class TestLoad:
    def test_minimal_file(self, tmp_path):
        path = write_dataset(tmp_path, [minimal_dialogue()])
        split = load_dataset(path, "train")
        assert len(split.samples) == 1
        s = split.samples[0]
        assert len(s.graph.triples) == 2
        assert s.question == "where is the nearest coffee shop ?"
        assert s.gold_response == "starbucks is 4 miles away"

    def test_adjacent_user_turns_rejected(self, tmp_path):
        turns = [
            {"speaker": "user", "text": "hi"},
            {"speaker": "user", "text": "hello again"},
            {"speaker": "system", "text": "hi there"},
        ]
        path = write_dataset(tmp_path, [minimal_dialogue(turns=turns)])
        with pytest.raises(ValidationError, match="alternation"):
            load_dataset(path, "train")

    def test_final_turn_must_be_system(self, tmp_path):
        turns = [{"speaker": "user", "text": "hi"}]
        path = write_dataset(tmp_path, [minimal_dialogue(turns=turns)])
        with pytest.raises(ValidationError, match="final turn"):
            load_dataset(path, "train")

    def test_error_names_dialogue_and_field(self, tmp_path):
        bad = minimal_dialogue(did="bad-one")
        bad["kg"]["triples"].append(["starbucks", "distance", "4 miles"])  # duplicate
        path = write_dataset(tmp_path, [bad])
        with pytest.raises(SchemaError, match="bad-one"):
            load_dataset(path, "train")

    @pytest.mark.parametrize("turn_text, triple, message", [
        (5, None, "dialogue 'd1': turns[0] text must be a string"),
        (None, None, "dialogue 'd1': turns[0] text must be a string"),
        ("", None, "dialogue 'd1': turns[0] has empty text"),
        ("hi", "abc", "dialogue 'd1': kg.triples[2] must be [subject, relation, object] strings"),
        ("hi", 5, "dialogue 'd1': kg.triples[2] must be [subject, relation, object] strings"),
        ("hi", {"s": 1, "r": 2, "o": 3}, "dialogue 'd1': kg.triples[2] must be [subject, relation, object] strings"),
        ("hi", ["a", "r", 3], "dialogue 'd1': kg.triples[2] must be [subject, relation, object] strings"),
        ("hi", [" ", "r", "o"], "dialogue 'd1': empty subject surface in kg.triples[2]"),
        ("hi", ["s", "\t", "o"], "dialogue 'd1': empty relation surface in kg.triples[2]"),
        ("hi", ["s", "r", ""], "dialogue 'd1': empty object surface in kg.triples[2]"),
    ])
    def test_malformed_field_named(self, tmp_path, turn_text, triple, message):
        d = minimal_dialogue()
        d["turns"][0]["text"] = turn_text
        if triple is not None:
            d["kg"]["triples"].append(triple)
        path = write_dataset(tmp_path, [d])
        with pytest.raises(SchemaError) as e:
            load_dataset(path, "train")
        assert str(e.value) == message

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_bytes(json.dumps({"dialogues": [minimal_dialogue()]}).encode("utf-8").replace(b"miles", b"mil\xe9s"))
        with pytest.raises(SchemaError, match=f"^{path}: not UTF-8 text: "):
            load_dataset(path, "train")

    def test_dialogue_count_preserved(self, tmp_path):
        dialogues = [minimal_dialogue(did=f"d{i}") for i in range(12)]
        path = write_dataset(tmp_path, dialogues)
        split = load_dataset(path, "train")
        assert {s.id.rsplit("#", 1)[0] for s in split.samples} == {f"d{i}" for i in range(12)}
        # single-exchange dialogues expand 1:1
        assert len(split.samples) == 12

    def test_multi_exchange_expansion(self, tmp_path):
        turns = [
            {"speaker": "user", "text": "q one"},
            {"speaker": "system", "text": "a one"},
            {"speaker": "user", "text": "q two"},
            {"speaker": "system", "text": "a two"},
        ]
        path = write_dataset(tmp_path, [minimal_dialogue(turns=turns)])
        split = load_dataset(path, "train")
        assert len(split.samples) == 2
        assert split.samples[1].history[0].text == "q one"
        assert split.samples[1].question == "q two"


class TestGraph:
    def test_first_appearance_ids(self):
        g = build_graph([["b", "r", "c"], ["a", "r", "b"]])
        assert [e.surface for e in g.entities] == ["b", "c", "a"]
        assert [r.surface for r in g.relations] == ["r"]


# Raw surfaces that repeat across dialogues in several casings and spacings.
_SURFACE = st.sampled_from(["Starbucks", "starbucks ", " STAR  bucks", "4 miles", "4\tMiles!", "where?",
                            "a ...", "Dist", "dist", "?", "Gas\u00a0Station", "gas station"])
# At most one fault per dialogue, in about a quarter of them: a triple of the
# wrong shape, a surface or turn text that is empty or not a string, or turns
# out of order.
_BAD_TRIPLES = ["abc", 5, None, {"s": "a", "r": "b", "o": "c"}, ["a", "b"], ["a", "b", 3],
                ["", "r", "o"], ["s", " \n", "o"], ["s", "r", "\t"]]
_FAULTS = ([("triple", t) for t in _BAD_TRIPLES] + [("text", t) for t in (5, None, "", " . ")]
           + [("speaker", "system"), ("drop", None)])


@st.composite
def _dialogue(draw, did):
    n_exchanges = draw(st.integers(1, 3))
    turns = [{"speaker": "user" if j % 2 == 0 else "system", "text": draw(_SURFACE)} for j in range(2 * n_exchanges)]
    triples = draw(st.lists(st.lists(_SURFACE, min_size=3, max_size=3), max_size=6))
    fault = draw(st.integers(0, 4 * len(_FAULTS))) - len(_FAULTS)  # the bounds, which hypothesis favours, are clean
    if 0 <= fault < len(_FAULTS):
        kind, value = _FAULTS[fault]
        if kind == "triple":
            triples.insert(draw(st.integers(0, len(triples))), value)
        elif kind == "drop":
            turns.pop()
        else:
            turns[draw(st.integers(0, len(turns) - 1))][kind] = value
    return {"id": did, "domain": "navigation", "kg": {"triples": triples}, "turns": turns}


def _load_or_error(loader, path):
    try:
        return loader(path, "test")
    except (SchemaError, ValidationError) as e:
        return type(e), str(e)


class TestLoadMatchesLoopOracle:
    @given(st.lists(st.integers(0, 3), max_size=4).flatmap(
        lambda ids: st.tuples(*[_dialogue(f"d{i}") for i in ids])), st.integers(0, 9))
    @settings(max_examples=300, deadline=None)
    def test_random_files(self, dialogues, bad_byte):
        raw = json.dumps({"dialogues": list(dialogues)}, ensure_ascii=False).encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "test.json"
            path.write_bytes(raw[:-1] + b"\xff}" if bad_byte == 5 else raw)
            got, want = _load_or_error(load_dataset, path), _load_or_error(loop_load_dataset, path)
        assert got == want
        assert repr(got) == repr(want)

    def test_synthetic_corpus(self, tmp_path):
        from kgdialog.corpus import SynthConfig, synthetic_dialogues

        path = write_dataset(tmp_path, synthetic_dialogues(SynthConfig(n_dialogues=60, seed=4)))
        got = load_dataset(path, "test")
        assert got == loop_load_dataset(path, "test") and len(got) > 60

    @given(st.lists(st.one_of(st.lists(_SURFACE, min_size=3, max_size=3), st.sampled_from(_BAD_TRIPLES)), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_build_graph(self, triples):
        def build(fn):
            try:
                return fn(triples, owner="kg.json")
            except SchemaError as e:
                return str(e)

        assert build(build_graph) == build(loop_build_graph)


class TestLexicon:
    def test_length_major_order(self, tmp_path):
        path = write_dataset(tmp_path, [minimal_dialogue()])
        split = load_dataset(path, "train")
        lex = entity_lexicon([split])
        assert lex == ["792 bedoin st", "4 miles", "starbucks"]

    def test_duplicate_surface_once(self, tmp_path):
        d1 = minimal_dialogue(did="d1")
        d2 = minimal_dialogue(did="d2")
        path = write_dataset(tmp_path, [d1, d2])
        split = load_dataset(path, "train")
        lex = entity_lexicon([split])
        assert lex.count("starbucks") == 1

    def test_empty_graphs(self, tmp_path):
        d = minimal_dialogue(triples=[])
        path = write_dataset(tmp_path, [d])
        split = load_dataset(path, "train")
        assert entity_lexicon([split]) == []

    def test_monotone_under_added_graph(self, tmp_path):
        p1 = write_dataset(tmp_path, [minimal_dialogue(did="d1")], "a.json")
        base = load_dataset(p1, "train")
        extra = minimal_dialogue(did="d2", triples=[["peets", "distance", "2 miles"]])
        p2 = write_dataset(tmp_path, [minimal_dialogue(did="d1"), extra], "b.json")
        bigger = load_dataset(p2, "train")
        assert set(entity_lexicon([base])) <= set(entity_lexicon([bigger]))


class TestSynthetic:
    def test_single_qa_contains_object(self):
        split = generate_synthetic(SynthConfig(n_dialogues=1, n_subjects_per_graph=1, n_relations=1, seed=7))
        assert len(split.samples) == 1
        s = split.samples[0]
        obj = s.graph.entities[s.graph.triples[0].object].surface
        assert obj in s.gold_response

    def test_determinism(self):
        cfg = SynthConfig(n_dialogues=5, seed=21)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a == b

    def test_counts_by_construction(self):
        cfg = SynthConfig(n_dialogues=40, n_subjects_per_graph=5, n_relations=4, seed=1)
        split = generate_synthetic(cfg)
        assert len({s.id.rsplit("#", 1)[0] for s in split.samples}) == 40
        for s in split.samples:
            assert len(s.graph.triples) == 20
            objects = {s.graph.triples[i].object for i in range(20)}
            assert len(objects) == 20  # unique object values per graph

    def test_gold_contains_exactly_one_object_entity(self):
        split = generate_synthetic(SynthConfig(n_dialogues=10, seed=2))
        for s in split.samples:
            object_surfaces = {s.graph.entities[t.object].surface for t in s.graph.triples}
            hits = [o for o in object_surfaces if o in s.gold_response.split()]
            assert len(hits) == 1
