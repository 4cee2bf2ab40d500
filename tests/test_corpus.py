import json

import pytest

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

    def test_subject_groups(self):
        g = build_graph([["s1", "r1", "o1"], ["s2", "r1", "o2"], ["s1", "r2", "o3"]])
        groups = g.subject_groups()
        assert [g_ent for g_ent, _ in groups] == [0, 2]  # s1 then s2, first appearance
        assert groups[0][1] == [0, 2]
        assert groups[1][1] == [1]


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
