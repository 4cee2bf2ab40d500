"""Domain types, normalized dataset I/O, and a synthetic corpus generator.

A dataset file holds whole dialogues; each (history-prefix, user-turn,
system-turn) triple in a dialogue expands into one training sample. All text
is normalized at load time so every downstream module sees canonical form.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

USER = "user"
SYSTEM = "system"
SPLIT_NAMES = ("train", "valid", "test")


class SchemaError(ValueError):
    """Dataset file does not conform to the normalized JSON schema."""


class ValidationError(ValueError):
    """Dataset content violates a dialogue invariant (e.g. turn alternation)."""


_TERMINAL_PUNCT = re.compile(r"\s*([.!?]+)$")


def normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace, and split terminal punctuation off."""
    t = " ".join(text.lower().split())
    if t.endswith((".", "!", "?")):  # else neither the substitution nor the strip changes t
        t = _TERMINAL_PUNCT.sub(r" \1", t).strip()
    return t


@dataclass(frozen=True)
class Entity:
    id: int
    surface: str


@dataclass(frozen=True)
class RelationLabel:
    id: int
    surface: str


@dataclass(frozen=True)
class Triple:
    subject: int
    relation: int
    object: int


@dataclass(frozen=True)
class KnowledgeGraph:
    """Entities, relation labels and triples in first-appearance order.

    Entity and relation ids are dense per graph and index directly into the
    ``entities`` / ``relations`` lists.
    """

    entities: tuple[Entity, ...]
    relations: tuple[RelationLabel, ...]
    triples: tuple[Triple, ...]

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def triple_surfaces(self, idx: int) -> tuple[str, str, str]:
        t = self.triples[idx]
        return (
            self.entities[t.subject].surface,
            self.relations[t.relation].surface,
            self.entities[t.object].surface,
        )


class _Surfaces(dict):
    """Raw surface -> normalized surface, computed on first lookup.

    One instance serves one load, so each distinct raw string is normalized
    once however many triples repeat it, and equal surfaces share one ``str``.
    """

    def __missing__(self, raw: str) -> str:
        surface = self[raw] = normalize_text(raw)
        return surface


def build_graph(surface_triples: Sequence[Sequence[str]], owner: str = "?") -> KnowledgeGraph:
    """Build a graph from ``[[subject, relation, object], ...]`` surface triples."""
    return _build_graph(surface_triples, owner, _Surfaces())


def _build_graph(surface_triples: Sequence[Sequence[str]], owner: str, surfaces: _Surfaces) -> KnowledgeGraph:
    ent_ids: dict[str, int] = {}
    rel_ids: dict[str, int] = {}
    triples: list[Triple] = []
    seen: set[tuple[int, int, int]] = set()

    for i, raw in enumerate(surface_triples):
        if not isinstance(raw, (list, tuple)) or len(raw) != 3 or not all(isinstance(x, str) for x in raw):
            raise SchemaError(f"dialogue {owner!r}: kg.triples[{i}] must be [subject, relation, object] strings")
        s, r, o = surfaces[raw[0]], surfaces[raw[1]], surfaces[raw[2]]
        if not s:
            raise SchemaError(f"dialogue {owner!r}: empty subject surface in kg.triples[{i}]")
        if not r:
            raise SchemaError(f"dialogue {owner!r}: empty relation surface in kg.triples[{i}]")
        if not o:
            raise SchemaError(f"dialogue {owner!r}: empty object surface in kg.triples[{i}]")
        key = (
            ent_ids.setdefault(s, len(ent_ids)),
            rel_ids.setdefault(r, len(rel_ids)),
            ent_ids.setdefault(o, len(ent_ids)),
        )
        if key in seen:
            raise SchemaError(f"dialogue {owner!r}: duplicate triple at kg.triples[{i}]")
        seen.add(key)
        triples.append(Triple(*key))

    return KnowledgeGraph(
        entities=tuple(Entity(i, s) for s, i in ent_ids.items()),
        relations=tuple(RelationLabel(i, s) for s, i in rel_ids.items()),
        triples=tuple(triples),
    )


@dataclass(frozen=True)
class DialogueTurn:
    speaker: str  # "user" | "system"
    text: str


@dataclass(frozen=True)
class DialogueSample:
    """One trainable exchange: history, current question and gold response."""

    id: str
    domain: str
    graph: KnowledgeGraph
    history: tuple[DialogueTurn, ...]
    question: str
    gold_response: str


@dataclass(frozen=True)
class DatasetSplit:
    name: str
    samples: tuple[DialogueSample, ...]

    def __len__(self) -> int:
        return len(self.samples)


def _expand_dialogue(raw: dict, index: int, surfaces: _Surfaces) -> list[DialogueSample]:
    if not isinstance(raw, dict):
        raise SchemaError(f"dialogues[{index}] is not an object")
    did = raw.get("id")
    if not isinstance(did, str) or not did:
        raise SchemaError(f"dialogues[{index}]: missing or empty field 'id'")
    domain = raw.get("domain")
    if not isinstance(domain, str):
        raise SchemaError(f"dialogue {did!r}: missing field 'domain'")
    kg = raw.get("kg")
    if not isinstance(kg, dict) or not isinstance(kg.get("triples"), list):
        raise SchemaError(f"dialogue {did!r}: missing field 'kg.triples'")
    turns_raw = raw.get("turns")
    if not isinstance(turns_raw, list) or not turns_raw:
        raise SchemaError(f"dialogue {did!r}: missing or empty field 'turns'")

    graph = _build_graph(kg["triples"], did, surfaces)

    turns: list[DialogueTurn] = []
    for j, t in enumerate(turns_raw):
        if not isinstance(t, dict) or t.get("speaker") not in (USER, SYSTEM):
            raise SchemaError(f"dialogue {did!r}: turns[{j}] needs speaker 'user' or 'system'")
        text = t.get("text", "")
        if not isinstance(text, str):
            raise SchemaError(f"dialogue {did!r}: turns[{j}] text must be a string")
        text = normalize_text(text)
        if not text:
            raise SchemaError(f"dialogue {did!r}: turns[{j}] has empty text")
        turns.append(DialogueTurn(t["speaker"], text))

    expected = USER
    for j, t in enumerate(turns):
        if t.speaker != expected:
            raise ValidationError(
                f"dialogue {did!r}: turns[{j}] breaks user/system alternation (got {t.speaker!r})"
            )
        expected = SYSTEM if expected == USER else USER
    if turns[-1].speaker != SYSTEM:
        raise ValidationError(f"dialogue {did!r}: final turn must be a system turn")

    samples = []
    for k in range(len(turns) // 2):
        samples.append(
            DialogueSample(
                id=f"{did}#{k}",
                domain=domain,
                graph=graph,
                history=tuple(turns[: 2 * k]),
                question=turns[2 * k].text,
                gold_response=turns[2 * k + 1].text,
            )
        )
    return samples


def expand_dialogues(dialogues: Sequence[dict], split: str) -> DatasetSplit:
    samples: list[DialogueSample] = []
    surfaces = _Surfaces()
    for i, d in enumerate(dialogues):
        samples.extend(_expand_dialogue(d, i, surfaces))
    return DatasetSplit(split, tuple(samples))


def read_json(path: Path) -> object:
    """Parse a UTF-8 JSON file; undecodable bytes or invalid JSON raise a SchemaError naming it."""
    try:
        with path.open("r", encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON: {e}") from e


def load_dataset(path: str | Path, split: str) -> DatasetSplit:
    """Load and validate a normalized dataset file into expanded samples."""
    if split not in SPLIT_NAMES:
        raise ValueError(f"split must be one of {SPLIT_NAMES}, got {split!r}")
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("dialogues"), list):
        raise SchemaError(f"{path}: top-level object must contain a 'dialogues' list")
    return expand_dialogues(doc["dialogues"], split)


def entity_lexicon(splits: Iterable[DatasetSplit]) -> list[str]:
    """All entity surfaces across splits, longest (in tokens) first.

    The ordering supports longest-match entity detection in generated text.
    """
    surfaces: set[str] = set()
    for split in splits:
        for sample in split.samples:
            for e in sample.graph.entities:
                surfaces.add(e.surface)
    return sorted(surfaces, key=lambda s: (-len(s.split()), s))


# --- synthetic corpus -------------------------------------------------------

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SynthConfig:
    n_dialogues: int
    n_subjects_per_graph: int = 5
    n_relations: int = 4
    vocab_pool_seed: int = 101
    seed: int = 7


def _pseudo_words(rng: np.random.Generator, count: int, syllables: int, used: set[str]) -> list[str]:
    words = []
    while len(words) < count:
        w = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if w not in used:
            used.add(w)
            words.append(w)
    return words


@dataclass(frozen=True)
class _SynthPools:
    relations: list[str]
    # subject "families": two names sharing a first token, e.g. "dovo vedola"
    # and "dovo kirame"; graphs include one full family so that top-1 entity
    # selection has a genuine near-miss candidate
    subject_families: list[tuple[str, str]]
    objects: list[str]


def _build_pools(vocab_pool_seed: int) -> _SynthPools:
    rng = np.random.default_rng(vocab_pool_seed)
    used: set[str] = set()
    relations = _pseudo_words(rng, 12, 2, used)
    firsts = _pseudo_words(rng, 16, 2, used)
    seconds = _pseudo_words(rng, 32, 3, used)
    families = [
        (f"{firsts[i]} {seconds[2 * i]}", f"{firsts[i]} {seconds[2 * i + 1]}")
        for i in range(16)
    ]
    objects = _pseudo_words(rng, 32, 3, used)
    return _SynthPools(relations, families, objects)


def synthetic_dialogues(config: SynthConfig) -> list[dict]:
    """Deterministic template QA dialogues grounded in per-dialogue graphs."""
    if config.n_subjects_per_graph < 1 or config.n_relations < 1:
        raise ValueError("n_subjects_per_graph and n_relations must be >= 1")
    for name in ("n_dialogues", "seed", "vocab_pool_seed"):
        if getattr(config, name) < 0:
            raise ValueError(f"{name} must be >= 0, not {getattr(config, name)}")
    pools = _build_pools(config.vocab_pool_seed)
    n_families = len(pools.subject_families)
    if config.n_subjects_per_graph > n_families + 1:
        raise ValueError(f"n_subjects_per_graph exceeds pool capacity {n_families + 1}")
    if config.n_relations > len(pools.relations):
        raise ValueError(f"n_relations exceeds pool size {len(pools.relations)}")
    n_triples = config.n_subjects_per_graph * config.n_relations
    if n_triples > len(pools.objects):
        raise ValueError(f"graph needs {n_triples} distinct objects, pool has {len(pools.objects)}")

    dialogues = []
    for d in range(config.n_dialogues):
        rng = np.random.default_rng([config.seed, d])
        n_subj = config.n_subjects_per_graph
        fam_idx = rng.choice(n_families, size=max(1, n_subj - 1), replace=False)
        if n_subj == 1:
            subjects = [pools.subject_families[fam_idx[0]][int(rng.integers(2))]]
        else:
            # both members of the first family (top-1 decoy pair), one member
            # of each remaining family
            subjects = list(pools.subject_families[fam_idx[0]])
            subjects += [
                pools.subject_families[i][int(rng.integers(2))] for i in fam_idx[1:]
            ]
        perm = rng.permutation(len(subjects))
        subjects = [subjects[i] for i in perm]
        relations = [pools.relations[i] for i in rng.choice(len(pools.relations), config.n_relations, replace=False)]
        objects = [pools.objects[i] for i in rng.choice(len(pools.objects), n_triples, replace=False)]

        triples = []
        answer: dict[tuple[int, int], str] = {}
        for si, subj in enumerate(subjects):
            for ri, rel in enumerate(relations):
                obj = objects[si * config.n_relations + ri]
                triples.append([subj, rel, obj])
                answer[(si, ri)] = obj

        n_exchanges = min(int(rng.integers(1, 4)), n_triples)
        pair_idx = rng.choice(n_triples, size=n_exchanges, replace=False)
        turns = []
        for p in pair_idx:
            si, ri = divmod(int(p), config.n_relations)
            subj, rel = subjects[si], relations[ri]
            turns.append({"speaker": USER, "text": f"what is the {rel} of {subj} ?"})
            turns.append({"speaker": SYSTEM, "text": f"the {rel} of {subj} is {answer[(si, ri)]}"})

        dialogues.append(
            {"id": f"synth-{d:05d}", "domain": "synthetic", "kg": {"triples": triples}, "turns": turns}
        )
    return dialogues


def generate_synthetic(config: SynthConfig, split: str = "train") -> DatasetSplit:
    """Generate a synthetic split; identical config yields identical samples."""
    return expand_dialogues(synthetic_dialogues(config), split)
