"""Word-level vocabulary, graph linearization, and input-sequence assembly.

The model consumes one flat sequence with five aligned index streams:
token, position, entity group, triple, and segment type. The knowledge part
comes first ([BOS] ... [SEP]), then dialogue history, then [Q] + question,
then (for training) the gold response + [EOS].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import USER, DatasetSplit, DialogueTurn, KnowledgeGraph

PAD, BOS, EOS, SEP, Q_TOK, S_TOK, R_TOK, O_TOK, UNK = SPECIAL_TOKENS = (
    "[PAD]",
    "[BOS]",
    "[EOS]",
    "[SEP]",
    "[Q]",
    "[S]",
    "[R]",
    "[O]",
    "[UNK]",
)

TYPE_KG = 0
TYPE_USER = 1
TYPE_SYSTEM = 2


class EmptyCorpusError(ValueError):
    pass


class SequenceTooLongError(ValueError):
    pass


@dataclass(frozen=True)
class Vocabulary:
    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int]

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        unk = self.unk_id
        return [self.token_to_id.get(t, unk) for t in tokens]

    def encode_text(self, text: str) -> list[int]:
        return self.encode(text.split())

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]


def build_vocab(splits: Sequence[DatasetSplit], min_freq: int = 1) -> Vocabulary:
    """Whitespace tokens from all turns and KG surfaces, specials first.

    Non-special tokens are ordered by descending frequency, ties broken
    lexicographically, so identical corpora yield identical id assignments.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    freq: dict[str, int] = {}

    def count(text: str) -> None:
        for tok in text.split():
            freq[tok] = freq.get(tok, 0) + 1

    seen_graphs: set[int] = set()
    for split in splits:
        for sample in split.samples:
            count(sample.question)
            count(sample.gold_response)
            g = sample.graph
            if id(g) not in seen_graphs:
                seen_graphs.add(id(g))
                for e in g.entities:
                    count(e.surface)
                for r in g.relations:
                    count(r.surface)
    if not freq:
        raise EmptyCorpusError("no tokens found in any split")

    kept = sorted((t for t, c in freq.items() if c >= min_freq), key=lambda t: (-freq[t], t))
    id_to_token = tuple(SPECIAL_TOKENS) + tuple(kept)
    return Vocabulary(id_to_token, {t: i for i, t in enumerate(id_to_token)})


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    Path(path).write_bytes(("\n".join(vocab.id_to_token) + "\n").encode("utf-8"))


def load_vocab(path: str | Path) -> Vocabulary:
    tokens = Path(path).read_bytes().decode("utf-8").split("\n")
    if tokens and tokens[-1] == "":
        tokens.pop()
    if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
        raise ValueError(f"{path}: vocabulary file must start with the special tokens")
    return Vocabulary(tuple(tokens), {t: i for i, t in enumerate(tokens)})


def vocab_sha256(vocab: Vocabulary) -> str:
    return hashlib.sha256(("\n".join(vocab.id_to_token) + "\n").encode("utf-8")).hexdigest()


# --- graph linearization ----------------------------------------------------

GraphOrder = list[list[int]]  # groups in emission order; each inner list holds original triple indices


@dataclass(frozen=True)
class KnowledgeStream:
    """Linearized graph: token strings plus per-token entity/triple annotations.

    ``entity_ids[p]`` is the 1-based emitted subject-group index covering
    position ``p`` (0 = none). ``triple_ids[p]`` is the 1-based emitted triple
    index over each [R]...object span; subject spans carry 0 because they are
    shared by every triple of the group. ``triple_sources[t-1]`` maps emitted
    triple ``t`` back to the graph's triple index.
    """

    tokens: tuple[str, ...]
    entity_ids: tuple[int, ...]
    triple_ids: tuple[int, ...]
    triple_sources: tuple[int, ...]


def identity_order(graph: KnowledgeGraph) -> GraphOrder:
    return [list(idxs) for _, idxs in graph.subject_groups()]


def shuffled_order(graph: KnowledgeGraph, rng: np.random.Generator) -> GraphOrder:
    groups = identity_order(graph)
    rng.shuffle(groups)
    for g in groups:
        rng.shuffle(g)
    return groups


def _check_order(graph: KnowledgeGraph, order: GraphOrder) -> None:
    flat = [i for g in order for i in g]
    if sorted(flat) != list(range(len(graph.triples))):
        raise ValueError("order must cover every triple exactly once")
    for g in order:
        if not g:
            raise ValueError("order contains an empty subject group")
        subj = graph.triples[g[0]].subject
        if any(graph.triples[i].subject != subj for i in g):
            raise ValueError("order group mixes triples of different subjects")


def linearize_graph(graph: KnowledgeGraph, order: GraphOrder | None = None) -> KnowledgeStream:
    """Flatten a graph to ``[BOS] ([S] subj ([R] rel [O] obj)+)*``.

    ``order`` permutes subject groups and the triples within each group;
    the default is first-appearance order.
    """
    if order is None:
        order = identity_order(graph)
    else:
        _check_order(graph, order)

    tokens: list[str] = [BOS]
    ent: list[int] = [0]
    tri: list[int] = [0]
    sources: list[int] = []

    for gi, group in enumerate(order, start=1):
        subj = graph.entity_surface(graph.triples[group[0]].subject)
        subj_toks = subj.split()
        tokens += [S_TOK] + subj_toks
        ent += [gi] * (1 + len(subj_toks))
        tri += [0] * (1 + len(subj_toks))
        for t_idx in group:
            sources.append(t_idx)
            ti = len(sources)
            _, rel, obj = graph.triple_surfaces(t_idx)
            rel_toks, obj_toks = rel.split(), obj.split()
            tokens += [R_TOK] + rel_toks + [O_TOK] + obj_toks
            span = 2 + len(rel_toks) + len(obj_toks)
            ent += [gi] * span
            tri += [ti] * span

    return KnowledgeStream(tuple(tokens), tuple(ent), tuple(tri), tuple(sources))


# --- input assembly ---------------------------------------------------------


@dataclass(frozen=True)
class AssemblyLimits:
    max_knowledge_tokens: int = 384
    max_history_tokens: int = 128
    max_history_turns: int = 4
    context_limit: int = 412


@dataclass(frozen=True)
class InputSequence:
    """Five aligned index streams plus span metadata for one sample."""

    token_ids: np.ndarray
    position_ids: np.ndarray
    entity_ids: np.ndarray
    triple_ids: np.ndarray
    type_ids: np.ndarray
    knowledge_end: int  # index of [SEP]
    question_start: int  # index right after [Q]
    response_start: int  # first response token (== n for context-only sequences)
    triple_spans: dict[int, tuple[int, int]]  # emitted triple id -> [start, end) token span
    triple_sources: tuple[int, ...]

    @property
    def n(self) -> int:
        return int(self.token_ids.shape[0])

    def validate(self) -> None:
        n = self.n
        streams = (self.token_ids, self.position_ids, self.entity_ids, self.triple_ids, self.type_ids)
        if any(s.shape != (n,) for s in streams):
            raise AssertionError("stream lengths differ")
        if not np.array_equal(self.position_ids, np.arange(n)):
            raise AssertionError("position_ids must be 0..n-1")
        ke = self.knowledge_end
        if np.any(self.type_ids[: ke + 1] != TYPE_KG):
            raise AssertionError("knowledge segment must be typed KG")
        if np.any(self.entity_ids[ke + 1 :] != 0) or np.any(self.triple_ids[ke + 1 :] != 0):
            raise AssertionError("entity/triple ids must be 0 after the knowledge segment")
        for start, end in self.triple_spans.values():
            if not (0 <= start < end <= ke):
                raise AssertionError("triple span outside knowledge segment")


def truncate_stream(stream: KnowledgeStream, max_tokens: int) -> KnowledgeStream:
    """Drop trailing triples (then whole trailing groups) to fit the budget.

    Cuts the emitted stream at a triple boundary, so no triple is ever split
    and a subject header survives only together with at least one of its
    triples. [BOS] is always kept.
    """
    if len(stream.tokens) <= max_tokens:
        return stream
    cut = 1  # keep [BOS] at minimum
    kept_triples = 0
    prev = 0
    for p, t in enumerate(stream.triple_ids):
        if prev != 0 and t != prev and p <= max_tokens:
            cut, kept_triples = p, prev
        prev = t
    return KnowledgeStream(
        stream.tokens[:cut],
        stream.entity_ids[:cut],
        stream.triple_ids[:cut],
        stream.triple_sources[:kept_triples],
    )


def assemble_input(
    stream: KnowledgeStream,
    history: Sequence[DialogueTurn],
    question: str,
    gold_response: str | None,
    vocab: Vocabulary,
    limits: AssemblyLimits,
    sample_id: str = "?",
) -> InputSequence:
    """Assemble the five-stream input for one sample.

    The knowledge stream comes from ``linearize_graph`` and is truncated here
    to the knowledge budget. With ``gold_response`` set the sequence ends in
    the gold tokens + [EOS] (training layout); otherwise it ends at the
    question (generation context).
    """
    stream = truncate_stream(stream, limits.max_knowledge_tokens)

    tokens = list(stream.tokens) + [SEP]
    ent = list(stream.entity_ids) + [0]
    tri = list(stream.triple_ids) + [0]
    typ = [TYPE_KG] * len(tokens)
    knowledge_end = len(tokens) - 1

    hist_tokens: list[str] = []
    hist_types: list[int] = []
    for turn in history[len(history) - min(len(history), limits.max_history_turns) :]:
        t_type = TYPE_USER if turn.speaker == USER else TYPE_SYSTEM
        for tok in turn.text.split():
            hist_tokens.append(tok)
            hist_types.append(t_type)
    if len(hist_tokens) > limits.max_history_tokens:
        hist_tokens = hist_tokens[-limits.max_history_tokens :]
        hist_types = hist_types[-limits.max_history_tokens :]
    tokens += hist_tokens
    typ += hist_types
    ent += [0] * len(hist_tokens)
    tri += [0] * len(hist_tokens)

    q_toks = question.split()
    tokens += [Q_TOK] + q_toks
    typ += [TYPE_USER] * (1 + len(q_toks))
    ent += [0] * (1 + len(q_toks))
    tri += [0] * (1 + len(q_toks))
    question_start = len(tokens) - len(q_toks)
    response_start = len(tokens)

    if gold_response is not None:
        g_toks = gold_response.split() + [EOS]
        tokens += g_toks
        typ += [TYPE_SYSTEM] * len(g_toks)
        ent += [0] * len(g_toks)
        tri += [0] * len(g_toks)

    if len(tokens) > limits.context_limit:
        raise SequenceTooLongError(
            f"sample {sample_id!r}: assembled length {len(tokens)} exceeds context limit {limits.context_limit}"
        )

    spans: dict[int, tuple[int, int]] = {}
    cur = 0
    for p, t in enumerate(stream.triple_ids):
        if t != cur:
            if cur != 0:
                spans[cur] = (spans[cur][0], p)
            if t != 0:
                spans[t] = (p, p)
            cur = t
    if cur != 0:
        spans[cur] = (spans[cur][0], len(stream.triple_ids))

    seq = InputSequence(
        token_ids=np.asarray(vocab.encode(tokens), dtype=np.int64),
        position_ids=np.arange(len(tokens), dtype=np.int64),
        entity_ids=np.asarray(ent, dtype=np.int64),
        triple_ids=np.asarray(tri, dtype=np.int64),
        type_ids=np.asarray(typ, dtype=np.int64),
        knowledge_end=knowledge_end,
        question_start=question_start,
        response_start=response_start,
        triple_spans=spans,
        triple_sources=stream.triple_sources,
    )
    seq.validate()
    return seq


def decode_triple_span(seq: InputSequence, vocab: Vocabulary, triple_id: int) -> tuple[str, str]:
    """Recover (relation surface, object surface) from an emitted triple span."""
    start, end = seq.triple_spans[triple_id]
    toks = vocab.decode(seq.token_ids[start:end])
    if toks[0] != R_TOK or O_TOK not in toks:
        raise ValueError(f"span of triple {triple_id} is not [R] ... [O] ... shaped")
    o_at = toks.index(O_TOK)
    return " ".join(toks[1:o_at]), " ".join(toks[o_at + 1 :])
