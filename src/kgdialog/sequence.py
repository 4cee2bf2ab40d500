"""Word-level vocabulary, graph linearization, and input-sequence assembly.

The model consumes one flat sequence with five aligned index streams:
token, position, entity group, triple, and segment type. The knowledge part
comes first ([BOS] ... [SEP]), then dialogue history, then [Q] + question,
then (for training) the gold response + [EOS].

Each graph is indexed once, on first use (``graph_index``): its unique token
strings, its identity-order knowledge stream as codes into them, triple
boundaries, edges and node-surface codes. A request then only maps the
strings to ids, cuts the stream at the knowledge budget and copies the kept
part. The index holds nothing of a vocabulary or an embedding table, so it
is valid for every request on the graph. One walk over subject groups
(``_emit``) emits every stream: the index's, and each shuffled one that
training asks for with its RNG, coded by the index's strings.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from itertools import repeat
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
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return list(map(self.token_to_id.get, tokens, repeat(self.unk_id)))

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


# --- graph index and linearization -------------------------------------------

@dataclass(frozen=True, eq=False)
class KnowledgeStream:
    """Linearized graph: token codes plus per-token entity/triple annotations.

    ``codes[p]`` indexes ``strings``, the graph's unique token strings.
    ``entity_ids[p]`` is the 1-based emitted subject-group index covering
    position ``p`` (0 = none). ``triple_ids[p]`` is the 1-based emitted triple
    index over each [R]...object span; subject spans carry 0 because they are
    shared by every triple of the group. Emitted triple ``t`` spans
    ``[triple_starts[t-1], triple_ends[t-1])`` and ``triple_sources[t-1]`` is
    its index in the graph.
    """

    strings: tuple[str, ...]
    codes: np.ndarray  # (L,) int32
    entity_ids: np.ndarray  # (L,) int32
    triple_ids: np.ndarray  # (L,) int32
    triple_starts: np.ndarray  # (T,) int32
    triple_ends: np.ndarray  # (T,) int32
    triple_sources: tuple[int, ...]

    @property
    def tokens(self) -> tuple[str, ...]:
        strings = self.strings
        return tuple(strings[c] for c in self.codes.tolist())


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """What linearization, truncation and graph weighting need of one graph.

    Built once per ``KnowledgeGraph`` object on first use (``graph_index``)
    and kept on it. Token strings are held once, in ``stream.strings``; the
    stream and the node surfaces refer to them by code. The stream is the
    identity order's only; a shuffled one is walked anew. Nothing here depends
    on a vocabulary or an embedding table, so the index stays valid across
    models, vocabularies and training steps: a request maps the strings to
    ids and the ids to embedding rows itself.

    The graph's bipartite view has nodes 0..n_entities-1 for entities and the
    rest for relation labels, both in first-appearance order. Each triple
    (s, r, o) contributes edges s-r and r-o; an edge present several times
    counts once. ``edge_entities[i]`` and ``edge_relations[i]`` are the node
    indices of edge i. ``degrees`` are the row sums of A+I, so D^-1 always
    exists.
    """

    stream: KnowledgeStream  # identity order: subject groups in first-appearance order
    sro: np.ndarray  # (T, 3) int32 subject, relation, object of each graph triple
    n_entities: int
    n_relations: int
    node_codes: np.ndarray  # (d_g, width) int32 surface codes, padded with len(stream.strings)
    node_lengths: np.ndarray  # (d_g,) words per node surface
    edge_entities: np.ndarray  # (n_edges,) entity node index per unique edge
    edge_relations: np.ndarray  # (n_edges,) relation node index per unique edge
    degrees: np.ndarray  # (d_g,) row sums of A+I

    @property
    def d_g(self) -> int:
        return self.n_entities + self.n_relations


def _encode(code_of: dict[str, int], text: str) -> list[int]:
    """Codes of the words of ``text``; a word not yet in ``code_of`` gets the next code.
    Words are interned, so graphs that share words share their strings."""
    return [code_of.setdefault(sys.intern(w), len(code_of)) for w in text.split()]


def _subject_groups(graph: KnowledgeGraph) -> list[list[int]]:
    """Triple indices grouped by subject: groups in first-appearance order, each in file order."""
    groups: dict[int, list[int]] = {}
    for i, t in enumerate(graph.triples):
        groups.setdefault(t.subject, []).append(i)
    return list(groups.values())


def _emit(graph: KnowledgeGraph, groups: list[list[int]], code_of: dict[str, int]
          ) -> tuple[list[int], list[bool], list[int], list[int], list[list[int] | None]]:
    """Walk ``groups`` to ``[BOS] ([S] subj ([R] rel [O] obj)+)*`` as codes from ``code_of``.

    ``groups`` is a permutation of ``_subject_groups(graph)``, each group
    permuted in turn. Returns the codes, one head flag and one length per
    segment (a subject header or a triple) in emission order, the emitted
    triples' graph indices, and each node surface's codes (None for a node
    not emitted).
    """
    triples = graph.triples
    bos, s_tok, r_tok, o_tok = _encode(code_of, " ".join((BOS, S_TOK, R_TOK, O_TOK)))
    ne = graph.n_entities
    surface_codes: list[list[int] | None] = [None] * (ne + graph.n_relations)  # encoded on first use

    def node(i: int, surface: str) -> list[int]:
        c = surface_codes[i]
        if c is None:
            c = surface_codes[i] = _encode(code_of, surface)
        return c

    codes, is_head, lengths, sources = [bos], [], [], []
    for group in groups:
        subject = triples[group[0]].subject
        start = len(codes)
        codes.append(s_tok)
        codes += node(subject, graph.entities[subject].surface)
        lengths.append(len(codes) - start)
        is_head.append(True)
        for t in group:
            triple = triples[t]
            start = len(codes)
            codes.append(r_tok)
            codes += node(ne + triple.relation, graph.relations[triple.relation].surface)
            codes.append(o_tok)
            codes += node(triple.object, graph.entities[triple.object].surface)
            lengths.append(len(codes) - start)
            is_head.append(False)
            sources.append(t)
    return codes, is_head, lengths, sources, surface_codes


def _segmented_stream(strings: tuple[str, ...], codes: list[int], is_head: list[bool], lengths: list[int],
                      sources: list[int]) -> KnowledgeStream:
    """A stream from its codes ([BOS] first) and its segments in emission
    order: each subject group's header, then the group's triples."""
    head = np.array(is_head, dtype=bool)
    is_triple = ~head
    sizes = np.array(lengths, dtype=np.int32)
    ends = 1 + np.cumsum(sizes, dtype=np.int32)
    zero = np.zeros(1, dtype=np.int32)
    return KnowledgeStream(
        strings=strings,
        codes=np.array(codes, dtype=np.int32),
        entity_ids=np.concatenate([zero, np.repeat(np.cumsum(head, dtype=np.int32), sizes)]),
        triple_ids=np.concatenate([zero, np.repeat(np.cumsum(is_triple, dtype=np.int32) * is_triple, sizes)]),
        triple_starts=(ends - sizes)[is_triple],
        triple_ends=ends[is_triple],
        triple_sources=tuple(sources),
    )


def _build_index(graph: KnowledgeGraph) -> GraphIndex:
    code_of: dict[str, int] = {}
    codes, is_head, lengths, sources, surface_codes = _emit(graph, _subject_groups(graph), code_of)
    ne, nr = graph.n_entities, graph.n_relations
    for i, surface in enumerate([e.surface for e in graph.entities] + [r.surface for r in graph.relations]):
        if surface_codes[i] is None:  # a node no triple names
            surface_codes[i] = _encode(code_of, surface)
    strings = tuple(code_of)
    stream = _segmented_stream(strings, codes, is_head, lengths, sources)
    sro = np.array([(t.subject, t.relation, t.object) for t in graph.triples], dtype=np.int32).reshape(-1, 3)

    node_lengths = np.array([len(c) for c in surface_codes], dtype=np.int32)
    node_codes = np.full((ne + nr, int(node_lengths.max(initial=0))), len(strings), dtype=np.int32)
    flat = np.array([c for cs in surface_codes for c in cs], dtype=np.int32)
    row_starts = np.cumsum(node_lengths) - node_lengths
    node_codes[np.repeat(np.arange(ne + nr), node_lengths), np.arange(flat.size) - np.repeat(row_starts, node_lengths)] = flat

    ends = np.concatenate([sro[:, 0], sro[:, 2]]).astype(np.int64)
    rels = np.concatenate([sro[:, 1], sro[:, 1]]).astype(np.int64)
    base = max(nr, 1)
    edge_codes = np.sort(ends * base + rels)  # one code per (entity, relation) pair
    first = np.ones(edge_codes.size, dtype=bool)
    first[1:] = edge_codes[1:] != edge_codes[:-1]
    edge_codes = edge_codes[first]  # np.unique would also do, but its first call imports numpy.ma (~1 MB)
    edge_e, edge_r = (edge_codes // base).astype(np.int32), (ne + edge_codes % base).astype(np.int32)
    degrees = 1.0 + np.bincount(edge_e, minlength=ne + nr) + np.bincount(edge_r, minlength=ne + nr)

    index = GraphIndex(
        stream=stream,
        sro=sro,
        n_entities=ne,
        n_relations=nr,
        node_codes=node_codes,
        node_lengths=node_lengths,
        edge_entities=edge_e,
        edge_relations=edge_r,
        degrees=degrees,
    )
    # every request shares these arrays: a write into one would reach all later requests
    for holder in (index, stream):
        for value in vars(holder).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return index


def graph_index(graph: KnowledgeGraph) -> GraphIndex:
    """The graph's index, built on first use and kept on the graph object.

    Two threads that ask at once may both build it; both get equal indices.
    """
    index = graph.__dict__.get("_index")
    if index is None:
        index = _build_index(graph)
        # KnowledgeGraph is frozen: store past __setattr__, as functools.cached_property does
        graph.__dict__["_index"] = index
    return index


def linearize_graph(graph: KnowledgeGraph, rng: np.random.Generator | None = None) -> KnowledgeStream:
    """Flatten a graph to ``[BOS] ([S] subj ([R] rel [O] obj)+)*``.

    With no ``rng`` subject groups come in first-appearance order and each
    group's triples in file order: the stream the graph's index holds. With
    an ``rng`` the groups are shuffled, then each group's triples, and the
    result is walked as the index's own stream was, with codes into the
    index's strings.
    """
    index = graph_index(graph)
    if rng is None:
        return index.stream
    groups = _subject_groups(graph)
    rng.shuffle(groups)
    for g in groups:
        rng.shuffle(g)
    strings = index.stream.strings
    codes, is_head, lengths, sources, _ = _emit(graph, groups, dict(zip(strings, range(len(strings)))))
    return _segmented_stream(strings, codes, is_head, lengths, sources)


# --- input assembly ---------------------------------------------------------


@dataclass(frozen=True)
class AssemblyLimits:
    max_knowledge_tokens: int = 384
    max_history_tokens: int = 128
    max_history_turns: int = 4
    context_limit: int = 412

    def __post_init__(self) -> None:
        for name in ("max_knowledge_tokens", "max_history_tokens", "max_history_turns", "context_limit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, not {getattr(self, name)}")


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


def truncate_stream(stream: KnowledgeStream, max_tokens: int) -> KnowledgeStream:
    """Drop trailing triples (then whole trailing groups) to fit the budget.

    Cuts the emitted stream at the end of the last triple that fits, so no
    triple is ever split and a subject header survives only together with at
    least one of its triples. [BOS] is always kept.
    """
    if stream.codes.shape[0] <= max_tokens:
        return stream
    kept = int(np.searchsorted(stream.triple_ends, max_tokens, side="right"))
    cut = int(stream.triple_ends[kept - 1]) if kept else 1
    return KnowledgeStream(
        stream.strings,
        stream.codes[:cut],
        stream.entity_ids[:cut],
        stream.triple_ids[:cut],
        stream.triple_starts[:kept],
        stream.triple_ends[:kept],
        stream.triple_sources[:kept],
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
    knowledge_end = stream.codes.shape[0]  # index of [SEP]

    tail: list[str] = [SEP]
    tail_types: list[int] = [TYPE_KG]
    hist_tokens: list[str] = []
    hist_types: list[int] = []
    for turn in history[len(history) - min(len(history), limits.max_history_turns) :]:
        t_type = TYPE_USER if turn.speaker == USER else TYPE_SYSTEM
        for tok in turn.text.split():
            hist_tokens.append(tok)
            hist_types.append(t_type)
    drop = max(len(hist_tokens) - limits.max_history_tokens, 0)  # oldest first; [-0:] would keep every token
    hist_tokens, hist_types = hist_tokens[drop:], hist_types[drop:]
    tail += hist_tokens
    tail_types += hist_types

    q_toks = question.split()
    tail += [Q_TOK] + q_toks
    tail_types += [TYPE_USER] * (1 + len(q_toks))
    question_start = knowledge_end + len(tail) - len(q_toks)
    response_start = knowledge_end + len(tail)

    if gold_response is not None:
        g_toks = gold_response.split() + [EOS]
        tail += g_toks
        tail_types += [TYPE_SYSTEM] * len(g_toks)

    n = knowledge_end + len(tail)
    if n > limits.context_limit:
        raise SequenceTooLongError(
            f"sample {sample_id!r}: assembled length {n} exceeds context limit {limits.context_limit}"
        )

    # the graph's unique strings are encoded once; its tokens are codes into them
    knowledge_ids = np.asarray(vocab.encode(stream.strings), dtype=np.int64)[stream.codes]
    entity_ids = np.zeros(n, dtype=np.int64)
    entity_ids[:knowledge_end] = stream.entity_ids
    triple_ids = np.zeros(n, dtype=np.int64)
    triple_ids[:knowledge_end] = stream.triple_ids
    type_ids = np.zeros(n, dtype=np.int64)
    type_ids[knowledge_end:] = tail_types
    spans = zip(stream.triple_starts.tolist(), stream.triple_ends.tolist())

    return InputSequence(
        token_ids=np.concatenate([knowledge_ids, np.asarray(vocab.encode(tail), dtype=np.int64)]),
        position_ids=np.arange(n, dtype=np.int64),
        entity_ids=entity_ids,
        triple_ids=triple_ids,
        type_ids=type_ids,
        knowledge_end=knowledge_end,
        question_start=question_start,
        response_start=response_start,
        triple_spans=dict(enumerate(spans, start=1)),
        triple_sources=stream.triple_sources,
    )

