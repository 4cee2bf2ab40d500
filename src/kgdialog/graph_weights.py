"""Question-conditioned graph weighting and top-k selection.

One vector X holds the cosine similarity between the question and every
node surface (mean token embeddings) of an undirected graph whose nodes are
entities *and* relation labels. It feeds both weight families: entity
weights are X at the entity nodes, relation weights are one propagation step
D^-1 (A+I) X read off at the relation nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import KnowledgeGraph
from .sequence import Vocabulary


class TokenEmbedder:
    """Mean-of-token-embeddings text encoder over a fixed vocabulary."""

    def __init__(self, vocab: Vocabulary, table: np.ndarray):
        if table.shape[0] < len(vocab):
            raise ValueError("embedding table smaller than vocabulary")
        self.vocab = vocab
        self.table = table

    def text_vector(self, text: str) -> np.ndarray:
        ids = self.vocab.encode_text(text)
        if not ids:
            return np.zeros(self.table.shape[1], dtype=np.float64)
        return self.table[ids].astype(np.float64).mean(axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected entity/relation-node graph with row-stochastic propagation.

    Nodes 0..n_entities-1 are entities, the rest relation labels, both in
    first-appearance order. Each triple (s, r, o) contributes edges s-r and
    r-o. Degrees include the self loop from (A+I), so D^-1 always exists.
    """

    n_entities: int
    n_relations: int
    adjacency: np.ndarray  # (d_g, d_g) symmetric 0/1, zero diagonal
    degrees: np.ndarray  # (d_g,) row sums of A+I
    surfaces: tuple[str, ...]

    @property
    def d_g(self) -> int:
        return self.n_entities + self.n_relations


def build_bipartite(graph: KnowledgeGraph) -> BipartiteGraph:
    ne, nr = graph.n_entities, graph.n_relations
    d = ne + nr
    a = np.zeros((d, d), dtype=np.float64)
    for t in graph.triples:
        r = ne + t.relation
        a[t.subject, r] = a[r, t.subject] = 1.0
        a[r, t.object] = a[t.object, r] = 1.0
    surfaces = tuple(e.surface for e in graph.entities) + tuple(r.surface for r in graph.relations)
    return BipartiteGraph(ne, nr, a, a.sum(axis=1) + 1.0, surfaces)


def feature_vector(bg: BipartiteGraph, question: str, embedder: TokenEmbedder) -> np.ndarray:
    """Cosine similarity between the question and every node surface."""
    q = embedder.text_vector(question)
    return np.array([cosine(q, embedder.text_vector(s)) for s in bg.surfaces], dtype=np.float64)


def propagate(bg: BipartiteGraph, x: np.ndarray) -> np.ndarray:
    """One step of D^-1 (A+I) applied to a node feature vector."""
    if bg.d_g == 0:
        return np.zeros(0, dtype=np.float64)
    return ((bg.adjacency @ x) + x) / bg.degrees


def _at_relations(bg: BipartiteGraph, h: np.ndarray) -> dict[int, float]:
    return {r: float(h[bg.n_entities + r]) for r in range(bg.n_relations)}


def relation_weights(bg: BipartiteGraph, x: np.ndarray) -> dict[int, float]:
    """Raw per-relation scores: propagated features at relation nodes only."""
    return _at_relations(bg, propagate(bg, x))


def softmax_map(raw: dict[int, float]) -> dict[int, float]:
    if not raw:
        return {}
    keys = list(raw.keys())
    vals = np.array([raw[k] for k in keys], dtype=np.float64)
    vals -= vals.max()
    e = np.exp(vals)
    e /= e.sum()
    return {k: float(v) for k, v in zip(keys, e)}


@dataclass(frozen=True)
class WeightedGraph:
    entity_weights: dict[int, float]
    relation_weights: dict[int, float]


def _weigh(bg: BipartiteGraph, x: np.ndarray, h: np.ndarray) -> WeightedGraph:
    # entity ids are the first n_entities node indices
    ent_raw = {e: float(x[e]) for e in range(bg.n_entities)}
    return WeightedGraph(softmax_map(ent_raw), softmax_map(_at_relations(bg, h)))


def compute_weighted_graph(graph: KnowledgeGraph, question: str, embedder: TokenEmbedder) -> WeightedGraph:
    """Softmax-normalized entity and relation weights from one feature vector."""
    bg = build_bipartite(graph)
    x = feature_vector(bg, question, embedder)
    return _weigh(bg, x, propagate(bg, x))


@dataclass(frozen=True)
class Selection:
    top_entities: frozenset[int]
    top_relations: frozenset[int]
    k_entity: int
    k_relation: int


def _top_ids(weights: dict[int, float], k: int) -> frozenset[int]:
    ranked = sorted(weights.keys(), key=lambda i: (-weights[i], i))
    return frozenset(ranked[: max(0, k)])


def select_topk(wg: WeightedGraph, k_entity: int, k_relation: int) -> Selection:
    """Highest-weighted ids; ties broken by first-appearance (lower id wins)."""
    if k_entity < 0 or k_relation < 0:
        raise ValueError("k values must be >= 0")
    return Selection(
        _top_ids(wg.entity_weights, k_entity),
        _top_ids(wg.relation_weights, k_relation),
        k_entity,
        k_relation,
    )


def inspect_dump(
    graph: KnowledgeGraph,
    question: str,
    embedder: TokenEmbedder,
    k_entity: int,
    k_relation: int,
) -> dict:
    """JSON-ready dump of the full weighting pipeline for one question."""
    bg = build_bipartite(graph)
    x = feature_vector(bg, question, embedder)
    h = propagate(bg, x)
    wg = _weigh(bg, x, h)
    sel = select_topk(wg, k_entity, k_relation)
    kinds = ["entity"] * bg.n_entities + ["relation"] * bg.n_relations
    pairs = sorted((int(i), int(j)) for i, j in zip(*np.nonzero(bg.adjacency)) if i < j)
    return {
        "question": question,
        "nodes": [{"index": i, "kind": kinds[i], "surface": bg.surfaces[i]} for i in range(bg.d_g)],
        "adjacency": [list(p) for p in pairs],
        "feature_vector": [float(v) for v in x],
        "propagated": [float(v) for v in h],
        "entity_weights": {str(k): v for k, v in sorted(wg.entity_weights.items())},
        "relation_weights": {str(k): v for k, v in sorted(wg.relation_weights.items())},
        "top_entities": sorted(sel.top_entities),
        "top_relations": sorted(sel.top_relations),
    }
