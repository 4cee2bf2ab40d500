"""Question-conditioned graph weighting and top-k selection.

One vector X holds the cosine similarity between the question and every
node surface (mean token embeddings) of an undirected graph whose nodes are
entities *and* relation labels. It feeds both weight families: entity
weights are X at the entity nodes, relation weights are one propagation step
D^-1 (A+I) X read off at the relation nodes.

Each question is weighted with a fixed handful of array calls: one gather of
every surface's token rows (the question's included) with a segment mean per
surface, one matrix-vector product for the cosines, and one propagation over
the graph's deduplicated (entity, relation) edge list. No dense adjacency is
built on this path. Nothing is cached across requests: node vectors depend on
the embedding table, which training updates in place, so a cached copy would
go stale without any sign.
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

    def mean_vectors(self, texts: list[str] | tuple[str, ...]) -> np.ndarray:
        """(len(texts), dim) float64 mean token embeddings; an empty text gives a zero row."""
        split = [t.split() for t in texts]
        lengths = np.array([len(s) for s in split], dtype=np.int64)
        out = np.zeros((len(texts), self.table.shape[1]), dtype=np.float64)
        nonempty = lengths > 0
        if nonempty.any():
            rows = self.table[self.vocab.encode([tok for s in split for tok in s])].astype(np.float64)
            out[nonempty] = np.add.reduceat(rows, (np.cumsum(lengths) - lengths)[nonempty], axis=0)
            out /= np.maximum(lengths, 1)[:, None]
        return out


@dataclass(frozen=True)
class BipartiteGraph:
    """Undirected entity/relation-node graph with row-stochastic propagation.

    Nodes 0..n_entities-1 are entities, the rest relation labels, both in
    first-appearance order. Each triple (s, r, o) contributes edges s-r and
    r-o; an edge present several times counts once. ``edge_entities[i]`` and
    ``edge_relations[i]`` are the node indices of edge i. Degrees include the
    self loop from (A+I), so D^-1 always exists.
    """

    n_entities: int
    n_relations: int
    edge_entities: np.ndarray  # (n_edges,) entity node index per unique edge
    edge_relations: np.ndarray  # (n_edges,) relation node index per unique edge
    degrees: np.ndarray  # (d_g,) row sums of A+I
    surfaces: tuple[str, ...]

    @property
    def d_g(self) -> int:
        return self.n_entities + self.n_relations

    @property
    def adjacency(self) -> np.ndarray:
        """Dense (d_g, d_g) symmetric 0/1 view with zero diagonal, built on request."""
        a = np.zeros((self.d_g, self.d_g), dtype=np.float64)
        a[self.edge_entities, self.edge_relations] = 1.0
        a[self.edge_relations, self.edge_entities] = 1.0
        return a


def build_bipartite(graph: KnowledgeGraph) -> BipartiteGraph:
    ne, nr = graph.n_entities, graph.n_relations
    d = ne + nr
    sro = np.array([(t.subject, t.relation, t.object) for t in graph.triples], dtype=np.int64).reshape(-1, 3)
    ends = np.concatenate([sro[:, 0], sro[:, 2]])
    rels = np.concatenate([sro[:, 1], sro[:, 1]])
    base = max(nr, 1)
    codes = np.sort(ends * base + rels)  # one code per (entity, relation) pair
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    codes = codes[first]  # np.unique would also do, but its first call imports numpy.ma (~1 MB)
    edge_e, edge_r = codes // base, ne + codes % base
    degrees = 1.0 + np.bincount(edge_e, minlength=d) + np.bincount(edge_r, minlength=d)
    surfaces = tuple(e.surface for e in graph.entities) + tuple(r.surface for r in graph.relations)
    return BipartiteGraph(ne, nr, edge_e, edge_r, degrees, surfaces)


def feature_vector(bg: BipartiteGraph, question: str, embedder: TokenEmbedder) -> np.ndarray:
    """Cosine similarity between the question and every node surface; 0 where either norm is 0."""
    vecs = embedder.mean_vectors((question,) + bg.surfaces)
    q, nodes = vecs[0], vecs[1:]
    norms = np.linalg.norm(nodes, axis=1) * np.linalg.norm(q)
    return np.divide(nodes @ q, norms, out=np.zeros(bg.d_g, dtype=np.float64), where=norms > 0.0)


def propagate(bg: BipartiteGraph, x: np.ndarray) -> np.ndarray:
    """One step of D^-1 (A+I) applied to a node feature vector, over the edge list."""
    d = bg.d_g
    h = x + np.bincount(bg.edge_entities, weights=x[bg.edge_relations], minlength=d)
    h += np.bincount(bg.edge_relations, weights=x[bg.edge_entities], minlength=d)
    return h / bg.degrees


def relation_weights(bg: BipartiteGraph, x: np.ndarray) -> dict[int, float]:
    """Raw per-relation scores: propagated features at relation nodes only."""
    return dict(enumerate(propagate(bg, x)[bg.n_entities :].tolist()))


def softmax_map(raw: dict[int, float]) -> dict[int, float]:
    if not raw:
        return {}
    vals = np.fromiter(raw.values(), dtype=np.float64, count=len(raw))
    e = np.exp(vals - vals.max())
    return dict(zip(raw, (e / e.sum()).tolist()))


@dataclass(frozen=True)
class WeightedGraph:
    entity_weights: dict[int, float]
    relation_weights: dict[int, float]


def _weigh(graph: KnowledgeGraph, question: str, embedder: TokenEmbedder):
    """The whole pipeline, shared by ``compute_weighted_graph`` and ``inspect_dump``."""
    bg = build_bipartite(graph)
    x = feature_vector(bg, question, embedder)
    h = propagate(bg, x)
    # entity ids are the first n_entities node indices, relation ids the rest
    ne = bg.n_entities
    wg = WeightedGraph(softmax_map(dict(enumerate(x[:ne].tolist()))), softmax_map(dict(enumerate(h[ne:].tolist()))))
    return bg, x, h, wg


def compute_weighted_graph(graph: KnowledgeGraph, question: str, embedder: TokenEmbedder) -> WeightedGraph:
    """Softmax-normalized entity and relation weights from one feature vector."""
    return _weigh(graph, question, embedder)[3]


@dataclass(frozen=True)
class Selection:
    top_entities: frozenset[int]
    top_relations: frozenset[int]
    k_entity: int
    k_relation: int


def _top_ids(weights: dict[int, float], k: int) -> frozenset[int]:
    ids = np.fromiter(weights.keys(), dtype=np.int64, count=len(weights))
    vals = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
    return frozenset(ids[np.lexsort((ids, -vals))[: max(0, k)]].tolist())


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
    bg, x, h, wg = _weigh(graph, question, embedder)
    sel = select_topk(wg, k_entity, k_relation)
    kinds = ["entity"] * bg.n_entities + ["relation"] * bg.n_relations
    # entity nodes come first, so every edge is already (lower, higher)
    pairs = sorted(zip(bg.edge_entities.tolist(), bg.edge_relations.tolist()))
    return {
        "question": question,
        "nodes": [{"index": i, "kind": kinds[i], "surface": bg.surfaces[i]} for i in range(bg.d_g)],
        "adjacency": [list(p) for p in pairs],
        "feature_vector": x.tolist(),
        "propagated": h.tolist(),
        "entity_weights": {str(k): v for k, v in sorted(wg.entity_weights.items())},
        "relation_weights": {str(k): v for k, v in sorted(wg.relation_weights.items())},
        "top_entities": sorted(sel.top_entities),
        "top_relations": sorted(sel.top_relations),
    }
