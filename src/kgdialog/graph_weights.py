"""Question-conditioned graph weighting and top-k selection.

One vector X holds the cosine similarity between the question and every
node surface (mean token embeddings) of an undirected graph whose nodes are
entities *and* relation labels. It feeds both weight families: entity
weights are X at the entity nodes, relation weights are one propagation step
D^-1 (A+I) X read off at the relation nodes.

Each question is weighted with a fixed handful of array calls on the graph's
index (``sequence.graph_index``), which is built once per graph and holds the
node surfaces as padded codes into the graph's unique strings and the
deduplicated (entity, relation) edge list: one gather of the embedding rows
of those strings, a sum over each node's codes, one matrix-vector product for
the cosines, and one propagation over the edge list. No dense adjacency is
built. The index holds nothing of the vocabulary or the embedding table;
node vectors are gathered from the table on every request, because training
updates it in place and a copy would go stale without any sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import KnowledgeGraph
from .sequence import GraphIndex, Vocabulary, graph_index


class TokenEmbedder:
    """Mean-of-token-embeddings text encoder over a fixed vocabulary."""

    def __init__(self, vocab: Vocabulary, table: np.ndarray):
        if table.shape[0] < len(vocab):
            raise ValueError("embedding table smaller than vocabulary")
        self.vocab = vocab
        self.table = table

    def mean_vector(self, text: str) -> np.ndarray:
        """(dim,) float64 mean token embedding; an empty text gives a zero vector."""
        tokens = text.split()
        if not tokens:
            return np.zeros(self.table.shape[1], dtype=np.float64)
        return self.table[self.vocab.encode(tokens)].astype(np.float64).sum(axis=0) / len(tokens)

    def node_vectors(self, index: GraphIndex) -> np.ndarray:
        """(d_g, dim) float64 mean token embedding of every node surface of the graph.

        The graph's unique strings are encoded and gathered once; each node
        then sums the rows of its padded codes word by word (no
        (d_g, width, dim) temporary), the pad code pointing at a zero row.
        """
        strings = index.stream.strings
        rows = np.zeros((len(strings) + 1, self.table.shape[1]), dtype=np.float64)
        rows[:-1] = self.table[self.vocab.encode(strings)]
        codes = index.node_codes
        out = np.zeros((codes.shape[0], rows.shape[1]), dtype=np.float64)
        for j in range(codes.shape[1]):
            out += rows[codes[:, j]]
        out /= np.maximum(index.node_lengths, 1)[:, None]
        return out


def feature_vector(index: GraphIndex, question: str, embedder: TokenEmbedder) -> np.ndarray:
    """Cosine similarity between the question and every node surface; 0 where either norm is 0."""
    q, nodes = embedder.mean_vector(question), embedder.node_vectors(index)
    norms = np.linalg.norm(nodes, axis=1) * np.linalg.norm(q)
    return np.divide(nodes @ q, norms, out=np.zeros(index.d_g, dtype=np.float64), where=norms > 0.0)


def propagate(index: GraphIndex, x: np.ndarray) -> np.ndarray:
    """One step of D^-1 (A+I) applied to a node feature vector, over the edge list."""
    d = index.d_g
    h = x + np.bincount(index.edge_entities, weights=x[index.edge_relations], minlength=d)
    h += np.bincount(index.edge_relations, weights=x[index.edge_entities], minlength=d)
    return h / index.degrees


def relation_weights(index: GraphIndex, x: np.ndarray) -> dict[int, float]:
    """Raw per-relation scores: propagated features at relation nodes only."""
    return dict(enumerate(propagate(index, x)[index.n_entities :].tolist()))


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
    index = graph_index(graph)
    x = feature_vector(index, question, embedder)
    h = propagate(index, x)
    # entity ids are the first n_entities node indices, relation ids the rest
    ne = index.n_entities
    wg = WeightedGraph(softmax_map(dict(enumerate(x[:ne].tolist()))), softmax_map(dict(enumerate(h[ne:].tolist()))))
    return index, x, h, wg


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
    index, x, h, wg = _weigh(graph, question, embedder)
    sel = select_topk(wg, k_entity, k_relation)
    kinds = ["entity"] * index.n_entities + ["relation"] * index.n_relations
    # entity nodes come first, so every edge is already (lower, higher)
    pairs = sorted(zip(index.edge_entities.tolist(), index.edge_relations.tolist()))
    surfaces = [e.surface for e in graph.entities] + [r.surface for r in graph.relations]
    return {
        "question": question,
        "nodes": [{"index": i, "kind": kinds[i], "surface": surfaces[i]} for i in range(index.d_g)],
        "adjacency": [list(p) for p in pairs],
        "feature_vector": x.tolist(),
        "propagated": h.tolist(),
        "entity_weights": {str(k): v for k, v in sorted(wg.entity_weights.items())},
        "relation_weights": {str(k): v for k, v in sorted(wg.relation_weights.items())},
        "top_entities": sorted(sel.top_entities),
        "top_relations": sorted(sel.top_relations),
    }
