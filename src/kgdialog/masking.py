"""Additive attention masks: knowledge visibility x causality x padding.

Masked positions carry a large negative finite constant rather than true
-inf so downstream arithmetic stays NaN-free; after softmax they are exactly
zero in working precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import KnowledgeGraph
from .graph_weights import Selection
from .sequence import InputSequence, graph_index

NEG_INF = np.float32(-1e9)


@dataclass(frozen=True)
class AttentionMask:
    values: np.ndarray  # (n + pad, n + pad) float32 over {0, NEG_INF}
    n: int  # real (unpadded) sequence length


def _chosen(ids: frozenset[int], size: int) -> np.ndarray:
    """(size,) flags of the ids in ``ids``; ids outside the graph are ignored."""
    flags = np.zeros(size, dtype=bool)
    flags[[i for i in ids if 0 <= i < size]] = True
    return flags


def selected_triples(seq: InputSequence, sel: Selection, graph: KnowledgeGraph) -> np.ndarray:
    """Per emitted triple: visible iff (subject or object selected) and relation selected."""
    sro = graph_index(graph).sro[list(seq.triple_sources)]
    entities = _chosen(sel.top_entities, graph.n_entities)
    return (entities[sro[:, 0]] | entities[sro[:, 2]]) & _chosen(sel.top_relations, graph.n_relations)[sro[:, 1]]


def knowledge_column_mask(seq: InputSequence, sel: Selection, graph: KnowledgeGraph) -> np.ndarray:
    """Additive mask value per knowledge key position (through [SEP]).

    Positions inside a triple span follow that triple's visibility; subject
    spans stay visible if any triple of their group is; [BOS] and [SEP] are
    always visible. If the selection rules out every triple, the whole
    knowledge segment is left unmasked rather than dropping all grounding.
    """
    ke = seq.knowledge_end
    cols = np.zeros(ke + 1, dtype=np.float32)
    keep = selected_triples(seq, sel, graph)
    if not keep.any():
        return cols

    tri = seq.triple_ids[: ke + 1]
    grp = seq.entity_ids[: ke + 1]
    in_triple = tri > 0
    visible = np.ones(ke + 1, dtype=bool)
    visible[in_triple] = keep[tri[in_triple] - 1]
    # a subject group is visible iff any of its triple positions is
    group_keep = np.zeros(int(grp.max()) + 1, dtype=bool)
    group_keep[grp[in_triple & (grp > 0) & visible]] = True
    subject = ~in_triple & (grp > 0)
    visible[subject] = group_keep[grp[subject]]
    cols[~visible] = NEG_INF
    return cols


def unmasked_columns(seq: InputSequence) -> np.ndarray:
    """All-visible knowledge columns (knowledge-mask ablation)."""
    return np.zeros(seq.knowledge_end + 1, dtype=np.float32)


def causal_key_columns(key_cols: np.ndarray) -> np.ndarray:
    """(m, m) additive mask: row i holds ``key_cols[: i + 1]`` and masks every later key."""
    m = key_cols.shape[0]
    return np.where(np.tri(m, dtype=bool), key_cols, NEG_INF)


def compose_mask(seq: InputSequence, knowledge_cols: np.ndarray, pad_len: int = 0) -> AttentionMask:
    """Combine knowledge key columns with causal and padding masks.

    Knowledge columns broadcast over all query rows; everything above the
    causal diagonal and every padded key column is masked. Padded query rows
    keep position 0 visible so their softmax stays well-defined.
    """
    if pad_len < 0:
        raise ValueError("pad_len must be >= 0")
    n = seq.n
    total = n + pad_len
    cols = np.zeros(total, dtype=np.float32)
    cols[: knowledge_cols.shape[0]] = knowledge_cols
    cols[n:] = NEG_INF

    values = causal_key_columns(cols)
    if pad_len:
        values[n:] = NEG_INF
        values[n:, 0] = 0.0
    return AttentionMask(values, n)


def mask_summary(seq: InputSequence, sel: Selection, graph: KnowledgeGraph) -> dict:
    """Per-triple visibility flags and masked-key count for the inspect dump."""
    keep = selected_triples(seq, sel, graph)
    cols = knowledge_column_mask(seq, sel, graph)
    return {
        "triples": [
            {
                "emitted_index": i + 1,
                "surfaces": list(graph.triple_surfaces(src)),
                "selected": bool(keep[i]),
            }
            for i, src in enumerate(seq.triple_sources)
        ],
        "masked_key_positions": int(np.sum(cols < 0)),
        "fallback_all_visible": bool(keep.size) and not keep.any(),
    }
