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
from .sequence import InputSequence

NEG_INF = np.float32(-1e9)


@dataclass(frozen=True)
class AttentionMask:
    values: np.ndarray  # (n + pad, n + pad) float32 over {0, NEG_INF}
    n: int  # real (unpadded) sequence length


def selected_triples(seq: InputSequence, sel: Selection, graph: KnowledgeGraph) -> list[bool]:
    """Per emitted triple: visible iff (subject or object selected) and relation selected."""
    out = []
    for src in seq.triple_sources:
        t = graph.triples[src]
        out.append((t.subject in sel.top_entities or t.object in sel.top_entities) and t.relation in sel.top_relations)
    return out


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
    if not keep or not any(keep):
        return cols

    group_keep: dict[int, bool] = {}
    for p in range(ke + 1):
        t = int(seq.triple_ids[p])
        g = int(seq.entity_ids[p])
        if t > 0 and g > 0:
            group_keep[g] = group_keep.get(g, False) or keep[t - 1]

    for p in range(ke + 1):
        t = int(seq.triple_ids[p])
        g = int(seq.entity_ids[p])
        if t > 0:
            visible = keep[t - 1]
        elif g > 0:
            visible = group_keep.get(g, False)
        else:
            visible = True
        if not visible:
            cols[p] = NEG_INF
    return cols


def unmasked_columns(seq: InputSequence) -> np.ndarray:
    """All-visible knowledge columns (knowledge-mask ablation)."""
    return np.zeros(seq.knowledge_end + 1, dtype=np.float32)


def causal_key_columns(key_cols: np.ndarray) -> np.ndarray:
    """(m, m) additive mask whose row i holds ``key_cols[: i + 1]`` and masks every later key."""
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

    values = np.full((total, total), NEG_INF, dtype=np.float32)
    values[:n, :n] = causal_key_columns(cols[:n])
    if pad_len:
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
        "fallback_all_visible": bool(keep) and not any(keep),
    }
