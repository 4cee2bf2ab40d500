"""Output checks, run outside the timed region.

Each check is an independent reference written here, not a call back into
the code path it checks:

* ``greedy_matches`` decodes with ``model.forward`` on the full prefix for
  every token and a mask built here, and accepts the package's token when it
  is the reference's top-1, or its top-2 within ``TIE_TOL`` of the top-1.
* ``grounding_matches`` recomputes entity and relation weights with plain
  loops, selects top-k, and compares per-triple visibility with the composed
  mask, skipping selections with a tie at the k-th weight.
* ``mask_is_causal`` checks the composed mask's structure.
"""

from __future__ import annotations

import math

import numpy as np

from kgdialog import model
from kgdialog.masking import NEG_INF, AttentionMask
from kgdialog.sequence import TYPE_SYSTEM, InputSequence

TIE_TOL = 1e-3  # relative gap between top-2 logits treated as a tie
WEIGHT_TIE = 1e-9  # absolute gap between k-th and (k+1)-th scores treated as a tie


def _extend(seq: InputSequence, tokens: list[int]) -> InputSequence:
    k = len(tokens)
    zeros = np.zeros(k, dtype=np.int64)
    n = seq.n
    return InputSequence(
        token_ids=np.concatenate([seq.token_ids, np.asarray(tokens, dtype=np.int64)]),
        position_ids=np.arange(n + k, dtype=np.int64),
        entity_ids=np.concatenate([seq.entity_ids, zeros]),
        triple_ids=np.concatenate([seq.triple_ids, zeros]),
        type_ids=np.concatenate([seq.type_ids, np.full(k, TYPE_SYSTEM, dtype=np.int64)]),
        knowledge_end=seq.knowledge_end,
        question_start=seq.question_start,
        response_start=seq.response_start,
        triple_spans=seq.triple_spans,
        triple_sources=seq.triple_sources,
    )


def reference_mask(n: int, knowledge_cols: np.ndarray) -> np.ndarray:
    """Causal mask whose knowledge key columns follow ``knowledge_cols``."""
    cols = np.zeros(n, dtype=np.float32)
    cols[: knowledge_cols.shape[0]] = knowledge_cols
    values = np.full((n, n), NEG_INF, dtype=np.float32)
    for i in range(n):
        values[i, : i + 1] = cols[: i + 1]
    return values


def greedy_matches(state, seq: InputSequence, knowledge_cols: np.ndarray, candidate: list[int],
                   max_len: int, eos_id: int) -> bool:
    """True iff ``candidate`` is a greedy decode of ``seq`` up to top-2 ties."""
    prefix: list[int] = []
    for step in range(max_len):
        ext = _extend(seq, prefix)
        logits = model.forward(ext, AttentionMask(reference_mask(ext.n, knowledge_cols), ext.n), state)[-1]
        logits = logits.astype(np.float64)
        want = candidate[step] if step < len(candidate) else eos_id
        top = np.argsort(-logits, kind="stable")[:2]
        gap = logits[top[0]] - logits[want]
        if want != top[0] and not (want == top[1] and gap <= TIE_TOL * max(1.0, abs(logits[top[0]]))):
            return False
        if want == eos_id:
            return step == len(candidate)
        prefix.append(want)
    return len(candidate) == max_len


# --- grounding -----------------------------------------------------------------


def _text_vector(text: str, vocab, table: np.ndarray) -> np.ndarray:
    ids = [vocab.token_to_id.get(t, vocab.unk_id) for t in text.split()]
    if not ids:
        return np.zeros(table.shape[1])
    acc = np.zeros(table.shape[1])
    for i in ids:
        acc += table[i].astype(np.float64)
    return acc / len(ids)


def _cos(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = math.sqrt(float(u @ u)), math.sqrt(float(v @ v))
    return 0.0 if nu == 0.0 or nv == 0.0 else float(u @ v) / (nu * nv)


def _top(scores: list[float], k: int) -> set[int] | None:
    """Top-k ids by score (lower id wins exact ties); None on a k-th-place tie."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    if k < len(ranked) and k > 0 and scores[ranked[k - 1]] - scores[ranked[k]] <= WEIGHT_TIE:
        return None
    return set(ranked[:k])


def naive_visibility(graph, question: str, vocab, table: np.ndarray, k_entity: int, k_relation: int):
    """Per graph triple: visible under the question, or None on a tie."""
    q = _text_vector(question, vocab, table)
    ent_x = [_cos(q, _text_vector(e.surface, vocab, table)) for e in graph.entities]
    rel_x = [_cos(q, _text_vector(r.surface, vocab, table)) for r in graph.relations]
    neighbours: list[set[int]] = [set() for _ in graph.relations]
    for t in graph.triples:
        neighbours[t.relation].update((t.subject, t.object))
    # one step of D^-1 (A+I) read at relation nodes; softmax keeps the order
    rel_h = [(rel_x[r] + sum(ent_x[e] for e in nb)) / (1 + len(nb)) for r, nb in enumerate(neighbours)]
    top_e, top_r = _top(ent_x, k_entity), _top(rel_h, k_relation)
    if top_e is None or top_r is None:
        return None
    return [(t.subject in top_e or t.object in top_e) and t.relation in top_r for t in graph.triples]


def mask_is_causal(mask_values: np.ndarray, seq: InputSequence) -> bool:
    """Upper triangle masked; every row repeats the last row's key pattern up to
    the diagonal; [BOS], [SEP] and all non-knowledge keys visible."""
    n = seq.n
    if mask_values.shape != (n, n):
        return False
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    if not np.all(mask_values[upper] == NEG_INF):
        return False
    keys = mask_values[n - 1]
    if not np.all(mask_values[~upper] == np.broadcast_to(keys, (n, n))[~upper]):
        return False
    return keys[0] == 0 and keys[seq.knowledge_end] == 0 and bool(np.all(keys[seq.knowledge_end + 1 :] == 0))


def grounding_matches(mask_values: np.ndarray, seq: InputSequence, graph, question: str, vocab,
                      table: np.ndarray, k_entity: int, k_relation: int) -> bool | None:
    """Compare mask key visibility with the naive selection; None if tied."""
    expected = naive_visibility(graph, question, vocab, table, k_entity, k_relation)
    if expected is None:
        return None
    if not mask_is_causal(mask_values, seq):
        return False
    keys = mask_values[seq.n - 1]
    emitted = [expected[src] for src in seq.triple_sources]
    if emitted and not any(emitted):
        emitted = [True] * len(emitted)  # nothing selected: grounding falls back to all visible
    group_visible: dict[int, bool] = {}
    for p in range(seq.knowledge_end + 1):
        t, g = int(seq.triple_ids[p]), int(seq.entity_ids[p])
        if t > 0:
            group_visible[g] = group_visible.get(g, False) or emitted[t - 1]
    for p in range(seq.knowledge_end + 1):
        t, g = int(seq.triple_ids[p]), int(seq.entity_ids[p])
        visible = emitted[t - 1] if t > 0 else group_visible.get(g, False) if g > 0 else True
        if (keys[p] == 0) != visible:
            return False
    return True
