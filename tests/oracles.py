"""Independent naive reimplementations used as test oracles.

Everything here is written with explicit Python loops and dense math, on
purpose: these functions must not share code paths with the package.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


def naive_cosine(u, v) -> float:
    du = math.sqrt(sum(float(x) * float(x) for x in u))
    dv = math.sqrt(sum(float(x) * float(x) for x in v))
    if du == 0.0 or dv == 0.0:
        return 0.0
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    return dot / (du * dv)


def naive_mean_vector(text: str, token_rows: dict[str, list[float]], dim: int) -> list[float]:
    toks = text.split()
    if not toks:
        return [0.0] * dim
    acc = [0.0] * dim
    for t in toks:
        row = token_rows[t]
        for i in range(dim):
            acc[i] += float(row[i])
    return [a / len(toks) for a in acc]


def naive_softmax(values: list[float]) -> list[float]:
    if not values:
        return []
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    z = sum(exps)
    return [e / z for e in exps]


def naive_graph_pipeline(triples: list[tuple[str, str, str]], question: str,
                         token_rows: dict[str, list[float]], dim: int):
    """Dense reimplementation of the full weighting pipeline.

    Returns (entity_surfaces, relation_surfaces, entity_weights, relation_weights)
    with weights as parallel lists (softmax-normalized).
    """
    entities: list[str] = []
    relations: list[str] = []
    for s, r, o in triples:
        if s not in entities:
            entities.append(s)
        if r not in relations:
            relations.append(r)
        if o not in entities:
            entities.append(o)
    nodes = entities + relations
    d = len(nodes)
    a = [[0.0] * d for _ in range(d)]
    for s, r, o in triples:
        si, ri, oi = nodes.index(s), len(entities) + relations.index(r), nodes.index(o)
        a[si][ri] = a[ri][si] = 1.0
        a[ri][oi] = a[oi][ri] = 1.0

    qv = naive_mean_vector(question, token_rows, dim)
    x = [naive_cosine(qv, naive_mean_vector(n, token_rows, dim)) for n in nodes]

    h = []
    for i in range(d):
        acc = x[i]  # self loop from A+I
        deg = 1.0
        for j in range(d):
            acc += a[i][j] * x[j]
            deg += a[i][j]
        h.append(acc / deg)

    ent_scores = [naive_cosine(qv, naive_mean_vector(e, token_rows, dim)) for e in entities]
    rel_scores = [h[len(entities) + k] for k in range(len(relations))]
    return entities, relations, naive_softmax(ent_scores), naive_softmax(rel_scores)


def naive_knowledge_columns(triples, triple_sources, triple_ids, entity_ids, knowledge_end,
                            top_entities, top_relations, neg_inf):
    """Per-position loop over the knowledge segment ([BOS] through [SEP]).

    ``triples`` are the graph's (subject, relation, object) id tuples. A
    triple position follows its triple; a subject position is visible iff
    some position of its group belongs to a kept triple; every other
    position is visible. With no triple kept, nothing is masked.
    """
    keep = []
    for src in triple_sources:
        s, r, o = triples[src]
        keep.append((s in top_entities or o in top_entities) and r in top_relations)
    cols = [0.0] * (knowledge_end + 1)
    if True not in keep:
        return cols
    for p in range(knowledge_end + 1):
        t, g = int(triple_ids[p]), int(entity_ids[p])
        if t > 0:
            visible = keep[t - 1]
        elif g > 0:
            visible = False
            for q in range(knowledge_end + 1):
                if int(entity_ids[q]) == g and int(triple_ids[q]) > 0 and keep[int(triple_ids[q]) - 1]:
                    visible = True
        else:
            visible = True
        if not visible:
            cols[p] = neg_inf
    return cols


def subject_groups(graph):
    """Triple indices grouped by subject: groups in first-appearance order, each in file order."""
    subjects, groups = [], []
    for i, t in enumerate(graph.triples):
        if t.subject not in subjects:
            subjects.append(t.subject)
            groups.append([])
        groups[subjects.index(t.subject)].append(i)
    return groups


def shuffled_groups(graph, rng):
    """The subject groups as training walks them: ``rng`` shuffles the
    groups, then each group's triples in turn."""
    groups = subject_groups(graph)
    rng.shuffle(groups)
    for g in groups:
        rng.shuffle(g)
    return groups


def loop_linearize(graph, order=None):
    """Token-by-token walk of ``[BOS] ([S] subj ([R] rel [O] obj)+)*``.

    ``order`` lists subject groups of triple indices in emission order; the
    default is ``subject_groups(graph)``. Returns (tokens, entity_ids,
    triple_ids, triple_sources) as lists.
    """
    if order is None:
        order = subject_groups(graph)
    tokens, ent, tri, sources = ["[BOS]"], [0], [0], []
    for gi, group in enumerate(order, start=1):
        subj_toks = graph.entities[graph.triples[group[0]].subject].surface.split()
        tokens += ["[S]"] + subj_toks
        ent += [gi] * (1 + len(subj_toks))
        tri += [0] * (1 + len(subj_toks))
        for t_idx in group:
            sources.append(t_idx)
            t = graph.triples[t_idx]
            rel_toks = graph.relations[t.relation].surface.split()
            obj_toks = graph.entities[t.object].surface.split()
            tokens += ["[R]"] + rel_toks + ["[O]"] + obj_toks
            span = 2 + len(rel_toks) + len(obj_toks)
            ent += [gi] * span
            tri += [len(sources)] * span
    return tokens, ent, tri, sources


def loop_truncate(tokens, ent, tri, sources, max_tokens):
    """Cut at the last triple boundary within ``max_tokens``, keeping [BOS] at least."""
    if len(tokens) <= max_tokens:
        return tokens, ent, tri, sources
    cut, kept, prev = 1, 0, 0
    for p, t in enumerate(tri):
        if prev != 0 and t != prev and p <= max_tokens:
            cut, kept = p, prev
        prev = t
    return tokens[:cut], ent[:cut], tri[:cut], sources[:kept]


def loop_spans(tri):
    """Emitted triple id -> [start, end) token span, by a scan over triple ids."""
    spans: dict[int, tuple[int, int]] = {}
    cur = 0
    for p, t in enumerate(tri):
        if t != cur:
            if cur != 0:
                spans[cur] = (spans[cur][0], p)
            if t != 0:
                spans[t] = (p, p)
            cur = t
    if cur != 0:
        spans[cur] = (spans[cur][0], len(tri))
    return spans


def loop_assemble(graph, order, history, question, gold_response, token_to_id, limits):
    """Every stream and span of an assembled sample, built token by token.

    Types: 0 knowledge, 1 user, 2 system. Returns a dict of lists, or None if
    the sample is longer than ``limits.context_limit``.
    """
    unk = token_to_id["[UNK]"]
    tokens, ent, tri, sources = loop_truncate(*loop_linearize(graph, order), limits.max_knowledge_tokens)
    spans = loop_spans(tri)
    tokens, ent, tri = tokens + ["[SEP]"], ent + [0], tri + [0]
    typ = [0] * len(tokens)
    knowledge_end = len(tokens) - 1
    hist_tokens, hist_types = [], []
    for turn in history[len(history) - min(len(history), limits.max_history_turns):]:
        for tok in turn.text.split():
            hist_tokens.append(tok)
            hist_types.append(1 if turn.speaker == "user" else 2)
    while len(hist_tokens) > limits.max_history_tokens:
        hist_tokens.pop(0)
        hist_types.pop(0)
    q_toks = question.split()
    tail = hist_tokens + ["[Q]"] + q_toks
    tail_types = hist_types + [1] * (1 + len(q_toks))
    if gold_response is not None:
        g_toks = gold_response.split() + ["[EOS]"]
        tail += g_toks
        tail_types += [2] * len(g_toks)
    tokens += tail
    typ += tail_types
    ent += [0] * len(tail)
    tri += [0] * len(tail)
    if len(tokens) > limits.context_limit:
        return None
    return {
        "token_ids": [token_to_id.get(t, unk) for t in tokens],
        "position_ids": list(range(len(tokens))),
        "entity_ids": ent,
        "triple_ids": tri,
        "type_ids": typ,
        "knowledge_end": knowledge_end,
        "question_start": knowledge_end + len(hist_tokens) + 2,
        "response_start": knowledge_end + len(hist_tokens) + 2 + len(q_toks),
        "triple_spans": spans,
        "triple_sources": tuple(sources),
    }


def decode_triple_span(seq, vocab, triple_id: int) -> tuple[str, str]:
    """(relation surface, object surface) read back from an emitted triple's ``[R] ... [O] ...`` span."""
    start, end = seq.triple_spans[triple_id]
    toks = vocab.decode(seq.token_ids[start:end])
    if toks[0] != "[R]" or "[O]" not in toks:
        raise ValueError(f"span of triple {triple_id} is not [R] ... [O] ... shaped")
    o_at = toks.index("[O]")
    return " ".join(toks[1:o_at]), " ".join(toks[o_at + 1 :])

def naive_attention(q, k, v, m):
    """Triple-loop masked single-head attention."""
    n, dk = q.shape
    out = np.zeros_like(v, dtype=np.float64)
    for i in range(n):
        scores = []
        for j in range(n):
            s = 0.0
            for t in range(dk):
                s += float(q[i, t]) * float(k[j, t])
            scores.append(s / math.sqrt(dk) + float(m[i, j]))
        probs = naive_softmax(scores)
        for j in range(n):
            for t in range(v.shape[1]):
                out[i, t] += probs[j] * float(v[j, t])
    return out


def add_at_scatter(out: np.ndarray, ids, rows) -> None:
    """``out[ids[j]] += rows[j]`` for every ``j`` through ``np.add.at``, which sums repeated ids."""
    np.add.at(out, np.asarray(ids), rows)


def naive_response_nll(logits, token_ids, response_start) -> float:
    """Mean -log p(token[t] | ...) for t in [response_start, n)."""
    total = 0.0
    count = 0
    for t in range(response_start, len(token_ids)):
        row = [float(x) for x in logits[t - 1]]
        m = max(row)
        z = sum(math.exp(x - m) for x in row)
        total -= (row[int(token_ids[t])] - m) - math.log(z)
        count += 1
    return total / count


def finite_diff_grads(loss_fn, params: dict[str, np.ndarray], picks: list[tuple[str, int]], step: float = 1e-5):
    """Central finite differences of loss_fn at the given (name, flat_index) picks."""
    out = []
    for name, idx in picks:
        arr = params[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + step
        lp = loss_fn()
        arr.flat[idx] = orig - step
        lm = loss_fn()
        arr.flat[idx] = orig
        out.append((lp - lm) / (2.0 * step))
    return out


def sort_sample_next(logits, params, rng) -> int:
    """Temperature, a stable sort of the whole row for top-k, then nucleus truncation and one draw."""
    z = logits.astype(np.float64) / params.temperature
    order = np.argsort(-z, kind="stable")[: params.top_k]
    e = np.exp(z[order] - np.max(z[order]))
    probs = e / e.sum()
    cum = np.cumsum(probs)
    cut = int(np.searchsorted(cum, params.top_p, side="left")) + 1
    kept = probs[:cut] / probs[:cut].sum()
    return int(order[np.searchsorted(np.cumsum(kept), rng.random(), side="right")])


def loop_normalize_text(text: str) -> str:
    """Lowercase, collapse whitespace, split terminal punctuation off: the regex runs on every text."""
    t = " ".join(text.lower().split())
    t = re.sub(r"\s*([.!?]+)$", r" \1", t)
    return t.strip()


def loop_build_graph(surface_triples, owner="?"):
    """Per-triple walk: normalize each surface where it occurs, assign ids on first appearance."""
    from kgdialog.corpus import Entity, KnowledgeGraph, RelationLabel, SchemaError, Triple

    ent_ids: dict[str, int] = {}
    rel_ids: dict[str, int] = {}
    triples = []
    seen = set()
    for i, raw in enumerate(surface_triples):
        if not isinstance(raw, (list, tuple)) or len(raw) != 3 or not all(isinstance(x, str) for x in raw):
            raise SchemaError(f"dialogue {owner!r}: kg.triples[{i}] must be [subject, relation, object] strings")
        ids = []
        for surface, pos, table in ((raw[0], "subject", ent_ids), (raw[1], "relation", rel_ids),
                                    (raw[2], "object", ent_ids)):
            norm = loop_normalize_text(surface)
            if not norm:
                raise SchemaError(f"dialogue {owner!r}: empty {pos} surface in kg.triples[{i}]")
            if norm not in table:
                table[norm] = len(table)
            ids.append(table[norm])
        key = tuple(ids)
        if key in seen:
            raise SchemaError(f"dialogue {owner!r}: duplicate triple at kg.triples[{i}]")
        seen.add(key)
        triples.append(Triple(ids[0], ids[1], ids[2]))
    return KnowledgeGraph(
        entities=tuple(Entity(i, s) for s, i in ent_ids.items()),
        relations=tuple(RelationLabel(i, s) for s, i in rel_ids.items()),
        triples=tuple(triples),
    )


def loop_load_dataset(path, split):
    """A dataset file read, checked and expanded dialogue by dialogue, with ``loop_build_graph`` per graph."""
    from kgdialog.corpus import DatasetSplit, DialogueSample, DialogueTurn, SchemaError, ValidationError

    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text: {e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("dialogues"), list):
        raise SchemaError(f"{path}: top-level object must contain a 'dialogues' list")
    samples = []
    for index, raw in enumerate(doc["dialogues"]):
        if not isinstance(raw, dict):
            raise SchemaError(f"dialogues[{index}] is not an object")
        did = raw.get("id")
        if not isinstance(did, str) or not did:
            raise SchemaError(f"dialogues[{index}]: missing or empty field 'id'")
        if not isinstance(raw.get("domain"), str):
            raise SchemaError(f"dialogue {did!r}: missing field 'domain'")
        kg = raw.get("kg")
        if not isinstance(kg, dict) or not isinstance(kg.get("triples"), list):
            raise SchemaError(f"dialogue {did!r}: missing field 'kg.triples'")
        if not isinstance(raw.get("turns"), list) or not raw["turns"]:
            raise SchemaError(f"dialogue {did!r}: missing or empty field 'turns'")
        graph = loop_build_graph(kg["triples"], owner=did)
        turns = []
        for j, t in enumerate(raw["turns"]):
            if not isinstance(t, dict) or t.get("speaker") not in ("user", "system"):
                raise SchemaError(f"dialogue {did!r}: turns[{j}] needs speaker 'user' or 'system'")
            text = t.get("text", "")
            if not isinstance(text, str):
                raise SchemaError(f"dialogue {did!r}: turns[{j}] text must be a string")
            if not loop_normalize_text(text):
                raise SchemaError(f"dialogue {did!r}: turns[{j}] has empty text")
            turns.append(DialogueTurn(t["speaker"], loop_normalize_text(text)))
        for j, t in enumerate(turns):
            want = "user" if j % 2 == 0 else "system"
            if t.speaker != want:
                raise ValidationError(
                    f"dialogue {did!r}: turns[{j}] breaks user/system alternation (got {t.speaker!r})"
                )
        if turns[-1].speaker != "system":
            raise ValidationError(f"dialogue {did!r}: final turn must be a system turn")
        for k in range(len(turns) // 2):
            samples.append(DialogueSample(
                id=f"{did}#{k}", domain=raw["domain"], graph=graph, history=tuple(turns[: 2 * k]),
                question=turns[2 * k].text, gold_response=turns[2 * k + 1].text,
            ))
    return DatasetSplit(split, tuple(samples))
