"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces each listed public function of the package with a
recording wrapper at every module attribute that holds it, so a call resolves
to the wrapper whichever module the caller imported the name from (both
``kgdialog.model.forward_batch`` and ``kgdialog.training.forward_batch``).
``uninstall`` puts the originals back; the untraced run never sees a wrapper.

Each span is ``[name, start, end, parent_index, request_id]``. Spans stay in
memory until ``write`` dumps them at the end of the run. Counters attached to
a function are updated after its span closes, from its arguments and result.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "kgdialog"
# (module, function) pairs, named "<module>.<function>" in the output.
TRACED = (
    ("corpus", "load_dataset"),
    ("checkpoint", "load_checkpoint"),
    ("checkpoint", "save_checkpoint"),
    ("sequence", "linearize_graph"),
    ("sequence", "assemble_input"),
    ("graph_weights", "compute_weighted_graph"),
    ("graph_weights", "select_topk"),
    ("masking", "knowledge_column_mask"),
    ("masking", "compose_mask"),
    ("model", "forward_batch"),
    ("model", "backward_batch"),
    ("model", "loss_batch"),
    ("model", "sample_response"),
    ("training", "build_sample_inputs"),
    ("training", "adamw_step"),
    ("training", "dataset_loss"),
    ("training", "train"),
    ("evaluation", "evaluate"),
    ("evaluation", "sentence_bleu"),
    ("evaluation", "entity_counts"),
)
LABELS = tuple(f"{m}.{f}" for m, f in TRACED)

# Counters, each with the base its ratio is taken over (see README.md).
COUNTS = (
    "sequence.tokens",
    "sequence.truncated",
    "graph_weights.nodes",
    "masking.knowledge_keys",
    "masking.masked_keys",
    "masking.fallbacks",
    "model.forward_batch.positions",
    "model.padded_positions",
    "model.sample_response.positions",
    "model.tokens_generated",
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_assemble(tracer, span, args, kwargs, result) -> None:
    counts = tracer.counts
    counts["sequence.tokens"] += result.n
    stream, limits = _arg(args, kwargs, 0, "stream"), _arg(args, kwargs, 5, "limits")
    counts["sequence.truncated"] += len(stream.tokens) > limits.max_knowledge_tokens


def _count_weighted_graph(tracer, span, args, kwargs, result) -> None:
    graph = _arg(args, kwargs, 0, "graph")
    tracer.counts["graph_weights.nodes"] += graph.n_entities + graph.n_relations


def _count_column_mask(tracer, span, args, kwargs, result) -> None:
    counts = tracer.counts
    seq, sel, graph = _arg(args, kwargs, 0, "seq"), _arg(args, kwargs, 1, "sel"), _arg(args, kwargs, 2, "graph")
    counts["masking.knowledge_keys"] += result.shape[0]
    counts["masking.masked_keys"] += int(np.count_nonzero(result < 0))
    visible = (
        (graph.triples[i].subject in sel.top_entities or graph.triples[i].object in sel.top_entities)
        and graph.triples[i].relation in sel.top_relations
        for i in seq.triple_sources
    )
    counts["masking.fallbacks"] += bool(seq.triple_sources) and not any(visible)


def _count_forward(tracer, span, args, kwargs, result) -> None:
    counts = tracer.counts
    batch = _arg(args, kwargs, 1, "batch")
    positions = batch.tok.size
    counts["model.forward_batch.positions"] += positions
    # padding is [PAD] in the knowledge-typed stream; real [PAD] text can only
    # appear in dialogue turns, which are never typed as knowledge
    counts["model.padded_positions"] += int(np.count_nonzero((batch.tok == 0) & (batch.typ == 0)))
    if span[3] >= 0 and tracer.spans[span[3]][0] == "model.sample_response":
        counts["model.sample_response.positions"] += positions
        counts["model.tokens_generated"] += 1


COUNTERS = {
    "sequence.assemble_input": _count_assemble,
    "graph_weights.compute_weighted_graph": _count_weighted_graph,
    "masking.knowledge_column_mask": _count_column_mask,
    "model.forward_batch": _count_forward,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_request(self, request_id: int) -> None:
        """Spans opened from now on belong to ``request_id``."""
        self.request_id = request_id

    def wrap(self, label: str, fn):
        counter = COUNTERS.get(label)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.request_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the part of its interval covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _share(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, untraced_wall_s: float, traced_wall_s: float, run_s: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    out: dict[str, tuple[float, str]] = {}
    for label in LABELS:
        out[f"{label}.calls"] = (calls[label], "count")
        out[f"{label}.s"] = (total[label], "s")
        out[f"{label}.self_s"] = (own[label], "s")
    c = tracer.counts
    for name in COUNTS:
        out[name] = (c[name], "count")
    out["sequence.truncated_share"] = (_share(c["sequence.truncated"], calls["sequence.assemble_input"]), "share")
    out["masking.masked_key_share"] = (_share(c["masking.masked_keys"], c["masking.knowledge_keys"]), "share")
    out["masking.fallback_share"] = (_share(c["masking.fallbacks"], calls["masking.knowledge_column_mask"]), "share")
    out["model.padding_share"] = (_share(c["model.padded_positions"], c["model.forward_batch.positions"]), "share")
    out["model.positions_per_token"] = (
        _share(c["model.sample_response.positions"], c["model.tokens_generated"]), "positions/token")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.traced_wall_s"] = (traced_wall_s, "s")
    out["trace.run_s"] = (run_s, "s")
    out["trace.overhead_share"] = (_share(traced_wall_s - untraced_wall_s, untraced_wall_s), "share")
    return out
