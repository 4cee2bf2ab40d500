"""Training loop: per-epoch triple shuffling, batches of the rows the
question-conditioned knowledge mask leaves visible, gradient accumulation,
and decoupled-weight-decay Adam."""

from __future__ import annotations

import csv
import hashlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DatasetSplit, DialogueSample
from .graph_weights import TokenEmbedder, compute_weighted_graph, select_topk
from .masking import NEG_INF, knowledge_column_mask, unmasked_columns
from .model import (
    Batch,
    ModelConfig,
    ModelState,
    backward_batch,
    forward_batch,
    gather_batch,
    init_model,
    loss_batch,
)
from .sequence import (
    AssemblyLimits,
    InputSequence,
    SequenceTooLongError,
    Vocabulary,
    assemble_input,
    linearize_graph,
)

_BETA1 = 0.9  # Adam's first-moment decay


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 6.25e-5
    adam_epsilon: float = 1e-8
    weight_decay: float = 0.01
    beta2: float = 0.999
    batch_size: int = 4
    grad_accum_steps: int = 4
    epochs: int = 40
    seed: int = 13
    warmup_steps: int = 0
    k_entity: int = 7
    k_relation: int = 7
    use_kg_mask: bool = True
    limits: AssemblyLimits = field(default_factory=AssemblyLimits)

    def __post_init__(self) -> None:
        if self.k_entity < 0 or self.k_relation < 0:
            raise ValueError("k_entity and k_relation must be >= 0")
        if self.batch_size < 1 or self.grad_accum_steps < 1:
            raise ValueError("batch_size and grad_accum_steps must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, not {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if not self.adam_epsilon > 0:
            raise ValueError(f"adam_epsilon must be > 0, not {self.adam_epsilon}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, not {self.weight_decay}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, not {self.epochs}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, not {self.warmup_steps}")


def adamw_step(state: ModelState, grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """Adam with decoupled weight decay; constant lr after optional warmup."""
    if state.opt_m is None:
        state.opt_m = {k: np.zeros_like(v) for k, v in state.params.items()}
        state.opt_v = {k: np.zeros_like(v) for k, v in state.params.items()}
    state.opt_step += 1
    t = state.opt_step
    lr = cfg.lr
    if cfg.warmup_steps > 0 and t <= cfg.warmup_steps:
        lr = cfg.lr * t / cfg.warmup_steps
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - cfg.beta2**t
    for name, p in state.params.items():
        g = grads[name]
        m = state.opt_m[name]
        v = state.opt_v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + cfg.adam_epsilon)
        if cfg.weight_decay > 0.0:
            update = update + cfg.weight_decay * p
        p -= (lr * update).astype(p.dtype)


def _stable_int(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def _check_tables(seq: InputSequence, cfg: ModelConfig, sample_id: str) -> None:
    """Refuse a sequence whose position, entity or triple ids reach past the
    model's embedding tables (the bounds the model itself enforces), so the
    refusal never depends on which triples the mask later hides."""
    for name, ids, size in (
        ("position", seq.position_ids, cfg.max_positions),
        ("entity", seq.entity_ids, cfg.max_entity_ids),
        ("triple", seq.triple_ids, cfg.max_triple_ids),
    ):
        top = int(ids.max())
        if top >= size:
            raise SequenceTooLongError(
                f"sample {sample_id!r}: {name} ids reach {top}, past the model's {name} table of size {size}"
            )


def build_sample_inputs(
    sample: DialogueSample,
    vocab: Vocabulary,
    state: ModelState,
    k_entity: int,
    k_relation: int,
    use_kg_mask: bool,
    limits: AssemblyLimits,
    rng: np.random.Generator | None = None,
    with_gold: bool = True,
) -> tuple[InputSequence, np.ndarray]:
    """Assemble one sample and its knowledge key-column mask values.

    ``rng`` shuffles the sample's subject groups and triples, as
    ``linearize_graph`` does; without it they come in file order.
    Raises ``SequenceTooLongError`` if the assembled sequence is longer than
    ``limits.context_limit`` or its ids do not fit the model's tables.
    """
    seq = assemble_input(
        linearize_graph(sample.graph, rng),
        sample.history,
        sample.question,
        sample.gold_response if with_gold else None,
        vocab,
        limits,
        sample_id=sample.id,
    )
    _check_tables(seq, state.cfg, sample.id)
    if use_kg_mask and sample.graph.triples:
        wg = compute_weighted_graph(sample.graph, sample.question, TokenEmbedder(vocab, state.params["tok_emb"]))
        sel = select_topk(wg, k_entity, k_relation)
        cols = knowledge_column_mask(seq, sel, sample.graph)
    else:
        cols = unmasked_columns(seq)
    return seq, cols


def _make_batch(pairs: list[tuple[InputSequence, np.ndarray]]) -> Batch:
    """Gather each sample's visible rows, with targets, into one causal batch.

    A knowledge position whose key column is ``NEG_INF`` is hidden from
    every query row, and it carries no target (targets lie in the response
    span, after [SEP]), so its row changes no logit of another row, no loss
    term and no gradient: dropping it is exact. Each sample keeps the rows its
    columns leave visible and every row after [SEP], with their true position
    ids. What the knowledge mask left to hide is gone, so the batch needs no
    mask: causality alone hides the padding after every real row. Where every
    column is visible (the knowledge-mask ablation, or the fallback) nothing
    is dropped.
    """
    rows = [
        np.flatnonzero(np.concatenate([cols != NEG_INF, np.ones(seq.n - cols.shape[0], dtype=bool)]))
        for seq, cols in pairs
    ]
    return gather_batch([seq for seq, _ in pairs], rows, max(r.size for r in rows), True)


def dataset_loss(
    split: DatasetSplit,
    vocab: Vocabulary,
    state: ModelState,
    cfg: TrainConfig,
) -> float:
    """Mean per-sample NLL in eval mode with file-order triples."""
    total, count = 0.0, 0
    samples = split.samples
    for start in range(0, len(samples), cfg.batch_size):
        chunk = samples[start : start + cfg.batch_size]
        pairs = [
            build_sample_inputs(s, vocab, state, cfg.k_entity, cfg.k_relation, cfg.use_kg_mask, cfg.limits)
            for s in chunk
        ]
        batch = _make_batch(pairs)
        logits, _ = forward_batch(state, batch)
        value, _ = loss_batch(logits, batch.targets)
        total += value * len(chunk)
        count += len(chunk)
    return total / max(count, 1)


# a diverging run ends in TrainingDiverged from the finite checks below, not in overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def train(
    train_split: DatasetSplit,
    valid_split: DatasetSplit | None,
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    verbose: bool = False,
) -> tuple[ModelState, list[dict]]:
    """Train from scratch; returns the best-validation state and history rows.

    Raises ``TrainingDiverged`` when a loss or a forward pass turns
    non-finite. Without a validation split the last state is checked by one
    eval-mode pass over the training split.
    """
    state = init_model(model_cfg, cfg.seed)
    samples = train_split.samples
    if not samples:
        raise ValueError("training split is empty")
    sample_ints = [_stable_int(s.id) for s in samples]

    history: list[dict] = []
    best_loss = np.inf
    best_params: dict[str, np.ndarray] | None = None

    micro = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = np.random.default_rng([cfg.seed, 7919, epoch]).permutation(len(samples))
        accum: dict[str, np.ndarray] | None = None
        accum_count = 0
        epoch_loss, epoch_n = 0.0, 0
        rows_assembled, rows_computed = 0, 0

        for start in range(0, len(order), cfg.batch_size):
            idxs = order[start : start + cfg.batch_size]
            pairs = [
                build_sample_inputs(samples[j], vocab, state, cfg.k_entity, cfg.k_relation, cfg.use_kg_mask,
                                    cfg.limits, rng=np.random.default_rng([cfg.seed, epoch, sample_ints[j]]))
                for j in idxs
            ]
            batch = _make_batch(pairs)
            rows_assembled += sum(seq.n for seq, _ in pairs)
            rows_computed += int(batch.lengths.sum())
            drop_rng = np.random.default_rng([cfg.seed, 104729, micro])
            try:
                logits, cache = forward_batch(state, batch, train=True, rng=drop_rng)
                value, dlogits = loss_batch(logits, batch.targets)
            except FloatingPointError as e:
                ids = ", ".join(samples[j].id for j in idxs)
                raise TrainingDiverged(f"{e} at epoch {epoch} micro-batch {micro} (samples: {ids})") from e
            if not np.isfinite(value):
                ids = ", ".join(samples[j].id for j in idxs)
                raise TrainingDiverged(f"non-finite loss at epoch {epoch} micro-batch {micro} (samples: {ids})")
            grads = backward_batch(state, cache, dlogits)
            micro += 1
            epoch_loss += value * len(idxs)
            epoch_n += len(idxs)

            if accum is None:
                accum = grads
            else:
                for k in accum:
                    accum[k] += grads[k]
            accum_count += 1
            if accum_count == cfg.grad_accum_steps or start + cfg.batch_size >= len(order):
                for k in accum:
                    accum[k] /= accum_count
                adamw_step(state, accum, cfg)
                accum, accum_count = None, 0

        train_loss = epoch_loss / epoch_n
        try:
            valid_loss = dataset_loss(valid_split, vocab, state, cfg) if valid_split else float("nan")
        except FloatingPointError as e:
            raise TrainingDiverged(f"{e} at epoch {epoch}, found in validation") from e
        history.append({"epoch": epoch, "train_loss": train_loss, "valid_loss": valid_loss})
        if verbose:
            seconds = time.perf_counter() - t0
            print(
                f"epoch {epoch}: train_loss={train_loss:.4f} valid_loss={valid_loss:.4f} "
                f"{seconds:.2f}s {epoch_n / seconds:.1f} samples/s "
                f"rows {rows_computed} computed of {rows_assembled} assembled",
                file=sys.stderr,
            )
        if valid_split and valid_loss < best_loss:
            best_loss = valid_loss
            best_params = state.clone_params()

    if best_params is not None:
        state.params = best_params
    elif history:  # no validation loss picked a state: check the last one on the training split
        where = f"after epoch {history[-1]['epoch']}, found in a final pass over the training split"
        try:
            final_loss = dataset_loss(train_split, vocab, state, cfg)
        except FloatingPointError as e:
            raise TrainingDiverged(f"{e} {where}") from e
        if not np.isfinite(final_loss):
            raise TrainingDiverged(f"non-finite loss {where}")
    return state, history


def save_history(history: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=["epoch", "train_loss", "valid_loss"])
        w.writeheader()
        for row in history:
            w.writerow(row)
