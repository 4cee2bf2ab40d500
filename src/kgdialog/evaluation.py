"""Sentence BLEU, entity F1, and the end-to-end evaluation harness.

BLEU is BLEU-4 with brevity penalty; an n-gram order with zero matches
contributes 1 / (2 * candidate n-gram count) instead of zero, so scores stay
positive but near-disjoint sentences score tiny. Entity F1 extracts entity
mentions by longest-match phrase scan over a global lexicon and
micro-averages TP/FP/FN across responses.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import DatasetSplit, DialogueSample
from .model import DecodingParams, ModelState, sample_response
from .masking import compose_mask
from .sequence import SequenceTooLongError, Vocabulary
from .training import TrainConfig, build_sample_inputs

BLEU_SMOOTHING = "zero n-gram matches replaced by 1/(2 * candidate n-gram count)"


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_bleu(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU-4 with brevity penalty on a single sentence pair, in [0, 1]."""
    if not hypothesis:
        return 0.0
    log_p = 0.0
    for n in range(1, 5):
        hyp_counts = _ngrams(hypothesis, n)
        total = sum(hyp_counts.values())
        ref_counts = _ngrams(reference, n)
        matched = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        if matched > 0:
            p_n = matched / total
        else:
            p_n = 1.0 / (2.0 * max(total, 1))
        log_p += 0.25 * math.log(p_n)
    c, r = len(hypothesis), len(reference)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_p)


class EntityMatcher:
    """Longest-match phrase scanner over a normalized entity lexicon."""

    def __init__(self, lexicon: Sequence[str]):
        self.phrases = {tuple(s.split()) for s in lexicon}
        self.max_len = max((len(p) for p in self.phrases), default=0)

    def extract(self, text: str) -> set[str]:
        tokens = text.split()
        found: set[str] = set()
        i = 0
        while i < len(tokens):
            for length in range(min(self.max_len, len(tokens) - i), 0, -1):
                cand = tuple(tokens[i : i + length])
                if cand in self.phrases:
                    found.add(" ".join(cand))
                    i += length
                    break
            else:
                i += 1
        return found


def entity_counts(hypotheses: Sequence[str], golds: Sequence[str], matcher: EntityMatcher):
    tp = fp = fn = 0
    per_sample = []
    for hyp, gold in zip(hypotheses, golds):
        pred = matcher.extract(hyp)
        true = matcher.extract(gold)
        tp += len(pred & true)
        fp += len(pred - true)
        fn += len(true - pred)
        per_sample.append((sorted(true), sorted(pred)))
    return tp, fp, fn, per_sample


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def entity_f1(hypotheses: Sequence[str], golds: Sequence[str], lexicon: Sequence[str]) -> float:
    """Micro-averaged F1 between entity sets of gold and generated responses."""
    tp, fp, fn, _ = entity_counts(hypotheses, golds, EntityMatcher(lexicon))
    return f1_from_counts(tp, fp, fn)


@dataclass(frozen=True)
class EvalReport:
    bleu: float  # x100 scale
    entity_f1: float  # x100 scale
    records: tuple[dict, ...]
    config: dict

    def to_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "entity_f1": self.entity_f1,
            "bleu_smoothing": BLEU_SMOOTHING,
            "config": self.config,
            "records": list(self.records),
        }


def save_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=1) + "\n", encoding="utf-8")


def format_report_table(report: EvalReport) -> str:
    lines = [
        f"{'metric':<12}{'value':>8}",
        f"{'-' * 20}",
        f"{'BLEU':<12}{report.bleu:>8.2f}",
        f"{'Entity F1':<12}{report.entity_f1:>8.2f}",
        f"{'samples':<12}{len(report.records):>8d}",
        f"{'refused':<12}{report.config['n_refused']:>8d}",
    ]
    return "\n".join(lines)


def generate_response(
    state: ModelState,
    sample: DialogueSample,
    vocab: Vocabulary,
    decoding: DecodingParams,
    train_cfg: TrainConfig,
    index: int,
) -> str:
    """Sample a response to one request, the ``index``-th of a run.

    The request samples with its own seed, derived from ``decoding.seed``
    and ``index``, so a run's responses do not depend on the order or the
    thread in which its requests are served. Triple selection, masking and
    the assembly limits come from ``train_cfg``. Raises
    ``SequenceTooLongError`` for a request the model cannot take.
    """
    params = replace(decoding, seed=int(np.random.SeedSequence([decoding.seed, index]).generate_state(1)[0]))
    seq, cols = build_sample_inputs(
        sample, vocab, state, train_cfg.k_entity, train_cfg.k_relation,
        train_cfg.use_kg_mask, train_cfg.limits, with_gold=False,
    )
    ids = sample_response(state, seq, compose_mask(seq, cols), params, vocab.eos_id)
    return " ".join(vocab.decode(ids))


def evaluate(
    state: ModelState,
    split: DatasetSplit,
    vocab: Vocabulary,
    lexicon: Sequence[str],
    decoding: DecodingParams,
    train_cfg: TrainConfig,
    hyp_from_gold: bool = False,
    threads: int = 1,
    max_samples: int | None = None,
) -> EvalReport:
    """Generate a response per sample, then score BLEU and entity F1.

    Sample ``i`` is request ``i`` of ``generate_response``, so results are
    stable under parallel evaluation and reordering. ``max_samples`` keeps
    the first samples of the split; None keeps all of them. A sample the
    model cannot take (``SequenceTooLongError``) is scored with an empty
    hypothesis, and its record carries the refusal message under
    ``"refused"``.
    """
    if max_samples is not None and max_samples < 0:
        raise ValueError(f"max_samples must be >= 0 or None, not {max_samples}")
    samples = split.samples if max_samples is None else split.samples[:max_samples]
    matcher = EntityMatcher(lexicon)

    def generate(idx: int) -> tuple[str, str | None]:
        """(hypothesis, refusal message or None) for one sample."""
        if hyp_from_gold:
            return samples[idx].gold_response, None
        try:
            return generate_response(state, samples[idx], vocab, decoding, train_cfg, idx), None
        except SequenceTooLongError as e:
            return "", str(e)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(generate, range(len(samples))))
    else:
        outcomes = [generate(i) for i in range(len(samples))]
    hyps = [h for h, _ in outcomes]

    golds = [s.gold_response for s in samples]
    bleus = [sentence_bleu(h.split(), g.split()) for h, g in zip(hyps, golds)]
    tp, fp, fn, per_sample = entity_counts(hyps, golds, matcher)

    records = tuple(
        {
            "id": s.id,
            "question": s.question,
            "gold": g,
            "hypothesis": h,
            "bleu": b,
            "gold_entities": ents[0],
            "predicted_entities": ents[1],
            **({"refused": refused} if refused is not None else {}),
        }
        for s, g, (h, refused), b, ents in zip(samples, golds, outcomes, bleus, per_sample)
    )
    config = {
        "k_entity": train_cfg.k_entity,
        "k_relation": train_cfg.k_relation,
        "use_kg_mask": train_cfg.use_kg_mask,
        "temperature": decoding.temperature,
        "top_k": decoding.top_k,
        "top_p": decoding.top_p,
        "max_response_length": decoding.max_response_length,
        "seed": decoding.seed,
        "hyp_from_gold": hyp_from_gold,
        "split": split.name,
        "n_samples": len(samples),
        "n_refused": sum(refused is not None for _, refused in outcomes),
    }
    return EvalReport(
        bleu=100.0 * float(np.mean(bleus)) if bleus else 0.0,
        entity_f1=100.0 * f1_from_counts(tp, fp, fn),
        records=records,
        config=config,
    )
