"""The four benchmark workloads: train, chat, ground and eval.

Every workload has a ``setup`` (the program's own set-up calls, repeated to
time them), a ``run`` (the timed region: one process, one closed-loop client
that sends each request after the previous one returned) and a ``check``
(outside the timed region). They call the package through module attributes,
in the same order as the matching ``kgdialog.cli`` command, so the tracer sees
each call at the attribute its caller resolves.

The generator fixes how much work a run holds; ``run(ctx, n)`` does the
first ``n`` units of it (requests, samples, or epochs on train), all of it by
default, and calls ``mark(i)`` as request ``i`` starts where requests are sent
one by one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgdialog import checkpoint, corpus, evaluation, masking, model, sequence, training
from kgdialog.cli import RunConfig

import checks
from gen import GROUND_QUESTIONS_PER_GRAPH, GROUND_TRIPLES

CHAT_MAX_RESPONSE = 32
EVAL_MAX_RESPONSE = 8
CHAT_CHECKS = 6
EVAL_CHECKS = 8
GROUND_CHECKS = 20

# Keys the CLI takes from the checkpoint's run config unless given as flags.
CHAT_SAVED_KEYS = ("k_entity", "k_relation", "temperature", "top_k", "top_p", "max_response_length")
EVAL_SAVED_KEYS = ("k_entity", "k_relation", "use_kg_mask", "temperature", "top_k", "top_p",
                   "max_response_length", "max_knowledge_tokens", "max_history_tokens",
                   "max_history_turns", "context_limit")
INSPECT_SAVED_KEYS = ("k_entity", "k_relation")

# What a request may raise when the program refuses its input. Each counts
# as a failed operation; nothing is filtered out of the generated inputs.
REFUSALS = (ValueError, IndexError, FloatingPointError)


@dataclass
class Result:
    """What one timed run produced; ``latencies_ms`` and ``tokens`` are per
    request, and ``block`` is the number of consecutive requests that hold
    the same mix of work (0: the run is one block)."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    matched: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    block: int = 0
    records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def refused(self, start: float) -> None:
        """A refused request: failed, and its time to refusal kept as its latency."""
        self.failed += 1
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        self.tokens.append(0)

    def count_check(self, ok: bool) -> None:
        self.checked += 1
        self.matched += ok
        self.failed += not ok


def _model_config(header: dict, overrides: dict, saved_keys: tuple[str, ...]) -> RunConfig:
    """RunConfig as the CLI resolves it: flags, then the checkpoint's run config."""
    cfg = RunConfig(**overrides)
    saved = header.get("run_config", {})
    for key in saved_keys:
        if key not in overrides and key in saved:
            setattr(cfg, key, saved[key])
    return cfg


def _load_model(work: Path):
    vocab = sequence.load_vocab(work / "vocab.txt")
    state, header = checkpoint.load_checkpoint(work / "model.ckpt", expect_vocab_sha=sequence.vocab_sha256(vocab))
    return vocab, state, header


def _spread(n: int, k: int) -> set[int]:
    """``k`` indices evenly spaced over ``range(n)``, 0 included."""
    return set(range(n)) if n <= k else {int(i * n / k) for i in range(k)}


def _no_mark(i: int) -> None:
    pass


def _decode_seed(seed: int, index: int) -> int:
    """Per-request sampling seed, derived as ``cmd_chat`` and ``evaluate`` derive it."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# --- train ---------------------------------------------------------------------


class Train:
    """One ``training.train`` call, then ``save_history`` and ``save_checkpoint``."""

    name = "train"

    def setup(self, work: Path):
        cfg = RunConfig(**json.loads((work / "config.json").read_text(encoding="utf-8")))
        train_split = corpus.load_dataset(work / "train.json", "train")
        valid_split = corpus.load_dataset(work / "valid.json", "valid")
        vocab = sequence.build_vocab([train_split, valid_split], min_freq=cfg.min_freq)
        # a fresh output directory per set-up, as for a new `kgdialog train
        # --out`: overwriting a file costs a truncation that a first write does not
        out = Path(tempfile.mkdtemp(prefix="run-", dir=work))
        sequence.save_vocab(vocab, out / "vocab.txt")
        return dict(cfg=cfg, train=train_split, valid=valid_split, vocab=vocab,
                    vsha=sequence.vocab_sha256(vocab), out=out)

    def size(self, ctx) -> int:
        return ctx["cfg"].epochs

    def run(self, ctx, n: int | None = None, mark=_no_mark) -> Result:
        cfg: RunConfig = ctx["cfg"]
        tcfg = dataclasses.replace(cfg.train_config(), epochs=n or cfg.epochs)
        model_cfg = cfg.model_config(len(ctx["vocab"]))
        out = ctx["out"]
        t0 = time.perf_counter()
        state, history = training.train(ctx["train"], ctx["valid"], ctx["vocab"], model_cfg, tcfg)
        training.save_history(history, out / "history.csv")
        checkpoint.save_checkpoint(out / "model.ckpt", state, ctx["vsha"], dataclasses.asdict(cfg))
        res = Result(wall_s=time.perf_counter() - t0, attempted=len(ctx["train"]) * tcfg.epochs)
        res.extra = dict(state=state, history=history, tcfg=tcfg, model_cfg=model_cfg)
        return res

    def check(self, ctx, res: Result) -> None:
        x = res.extra
        tcfg = x["tcfg"]
        losses = [v for row in x["history"] for v in (row["train_loss"], row["valid_loss"])]
        initial = training.dataset_loss(ctx["valid"], ctx["vocab"], model.init_model(x["model_cfg"], tcfg.seed), tcfg)
        final = x["history"][-1]["valid_loss"]
        loaded, _ = checkpoint.load_checkpoint(ctx["out"] / "model.ckpt", expect_vocab_sha=ctx["vsha"])
        saved = x["state"].params
        round_trip = loaded.params.keys() == saved.keys() and all(
            loaded.params[k].tobytes() == saved[k].astype("<f4").tobytes() for k in saved)
        for ok in (all(math.isfinite(v) for v in losses), final < initial, round_trip):
            res.count_check(ok)
        if res.matched < res.checked:
            res.failed = res.attempted
        res.extra.update(valid_loss=final, initial_loss=initial)
        # trained tokens: assembled sample lengths, gold included, over every epoch
        res.tokens = [tcfg.epochs * sum(
            sequence.assemble_input(sequence.linearize_graph(s.graph), s.history, s.question,
                                    s.gold_response, ctx["vocab"], tcfg.limits).n
            for s in ctx["train"].samples)]


# --- chat ----------------------------------------------------------------------


class Chat:
    """One chat session per dialogue of the file, its user turns sent in order,
    the history carried as ``cmd_chat`` carries it."""

    name = "chat"

    def setup(self, work: Path):
        vocab, state, header = _load_model(work)
        cfg = _model_config(header, {"max_response_length": CHAT_MAX_RESPONSE}, CHAT_SAVED_KEYS)
        split = corpus.load_dataset(work / "chat.json", "test")
        # (graph, question, turn index within its session)
        requests = [(s.graph, s.question, len(s.history) // 2) for s in split.samples]
        return dict(cfg=cfg, vocab=vocab, state=state, requests=requests)

    def size(self, ctx) -> int:
        return len(ctx["requests"])

    def run(self, ctx, n: int | None = None, mark=_no_mark) -> Result:
        cfg: RunConfig = ctx["cfg"]
        vocab, state, limits = ctx["vocab"], ctx["state"], cfg.limits()
        res = Result()
        history: list[corpus.DialogueTurn] = []
        turn_index = 0
        t0 = time.perf_counter()
        for i, (graph, question, turn) in enumerate(ctx["requests"][:n]):
            if turn == 0:  # a new session over this dialogue's graph
                history, turn_index = [], 0
            res.attempted += 1
            mark(i)
            r0 = time.perf_counter()
            sample = corpus.DialogueSample(id="chat#0", domain="chat", graph=graph, history=tuple(history),
                                           question=question, gold_response="")
            params = model.DecodingParams(temperature=cfg.temperature, top_k=cfg.top_k, top_p=cfg.top_p,
                                          max_response_length=cfg.max_response_length,
                                          seed=_decode_seed(cfg.decode_seed, turn_index))
            try:
                seq, cols = training.build_sample_inputs(sample, vocab, state, cfg.k_entity, cfg.k_relation,
                                                         cfg.use_kg_mask, limits, with_gold=False)
                ids = model.sample_response(state, seq, masking.compose_mask(seq, cols), params, vocab.eos_id)
                response = " ".join(vocab.decode(ids))
            except REFUSALS:
                res.refused(r0)
                continue
            res.latencies_ms.append((time.perf_counter() - r0) * 1e3)
            res.tokens.append(len(ids))
            res.records.append((sample, params, ids))
            history.append(corpus.DialogueTurn(corpus.USER, question))
            history.append(corpus.DialogueTurn(corpus.SYSTEM, response or "..."))
            turn_index += 1
        res.wall_s = time.perf_counter() - t0
        return res

    def check(self, ctx, res: Result) -> None:
        cfg, vocab, state = ctx["cfg"], ctx["vocab"], ctx["state"]
        for i in sorted(_spread(len(res.records), CHAT_CHECKS)):
            sample, params, ids = res.records[i]
            seq, cols = training.build_sample_inputs(sample, vocab, state, cfg.k_entity, cfg.k_relation,
                                                     cfg.use_kg_mask, cfg.limits(), with_gold=False)
            mask = masking.compose_mask(seq, cols)
            repeat = model.sample_response(state, seq, mask, params, vocab.eos_id)
            greedy = model.sample_response(state, seq, mask, dataclasses.replace(params, top_k=1), vocab.eos_id)
            res.count_check(repeat == ids and checks.greedy_matches(
                state, seq, cols, greedy, cfg.max_response_length, vocab.eos_id))


# --- ground --------------------------------------------------------------------


def _interleave(samples: list, graphs: int, questions: int) -> list:
    """Within each block of ``graphs`` graphs of ``questions`` questions each,
    question j of every graph before question j + 1 of any, as the questions
    of concurrent users on different graphs would arrive. Each graph's
    requests then span the whole block, so the tail of the latencies (the
    largest graphs) is measured over the block's time and not over the
    quarter second one graph takes. Samples past the last whole block keep
    their order."""
    size = graphs * questions
    whole = len(samples) - len(samples) % size
    order = [b + g * questions + j for b in range(0, whole, size) for j in range(questions) for g in range(graphs)]
    return [samples[i] for i in order] + samples[whole:]


class Ground:
    """The pre-generation half of a request, ``build_sample_inputs`` then
    ``compose_mask``, on single-turn requests as ``inspect --dump-mask`` makes them."""

    name = "ground"

    def setup(self, work: Path):
        vocab, state, header = _load_model(work)
        cfg = _model_config(header, {}, INSPECT_SAVED_KEYS)
        split = corpus.load_dataset(work / "ground.json", "test")
        requests = _interleave([dataclasses.replace(s, history=()) for s in split.samples],
                               len(GROUND_TRIPLES), GROUND_QUESTIONS_PER_GRAPH)
        return dict(cfg=cfg, vocab=vocab, state=state, requests=requests)

    def size(self, ctx) -> int:
        return len(ctx["requests"])

    def run(self, ctx, n: int | None = None, mark=_no_mark) -> Result:
        cfg: RunConfig = ctx["cfg"]
        vocab, state, limits = ctx["vocab"], ctx["state"], cfg.limits()
        requests = ctx["requests"][:n]
        keep = _spread(len(requests), GROUND_CHECKS)
        # the generator uses every graph size once per block of graphs
        res = Result(block=len(GROUND_TRIPLES) * GROUND_QUESTIONS_PER_GRAPH)
        t0 = time.perf_counter()
        for i, sample in enumerate(requests):
            res.attempted += 1
            mark(i)
            r0 = time.perf_counter()
            try:
                seq, cols = training.build_sample_inputs(sample, vocab, state, cfg.k_entity, cfg.k_relation,
                                                         cfg.use_kg_mask, limits, with_gold=False)
                mask = masking.compose_mask(seq, cols)
            except REFUSALS:
                res.refused(r0)
                continue
            res.latencies_ms.append((time.perf_counter() - r0) * 1e3)
            res.tokens.append(seq.n)
            if i in keep:
                res.records.append((sample, seq, mask))
        res.wall_s = time.perf_counter() - t0
        return res

    def check(self, ctx, res: Result) -> None:
        cfg, vocab, table = ctx["cfg"], ctx["vocab"], ctx["state"].params["tok_emb"]
        for sample, seq, mask in res.records:
            ok = checks.grounding_matches(mask.values, seq, sample.graph, sample.question, vocab, table,
                                          cfg.k_entity, cfg.k_relation)
            if ok is not None:  # None: a tie at the k-th weight, where either selection is right
                res.count_check(ok)


# --- eval ----------------------------------------------------------------------


class Eval:
    """One offline ``evaluation.evaluate`` call, greedy, answer-length responses."""

    name = "eval"

    def setup(self, work: Path):
        vocab, state, header = _load_model(work)
        cfg = _model_config(header, {"top_k": 1, "max_response_length": EVAL_MAX_RESPONSE}, EVAL_SAVED_KEYS)
        split = corpus.load_dataset(work / "test.json", "test")
        lexicon = corpus.entity_lexicon([split])
        return dict(cfg=cfg, vocab=vocab, state=state, split=split, lexicon=lexicon)

    def size(self, ctx) -> int:
        return len(ctx["split"])

    def run(self, ctx, n: int | None = None, mark=_no_mark) -> Result:
        cfg: RunConfig = ctx["cfg"]
        split = corpus.DatasetSplit(ctx["split"].name, ctx["split"].samples[:n])
        res = Result(attempted=len(split))
        t0 = time.perf_counter()
        try:
            report = evaluation.evaluate(ctx["state"], split, ctx["vocab"], ctx["lexicon"], cfg.decoding(),
                                         cfg.train_config(), threads=cfg.threads)
        except REFUSALS:
            report = None
        res.wall_s = time.perf_counter() - t0
        if report is None:
            res.failed = res.attempted
            return res
        res.tokens = [len(r["hypothesis"].split()) for r in report.records]
        res.records = [(split.samples[i], r["hypothesis"]) for i, r in enumerate(report.records)]
        return res

    def check(self, ctx, res: Result) -> None:
        cfg, vocab, state = ctx["cfg"], ctx["vocab"], ctx["state"]
        decoding = cfg.decoding()
        for i in sorted(_spread(len(res.records), EVAL_CHECKS)):
            sample, hyp = res.records[i]
            seq, cols = training.build_sample_inputs(sample, vocab, state, cfg.k_entity, cfg.k_relation,
                                                     cfg.use_kg_mask, cfg.limits(), with_gold=False)
            ids = vocab.encode(hyp.split())
            params = dataclasses.replace(decoding, seed=_decode_seed(decoding.seed, i))
            repeat = model.sample_response(state, seq, masking.compose_mask(seq, cols), params, vocab.eos_id)
            res.count_check(repeat == ids and checks.greedy_matches(
                state, seq, cols, ids, decoding.max_response_length, vocab.eos_id))


WORKLOADS = {w.name: w for w in (Train(), Chat(), Ground(), Eval())}
