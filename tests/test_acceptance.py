"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end criteria train three models on a shared 2000-dialogue
synthetic corpus (full system plus two ablations), so this module is the
slow part of the suite; run it with ``pytest tests/test_acceptance.py -v -s``
to watch per-criterion progress. The two ablations train at the same time,
one worker process each.
"""

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from kgdialog.cli import main
from kgdialog.corpus import (
    SynthConfig,
    build_graph,
    entity_lexicon,
    expand_dialogues,
    synthetic_dialogues,
)
from kgdialog.evaluation import EntityMatcher, entity_counts, entity_f1, evaluate, f1_from_counts, sentence_bleu
from kgdialog.graph_weights import (
    Selection,
    TokenEmbedder,
    compute_weighted_graph,
    feature_vector,
    propagate,
    select_topk,
    softmax,
)
from kgdialog.masking import NEG_INF, compose_mask, knowledge_column_mask, unmasked_columns
from kgdialog.model import (
    DecodingParams,
    ModelConfig,
    backward,
    forward,
    init_model,
    loss,
)
from kgdialog.sequence import (
    SPECIAL_TOKENS,
    AssemblyLimits,
    Vocabulary,
    assemble_input,
    build_vocab,
    graph_index,
    linearize_graph,
)
from kgdialog.training import TrainConfig, train

from oracles import finite_diff_grads, naive_graph_pipeline

# End-to-end settings: optimizer values fixed by the training contract
# (lr 6.25e-5, batch 4, grad accumulation 4, k_entity = k_relation = 7);
# the remaining knobs are the artifact's synthetic-run configuration.
E2E = dict(
    n_dialogues=2000,
    n_subjects=5,
    n_relations=4,
    model=dict(d_model=128, n_heads=4, n_layers=2, d_ff=512, dropout=0.0),
    limits=AssemblyLimits(max_history_turns=1),
    epochs=18,
    seed=13,
    weight_decay=0.0,
    beta2=0.95,
)
GREEDY = DecodingParams(temperature=0.68, top_k=1, top_p=0.9, max_response_length=24, seed=7)
TIME_BUDGET_S = 900.0


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def corpus():
    dialogues = synthetic_dialogues(
        SynthConfig(
            n_dialogues=E2E["n_dialogues"],
            n_subjects_per_graph=E2E["n_subjects"],
            n_relations=E2E["n_relations"],
            seed=7,
        )
    )
    n_tr = E2E["n_dialogues"] * 8 // 10
    n_va = E2E["n_dialogues"] // 10
    train_split = expand_dialogues(dialogues[:n_tr], "train")
    valid_split = expand_dialogues(dialogues[n_tr : n_tr + n_va], "valid")
    test_split = expand_dialogues(dialogues[n_tr + n_va :], "test")
    vocab = build_vocab([train_split, valid_split])
    lexicon = entity_lexicon([train_split, valid_split, test_split])
    return train_split, valid_split, test_split, vocab, lexicon


def _train_variant(corpus, use_kg_mask=True, use_struct_emb=True):
    train_split, valid_split, _, vocab, _ = corpus
    mcfg = ModelConfig(
        vocab_size=len(vocab),
        use_entity_emb=use_struct_emb,
        use_triple_emb=use_struct_emb,
        **E2E["model"],
    )
    tcfg = TrainConfig(
        epochs=E2E["epochs"],
        seed=E2E["seed"],
        weight_decay=E2E["weight_decay"],
        beta2=E2E["beta2"],
        limits=E2E["limits"],
        use_kg_mask=use_kg_mask,
    )
    started = time.time()
    state, history = train(train_split, valid_split, vocab, mcfg, tcfg)
    return state, tcfg, time.time() - started, history


@pytest.fixture(scope="session")
def full_system(corpus):
    return _train_variant(corpus)


@pytest.fixture(scope="session")
def full_report(corpus, full_system):
    _, _, test_split, vocab, lexicon = corpus
    state, tcfg, train_seconds, _ = full_system
    started = time.time()
    report = evaluate(state, test_split, vocab, lexicon, GREEDY, tcfg)
    return report, train_seconds + (time.time() - started)


def test_paper_scale_exclusion_documented():
    # Full-benchmark numbers depend on large pretrained models and multi-GPU
    # training, both out of scope by design; the remaining criteria are the
    # property-based substitutes. Nothing to execute here beyond the record.
    announce("paper-scale-exclusion", True, "benchmark-scale results excluded by design; property checks below")


def test_relation_weight_oracle_equivalence(rng):
    started = time.time()
    worst = 0.0
    checked = 0
    for trial in range(200):
        n_subj = int(rng.integers(1, 3))
        n_rel = int(rng.integers(1, 3))
        triples = []
        for i in range(n_subj):
            for j in range(n_rel):
                if rng.random() < 0.85 or not triples:
                    triples.append((f"s{i}", f"r{j}", f"o{i}{j}"))
        g = build_graph([list(t) for t in triples])
        if g.n_entities + g.n_relations > 8:
            continue
        words = sorted({w for t in triples for part in t for w in part.split()} | {"ask", "q"})
        tokens = SPECIAL_TOKENS + tuple(words)
        vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
        table = np.random.default_rng(trial).normal(size=(len(tokens), 12))
        emb = TokenEmbedder(vocab, table)
        question = f"ask q s0 r0"

        bg = graph_index(g)
        x = feature_vector(bg, question, emb)
        got = softmax(propagate(bg, x)[bg.n_entities :])

        rows = {t: list(table[vocab.token_to_id[t]]) for t in tokens}
        _, rels, _, rw = naive_graph_pipeline(list(triples), question, rows, 12)
        for i, surf in enumerate(rels):
            rid = next(r.id for r in g.relations if r.surface == surf)
            worst = max(worst, abs(got[rid] - rw[i]))
        checked += 1
    elapsed = time.time() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    announce("relation-weight-oracle", ok, f"{checked} graphs, max |delta| {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_mask_correctness_randomized(rng):
    graph = build_graph(
        [["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"], ["s3", "r2", "o4"], ["s3", "r1", "o5"]]
    )
    words = sorted({e.surface for e in graph.entities} | {r.surface for r in graph.relations} | {"q", "?"})
    tokens = SPECIAL_TOKENS + tuple(" ".join(words).split())
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
    seq = assemble_input(linearize_graph(graph), [], "q ?", None, vocab, AssemblyLimits())

    checked = 0
    for _ in range(500):
        ents = frozenset(rng.choice(8, size=int(rng.integers(0, 8)), replace=False).tolist())
        rels = frozenset(rng.choice(2, size=int(rng.integers(0, 3)) % 3, replace=False).tolist())
        extra = Selection(ents | {int(rng.integers(0, 8))}, rels | {int(rng.integers(0, 2))})
        base_sel = Selection(ents, rels)
        pad = int(rng.integers(0, 5))
        cols = knowledge_column_mask(seq, base_sel, graph)
        mask = compose_mask(seq, cols, pad_len=pad)

        scores = (rng.normal(size=mask.values.shape) * 10).astype(np.float32)
        z = scores + mask.values
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        assert (p[mask.values == NEG_INF] == 0.0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert ((mask.values == 0).sum(axis=1) >= 1).all()

        # monotonicity: enlarging the selection never hides a visible key
        rule_fires = any(
            (t.subject in ents or t.object in ents) and t.relation in rels for t in graph.triples
        )
        if rule_fires:
            cols_big = knowledge_column_mask(seq, extra, graph)
            assert ((cols == 0) <= (cols_big == 0)).all()
        checked += 1
    announce("mask-correctness", True, f"{checked} randomized selection/sequence pairs")


def test_gradient_check_tiny_model(rng):
    started = time.time()
    graph = build_graph([["s1", "r1", "o1"], ["s2", "r2", "o2"]])
    words = sorted({"s1", "s2", "r1", "r2", "o1", "o2", "what", "is", "?", "it", "fine"})
    tokens = SPECIAL_TOKENS + tuple(words)
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
    seq = assemble_input(linearize_graph(graph), [], "what is s1 ?", "it is o1 fine", vocab, AssemblyLimits())

    cfg = ModelConfig(vocab_size=50, d_model=16, n_heads=2, n_layers=1, d_ff=32,
                      dropout=0.0, max_entity_ids=8, max_triple_ids=8, max_positions=64)
    state = init_model(cfg, seed=2, dtype=np.float64)
    emb = TokenEmbedder(vocab, np.random.default_rng(0).normal(size=(len(vocab), 8)))
    sel = select_topk(compute_weighted_graph(graph, "what is s1 ?", emb), 2, 1)
    mask = compose_mask(seq, knowledge_column_mask(seq, sel, graph))

    _, grads = backward(state, seq, mask)

    def loss_fn():
        value, _ = loss(forward(seq, mask, state), seq)
        return value

    names = list(state.params)
    picks = []
    for _ in range(220):
        name = names[int(rng.integers(len(names)))]
        picks.append((name, int(rng.integers(state.params[name].size))))
    numeric = finite_diff_grads(loss_fn, state.params, picks, step=1e-5)
    worst = 0.0
    for (name, idx), num in zip(picks, numeric):
        ana = grads[name].flat[idx]
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-6))
    elapsed = time.time() - started
    ok = worst <= 1e-3 and elapsed < 120.0
    announce("gradient-check", ok, f"{len(picks)} params, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 120.0


def test_causality_and_mask_isolation():
    graph = build_graph([["s1", "r1", "o1"], ["s1", "r2", "o2"], ["s2", "r1", "o3"]])
    words = sorted({e.surface for e in graph.entities} | {r.surface for r in graph.relations}
                   | {"what", "is", "the", "of", "?", "fine"})
    tokens = SPECIAL_TOKENS + tuple(words)
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
    seq = assemble_input(linearize_graph(graph), [], "what is the r1 of s1 ?", "it is fine", vocab, AssemblyLimits())
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=2, n_layers=2, d_ff=64,
                      dropout=0.0, max_entity_ids=8, max_triple_ids=8, max_positions=64)
    state = init_model(cfg, seed=5)

    full = compose_mask(seq, unmasked_columns(seq))
    base = forward(seq, full, state)
    for j in (1, seq.knowledge_end, seq.question_start, seq.n - 2):
        perturbed = dataclasses.replace(seq, token_ids=seq.token_ids.copy())
        perturbed.token_ids[j] = (perturbed.token_ids[j] + 1) % len(vocab)
        after = forward(perturbed, full, state)
        assert np.array_equal(base[:j], after[:j]), f"causality broken at {j}"

    sel = Selection(frozenset({0, 1}), frozenset({0}))
    cols = knowledge_column_mask(seq, sel, graph)
    masked_ids = [t for t, (a, b) in seq.triple_spans.items() if (cols[a:b] == NEG_INF).all()]
    assert masked_ids
    mask = compose_mask(seq, cols)
    base = forward(seq, mask, state)
    perturbed = dataclasses.replace(seq, token_ids=seq.token_ids.copy())
    for t in masked_ids:
        a, b = seq.triple_spans[t]
        for p in range(a, b):
            perturbed.token_ids[p] = (perturbed.token_ids[p] + 2) % len(vocab)
    after = forward(perturbed, mask, state)
    rs = seq.response_start
    assert np.array_equal(base[rs - 1 :], after[rs - 1 :])
    announce("causality-and-mask-isolation", True, "bit-identical prefixes and response logits")


def test_end_to_end_synthetic_task(corpus, full_report):
    report, elapsed = full_report
    f1 = report.entity_f1 / 100.0
    ok = f1 >= 0.90 and elapsed <= TIME_BUDGET_S
    announce("end-to-end-synthetic", ok, f"held-out entity F1 {f1:.3f}, train+eval {elapsed:.0f}s")
    assert f1 >= 0.90, f"entity F1 {f1:.3f} < 0.90"
    assert elapsed <= TIME_BUDGET_S, f"{elapsed:.0f}s over budget"


@pytest.fixture(scope="session")
def ablations(corpus):
    """Both ablations, trained in spawned worker processes, two at once where two CPUs are free."""
    variants = {"no_struct_emb": dict(use_struct_emb=False), "no_mask": dict(use_kg_mask=False)}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(len(variants), cpus), mp_context=ctx) as pool:
        futures = {name: pool.submit(_train_variant, corpus, **kw) for name, kw in variants.items()}
        return {name: f.result() for name, f in futures.items()}


@pytest.fixture(scope="session")
def ablation_no_struct_emb(ablations):
    return ablations["no_struct_emb"]


@pytest.fixture(scope="session")
def ablation_no_mask(ablations):
    return ablations["no_mask"]


def test_ablation_directionality(corpus, full_report, ablation_no_struct_emb, ablation_no_mask):
    _, _, test_split, vocab, lexicon = corpus
    full_f1 = full_report[0].entity_f1

    state_e, tcfg_e, _, _ = ablation_no_struct_emb
    report_e = evaluate(state_e, test_split, vocab, lexicon, GREEDY, tcfg_e)
    state_m, tcfg_m, _, _ = ablation_no_mask
    report_m = evaluate(state_m, test_split, vocab, lexicon, GREEDY, tcfg_m)

    drop_e = full_f1 - report_e.entity_f1
    drop_m = full_f1 - report_m.entity_f1
    ok = drop_e >= 5.0 and drop_m >= 5.0
    announce(
        "ablation-directionality", ok,
        f"full {full_f1:.1f}; no-entity/triple-emb {report_e.entity_f1:.1f} (drop {drop_e:.1f}); "
        f"no-kg-mask {report_m.entity_f1:.1f} (drop {drop_m:.1f})",
    )
    assert drop_e >= 5.0
    assert drop_m >= 5.0


def test_topk_sensitivity_shape(corpus, full_system):
    _, _, test_split, vocab, lexicon = corpus
    state, tcfg, _, _ = full_system
    big = 10**9
    grid = {}
    for ke in (1, 3, big):
        for kr in (1, 3, big):
            cfg = dataclasses.replace(tcfg, k_entity=ke, k_relation=kr)
            rep = evaluate(state, test_split, vocab, lexicon, GREEDY, cfg, max_samples=160)
            grid[(ke, kr)] = rep.entity_f1
    label = {1: "1", 3: "3", big: "all"}
    pretty = {f"{label[a]}/{label[b]}": round(v, 1) for (a, b), v in grid.items()}
    best = max(grid.values())
    restricted_best = max(v for (a, b), v in grid.items() if a != big or b != big)
    ok = grid[(1, 1)] < best and grid[(big, big)] <= restricted_best
    announce("topk-sensitivity", ok, f"grid {pretty}")
    assert grid[(1, 1)] < best, "k=1 should be strictly worse than the best grid point"
    assert grid[(big, big)] <= restricted_best, "all/all should not beat the best restricted pair"


def test_metric_unit_suite():
    sent = "a b c d e f g h i j".split()
    identity = sentence_bleu(sent, sent)
    hand = entity_f1(["b c"], ["a b"], ["a", "b", "c"])

    lex = ["a", "b", "c", "d"]
    m = EntityMatcher(lex)
    h1, g1 = ["a b"], ["a c"]
    h2, g2 = ["d", "c d"], ["d b", "c"]
    tp1, fp1, fn1, _ = entity_counts(h1, g1, m)
    tp2, fp2, fn2, _ = entity_counts(h2, g2, m)
    combined = entity_f1(h1 + h2, g1 + g2, lex)
    consistent = combined == f1_from_counts(tp1 + tp2, fp1 + fp2, fn1 + fn2)

    ok = identity == 1.0 and hand == 0.5 and consistent
    announce("metric-units", ok, f"BLEU identity {identity}, hand F1 {hand}, micro-consistency {consistent}")
    assert identity == 1.0
    assert hand == 0.5
    assert consistent


def test_cmd_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    data = base / "data"
    main(["synth", "--out", str(data), "--n", "12", "--subjects", "2", "--relations", "2", "--seed", "5"])

    ckpts = []
    common = [
        "--data", str(data), "--quiet", "--epochs", "2", "--d-model", "32",
        "--n-heads", "2", "--n-layers", "1", "--d-ff", "64", "--dropout", "0.1",
        "--max-entity-ids", "8", "--max-triple-ids", "8", "--k-entity", "2",
        "--k-relation", "2", "--seed", "3",
    ]
    for name in ("a", "b"):
        out = base / name
        assert main(["train", "--out", str(out)] + common) == 0
        ckpts.append((out / "model.ckpt").read_bytes())
    ckpt_ok = ckpts[0] == ckpts[1]

    reports = []
    for name in ("ra.json", "rb.json"):
        path = base / name
        assert main([
            "eval", "--ckpt", str(base / "a" / "model.ckpt"), "--data", str(data),
            "--split", "test", "--report", str(path), "--max-response-length", "8",
        ]) == 0
        reports.append(path.read_text())
    report_ok = reports[0] == reports[1]

    ok = ckpt_ok and report_ok
    announce("determinism", ok, f"checkpoints byte-identical {ckpt_ok}, reports identical {report_ok}")
    assert ckpt_ok
    assert report_ok
