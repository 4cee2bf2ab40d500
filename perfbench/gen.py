"""Seeded input generator for the kgdialog benchmark.

Writes the files one workload reads, and nothing else; the workloads never
see the seed. The same (workload, seed, seconds) always yields byte-identical
files.

    python3 perfbench/gen.py --workload chat --seed 1 --seconds 10 --out DIR

Files per workload:
  train   train.json, valid.json        synthetic corpus, 5 subjects x 4 relations
  chat    chat.json, vocab.txt, model.ckpt   synthetic graphs of 5x4 to 8x4 triples
  ground  ground.json, vocab.txt, model.ckpt   80-500 triples per graph
  eval    test.json, vocab.txt, model.ckpt     graphs that overfill the knowledge budget

The checkpoint is a random-init model at the `kgdialog train` defaults (with
a gain on the attention and feed-forward matrices, see INIT_GAIN), written
with the package's own save_checkpoint / save_vocab.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kgdialog import corpus, model  # noqa: E402
from kgdialog.checkpoint import save_checkpoint  # noqa: E402
from kgdialog.cli import RunConfig  # noqa: E402
from kgdialog.sequence import build_vocab, save_vocab, vocab_sha256  # noqa: E402

WORKLOADS = ("train", "chat", "ground", "eval")

# How much work a run holds is a function of --seconds only, never of machine
# speed, so two commits measured with the same settings do identical work.
# The rates are those of the seed code on a 2-core x86 box with one BLAS
# thread and the benchmark's malloc settings; at them a run takes about
# --seconds.
TRAIN_DIALOGUES = 100  # about 200 samples, plus a valid split of a tenth
TRAIN_SAMPLE_EPOCHS_PER_S = 190
CHAT_REQUESTS_PER_S = 15
GROUND_REQUESTS_PER_S = 140
EVAL_SAMPLES_PER_S = 20
MIN_REQUESTS = 100  # so that at least ten requests lie beyond p90

# Every chat session has the same length, so each run holds the same mix of
# history lengths; by the third turn the history budget of four turns is full.
CHAT_TURNS = 4
CHAT_SUBJECTS = range(5, 9)  # x 4 relations
GROUND_QUESTIONS_PER_GRAPH = 20
# Triples per graph. Each size is used once per block of graphs, and runs
# hold whole blocks.
GROUND_TRIPLES = range(80, 501, 30)
EVAL_TRIPLES = range(100, 141, 5)

# The weights do not follow the workload seed: output lengths depend on
# them (this random-init model almost never samples [EOS], so responses run
# to max_response_length), and the seed should change the inputs, not the
# amount of work.
MODEL_SEED = 13

# At the default init scale (std 0.02) attention and the feed-forward are too
# weak to move the tied output head: greedy decoding repeats the last input
# token whatever the context, and the output checks could not see a masking
# or decoding fault. This gain on their weight matrices makes every output
# depend on the whole masked context; the cost per token does not change.
INIT_GAIN = 8.0

# Bounded word pools keep the vocabulary in the hundreds.
POOL_RELATIONS = 40
POOL_WORDS = 300
CONSONANTS, VOWELS = "bdfgklmnprstvz", "aeiou"


def _whole_blocks(units: float, block: int, minimum: int) -> int:
    """``units`` rounded to whole blocks, at least ``minimum`` units."""
    return max(round(units / block), math.ceil(minimum / block), 1) * block


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")


def _pool(rng: np.random.Generator, count: int, syllables: int, used: set[str]) -> list[str]:
    """``count`` new pseudo-words of consonant-vowel syllables."""
    words: list[str] = []
    while len(words) < count:
        w = "".join(CONSONANTS[rng.integers(len(CONSONANTS))] + VOWELS[rng.integers(len(VOWELS))]
                    for _ in range(syllables))
        if w not in used:
            used.add(w)
            words.append(w)
    return words


def _large_graph(rng: np.random.Generator, relations: list[str], words: list[str], n_triples: int):
    """A graph of about ``n_triples`` triples, 3-6 relations per subject."""
    triples = []
    subjects: set[str] = set()
    while len(triples) < n_triples:
        subj = " ".join(words[i] for i in rng.choice(len(words), 2, replace=False))
        if subj in subjects:
            continue
        subjects.add(subj)
        n_rel = int(rng.integers(3, 7))
        for ri in rng.choice(len(relations), n_rel, replace=False):
            n_obj_words = int(rng.integers(1, 3))
            obj = " ".join(words[i] for i in rng.choice(len(words), n_obj_words, replace=False))
            triples.append([subj, relations[ri], obj])
    return triples


def _qa_turns(rng: np.random.Generator, triples: list, n_questions: int) -> list[dict]:
    turns = []
    for i in rng.choice(len(triples), n_questions, replace=len(triples) < n_questions):
        subj, rel, obj = triples[i]
        turns.append({"speaker": corpus.USER, "text": f"what is the {rel} of {subj} ?"})
        turns.append({"speaker": corpus.SYSTEM, "text": f"the {rel} of {subj} is {obj}"})
    return turns


def _stratified(rng: np.random.Generator, values, n: int) -> list[int]:
    """``n`` draws that cover ``values`` once per block, in seeded order.

    Any long enough prefix has nearly the same size mix whatever the seed, so
    the seed changes content and order but not how much work a run holds.
    """
    out: list[int] = []
    while len(out) < n:
        out += [int(v) for v in rng.permutation(values)]
    return out[:n]


def _large_dialogues(seed: int, tag: str, n_graphs: int, sizes: list[int], n_questions: int):
    rng = np.random.default_rng([seed, sum(map(ord, tag))])
    used: set[str] = set()
    relations = _pool(rng, POOL_RELATIONS, 2, used)
    words = _pool(rng, POOL_WORDS, 3, used)
    dialogues = []
    for g, n_triples in enumerate(_stratified(rng, sizes, n_graphs)):
        triples = _large_graph(rng, relations, words, n_triples)
        turns = _qa_turns(rng, triples, n_questions)
        dialogues.append({"id": f"{tag}-{g:05d}", "domain": tag, "kg": {"triples": triples}, "turns": turns})
    return dialogues


def _chat_dialogues(seed: int, n: int) -> list[dict]:
    """``n`` sessions over synthetic graphs of 5 to 8 subjects x 4 relations."""
    rng = np.random.default_rng([seed, 3])
    sizes = _stratified(rng, CHAT_SUBJECTS, n)
    made = {}
    for n_subj in CHAT_SUBJECTS:
        cfg = corpus.SynthConfig(n_dialogues=sizes.count(n_subj), n_subjects_per_graph=n_subj, n_relations=4,
                                 seed=seed * 16 + n_subj)
        made[n_subj] = iter(corpus.synthetic_dialogues(cfg))
    dialogues = []
    for i, n_subj in enumerate(sizes):
        d = next(made[n_subj])
        d["id"] = f"chat-{i:05d}"
        d["turns"] = _qa_turns(rng, d["kg"]["triples"], CHAT_TURNS)
        dialogues.append(d)
    return dialogues


def _write_model(out: Path, split: corpus.DatasetSplit) -> None:
    vocab = build_vocab([split])
    save_vocab(vocab, out / "vocab.txt")
    run_cfg = RunConfig()
    state = model.init_model(run_cfg.model_config(len(vocab)), MODEL_SEED)
    for name, arr in state.params.items():
        if ".attn.w" in name or ".ff.w" in name:
            arr *= INIT_GAIN
    save_checkpoint(out / "model.ckpt", state, vocab_sha256(vocab), dataclasses.asdict(run_cfg))


def generate(workload: str, seed: int, seconds: float, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "train":
        cfg = corpus.SynthConfig(n_dialogues=TRAIN_DIALOGUES + TRAIN_DIALOGUES // 10, seed=seed)
        dialogues = corpus.synthetic_dialogues(cfg)
        train = dialogues[:TRAIN_DIALOGUES]
        n_samples = len(corpus.expand_dialogues(train, "train"))
        epochs = max(2, round(seconds * TRAIN_SAMPLE_EPOCHS_PER_S / n_samples))
        _write_json(out / "train.json", {"dialogues": train})
        _write_json(out / "valid.json", {"dialogues": dialogues[TRAIN_DIALOGUES:]})
        _write_json(out / "config.json", {"epochs": epochs})  # a `kgdialog train --config` file
        return
    if workload == "chat":
        n = _whole_blocks(seconds * CHAT_REQUESTS_PER_S / CHAT_TURNS, len(CHAT_SUBJECTS), MIN_REQUESTS / CHAT_TURNS)
        dialogues = _chat_dialogues(seed, n)
        path = out / "chat.json"
    elif workload == "ground":
        n = _whole_blocks(seconds * GROUND_REQUESTS_PER_S / GROUND_QUESTIONS_PER_GRAPH, len(GROUND_TRIPLES),
                          MIN_REQUESTS / GROUND_QUESTIONS_PER_GRAPH)
        dialogues = _large_dialogues(seed, "ground", n, GROUND_TRIPLES, GROUND_QUESTIONS_PER_GRAPH)
        path = out / "ground.json"
    elif workload == "eval":
        # 100-140 triples linearize to well over the 384-token knowledge budget,
        # so every context is truncated to n ~ 390; one exchange per dialogue
        # keeps history out, so no sample exceeds the 412-token context limit.
        n = _whole_blocks(seconds * EVAL_SAMPLES_PER_S, len(EVAL_TRIPLES), 1)
        dialogues = _large_dialogues(seed, "eval", n, EVAL_TRIPLES, 1)
        path = out / "test.json"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(path, {"dialogues": dialogues})
    _write_model(out, corpus.expand_dialogues(dialogues, "test"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.seconds, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
