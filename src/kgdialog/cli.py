"""Command-line interface: synth, train, eval, inspect, chat.

Every configuration key has a default, can be set from a JSON config file
(``--config`` or the KGDIALOG_CONFIG environment variable), and can be
overridden by a flag of the same name. Exit codes: 0 success, 2 bad input
(a missing or malformed file, a bad flag, config value or synth setting, an
inspect question too long for the context, a corpus with no tokens), 3
vocabulary mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import corpus, evaluation, graph_weights, masking, training
from .checkpoint import CheckpointError, VocabMismatchError, load_checkpoint, save_checkpoint
from .corpus import SchemaError, SynthConfig, ValidationError
from .model import DecodingParams, ModelConfig, ModelState
from .sequence import (
    AssemblyLimits,
    EmptyCorpusError,
    SequenceTooLongError,
    Vocabulary,
    assemble_input,
    linearize_graph,
    build_vocab,
    load_vocab,
    save_vocab,
    vocab_sha256,
)

ENV_CONFIG = "KGDIALOG_CONFIG"


@dataclass
class RunConfig:
    # model
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 512
    max_positions: int = 512
    max_entity_ids: int = 64
    max_triple_ids: int = 128
    dropout: float = 0.1
    # input assembly budgets
    max_knowledge_tokens: int = 384
    max_history_tokens: int = 128
    max_history_turns: int = 4
    context_limit: int = 412
    # training
    lr: float = 6.25e-5
    adam_epsilon: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 4
    grad_accum_steps: int = 4
    epochs: int = 40
    seed: int = 13
    warmup_steps: int = 0
    min_freq: int = 1
    # triple selection and ablations
    k_entity: int = 7
    k_relation: int = 7
    use_kg_mask: bool = True
    use_entity_emb: bool = True
    use_triple_emb: bool = True
    use_type_emb: bool = True
    # decoding
    temperature: float = 0.68
    top_k: int = 6
    top_p: float = 0.9
    max_response_length: int = 100
    decode_seed: int = 7
    # runtime
    threads: int = 1

    def limits(self) -> AssemblyLimits:
        return AssemblyLimits(
            self.max_knowledge_tokens, self.max_history_tokens, self.max_history_turns, self.context_limit
        )

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            d_ff=self.d_ff,
            max_positions=self.max_positions,
            max_entity_ids=self.max_entity_ids,
            max_triple_ids=self.max_triple_ids,
            dropout=self.dropout,
            use_entity_emb=self.use_entity_emb,
            use_triple_emb=self.use_triple_emb,
            use_type_emb=self.use_type_emb,
        )

    def train_config(self) -> training.TrainConfig:
        return training.TrainConfig(
            lr=self.lr,
            adam_epsilon=self.adam_epsilon,
            weight_decay=self.weight_decay,
            batch_size=self.batch_size,
            grad_accum_steps=self.grad_accum_steps,
            epochs=self.epochs,
            seed=self.seed,
            warmup_steps=self.warmup_steps,
            k_entity=self.k_entity,
            k_relation=self.k_relation,
            use_kg_mask=self.use_kg_mask,
            limits=self.limits(),
        )

    def decoding(self) -> DecodingParams:
        return DecodingParams(
            temperature=self.temperature,
            top_k=self.top_k,
            top_p=self.top_p,
            max_response_length=self.max_response_length,
            seed=self.decode_seed,
        )


_ABLATIONS = {
    "no-kg-mask": {"use_kg_mask": False},
    "no-entity-emb": {"use_entity_emb": False},
    "no-triple-emb": {"use_triple_emb": False},
    "no-type-emb": {"use_type_emb": False},
    "seq2seq": {"use_entity_emb": False, "use_triple_emb": False, "use_type_emb": False, "use_kg_mask": False},
}


_FLAG_TYPES = {"int": int, "float": float, "bool": bool, "str": str}
# the JSON values a config file may give a field of each type; true and false are no numbers
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "bool": (bool, "true or false")}
_KINDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}  # config key -> type name


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file (default: $KGDIALOG_CONFIG)")
    parser.add_argument(
        "--ablation",
        default=None,
        help="comma list of " + ", ".join(sorted(_ABLATIONS)) + " (sugar over the use-* flags)",
    )
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction, default=None,
                                help=f"default: {f.default}")
        else:
            parser.add_argument(flag, dest=f.name, type=_FLAG_TYPES[f.type], default=None,
                                help=f"default: {f.default}")


def _typed_config(doc: dict, source: str) -> dict:
    """JSON config values checked against their ``RunConfig`` field types and converted.

    ``source`` (a config file or checkpoint) begins the ``SchemaError`` raised
    for an unknown key or a value of the wrong type.
    """
    unknown = doc.keys() - _KINDS
    if unknown:
        raise SchemaError(f"{source}: unknown config keys: {sorted(unknown)}")
    values = {}
    for k, v in doc.items():
        types, what = _JSON_TYPES[_KINDS[k]]
        if not isinstance(v, types) or isinstance(v, bool) != (_KINDS[k] == "bool"):
            raise SchemaError(f"{source}: config key {k!r} must be {what}, not {json.dumps(v)}")
        values[k] = _FLAG_TYPES[_KINDS[k]](v)
    return values


def resolve_config(args: argparse.Namespace, base: dict | None = None) -> RunConfig:
    """Defaults, then ``base``, then the config file, then ablations, then flags; later wins.

    ``base`` holds values already checked by ``_typed_config``.
    """
    cfg = RunConfig(**(base or {}))
    path = args.config or (Path(os.environ[ENV_CONFIG]) if os.environ.get(ENV_CONFIG) else None)
    if path is not None:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise SchemaError(f"{path}: a config file must hold one JSON object of config keys")
        for k, v in _typed_config(doc, str(path)).items():
            setattr(cfg, k, v)
    if getattr(args, "ablation", None):
        for name in args.ablation.split(","):
            name = name.strip()
            if name not in _ABLATIONS:
                raise SchemaError(f"unknown ablation {name!r}; choose from {sorted(_ABLATIONS)}")
            for k, v in _ABLATIONS[name].items():
                setattr(cfg, k, v)
    for name in _KINDS:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    try:  # each derived config checks its own values; the vocabulary size is not known yet
        cfg.model_config(vocab_size=1), cfg.train_config(), cfg.decoding()
    except ValueError as e:
        raise SchemaError(f"invalid config: {e}") from None
    if cfg.min_freq < 1:
        raise SchemaError(f"invalid config: min_freq must be >= 1, not {cfg.min_freq}")
    return cfg


# Grounding, assembly and decoding settings that eval, inspect and chat take
# from the checkpoint's run config, below a config file, ablations and flags.
_CHECKPOINT_KEYS = (
    "k_entity", "k_relation", "use_kg_mask", "temperature", "top_k", "top_p",
    "max_response_length", "max_knowledge_tokens", "max_history_tokens",
    "max_history_turns", "context_limit",
)


def _load_run(args: argparse.Namespace) -> tuple[Vocabulary, ModelState, RunConfig]:
    """Vocabulary, checkpoint and the run config resolved over the checkpoint's."""
    vocab_path = Path(args.vocab) if args.vocab else Path(args.ckpt).parent / "vocab.txt"
    vocab = load_vocab(vocab_path)
    state, header = load_checkpoint(args.ckpt, expect_vocab_sha=vocab_sha256(vocab))
    saved = header.get("run_config", {})
    base = _typed_config({key: saved[key] for key in _CHECKPOINT_KEYS if key in saved}, f"{args.ckpt}: run config")
    cfg = resolve_config(args, base)
    return vocab, state, cfg


def _load_graph_file(path: Path) -> corpus.KnowledgeGraph:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict) and "triples" in doc:
        return corpus.build_graph(doc["triples"], owner=str(path))
    raise SchemaError(f"{path}: expected an object with a 'triples' list")


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_dialogues=args.n,
        n_subjects_per_graph=args.subjects,
        n_relations=args.relations,
        vocab_pool_seed=args.vocab_pool_seed,
        seed=args.seed,
    )
    try:
        dialogues = corpus.synthetic_dialogues(config)
    except ValueError as e:
        raise SchemaError(f"invalid synth settings: {e}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_train = (len(dialogues) * 8) // 10
    n_valid = len(dialogues) // 10
    parts = {
        "train": dialogues[:n_train],
        "valid": dialogues[n_train : n_train + n_valid],
        "test": dialogues[n_train + n_valid :],
    }
    for name, part in parts.items():
        doc = {"dialogues": part}
        (out / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out / f'{name}.json'} ({len(part)} dialogues)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    data = Path(args.data)
    train_split = corpus.load_dataset(data / "train.json", "train")
    valid_split = corpus.load_dataset(data / "valid.json", "valid")
    vocab = build_vocab([train_split, valid_split], min_freq=cfg.min_freq)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_vocab(vocab, out / "vocab.txt")
    vsha = vocab_sha256(vocab)

    state, history = training.train(
        train_split, valid_split, vocab, cfg.model_config(len(vocab)), cfg.train_config(),
        verbose=not args.quiet,
    )
    training.save_history(history, out / "history.csv")
    save_checkpoint(out / "model.ckpt", state, vsha, dataclasses.asdict(cfg))
    print(f"wrote {out / 'model.ckpt'}, {out / 'vocab.txt'}, {out / 'history.csv'}")
    return 0


def _positive_int(value: str) -> int:
    if not (value.isascii() and value.isdigit() and int(value) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {value!r}")
    return int(value)


def _parse_k_grid(value: str) -> list[int]:
    """Comma list of k values, each an integer >= 0 or 'all'."""
    ks = [v.strip().lower() for v in value.split(",")]
    bad = [v for v in ks if v != "all" and not (v.isascii() and v.isdigit())]
    if bad:
        raise argparse.ArgumentTypeError(f"k must be an integer >= 0 or 'all', not {bad[0]!r}")
    return [10**9 if v == "all" else int(v) for v in ks]


def _eval_once(state, split, vocab, lexicon, cfg: RunConfig, args, k_entity: int, k_relation: int):
    tcfg = dataclasses.replace(cfg.train_config(), k_entity=k_entity, k_relation=k_relation)
    return evaluation.evaluate(
        state, split, vocab, lexicon, cfg.decoding(), tcfg,
        hyp_from_gold=args.hyp_from_gold, threads=cfg.threads, max_samples=args.max_samples,
    )


def cmd_eval(args: argparse.Namespace) -> int:
    vocab, state, cfg = _load_run(args)

    data = Path(args.data)
    split = corpus.load_dataset(data / f"{args.split}.json", args.split)
    lex_splits = [split]
    train_path = data / "train.json"
    if train_path.exists() and args.split != "train":
        lex_splits.append(corpus.load_dataset(train_path, "train"))
    lexicon = corpus.entity_lexicon(lex_splits)

    ke_list, kr_list = args.k_entity_grid or [cfg.k_entity], args.k_relation_grid or [cfg.k_relation]
    pairs = [(ke, kr) for ke in ke_list for kr in kr_list]

    report_path = Path(args.report)
    for ke, kr in pairs:
        report = _eval_once(state, split, vocab, lexicon, cfg, args, ke, kr)
        if len(pairs) == 1:
            out_path = report_path
        else:
            out_path = report_path.with_name(f"{report_path.stem}.e{min(ke, 10**6)}_r{min(kr, 10**6)}{report_path.suffix}")
        evaluation.save_report(report, out_path)
        print(f"k_entity={'all' if ke >= 10**9 else ke} k_relation={'all' if kr >= 10**9 else kr} -> {out_path}")
        print(evaluation.format_report_table(report))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    vocab, state, cfg = _load_run(args)

    graph = _load_graph_file(Path(args.kg))
    question = corpus.normalize_text(args.question)
    embedder = graph_weights.TokenEmbedder(vocab, state.params["tok_emb"])
    dump = graph_weights.inspect_dump(graph, question, embedder, cfg.k_entity, cfg.k_relation)

    if args.dump_mask:
        try:
            seq = assemble_input(linearize_graph(graph), [], question, None, vocab, cfg.limits())
        except SequenceTooLongError:
            raise SequenceTooLongError(
                f"question too long for context_limit {cfg.context_limit}: its {len(question.split())} words "
                f"do not fit after the knowledge segment"
            ) from None
        sel = graph_weights.Selection(
            frozenset(dump["top_entities"]), frozenset(dump["top_relations"]), cfg.k_entity, cfg.k_relation
        )
        dump["mask"] = masking.mask_summary(seq, sel, graph)

    print(json.dumps(dump, indent=1))
    return 0


def cmd_chat(args: argparse.Namespace) -> int:
    vocab, state, cfg = _load_run(args)
    graph = _load_graph_file(Path(args.kg))
    limits, decoding, train_cfg = cfg.limits(), cfg.decoding(), cfg.train_config()
    history: list[corpus.DialogueTurn] = []
    turn_index = 0

    print("chat ready; /reset clears history, /seed N reseeds, /quit exits", file=sys.stderr)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line == "/quit":
            return 0
        if line == "/reset":
            history = []
            print("history cleared", file=sys.stderr)
            continue
        if line.startswith("/seed"):
            try:
                decoding = dataclasses.replace(decoding, seed=int(line.split()[1]))
            except (IndexError, ValueError):
                print("usage: /seed N", file=sys.stderr)
                continue
            print(f"seed set to {decoding.seed}", file=sys.stderr)
            continue

        question = corpus.normalize_text(line)
        if not question:
            continue
        try:
            response = evaluation.generate_response(
                state, _chat_sample(graph, history, question), vocab, decoding, train_cfg, turn_index
            )
        except SequenceTooLongError as e:
            print(f"input rejected: {e}", file=sys.stderr)
            continue
        if len(history) > limits.max_history_turns:
            dropped = len(history) - limits.max_history_turns
            print(f"(history budget: dropped {dropped} oldest turn{'s' if dropped != 1 else ''})", file=sys.stderr)
        print(response)
        history.append(corpus.DialogueTurn(corpus.USER, question))
        history.append(corpus.DialogueTurn(corpus.SYSTEM, response or "..."))
        turn_index += 1
    return 0


def _chat_sample(graph, history, question) -> corpus.DialogueSample:
    return corpus.DialogueSample(
        id="chat#0", domain="chat", graph=graph, history=tuple(history),
        question=question, gold_response="",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdialog",
        description="Knowledge-graph-grounded dialogue model: training, evaluation, inspection, chat.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic KG-dialogue corpus (80/10/10 split)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=2000, help="number of dialogues (default: 2000)")
    p.add_argument("--subjects", type=int, default=5, help="subjects per graph (default: 5)")
    p.add_argument("--relations", type=int, default=4, help="relations per graph (default: 4)")
    p.add_argument("--seed", type=int, default=7, help="generation seed (default: 7)")
    p.add_argument("--vocab-pool-seed", type=int, default=101, help="word pool seed (default: 101)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on train.json/valid.json in --data")
    p.add_argument("--data", required=True, help="directory with train.json and valid.json")
    p.add_argument("--out", required=True, help="output directory for checkpoint, vocab, history")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--vocab", default=None, help="vocab file (default: vocab.txt next to --ckpt)")
    p.add_argument("--hyp-from-gold", action="store_true", help="self-evaluation: score gold against gold")
    p.add_argument("--max-samples", type=_positive_int, default=None, help="cap evaluated samples (default: all)")
    p.add_argument("--k-entity-grid", type=_parse_k_grid, default=None, help="comma list of k values or 'all'")
    p.add_argument("--k-relation-grid", type=_parse_k_grid, default=None, help="comma list of k values or 'all'")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump the weighted graph for a KG file and question")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--kg", required=True, help="JSON file with a 'triples' list")
    p.add_argument("--question", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--dump-mask", action="store_true", help="include per-triple mask summary")
    _add_config_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("chat", help="interactive REPL over a checkpoint and KG file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--vocab", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_chat)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VocabMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (FileNotFoundError, SchemaError, ValidationError, CheckpointError, json.JSONDecodeError,
            SequenceTooLongError, EmptyCorpusError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
