import dataclasses
import io
import json
import re
import shutil

import pytest

from kgdialog.checkpoint import load_checkpoint, save_checkpoint
from kgdialog.cli import RunConfig, main
from kgdialog.model import DecodingParams, ModelConfig
from kgdialog.sequence import AssemblyLimits
from kgdialog.training import TrainConfig


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--n", "10", "--subjects", "2", "--relations", "2", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main([
        "train", "--data", str(data_dir), "--out", str(out), "--quiet",
        "--epochs", "2", "--lr", "1e-3", "--d-model", "32", "--n-heads", "2",
        "--n-layers", "1", "--d-ff", "64", "--dropout", "0.0",
        "--max-entity-ids", "8", "--max-triple-ids", "8",
        "--k-entity", "2", "--k-relation", "2", "--batch-size", "4",
    ])
    assert rc == 0
    return out


class TestSynth:
    def test_split_sizes(self, data_dir):
        sizes = {}
        for name in ("train", "valid", "test"):
            doc = json.loads((data_dir / f"{name}.json").read_text())
            sizes[name] = len(doc["dialogues"])
        assert sizes == {"train": 8, "valid": 1, "test": 1}

    def test_same_seed_identical_files(self, data_dir, tmp_path):
        other = tmp_path / "again"
        main(["synth", "--out", str(other), "--n", "10", "--subjects", "2", "--relations", "2", "--seed", "3"])
        for name in ("train", "valid", "test"):
            assert (other / f"{name}.json").read_bytes() == (data_dir / f"{name}.json").read_bytes()


class TestTrain:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "vocab.txt").exists()
        history = (run_dir / "history.csv").read_text().strip().split("\n")
        assert len(history) == 3  # header + 2 epochs

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_ablation_flag_recorded_in_header(self, data_dir, tmp_path):
        out = tmp_path / "ablated"
        rc = main([
            "train", "--data", str(data_dir), "--out", str(out), "--quiet",
            "--epochs", "1", "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
            "--d-ff", "32", "--dropout", "0.0", "--max-entity-ids", "8",
            "--max-triple-ids", "8", "--ablation", "no-kg-mask",
        ])
        assert rc == 0
        header = load_checkpoint(out / "model.ckpt")[1]
        assert header["run_config"]["use_kg_mask"] is False

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1e-3, "not_a_key": 1}))
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", str(cfg), "--quiet"])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_file_via_env(self, data_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epochs": 1, "d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
            "dropout": 0.0, "max_entity_ids": 8, "max_triple_ids": 8, "lr": 1e-3,
        }))
        monkeypatch.setenv("KGDIALOG_CONFIG", str(cfg))
        out = tmp_path / "envrun"
        rc = main(["train", "--data", str(data_dir), "--out", str(out), "--quiet"])
        assert rc == 0
        assert load_checkpoint(out / "model.ckpt")[1]["model_config"]["d_model"] == 16


class TestEval:
    def test_self_eval_perfect(self, data_dir, run_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main([
            "eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
            "--split", "test", "--report", str(report), "--hyp-from-gold",
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["bleu"] == pytest.approx(100.0)
        assert doc["entity_f1"] == pytest.approx(100.0)
        assert "BLEU" in capsys.readouterr().out

    def test_defaults_come_from_checkpoint(self, data_dir, run_dir, tmp_path):
        report = tmp_path / "r.json"
        rc = main([
            "eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
            "--split", "test", "--report", str(report), "--hyp-from-gold",
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["k_entity"] == 2  # stored at train time

    def test_ablation_and_config_file_override_checkpoint(self, tmp_path):
        from kgdialog.checkpoint import save_checkpoint
        from kgdialog.cli import RunConfig, _load_run, build_parser
        from kgdialog.model import init_model
        from kgdialog.sequence import save_vocab, vocab_sha256
        from test_sequence import vocab_over

        vocab = vocab_over("a b c")
        cfg = RunConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, use_kg_mask=True, k_entity=3, top_k=4)
        save_vocab(vocab, tmp_path / "vocab.txt")
        save_checkpoint(tmp_path / "model.ckpt", init_model(cfg.model_config(len(vocab)), seed=0),
                        vocab_sha256(vocab), dataclasses.asdict(cfg))
        (tmp_path / "cfg.json").write_text(json.dumps({"k_entity": 5}))
        args = build_parser().parse_args([
            "eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path), "--report", "r.json",
            "--ablation", "no-kg-mask", "--config", str(tmp_path / "cfg.json"),
        ])
        _, _, resolved = _load_run(args)
        assert resolved.use_kg_mask is False  # ablation over checkpoint
        assert resolved.k_entity == 5  # config file over checkpoint
        assert resolved.top_k == 4  # checkpoint over default

    def test_grid_mode_writes_report_per_pair(self, data_dir, run_dir, tmp_path):
        report = tmp_path / "grid.json"
        rc = main([
            "eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
            "--split", "test", "--report", str(report), "--hyp-from-gold",
            "--k-entity-grid", "1,all", "--k-relation-grid", "2",
        ])
        assert rc == 0
        assert (tmp_path / "grid.e1_r2.json").exists()
        assert (tmp_path / "grid.e1000000_r2.json").exists()

    def test_determinism_across_runs(self, data_dir, run_dir, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = main([
                "eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
                "--split", "test", "--report", str(path), "--max-samples", "3",
                "--max-response-length", "6",
            ])
            assert rc == 0
            reports.append(path.read_text())
        assert reports[0] == reports[1]

    def test_samples_past_entity_table_refused_not_fatal(self, tmp_path, capsys):
        small, large, run = tmp_path / "small", tmp_path / "large", tmp_path / "run"
        for out, subjects in ((small, "2"), (large, "6")):
            assert main(["synth", "--out", str(out), "--n", "10", "--subjects", subjects,
                         "--relations", "2", "--seed", "3"]) == 0
        assert main([
            "train", "--data", str(small), "--out", str(run), "--quiet", "--epochs", "1",
            "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ff", "32", "--max-entity-ids", "4",
        ]) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        rc = main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(large), "--report", str(report),
                   "--max-response-length", "4"])
        assert rc == 0
        doc = json.loads(report.read_text())
        refused = [r for r in doc["records"] if "refused" in r]
        assert refused and doc["config"]["n_refused"] == len(refused)
        assert all(r["hypothesis"] == "" and "entity ids" in r["refused"] for r in refused)
        table = capsys.readouterr().out
        assert f"{'refused':<12}{len(refused):>8d}" in table

    def test_vocab_mismatch_exit_3(self, data_dir, run_dir, tmp_path, capsys):
        bad_vocab = tmp_path / "vocab.txt"
        bad_vocab.write_text("[PAD]\n[BOS]\n[EOS]\n[SEP]\n[Q]\n[S]\n[R]\n[O]\n[UNK]\nzzz\n")
        rc = main([
            "eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
            "--split", "test", "--report", str(tmp_path / "r.json"), "--vocab", str(bad_vocab),
        ])
        assert rc == 3


class TestInspect:
    def test_single_triple_dump(self, run_dir, tmp_path, capsys):
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [["starbucks", "distance", "4 miles"]]}))
        rc = main([
            "inspect", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg),
            "--question", "how far is starbucks ?",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nodes"]) == 3
        assert doc["relation_weights"] == {"0": pytest.approx(1.0)}
        assert sum(doc["entity_weights"].values()) == pytest.approx(1.0)

    def test_dump_mask_flags(self, run_dir, tmp_path, capsys):
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [
            ["starbucks", "distance", "4 miles"],
            ["peets", "distance", "8 miles"],
        ]}))
        rc = main([
            "inspect", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg),
            "--question", "how far is starbucks ?", "--dump-mask",
            "--k-entity", "1", "--k-relation", "1",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "mask" in doc and len(doc["mask"]["triples"]) == 2
        assert {t["selected"] for t in doc["mask"]["triples"]} <= {True, False}

    def test_dump_mask_uses_checkpoint_knowledge_budget(self, tmp_path, capsys):
        from kgdialog.checkpoint import save_checkpoint
        from kgdialog.cli import RunConfig
        from kgdialog.model import init_model
        from kgdialog.sequence import save_vocab, vocab_sha256
        from test_sequence import vocab_over

        triples = [["starbucks", "distance", "4 miles"], ["peets", "distance", "8 miles"],
                   ["philz", "distance", "2 miles"]]
        vocab = vocab_over("starbucks peets philz distance 2 4 8 miles how far is ?")
        # [BOS] [S] starbucks [R] distance [O] 4 miles fills 8 of the 10 knowledge tokens
        cfg = RunConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_entity_ids=8, max_triple_ids=8,
                        max_knowledge_tokens=10)
        save_vocab(vocab, tmp_path / "vocab.txt")
        save_checkpoint(tmp_path / "model.ckpt", init_model(cfg.model_config(len(vocab)), seed=0),
                        vocab_sha256(vocab), dataclasses.asdict(cfg))
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": triples}))
        rc = main([
            "inspect", "--ckpt", str(tmp_path / "model.ckpt"), "--kg", str(kg),
            "--question", "how far is starbucks ?", "--dump-mask",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [t["surfaces"] for t in doc["mask"]["triples"]] == [["starbucks", "distance", "4 miles"]]

    def test_bad_kg_file_exit_2(self, run_dir, tmp_path):
        kg = tmp_path / "bad.json"
        kg.write_text("{}")
        rc = main(["inspect", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg), "--question", "hi"])
        assert rc == 2


class TestBadInput:
    """Bad input exits with code 2 and an ``error:`` message, never a traceback."""

    def test_over_long_inspect_question(self, run_dir, tmp_path, capsys):
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [["starbucks", "distance", "4 miles"]]}))
        rc = main(["inspect", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg),
                   "--question", " ".join(["what"] * 500), "--dump-mask"])
        assert rc == 2
        assert "error: question too long for context_limit 412: its 500 words" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["abc", "-1", "1,,2"])
    def test_bad_k_grid(self, data_dir, run_dir, tmp_path, capsys, grid):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
                  "--report", str(tmp_path / "r.json"), f"--k-entity-grid={grid}"])
        assert e.value.code == 2
        assert "error: argument --k-entity-grid" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--k-entity", "-3"], "k_entity"),
        (["--temperature", "0"], "temperature"),
        (["--decode-seed", "-1"], "seed"),
        (["--top-p", "0"], "top_p must be in (0, 1]"),
        (["--max-response-length", "-1"], "max_response_length"),
        (["--max-history-turns", "-1"], "max_history_turns"),
        (["--threads", "0"], "threads"),
    ])
    def test_bad_eval_config_value(self, data_dir, run_dir, tmp_path, capsys, flags, message):
        rc = main(["eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
                   "--report", str(tmp_path / "r.json"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid config" in err and message in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_samples_below_one(self, data_dir, run_dir, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
                  "--report", str(tmp_path / "r.json"), f"--max-samples={value}"])
        assert e.value.code == 2
        assert "error: argument --max-samples" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--batch-size", "0"], "batch_size"),
        (["--grad-accum-steps", "0"], "grad_accum_steps"),
        (["--lr", "-1"], "lr"),
        (["--min-freq", "0"], "min_freq"),
        (["--seed", "-1"], "seed"),
        (["--n-heads", "0"], "n_heads must be >= 1"),
        (["--max-response-length", "-1"], "max_response_length"),
        (["--max-history-turns", "-1"], "max_history_turns"),
        (["--threads", "0"], "threads"),
        (["--adam-epsilon", "0"], "adam_epsilon must be > 0"),
        (["--adam-epsilon", "-1"], "adam_epsilon must be > 0"),
        (["--epochs", "-1"], "epochs must be >= 0"),
        (["--warmup-steps", "-3"], "warmup_steps must be >= 0"),
        (["--weight-decay", "-1"], "weight_decay must be >= 0"),
        (["--max-entity-ids", "-1"], "max_entity_ids must be >= 1"),
        (["--max-entity-ids", "0"], "max_entity_ids must be >= 1"),
        (["--max-triple-ids", "0"], "max_triple_ids must be >= 1"),
    ])
    def test_bad_train_config_value(self, data_dir, tmp_path, capsys, flags, message):
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet",
                   "--epochs", "1", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid config" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"batch_size": 2.5}, "'batch_size' must be an integer, not 2.5"),
        ({"d_model": "abc"}, "'d_model' must be an integer, not \"abc\""),
        ({"epochs": True}, "'epochs' must be an integer, not true"),
        ({"lr": "0.1"}, "'lr' must be a number, not \"0.1\""),
        ({"epochs": None}, "'epochs' must be an integer, not null"),
        ({"use_kg_mask": "no"}, "'use_kg_mask' must be true or false, not \"no\""),
        ({"use_kg_mask": 0}, "'use_kg_mask' must be true or false, not 0"),
        (["lr", 0.1], "must hold one JSON object of config keys"),
    ])
    def test_wrong_typed_train_config_file(self, data_dir, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: " in err and message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_wrong_typed_eval_config_file(self, data_dir, run_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_entity": 2.5}))
        rc = main(["eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
                   "--report", str(tmp_path / "r.json"), "--config", str(cfg)])
        assert rc == 2
        assert "'k_entity' must be an integer, not 2.5" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("use_kg_mask", "no", "'use_kg_mask' must be true or false, not \"no\""),
        ("k_entity", 2.5, "'k_entity' must be an integer, not 2.5"),
        ("temperature", "0.5", "'temperature' must be a number, not \"0.5\""),
    ])
    def test_wrong_typed_checkpoint_run_config(self, data_dir, run_dir, tmp_path, capsys, key, value, message):
        state, header = load_checkpoint(run_dir / "model.ckpt")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, state, header["vocab_sha256"], {**header["run_config"], key: value})
        shutil.copy(run_dir / "vocab.txt", tmp_path / "vocab.txt")
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--report", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {ckpt}: run config: config key {message}" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_integer_for_float_config_key(self, data_dir, tmp_path):
        from kgdialog.cli import build_parser, resolve_config

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1, "dropout": 0, "use_kg_mask": False}))
        resolved = resolve_config(build_parser().parse_args(
            ["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]))
        assert (resolved.lr, resolved.dropout, resolved.use_kg_mask) == (1.0, 0.0, False)
        assert type(resolved.lr) is float and type(resolved.dropout) is float

    def test_train_on_empty_corpus(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "empty"), "--n", "0"]) == 0
        rc = main(["train", "--data", str(tmp_path / "empty"), "--out", str(tmp_path / "o"), "--quiet",
                   "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: no tokens found in any split" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bad_synth_settings(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "o"), "--n", "4", "--subjects", "0"])
        assert rc == 2
        assert "error: invalid synth settings" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n", "-3"], "n_dialogues must be >= 0, not -3"),
        (["--seed", "-1"], "seed must be >= 0, not -1"),
        (["--vocab-pool-seed", "-1"], "vocab_pool_seed must be >= 0, not -1"),
    ])
    def test_negative_synth_setting(self, tmp_path, capsys, flags, message):
        rc = main(["synth", "--out", str(tmp_path / "o"), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: invalid synth settings: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_zero_epochs_writes_untrained_checkpoint(self, data_dir, tmp_path):
        assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet",
                     "--epochs", "0"]) == 0
        assert (tmp_path / "o" / "model.ckpt").exists()

    def test_diverged_run(self, data_dir, tmp_path, capsys, recwarn):
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet",
                   "--epochs", "1", "--lr", "1e9", "--grad-accum-steps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: training diverged:" in err and "at epoch 0 micro-batch" in err and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o" / "model.ckpt").exists()
        assert not (tmp_path / "o" / "vocab.txt").exists()

    def test_diverged_in_validation(self, data_dir, tmp_path, capsys, recwarn):
        # one optimizer step per epoch: its loss is finite, and the step's weights overflow in validation
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet",
                   "--epochs", "1", "--lr", "1e9", "--grad-accum-steps", "1", "--batch-size", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: training diverged:" in err and "at epoch 0, found in validation" in err
        assert "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()

    def test_diverged_run_without_valid_split(self, tmp_path, capsys, recwarn):
        # one optimizer step leaves finite but huge weights; with no valid split the final pass finds them
        data, run = tmp_path / "d", tmp_path / "run"
        assert main(["synth", "--out", str(data), "--n", "5", "--subjects", "2", "--relations", "2"]) == 0
        assert json.loads((data / "valid.json").read_text())["dialogues"] == []
        rc = main(["train", "--data", str(data), "--out", str(run), "--quiet", "--epochs", "1",
                   "--d-model", "32", "--n-heads", "2", "--n-layers", "1", "--d-ff", "64",
                   "--lr", "1e9", "--grad-accum-steps", "1", "--batch-size", "64"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error: training diverged:") == 1 and "Traceback" not in err
        assert "found in a final pass over the training split" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not run.exists()

    def test_overflowing_checkpoint_refused_by_eval_and_chat(self, tmp_path, monkeypatch, capsys, recwarn):
        from kgdialog.corpus import load_dataset
        from kgdialog.model import init_model
        from kgdialog.sequence import build_vocab, save_vocab, vocab_sha256

        # finite weights whose forward pass overflows (init weights times 1e9 still give finite logits)
        data, run = tmp_path / "d", tmp_path / "run"
        assert main(["synth", "--out", str(data), "--n", "5", "--subjects", "2", "--relations", "2"]) == 0
        vocab = build_vocab([load_dataset(data / "train.json", "train")])
        cfg = RunConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64)
        state = init_model(cfg.model_config(len(vocab)), seed=0)
        for p in state.params.values():
            p *= 1e10
        run.mkdir()
        save_checkpoint(run / "model.ckpt", state, vocab_sha256(vocab), dataclasses.asdict(cfg))
        save_vocab(vocab, run / "vocab.txt")
        capsys.readouterr()
        rc = main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(data), "--report", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: non-finite logits" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [["starbucks", "distance", "4 miles"]]}))
        monkeypatch.setattr("sys.stdin", io.StringIO("how far ?\n"))
        assert main(["chat", "--ckpt", str(run / "model.ckpt"), "--kg", str(kg)]) == 2
        captured = capsys.readouterr()
        assert "error: non-finite logits" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--d-model", "64"]),
        ("eval", ["--lr", "3"]),
        ("eval", ["--use-entity-emb"]),
        ("chat", ["--threads", "2"]),
        ("chat", ["--dropout", "0.5"]),
        ("inspect", ["--temperature", "0.5"]),
        ("inspect", ["--use-kg-mask"]),
        ("inspect", ["--ablation", "no-kg-mask"]),
    ])
    def test_serving_command_refuses_unread_flag(self, data_dir, run_dir, tmp_path, capsys, command, flags):
        ckpt, kg = str(run_dir / "model.ckpt"), str(tmp_path / "kg.json")
        args = {
            "eval": ["--data", str(data_dir), "--report", str(tmp_path / "r.json")],
            "chat": ["--kg", kg],
            "inspect": ["--kg", kg, "--question", "how far ?"],
        }[command]
        with pytest.raises(SystemExit) as e:
            main([command, "--ckpt", ckpt, *args, *flags])
        assert e.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_eval_refuses_embedding_ablation(self, data_dir, run_dir, tmp_path, capsys):
        rc = main(["eval", "--ckpt", str(run_dir / "model.ckpt"), "--data", str(data_dir),
                   "--report", str(tmp_path / "r.json"), "--ablation", "no-entity-emb"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: ablation 'no-entity-emb' sets use_entity_emb, which eval does not take" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_chat_refuses_seq2seq_ablation(self, run_dir, tmp_path, monkeypatch, capsys):
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [["starbucks", "distance", "4 miles"]]}))
        monkeypatch.setattr("sys.stdin", io.StringIO("how far ?\n"))
        rc = main(["chat", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg), "--ablation", "seq2seq"])
        assert rc == 2
        captured = capsys.readouterr()
        assert ("error: ablation 'seq2seq' sets use_entity_emb, use_triple_emb, use_type_emb, "
                "which chat does not take") in captured.err
        assert "chat ready" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("field, value, message", [
        ("text", 5, "turns[0] text must be a string"),
        ("text", None, "turns[0] text must be a string"),
        ("triple", "abc", "kg.triples[0] must be [subject, relation, object] strings"),
        ("triple", 5, "kg.triples[0] must be [subject, relation, object] strings"),
        ("triple", {"s": 1, "r": 2, "o": 3}, "kg.triples[0] must be [subject, relation, object] strings"),
        ("triple", ["", "r", "o"], "empty subject surface in kg.triples[0]"),
    ])
    def test_malformed_dataset(self, data_dir, tmp_path, capsys, field, value, message):
        data = tmp_path / "d"
        shutil.copytree(data_dir, data)
        doc = json.loads((data / "train.json").read_text())
        dialogue = doc["dialogues"][0]
        if field == "text":
            dialogue["turns"][0]["text"] = value
        else:
            dialogue["kg"]["triples"][0] = value
        (data / "train.json").write_text(json.dumps(doc))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"), "--quiet", "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: dialogue {dialogue['id']!r}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_dataset_not_utf8(self, data_dir, tmp_path, capsys):
        data = tmp_path / "d"
        shutil.copytree(data_dir, data)
        (data / "valid.json").write_bytes((data / "valid.json").read_bytes().replace(b"user", b"us\xe9r", 1))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"), "--quiet", "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {data / 'valid.json'}: not UTF-8 text: " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"lr": 1e-3} \xff', "not UTF-8 text"),
        (b'{"lr": ', "invalid JSON"),
    ])
    def test_unreadable_config_file(self, data_dir, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: {message}: " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"triples": ["abc"]}', "'{kg}': kg.triples[0] must be [subject, relation, object] strings"),
        (b'{"triples": [5]}', "'{kg}': kg.triples[0] must be [subject, relation, object] strings"),
        (b'{"triples": [{"s": 1, "r": 2, "o": 3}]}',
         "'{kg}': kg.triples[0] must be [subject, relation, object] strings"),
        (b'{"triples": [["s", "r", " "]]}', "'{kg}': empty object surface in kg.triples[0]"),
        (b'{"triples": 5}', "{kg}: expected an object with a 'triples' list"),
        (b'{"triples": [["caf\xe9", "r", "o"]]}', "{kg}: not UTF-8 text: "),
        (b'{"triples": [', "{kg}: invalid JSON: "),
    ])
    def test_malformed_kg_file(self, run_dir, tmp_path, monkeypatch, capsys, content, message):
        kg = tmp_path / "kg.json"
        kg.write_bytes(content)
        monkeypatch.setattr("sys.stdin", io.StringIO("how far ?\n"))
        rc = main(["chat", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert message.format(kg=kg) in captured.err and "Traceback" not in captured.err
        assert "chat ready" not in captured.err and captured.out == ""

    def test_heads_not_dividing_width(self, data_dir, tmp_path, capsys):
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet",
                   "--epochs", "1", "--d-model", "30", "--n-heads", "4"])
        assert rc == 2
        assert "error: invalid config: d_model 30 not divisible by n_heads 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestChat:
    def run_chat(self, run_dir, tmp_path, monkeypatch, lines, max_response_length=5):
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [["starbucks", "distance", "4 miles"]]}))
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        return main(["chat", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg),
                     "--max-response-length", str(max_response_length)])

    def test_quit_immediately(self, run_dir, tmp_path, monkeypatch):
        assert self.run_chat(run_dir, tmp_path, monkeypatch, ["/quit"]) == 0

    def test_bad_max_response_length_refused_before_reading(self, run_dir, tmp_path, monkeypatch, capsys):
        rc = self.run_chat(run_dir, tmp_path, monkeypatch, ["how far ?"], max_response_length=-1)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: invalid config: max_response_length must be >= 1" in err
        assert "chat ready" not in err

    def test_transcript_deterministic(self, run_dir, tmp_path, monkeypatch, capsys):
        outs = []
        for _ in range(2):
            rc = self.run_chat(run_dir, tmp_path, monkeypatch, ["how far ?", "/quit"])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_reset_and_seed_commands(self, run_dir, tmp_path, monkeypatch, capsys):
        rc = self.run_chat(run_dir, tmp_path, monkeypatch, ["/seed 42", "hello ?", "/reset", "/seed -5", "hello ?",
                                                             "/quit"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "seed set to 42" in err and "usage: /seed N" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--no-use-kg-mask"],
        ["--k-entity", "1000", "--k-relation", "1000"],
        [],
    ])
    def test_ids_past_embedding_tables_rejected(self, run_dir, tmp_path, monkeypatch, capsys, flags):
        # 200 single-triple subjects fill 480 knowledge tokens with ~80 subject groups and
        # triples, past the checkpoint's 8-row entity and triple tables, whatever is selected
        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [[f"place{i}", "distance", f"{i} miles"] for i in range(200)]}))
        monkeypatch.setattr("sys.stdin", io.StringIO("how far ?\n/quit\n"))
        rc = main(["chat", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg), "--max-response-length", "5",
                   "--max-knowledge-tokens", "480", "--context-limit", "500", *flags])
        assert rc == 0
        captured = capsys.readouterr()
        assert "input rejected" in captured.err and "entity" in captured.err
        assert captured.out == ""

    def test_context_past_max_positions_rejected(self, run_dir, tmp_path, monkeypatch, capsys):
        # any context plus 600 response slots exceeds the checkpoint's 512 positions
        rc = self.run_chat(run_dir, tmp_path, monkeypatch, ["how far ?", "hello ?", "/quit"], max_response_length=600)
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err.count("input rejected") == 2
        assert captured.out == ""


# The grounding, assembly and decoding keys a checkpoint's run config gives the serving commands
_SERVING_KEYS = ("k_entity", "k_relation", "use_kg_mask", "temperature", "top_k", "top_p", "max_response_length",
                 "max_knowledge_tokens", "max_history_tokens", "max_history_turns", "context_limit")


class TestHelp:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for key in ("--lr", "--k-entity", "--max-history-turns", "--temperature", "--use-kg-mask"):
            assert key in out
        assert "default" in out

    @pytest.mark.parametrize("command, own, keys", [
        ("eval", ("ckpt", "data", "split", "report", "vocab", "hyp-from-gold", "max-samples", "k-entity-grid",
                  "k-relation-grid", "config", "ablation"), _SERVING_KEYS + ("decode_seed", "threads")),
        ("chat", ("ckpt", "kg", "vocab", "config", "ablation"), _SERVING_KEYS + ("decode_seed",)),
        ("inspect", ("ckpt", "kg", "question", "vocab", "dump-mask", "config"),
         ("k_entity", "k_relation", "max_knowledge_tokens", "context_limit")),
    ])
    def test_serving_help_lists_exactly_its_keys(self, capsys, command, own, keys):
        with pytest.raises(SystemExit) as e:
            main([command, "--help"])
        assert e.value.code == 0
        options = capsys.readouterr().out.split("options:")[1]
        flags = re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, re.M)
        assert sorted(flags) == sorted(["--help", *("--" + o for o in own), *("--" + k.replace("_", "-") for k in keys)])
        if "ablation" in own:  # the one ablation that acts on a trained model
            assert "comma list of no-kg-mask (" in options

    @pytest.mark.parametrize("command", ["train", "eval", "chat", "inspect"])
    def test_help_names_checkpoint_defaults(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = capsys.readouterr().out.split("options:")[1]
        defaults = dict(re.findall(r"^  --([a-z-]+)[^\n]*?\n?\s+default: ([^\n]+)$", options, re.M))
        from_checkpoint = () if command == "train" else _SERVING_KEYS
        prefix = "" if command == "train" else "the checkpoint's run config, else "
        for key, default in defaults.items():
            in_checkpoint = key.replace("-", "_") in from_checkpoint
            assert default.startswith("the checkpoint's run config, else ") == in_checkpoint, key
        assert defaults["k-entity"] == f"{prefix}{RunConfig.k_entity}"



# The config each RunConfig key configures, written out here so that a key
# projected into the wrong config (or into two) fails the test below.
_OWNERS = {
    "model_config": ("d_model", "n_heads", "n_layers", "d_ff", "max_positions", "max_entity_ids",
                     "max_triple_ids", "dropout", "use_entity_emb", "use_triple_emb", "use_type_emb"),
    "limits": ("max_knowledge_tokens", "max_history_tokens", "max_history_turns", "context_limit"),
    "train_config": ("lr", "adam_epsilon", "weight_decay", "batch_size", "grad_accum_steps", "epochs",
                     "seed", "warmup_steps", "k_entity", "k_relation", "use_kg_mask"),
    "decoding": ("temperature", "top_k", "top_p", "max_response_length", "decode_seed"),
}


def _projected_fields(cfg) -> dict:
    """Owner name -> field values of ``cfg``'s projection; ``TrainConfig.limits`` is read as ``limits``."""
    train_cfg = cfg.train_config()
    assert train_cfg.limits == cfg.limits()
    return {
        "model_config": dataclasses.asdict(cfg.model_config(50)),
        "limits": dataclasses.asdict(cfg.limits()),
        "train_config": {k: v for k, v in dataclasses.asdict(train_cfg).items() if k != "limits"},
        "decoding": dataclasses.asdict(cfg.decoding()),
    }


class TestRunConfig:
    def test_defaults_are_the_owners_defaults(self):
        cfg = RunConfig()
        assert cfg.model_config(50) == ModelConfig(50)
        assert cfg.train_config() == TrainConfig()
        assert cfg.limits() == AssemblyLimits()
        assert cfg.decoding() == DecodingParams()

    def test_each_key_reaches_exactly_its_owner_field(self):
        fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        owned = {key: owner for owner, keys in _OWNERS.items() for key in keys}
        assert sorted(owned) == sorted(fields.keys() - {"min_freq", "threads"})
        defaults = _projected_fields(RunConfig())
        for key, owner in owned.items():
            default = fields[key].default
            if fields[key].type == "bool":
                value = not default
            elif fields[key].type == "float":
                value = default / 2
            else:
                value = 2 * default or 1
            projected = _projected_fields(RunConfig(**{key: value}))
            changed = {(name, k) for name, values in projected.items()
                       for k, v in values.items() if v != defaults[name][k]}
            field = "seed" if key == "decode_seed" else key
            assert changed == {(owner, field)}, key
            assert projected[owner][field] == value, key
