import dataclasses
import json

import pytest

from kgdialog.cli import main


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
        from kgdialog.checkpoint import read_header

        header = read_header(out / "model.ckpt")
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
        from kgdialog.checkpoint import read_header

        assert read_header(out / "model.ckpt")["model_config"]["d_model"] == 16


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
        import shutil

        from kgdialog.checkpoint import load_checkpoint, save_checkpoint

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

    def test_heads_not_dividing_width(self, data_dir, tmp_path, capsys):
        rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--quiet",
                   "--epochs", "1", "--d-model", "30", "--n-heads", "4"])
        assert rc == 2
        assert "error: invalid config: d_model 30 not divisible by n_heads 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestChat:
    def run_chat(self, run_dir, tmp_path, monkeypatch, lines, max_response_length=5):
        import io

        kg = tmp_path / "kg.json"
        kg.write_text(json.dumps({"triples": [["starbucks", "distance", "4 miles"]]}))
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        return main(["chat", "--ckpt", str(run_dir / "model.ckpt"), "--kg", str(kg),
                     "--max-response-length", str(max_response_length)])

    def test_quit_immediately(self, run_dir, tmp_path, monkeypatch):
        assert self.run_chat(run_dir, tmp_path, monkeypatch, ["/quit"]) == 0

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
        import io

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


class TestHelp:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for key in ("--lr", "--k-entity", "--max-history-turns", "--temperature", "--use-kg-mask"):
            assert key in out
        assert "default" in out
