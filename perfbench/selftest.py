"""Self-tests for the benchmark's own code (not the package's).

    python3 perfbench/selftest.py

Covers the percentile rule, self time from nested spans, the bases of the
traced ratios, and failure counting: a refused request and a failed output
check each count in ops_failed.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from kgdialog import corpus, masking, model, sequence, training  # noqa: E402
from kgdialog.masking import NEG_INF  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        (HERE.parent / ".perfbench_work").mkdir(exist_ok=True)

    def test_needs_ten_samples_beyond(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(run.percentile(values, 90), 90.0)  # 91..100 lie beyond
        with self.assertRaises(ValueError):
            run.percentile(values[:99], 90)  # only nine beyond
        self.assertEqual(run.percentile(values[:20], 50), 10.0)

    def test_blockwise_takes_the_median_of_block_statistics(self):
        fast, slow = [float(i) for i in range(1, 101)], [float(i) for i in range(101, 201)]
        p90 = lambda values: run.percentile(values, 90)  # noqa: E731
        # one slow block of three moves the whole run's p90 but not the median of block p90s
        self.assertEqual(run.blockwise(fast + fast + slow, 100, p90), 90.0)
        self.assertEqual(p90(fast + fast + slow), 170.0)
        self.assertEqual(run.blockwise(fast + slow, 0, p90), p90(fast + slow))  # no blocks
        self.assertEqual(run.blockwise(fast[:50] + slow, 100, p90), p90(fast[:50] + slow))  # under two blocks
        self.assertEqual(run.blockwise(fast + slow + fast[:50], 100, max), 150.0)  # a partial block is dropped

    def test_ground_interleaves_questions_within_blocks(self):
        samples = [(g, j) for g in range(4) for j in range(3)] + ["tail"]  # 2 blocks of 2 graphs x 3
        self.assertEqual(workloads._interleave(samples, 2, 3), [
            (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2),
            (2, 0), (3, 0), (2, 1), (3, 1), (2, 2), (3, 2), "tail"])

    def test_chat_and_ground_runs_hold_enough_requests(self):
        for seconds in (0.1, 10):
            for workload, name in (("chat", "chat.json"), ("ground", "ground.json")):
                with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench_work") as out:
                    gen.generate(workload, seed=1, seconds=seconds, out=Path(out))
                    n = len(corpus.load_dataset(Path(out) / name, "test"))
                self.assertGreaterEqual(n, gen.MIN_REQUESTS)
                run.percentile([1.0] * n, 90)
        block = workloads.Result(block=len(gen.GROUND_TRIPLES) * gen.GROUND_QUESTIONS_PER_GRAPH).block
        run.percentile([1.0] * block, 90)  # each ground block holds enough requests on its own


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        spans = [
            ["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 3.0, 0, 0],
            ["b", 2.0, 5.0, 0, 0],  # overlaps a: children cover [1, 5]
            ["leaf", 2.5, 2.75, 2, 0],
            ["c", 9.0, 12.0, 0, 0],  # clipped to the parent: covers [9, 10]
        ]
        self.assertEqual(tracer.self_times(spans), [5.0, 2.0, 2.75, 0.25, 3.0])

    def test_wrapped_calls_record_parents_and_requests(self):
        t = tracer.Tracer()

        def inner(x):
            return x + 1

        inner = t.wrap("model.loss_batch", inner)

        def outer(x):
            return inner(inner(x))

        outer = t.wrap("training.train", outer)
        t.request_id = 7
        self.assertEqual(outer(1), 3)
        self.assertEqual([s[0] for s in t.spans], ["training.train", "model.loss_batch", "model.loss_batch"])
        self.assertEqual([s[3] for s in t.spans], [-1, 0, 0])
        self.assertEqual({s[4] for s in t.spans}, {7})
        own = tracer.self_times(t.spans)
        parent = t.spans[0][2] - t.spans[0][1]
        children = sum(s[2] - s[1] for s in t.spans[1:])
        self.assertAlmostEqual(own[0], parent - children, places=9)


def _tiny():
    split = corpus.generate_synthetic(corpus.SynthConfig(n_dialogues=3, n_subjects_per_graph=2, n_relations=2, seed=5))
    vocab = sequence.build_vocab([split])
    cfg = model.ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, n_layers=1, d_ff=32, dropout=0.0,
                            max_entity_ids=8, max_triple_ids=16, max_positions=128)
    return split, vocab, model.init_model(cfg, seed=3)


class RatioBases(unittest.TestCase):
    def test_counters_at_package_boundaries(self):
        split, vocab, state = _tiny()
        limits = sequence.AssemblyLimits()
        t = tracer.Tracer()
        original = model.forward_batch
        with t:
            self.assertIsNot(model.forward_batch, original)
            self.assertIs(training.forward_batch, model.forward_batch)  # one wrapper at every attribute
            pairs = [training.build_sample_inputs(s, vocab, state, 2, 2, True, limits) for s in split.samples[:2]]
            n = max(seq.n for seq, _ in pairs)
            masks = [masking.compose_mask(seq, cols, n - seq.n) for seq, cols in pairs]
            batch = model.pack_batch([seq for seq, _ in pairs], masks, False)
            training.forward_batch(state, batch)
            seq, cols = training.build_sample_inputs(split.samples[0], vocab, state, 2, 2, True, limits,
                                                     with_gold=False)
            params = model.DecodingParams(top_k=1, max_response_length=3)
            out = model.sample_response(state, seq, masking.compose_mask(seq, cols), params, vocab.eos_id)
        self.assertIs(model.forward_batch, original)
        self.assertIs(training.forward_batch, original)

        m = {k: v for k, (v, _) in tracer.layer_metrics(t, 1.0, 1.5, 1.0).items()}
        steps = len(out) + (len(out) < 3)  # a final [EOS] costs a step too
        decode_positions = sum(seq.n + i for i in range(steps))
        real = sum(s.n for s, _ in pairs)
        self.assertEqual(m["model.tokens_generated"], steps)
        self.assertEqual(m["model.sample_response.positions"], decode_positions)
        self.assertEqual(m["model.positions_per_token"], decode_positions / steps)
        self.assertEqual(m["model.forward_batch.positions"], 2 * n + decode_positions)
        self.assertEqual(m["model.padded_positions"], 2 * n - real)
        self.assertAlmostEqual(m["model.padding_share"], (2 * n - real) / (2 * n + decode_positions))
        self.assertEqual(m["sequence.assemble_input.calls"], 3)
        self.assertEqual(m["sequence.tokens"], real + seq.n)
        self.assertEqual(m["sequence.truncated_share"], 0.0)
        self.assertEqual(m["masking.masked_key_share"], m["masking.masked_keys"] / m["masking.knowledge_keys"])
        self.assertEqual(m["masking.fallback_share"],
                         m["masking.fallbacks"] / m["masking.knowledge_column_mask.calls"])
        graph_nodes = sum(s.graph.n_entities + s.graph.n_relations for s in (*split.samples[:2], split.samples[0]))
        self.assertEqual(m["graph_weights.nodes"], graph_nodes)
        self.assertAlmostEqual(m["trace.overhead_share"], 0.5)

    def test_empty_base_gives_zero(self):
        m = {k: v for k, (v, _) in tracer.layer_metrics(tracer.Tracer(), 1.0, 1.0, 1.0).items()}
        self.assertEqual(m["model.padding_share"], 0.0)
        self.assertEqual(m["model.positions_per_token"], 0.0)


class FailureCounting(unittest.TestCase):
    def setUp(self):
        base = HERE.parent / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
        gen.generate("ground", seed=1, seconds=0.1, out=self.work)
        self.ground = workloads.WORKLOADS["ground"]
        self.ctx = self.ground.setup(self.work)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_refused_request_counts_as_failed(self):
        good = self.ctx["requests"][:3]
        too_long = dataclasses.replace(good[0], question=" ".join(["what"] * 500))
        self.ctx["requests"] = [good[0], too_long, *good[1:]]
        res = self.ground.run(self.ctx)
        self.assertEqual((res.attempted, res.failed), (4, 1))
        self.assertEqual(len(res.latencies_ms), 4)  # a refusal still counts against any latency limit
        self.assertEqual(res.tokens[1], 0)

    def test_failed_check_counts_as_failed(self):
        self.ctx["requests"] = self.ctx["requests"][:4]
        res = self.ground.run(self.ctx)
        for _, seq, mask in res.records:
            mask.values[seq.n - 1, 0] = NEG_INF  # hide [BOS] from the last query
        self.ground.check(self.ctx, res)
        self.assertEqual(res.matched, 0)
        self.assertEqual(res.failed, res.checked)
        self.assertGreater(res.checked, 0)
        metrics = run.end_to_end(dataclasses.replace(res, latencies_ms=[]), 0.1, 1.0)
        self.assertEqual(metrics["ref_match_share"], 0.0)

    def test_checks_pass_on_unmodified_output(self):
        self.ctx["requests"] = self.ctx["requests"][:4]
        res = self.ground.run(self.ctx)
        self.ground.check(self.ctx, res)
        self.assertEqual((res.failed, res.matched), (0, res.checked))


if __name__ == "__main__":
    unittest.main()
