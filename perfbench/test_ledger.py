#!/usr/bin/env python3
"""Self-tests of the benchmark ledger.

Run from the repository root:

    python3 perfbench/test_ledger.py

They build the ledger (as run.py does) and run each workload for a few
seconds, so they take about two minutes. Covered:
  * the metric-name and unit grammar of BENCHMARK.json;
  * every declared metric is emitted, with its declared unit, on every
    workload: end-to-end metrics untraced, per-layer metrics traced;
  * the traced run's span log: self times add up to each operation's
    duration, and the layer sums land near the untraced end-to-end figures;
  * two runs with the same seed see identical inputs and identical exact
    counts; another seed sees other inputs;
  * a run too short to back its p99s with 1000 samples is marked failed.
"""
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the runner's build step)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Long enough that every p99 rests on 1000 samples.
SHORT_S = "3"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


_LEDGER = None
_RUNS = {}


def ledger():
    global _LEDGER
    if _LEDGER is None:
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            path = run.build()
        finally:
            os.chdir(cwd)
        if path is None:
            raise RuntimeError("ledger build failed")
        _LEDGER = os.path.join(ROOT, path)
    return _LEDGER


def run_ledger(workload, seed, trace, seconds=SHORT_S, spans=None, expect_rc=0):
    """Run once (memoized) and return (header, detail, result)."""
    key = (workload, seed, trace, seconds, spans)
    if key not in _RUNS:
        cmd = [ledger(), "--workload", workload, "--seed", str(seed), "--seconds", seconds,
               "--trace", str(trace)]
        if spans:
            cmd += ["--spans-out", spans]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
        lines = [json.loads(line) for line in done.stdout.splitlines()]
        if done.returncode != expect_rc:
            raise AssertionError(f"{cmd} exited {done.returncode}: {lines[-1:]}")
        _RUNS[key] = (lines[0]["header"], lines[1]["detail"], lines[-1])
    return _RUNS[key]


class MetricGrammar(unittest.TestCase):
    def test_benchmark_json_grammar(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))


class EveryMetricEmitted(unittest.TestCase):
    def check(self, trace, declared):
        bench = load_benchmark()
        want = {m["name"]: m["unit"] for m in bench[declared]}
        for w in bench["workloads"]:
            header, _, result = run_ledger(w["name"], 11, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertIs(result["correct"], True, w["name"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            got = result["metrics"]
            self.assertEqual(set(got), set(want), w["name"])
            for name, unit in want.items():
                self.assertEqual(got[name]["unit"], unit, name)
                self.assertTrue(math.isfinite(got[name]["value"]), name)
            for key in ("nproc", "compiler", "build_type", "seed", "threads", "seconds"):
                self.assertIn(key, header)
            self.assertEqual(header["oversubscribed"], header["threads"] > header["nproc"])

    def test_end_to_end_untraced(self):
        self.check(0, "end_to_end")

    def test_per_layer_traced(self):
        self.check(1, "per_layer")


class LayerSums(unittest.TestCase):
    def test_traced_run_accounts_for_each_link(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.jsonl")
            _, _, result = run_ledger("deploy_churn", 12, 1, seconds="4", spans=path)
            with open(path) as f:
                spans = [json.loads(line) for line in f]
        self.assertEqual(len(spans), result["metrics"]["trace.spans"]["value"])
        children = {}
        for s in spans:
            if s["parent"] >= 0:
                children.setdefault(s["parent"], []).append(s)
        ops = [s for s in spans if s["name"] == "control.link_op"]
        self.assertGreater(len(ops), 100)
        layers = {"control.snapshot", "control.link_single", "lang.lex", "lang.parse",
                  "compiler.semcheck", "compiler.translate", "compiler.solve"}
        for op in ops[:200]:
            names = {c["name"] for c in children.get(op["i"], [])}
            self.assertTrue(layers <= names, names)
            call = next(c for c in children[op["i"]] if c["name"] == "control.link_single")
            phases = {c["name"] for c in children.get(call["i"], [])}
            self.assertTrue({"control.txn.reserve", "control.entrygen", "control.txn.stage",
                             "control.txn.commit"} <= phases, phases)
            # Self time of the subtree adds up to the op's duration.
            subtree = [op]
            total_self = 0
            while subtree:
                node = subtree.pop()
                total_self += node["self_ns"]
                subtree.extend(children.get(node["i"], []))
            self.assertEqual(total_self, op["end_ns"] - op["start_ns"])
        m = result["metrics"]
        parts = ["lang.lex_us", "lang.parse_us", "compiler.semcheck_us",
                 "compiler.translate_us", "control.snapshot_us", "compiler.solve_us",
                 "control.txn_reserve_us", "compiler.entrygen_us", "control.txn_stage_us",
                 "control.txn_commit_us", "control.link_residual_us"]
        layer_sum = sum(m[p]["value"] for p in parts)
        self.assertAlmostEqual(layer_sum, m["trace.ctrl_layer_sum_us"]["value"], places=6)
        # Layer sums against the untraced end-to-end figures: a loose bound,
        # since a short run on a shared host is noisy.
        self.assertLess(abs(m["trace.ctrl_layer_gap"]["value"]), 0.5)
        self.assertLess(abs(m["trace.pkt_layer_gap"]["value"]), 0.5)
        self.assertTrue(math.isfinite(m["trace.ctrl_overhead_us"]["value"]))
        self.assertTrue(math.isfinite(m["trace.pkt_overhead_share"]["value"]))


class SameSeedSameCounts(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        for workload in ("deploy_churn", "trace_replay"):
            a, _, _ = run_ledger(workload, 21, 0)
            b, _, _ = run_ledger(workload, 21, 0, seconds="4")
            c, _, _ = run_ledger(workload, 22, 0)
            self.assertEqual(a["input_digest"], b["input_digest"], workload)
            self.assertNotEqual(a["input_digest"], c["input_digest"], workload)

    def test_exact_counts_repeat(self):
        exact = lambda r, name: r["metrics"][name]["value"]
        for workload in ("deploy_churn", "trace_replay"):
            _, d1, r1 = run_ledger(workload, 23, 0, seconds="4")
            _, d2, r2 = run_ledger(workload, 23, 0, seconds="5")
            self.assertEqual(d1["exact_prefix_links"], d2["exact_prefix_links"])
            self.assertEqual(exact(r1, "update_vms_per_link"), exact(r2, "update_vms_per_link"))
        _, _, t1 = run_ledger("deploy_churn", 24, 1, seconds="6")
        _, _, t2 = run_ledger("deploy_churn", 24, 1, seconds="7")
        for name in ("control.writes_per_link", "compiler.solve_nodes",
                     "control.update_vms_per_link"):
            self.assertEqual(exact(t1, name), exact(t2, name), name)
        _, _, p1 = run_ledger("trace_replay", 25, 1)
        _, _, p2 = run_ledger("trace_replay", 25, 1, seconds="4")
        self.assertGreater(exact(p1, "rmt.lookups_per_pkt"), 0)
        self.assertEqual(exact(p1, "rmt.lookups_per_pkt"), exact(p2, "rmt.lookups_per_pkt"))


class TailRule(unittest.TestCase):
    def test_short_run_fails_the_p99_sample_rule(self):
        # A quarter second yields far fewer than 1000 packet batches.
        _, detail, result = run_ledger("trace_replay", 26, 0, seconds="0.25", expect_rc=1)
        self.assertIs(result["correct"], False)
        self.assertLess(detail["batch_samples"], 1000)
        self.assertIn("batch p99 rests on >= 1000 samples",
                      [f["check"] for f in detail["failed_checks"]])


if __name__ == "__main__":
    unittest.main(verbosity=2)
