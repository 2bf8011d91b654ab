#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the checkout root:

    python3 perfbench/selftest.py

Unit tests of the helpers, the Rust package's own tests, and a tiny traced
dry run of every workload on a held-out seed, which must pass its oracle.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import traffic  # noqa: E402

HELD_OUT_SEED = 9001


class Percentiles(unittest.TestCase):
    def test_refuses_a_percentile_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(99), 90)
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(19), 50)

    def test_nearest_rank_with_ten_beyond(self):
        self.assertEqual(stats.percentile(range(1, 101), 90), 90)
        self.assertEqual(stats.percentile(range(1, 21), 50), 10)


class Traffic(unittest.TestCase):
    def test_the_same_seed_gives_the_same_requests(self):
        def requests(seed):
            rng = traffic.stream(seed, "probe")
            kinds = traffic.Blocks(rng, traffic.INTERACTIVE_KINDS)
            return [traffic.line(traffic.interactive(rng, kinds)) for _ in range(50)] + [
                traffic.line(traffic.exact_batch(seed, n, "full")) for n in range(5)
            ] + [traffic.line(traffic.greedy_batch(seed, n, "full")) for n in range(5)]

        self.assertEqual(requests(3), requests(3))
        self.assertNotEqual(requests(3), requests(4))

    def test_blocks_draw_every_item_once_per_block(self):
        blocks = traffic.Blocks(traffic.stream(1, "t"), "abc")
        drawn = [blocks.next() for _ in range(9)]
        for at in range(0, 9, 3):
            self.assertEqual(sorted(drawn[at:at + 3]), ["a", "b", "c"])

    def test_greedy_jobs_cycle_a_fixed_set_of_draws(self):
        first = traffic.greedy_batch(5, 0, "full")
        self.assertEqual(first, traffic.greedy_batch(5, traffic.GREEDY_DRAWS, "full"))
        self.assertNotEqual(first, traffic.greedy_batch(5, 1, "full"))


class RustPackage(unittest.TestCase):
    def test_cargo_tests_pass(self):
        done = subprocess.run(
            ["cargo", "test", "--release", "--manifest-path", str(HERE / "Cargo.toml")],
            capture_output=True,
            text=True,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


class DryRuns(unittest.TestCase):
    """A tiny traced run of each workload passes its oracle and the replay."""

    def dry_run(self, workload):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(HELD_OUT_SEED), "--seconds", "1", "--trace", "1", "--tiny"],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
        )
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for name in ("flatten.ns", "partition.search_ns", "unattributed_ns", "trace_overhead"):
            self.assertIn(name, result["metrics"])
        trace = json.loads((HERE.parent / ".perfbench" / "out" / f"{workload}-tiny" / "trace.json").read_text())
        self.assertTrue(any(event.get("ph") == "X" for event in trace["traceEvents"]))

    def test_sweep_greedy(self):
        self.dry_run("sweep-greedy")

    def test_sweep_exact(self):
        self.dry_run("sweep-exact")

    def test_interactive_restart(self):
        self.dry_run("interactive-restart")


if __name__ == "__main__":
    unittest.main(verbosity=2)
