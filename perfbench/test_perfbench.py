#!/usr/bin/env python3
"""Checks of the benchmark itself, not of the simulator's speed.

Run from the repository root:

    python3 perfbench/test_perfbench.py [-k WORKLOAD]

For each workload it runs simr_perfbench twice untraced and once traced,
all with the same seed, and checks that:
  * every operation passed its output check;
  * the digest of every simulated statistic, and the digest of the cache
    reuse, are identical across the three runs (traced included), so a
    speed-only change can show that it left the model unchanged;
  * the workload ran on one worker: CPU time stays within 10% of wall
    time;
  * every process's start-up (launch to main, part of setup_s) was
    timed, and cluster_1024 has no set-up phase besides it;
  * the traced run's span file passes tools/check_trace.py and the layer
    self times cover at least 90% of the chip workloads' wall time;
  * the traced run shows the layer mix the workload was chosen for, with
    the timing shim's clock reads moved into bench.clock_s.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 5
SELF_TIMES = ("core.self_s", "trace.self_s", "simr.self_s", "mem.study_s",
              "services.build_s", "services.gen_s", "analysis.gate_s",
              "batching.form_s", "energy.self_s", "sys.cpu.self_s",
              "sys.rpu_split.self_s", "sys.rpu_nosplit.self_s")
CHIP_COUNTS = ("core.batch_ops", "simt.batch_ops", "trace.live_ops",
               "trace.captured_ops", "trace.replayed_ops", "mem.l1_accesses",
               "services.requests", "analysis.programs", "batching.batches")


class WorkloadChecks:
    """Checks every workload passes; mixed into one TestCase each."""

    workload = None

    @classmethod
    def setUpClass(cls):
        binary = run.build()
        cls.spans = os.path.join(run.build_dir(),
                                 f"spans-{cls.workload}-test.json")
        cls.plain = [run.run_once(binary, cls.workload, SEED)
                     for _ in range(2)]
        cls.traced = run.run_once(binary, cls.workload, SEED, cls.spans)
        cls.layers = cls.traced["layers"]

    def test_operations_pass(self):
        for r in self.plain + [self.traced]:
            self.assertEqual(r["exit"], 0)
            self.assertEqual(r["ops_failed"], 0)
            self.assertGreater(r["ops"], 0)

    def test_digests_identical(self):
        for r in self.plain[1:] + [self.traced]:
            self.assertEqual(r["digest"], self.plain[0]["digest"])
            self.assertEqual(r["reuse_digest"], self.plain[0]["reuse_digest"])
            self.assertEqual(r["sim_requests"], self.plain[0]["sim_requests"])

    def test_startup_timed(self):
        for r in self.plain + [self.traced]:
            self.assertGreater(r["startup_s"], 0)

    def test_one_worker(self):
        for r in self.plain:
            self.assertLess(abs(r["cpu_s"] - r["wall_s"]), 0.1 * r["wall_s"])

    def test_span_file(self):
        self.assertTrue(run.check_spans(self.spans))

    def largest_self_time(self):
        return max(SELF_TIMES, key=lambda k: self.layers[k])


class ReproduceCold(WorkloadChecks, unittest.TestCase):
    workload = "reproduce_cold"

    def test_layer_mix(self):
        self.assertGreaterEqual(self.layers["bench.coverage"],
                                run.MIN_COVERAGE)
        self.assertEqual(self.largest_self_time(), "trace.self_s")
        self.assertEqual(self.layers["simr.stream_hit_ratio"], 0)
        self.assertGreater(self.layers["trace.request_hit_ratio"], 0)
        self.assertGreater(self.layers["bench.clock_s"], 0)
        for k in ("core.cpu.self_s", "core.smt8.self_s", "core.rpu.self_s",
                  "core.gpu.self_s", "mem.study_s"):
            self.assertGreater(self.layers[k], 0, k)


class DesignWarm(WorkloadChecks, unittest.TestCase):
    workload = "design_warm"

    def test_layer_mix(self):
        self.assertGreaterEqual(self.layers["bench.coverage"],
                                run.MIN_COVERAGE)
        self.assertEqual(self.largest_self_time(), "core.self_s")
        self.assertEqual(self.layers["simr.stream_hit_ratio"], 1)
        self.assertEqual(self.layers["trace.live_ops"], 0)
        self.assertGreater(self.layers["setup.trace.self_s"], 0)
        self.assertGreater(self.layers["bench.clock_s"], 0)


class Cluster1024(WorkloadChecks, unittest.TestCase):
    workload = "cluster_1024"

    def test_layer_mix(self):
        for k in CHIP_COUNTS:
            self.assertEqual(self.layers[k], 0, k)
        for k in SELF_TIMES:
            if not k.startswith("sys."):
                self.assertEqual(self.layers[k], 0, k)
        self.assertGreater(self.layers["sys.events"], 0)
        self.assertEqual(self.largest_self_time(), "sys.cpu.self_s")

    def test_no_setup_phase(self):
        for r in self.plain + [self.traced]:
            self.assertEqual(r["setup_rounds_s"], 0)
            self.assertEqual(r["setup_ops_s"], [])


if __name__ == "__main__":
    unittest.main()
