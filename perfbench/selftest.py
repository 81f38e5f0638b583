"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers: the same seed gives the same request streams; a different
seed gives different content addresses; every seed serves the edge
the same warm work; the core probes read every core and stop; the
oracle flags a corrupted output; a generator stall is charged to the
requests due during it; the exactness ledger fails loudly on the same
code and lets changed code change the counts; span self time excludes
children.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

import common

common.bootstrap()

import edge  # noqa: E402
import spans  # noqa: E402
from repro.flows import flow_names  # noqa: E402
from repro.service import artifact_key  # noqa: E402
from repro.workloads import ALL_KERNELS  # noqa: E402

SEED = 3


def _cold_keys(seed: int):
    return {artifact_key(p.source, p.name)
            for p in common.cold_pass(ALL_KERNELS, flow_names(), seed, 0)}


def _edge_stream(seed: int):
    pool = edge.pool_programs(ALL_KERNELS, seed)
    return [(offset, p.name, p.source, p.flow) for offset, p in
            edge.schedule(ALL_KERNELS, pool, seed, "low", 10.0, 5.0)]


class StreamTests(unittest.TestCase):
    def test_same_seed_same_requests(self):
        first = common.cold_pass(ALL_KERNELS, flow_names(), SEED, 2)
        again = common.cold_pass(ALL_KERNELS, flow_names(), SEED, 2)
        self.assertEqual(first, again)
        self.assertEqual(_edge_stream(SEED), _edge_stream(SEED))
        self.assertEqual(common.data_seed(SEED), common.data_seed(SEED))

    def test_different_seed_different_addresses(self):
        self.assertFalse(_cold_keys(SEED) & _cold_keys(SEED + 1))
        names = {name for _, name, _, _ in _edge_stream(SEED)}
        other = {name for _, name, _, _ in _edge_stream(SEED + 1)}
        self.assertFalse(names & other)

    def test_pass_covers_every_kernel_and_flow_once(self):
        pairs = [(kernel, p.flow) for p in
                 common.cold_pass(ALL_KERNELS, flow_names(), SEED, 0)
                 for kernel, _ in p.entries]
        self.assertEqual(len(pairs), len(set(pairs)))
        self.assertEqual(len(pairs), len(ALL_KERNELS) * len(flow_names()))

    def test_edge_mix_is_one_in_ten_never_seen(self):
        pool = {p.name for p in edge.pool_programs(ALL_KERNELS, SEED)}
        stream = _edge_stream(SEED)
        cold = [name for _, name, _, _ in stream if name not in pool]
        self.assertEqual(len(cold), len(stream) // edge.COLD_EVERY)
        self.assertEqual(len(cold), len(set(cold)))
        slots = [index for index, (_, name, _, _) in enumerate(stream)
                 if name not in pool]
        self.assertGreaterEqual(
            min(b - a for a, b in zip(slots, slots[1:])),
            2 * edge.COLD_MARGIN + 1)


    def test_edge_warm_work_is_the_same_for_every_seed(self):
        def warm_kernels(seed):
            pool = edge.pool_programs(ALL_KERNELS, seed)
            ranks = {p.name: p.entries[0][0] for p in pool}
            return sorted(ranks[p.name] for _, p in edge.schedule(
                ALL_KERNELS, pool, seed, "low", 10.0, 16.0)
                if p.name in ranks)
        self.assertEqual(warm_kernels(SEED), warm_kernels(SEED + 1))
        self.assertEqual(sum(edge.zipf_quota(11, 144)), 144)


class CoreProbeTests(unittest.TestCase):
    def test_scale_reads_each_core_within_the_span(self):
        probes = edge.CoreProbes.__new__(edge.CoreProbes)
        probes.readings = [[(0.0, 0.002), (1.0, 0.004), (2.0, 0.004)],
                           [(0.0, 0.006), (1.0, 0.004), (2.0, 0.004)]]
        ref = common.CAL_REF_S
        self.assertAlmostEqual(probes.scale(0.5, 2.5), ref / 0.004)
        self.assertAlmostEqual(probes.scale(-0.5, 0.5), ref / 0.004)
        probes.readings[1][0] = (0.0, 0.010)
        self.assertAlmostEqual(probes.scale(-0.5, 0.5), ref / 0.006)
        # no reading in the span: each core's whole-run median
        self.assertAlmostEqual(probes.scale(5.0, 6.0), ref / 0.004)

    def test_probes_read_every_core_and_stop(self):
        with tempfile.TemporaryDirectory() as tmp:
            probes = edge.CoreProbes(Path(tmp))
            procs = list(probes.procs)
            time.sleep(1.0)
            probes.stop()
        self.assertTrue(all(proc.returncode is not None for proc in procs))
        self.assertEqual(len(probes.readings), len(probes.paths))
        self.assertTrue(all(probes.readings))


class OracleTests(unittest.TestCase):
    def _run(self, kernel_name: str, flow: str, n: int = 64):
        from repro.service import CompilationService
        from repro.service.requests import CompileRequest
        from repro.targets.registry import executor_for
        kernel = ALL_KERNELS[kernel_name]
        service = CompilationService(executor="inline")
        try:
            image = service.submit(CompileRequest(
                source=kernel.source, name=kernel_name, targets=["x86"],
                flow=flow)).image_for("x86")
        finally:
            service.shutdown()
        inputs = common.InputCache(ALL_KERNELS, 11)
        memory, run = inputs.fresh(kernel_name, n)
        result = executor_for(image, memory).run(kernel.entry,
                                                 list(run.args))
        got = common.snapshot_outputs(memory, run, result.value)
        want = common.reference_outputs(kernel.source, kernel.entry,
                                        kernel, n, 11)
        return got, want

    def test_oracle_accepts_correct_outputs(self):
        for name, flow in (("saxpy_fp", "split"), ("sdot", "split"),
                           ("histogram", "offline-only")):
            got, want = self._run(name, flow)
            self.assertTrue(common.outputs_match(got, want, 64), name)

    def test_oracle_flags_corrupted_array(self):
        got, want = self._run("saxpy_fp", "split")
        value, arrays = got
        corrupted = [list(array) for array in arrays]
        corrupted[0][7] += 1.0
        self.assertFalse(common.outputs_match((value, corrupted), want,
                                              64))

    def test_oracle_flags_corrupted_return_value(self):
        got, want = self._run("sum_u8", "split")
        self.assertFalse(common.outputs_match((got[0] + 1, got[1]), want,
                                              64))


class GeneratorTests(unittest.TestCase):
    def test_stall_is_charged_to_later_requests(self):
        async def send(_connection, _payload):
            await asyncio.sleep(0.002)
            return 200, {}

        def stall(index):
            if index == 5:
                time.sleep(0.3)       # the generator itself is blocked

        items = [(i * 0.02, None) for i in range(20)]
        records = asyncio.run(edge.open_loop(items, send, ["c0", "c1"],
                                             stall=stall))
        # request 5 was dispatched 0.3 s late; 6..19 were due during
        # the stall and dispatched only after it
        self.assertGreaterEqual(records[5].dispatched - records[5].due,
                                0.29)
        self.assertGreaterEqual(records[6].latency, 0.25)
        self.assertGreaterEqual(records[10].latency, 0.15)
        self.assertLess(records[2].latency, 0.1)
        self.assertTrue(all(r.status == 200 for r in records))


class LedgerTests(unittest.TestCase):
    def test_exactness_guard_fails_loudly(self):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(common, "STATE_DIR", Path(tmp)):
            common.check_exact("w", 1, {"code_bytes": 10})
            common.check_exact("w", 1, {"code_bytes": 10})
            common.check_exact("w", 2, {"code_bytes": 11})
            with self.assertRaises(common.ExactnessError):
                common.check_exact("w", 1, {"code_bytes": 12})

    def test_changed_code_may_change_counts(self):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(common, "STATE_DIR", Path(tmp)):
            common.check_exact("w", 1, {"code_bytes": 10}, digest="a")
            common.check_exact("w", 1, {"code_bytes": 12}, digest="b")
            common.check_exact("w", 1, {"code_bytes": 10}, digest="a")
            with self.assertRaises(common.ExactnessError):
                common.check_exact("w", 1, {"code_bytes": 12},
                                   digest="a")

    def test_pass_ledger_rejects_a_moving_count(self):
        import workloads
        ledger = workloads.PassLedger()
        for amount in (5, 5):
            ledger.add("jit.work", amount)
            ledger.close()
        ledger.add("jit.work", 6)
        with self.assertRaises(common.ExactnessError):
            ledger.close()


class SpanTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()

        def child():
            time.sleep(0.05)

        traced_child = tracer.wrap(child, "child")

        def parent():
            time.sleep(0.02)
            traced_child()

        traced_parent = tracer.wrap(parent, "parent")
        tracer.enabled = True
        traced_parent()
        self.assertGreaterEqual(tracer.selfs["child"], 0.05)
        self.assertGreaterEqual(tracer.selfs["parent"], 0.02)
        self.assertLess(tracer.selfs["parent"], 0.045)

    def test_disabled_tracer_records_nothing(self):
        tracer = spans.Tracer()
        tracer.wrap(lambda: None, "x")()
        self.assertEqual(dict(tracer.selfs), {})


if __name__ == "__main__":
    unittest.main()
