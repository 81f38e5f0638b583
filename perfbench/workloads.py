"""The in-process workloads: ``cold_fanout`` and ``hot_run``.

Both are closed loops with one client: the next op starts when the
previous one returned.  Ops run in *passes* for ``seconds``; every
pass covers the same multiset of work, so the exact counts of each
complete pass must be identical.  A traced run pairs each pass with a
replay that records spans, and reports the tracing overhead.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Tuple

import common
from common import (
    CHECK_N, ExactnessError, HostSpeed, InputCache, Outcome, STATE_DIR,
    median, outputs_match, quantile, reference_outputs, rng_for,
    snapshot_outputs,
)
from spans import Tracer, install_layers, layer_metrics

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: flows and sizes of the hot execution op list
HOT_FLOWS = ("split", "offline-only", "adaptive")
HOT_SIZES = (1024, 4096)


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(out: Outcome, seconds: List[float]) -> None:
    """Latency percentiles and closed-loop throughput of ops timed in
    reference-host seconds (``seconds`` is not empty)."""
    ms = [s * 1e3 for s in seconds]
    out.put("op_ms.p50", median(ms), "ms", len(ms))
    out.put("op_ms.p95", quantile(ms, 0.95), "ms", len(ms))
    out.put("ops_per_s", len(ms) * 1e3 / sum(ms), "1/s", len(ms))


class PassLedger:
    """Exact counts per complete pass; every pass must repeat the
    first one exactly."""

    def __init__(self):
        self.first: Dict[str, int] = {}
        self.current: Dict[str, int] = {}
        self.passes = 0
        self.tainted = False

    def add(self, name: str, amount: int) -> None:
        self.current[name] = self.current.get(name, 0) + amount

    def taint(self) -> None:
        """An op of this pass failed: its counts are incomplete (the
        failure itself is counted in ``failed``)."""
        self.tainted = True

    def close(self) -> None:
        current, self.current = self.current, {}
        if self.tainted:
            self.tainted = False
        elif not self.passes:
            self.first = current
            self.passes = 1
        elif current != self.first:
            raise ExactnessError(
                f"pass {self.passes} exact counts {current} differ "
                f"from the first pass {self.first}")
        else:
            self.passes += 1


def closed_loop(make_pass: Callable[[int, bool], list], op: Callable,
                seconds: float, tracer: Tracer, traced: bool,
                ledger: PassLedger) -> Tuple[list, list, list]:
    """Run passes of ops for ``seconds`` (at least one complete pass).

    Returns (untraced, traced) latencies in reference-host seconds,
    each op scaled by the calibration samples taken around it, and the
    raw untraced seconds.  ``op(item)`` returns its latency,
    or None when it failed (a failure fails the run and must not
    improve the latencies).  ``make_pass(index, replay)`` builds
    pass ``index``.  A traced run pairs each untraced pass with a
    replay (same work, fresh names where freshness matters) with spans
    recording, alternating which goes first, so both halves see the
    same work at the same point in the run and their ratio is the
    tracing overhead.  A run stops only at a pass boundary (after a
    whole pair when traced).
    """
    untraced: List[float] = []
    traced_lat: List[float] = []
    raw_untraced: List[float] = []
    end = time.perf_counter() + seconds
    index = 0
    while True:
        pair = (False, True) if index % 2 == 0 else (True, False)
        for replay in (pair if traced else (False,)):
            speed = HostSpeed()
            raw = []
            tracer.enabled = replay
            for item in make_pass(index, replay):
                before = speed.tick()
                latency = op(item)
                if latency is not None:
                    raw.append((latency, before))
            tracer.enabled = False
            speed.burst(1)
            ledger.close()
            sink = traced_lat if replay else untraced
            sink += [latency * speed.scale_at(before)
                     for latency, before in raw]
            if not replay:
                raw_untraced += [latency for latency, _ in raw]
        index += 1
        if time.perf_counter() >= end:
            return untraced, traced_lat, raw_untraced


@contextlib.contextmanager
def untimed(tracer: Tracer):
    """Pause span recording (output checks are not part of any layer's
    measured work)."""
    was, tracer.enabled = tracer.enabled, False
    try:
        yield
    finally:
        tracer.enabled = was


def tier2_requests() -> int:
    from repro.targets import dispatch
    from repro.vm import threaded
    return (dispatch.tier2_build_stats()["request"] +
            threaded.tier2_build_stats()["request"])


def tiering(executor) -> Dict[str, int]:
    vm = getattr(executor, "vm", None)
    return (vm or executor).tiering_stats()


def finish(out: Outcome, tracer: Tracer, traced: bool, loop: tuple,
           setups: List[float], rss: float) -> None:
    """Fill the end-to-end or the per-layer metrics from the
    closed loop's latencies (none when every op failed)."""
    untraced_lat, traced_lat, raw = loop
    if not untraced_lat or (traced and not traced_lat):
        return
    if not traced:
        out.put("setup_s", median(setups), "s", len(setups))
        out.put("peak_rss_mb", rss, "MB")
        latency_metrics(out, untraced_lat)
        out.put("raw.op_ms.p50", median(raw) * 1e3, "ms", len(raw))
        return
    for name, (value, unit) in layer_metrics(tracer,
                                             len(traced_lat)).items():
        out.put(name, value, unit)
    out.put("trace_overhead_ratio",
            median(traced_lat) / median(untraced_lat), "ratio",
            len(traced_lat))


# ---------------------------------------------------------------------------
# cold_fanout
# ---------------------------------------------------------------------------

def cold_fanout(seed: int, seconds: float, traced: bool) -> Outcome:
    """Fresh 1-3 kernel modules through the sync service, fanned out
    to every registered target; every layer compiles, the cache only
    writes."""
    common.pin_to_one_core()
    from repro.flows import flow_names
    from repro.service import CompilationService
    from repro.service.requests import CompileRequest
    from repro.targets.registry import executor_for, target_names
    from repro.workloads import ALL_KERNELS

    out = Outcome()
    targets = list(target_names())
    flows = list(flow_names())
    dseed = common.data_seed(seed)
    inputs = InputCache(ALL_KERNELS, dseed)
    tracer = Tracer()
    if traced:
        install_layers(tracer)

    STATE_DIR.mkdir(exist_ok=True)
    state = {"service": None, "persist": None}

    def setup(index: int) -> None:
        if state["service"] is not None:
            state["service"].shutdown()
            shutil.rmtree(state["persist"], ignore_errors=True)
        state["persist"] = tempfile.mkdtemp(prefix="cold-", dir=STATE_DIR)
        state["service"] = CompilationService(persist_dir=state["persist"])
        # one small request per flow: lazy imports and first-use
        # set-up belong to set-up, not to the first measured pass
        for flow in flows:
            warm = common.make_program(ALL_KERNELS, ["vecadd_fp"], flow,
                                       f"s{seed}warm{index}{flow[:3]}")
            state["service"].submit(CompileRequest(
                source=warm.source, name=warm.name, targets=targets,
                flow=flow))

    setups = common.timed_setups(setup, SETUP_REPEATS)
    service, persist = state["service"], state["persist"]

    ledger = PassLedger()

    def op(program) -> float:
        request = CompileRequest(source=program.source,
                                 name=program.name, targets=targets,
                                 flow=program.flow)
        out.attempted += 1
        begin = time.perf_counter()
        try:
            result = service.submit(request)
        except Exception as exc:      # counted, never fatal to the run
            out.fail(f"{program.name}: {type(exc).__name__}: {exc}")
            ledger.taint()
            return None
        latency = time.perf_counter() - begin
        with untimed(tracer):
            check_cold(program, result)
        return latency

    def check_cold(program, result) -> None:
        ledger.add("opt.work", sum(result.offline_pass_work.values()))
        want = {entry: reference_outputs(program.source, entry,
                                         ALL_KERNELS[kernel], CHECK_N,
                                         dseed)
                for kernel, entry in program.entries}
        for name in targets:
            image = result.image_for(name)
            ledger.add("code_bytes", image.total_code_bytes)
            ledger.add("jit.work", image.total_jit_work)
            for kernel, entry in program.entries:
                memory, run = inputs.fresh(kernel, CHECK_N)
                # the reference engine: no predecode to pay per image
                sim = executor_for(image, memory, engine="reference").run(
                    entry, list(run.args))
                ledger.add("modeled_cycles", sim.cycles)
                got = snapshot_outputs(memory, run, sim.value)
                if not outputs_match(got, want[entry], CHECK_N):
                    out.wrong_output(f"{program.name}/{name}/{entry}: "
                                     f"output differs from the IR "
                                     f"interpreter")

    loop = closed_loop(
        lambda index, replay: common.cold_pass(ALL_KERNELS, flows, seed,
                                               index, replay),
        op, seconds, tracer, traced, ledger)
    rss = peak_rss_mb()
    service.shutdown()
    shutil.rmtree(persist, ignore_errors=True)
    report_exact(out, ledger, traced, ("code_bytes",),
                 ("opt.work", "jit.work", "modeled_cycles"))
    finish(out, tracer, traced, loop, setups, rss)
    return out


def report_exact(out: Outcome, ledger: PassLedger, traced: bool,
                 end_to_end, per_layer) -> None:
    """Exact counts of the first clean pass: guarded, and reported
    (a run whose every pass had a failure reports none)."""
    out.exact = dict(ledger.first)
    units = {"code_bytes": "bytes"}
    for name in (per_layer if traced else end_to_end):
        if name in ledger.first:
            out.put(name, ledger.first[name], units.get(name, "count"))


# ---------------------------------------------------------------------------
# hot_run
# ---------------------------------------------------------------------------

def hot_run(seed: int, seconds: float, traced: bool) -> Outcome:
    """Deployed images executed over and over: every compile layer is
    a memo hit, so the ops isolate the engines (vm, targets dispatch,
    tier-2, OSR, semantics)."""
    common.pin_to_one_core()
    from repro.service import CompilationService
    from repro.service.requests import CompileRequest
    from repro.targets.registry import executor_for, target_names
    from repro.workloads import ALL_KERNELS

    out = Outcome()
    targets = list(target_names())
    dseed = common.data_seed(seed)
    inputs = InputCache(ALL_KERNELS, dseed)
    names = sorted(ALL_KERNELS)
    # The oracle and the input arrays are prepared before set-up and
    # are not part of it.
    references = {(name, n): reference_outputs(
                      ALL_KERNELS[name].source, ALL_KERNELS[name].entry,
                      ALL_KERNELS[name], n, dseed)
                  for name in names for n in HOT_SIZES}
    for name in names:
        for n in HOT_SIZES:
            inputs.fresh(name, n)
    tracer = Tracer()
    if traced:
        install_layers(tracer)

    state = {"service": None, "images": {}}

    def setup(index: int) -> None:
        if state["service"] is not None:
            state["service"].shutdown()
        service = state["service"] = CompilationService()
        images = state["images"] = {}
        for name in names:
            kernel = ALL_KERNELS[name]
            for flow in HOT_FLOWS:
                result = service.submit(CompileRequest(
                    source=kernel.source, name=name, targets=targets,
                    flow=flow))
                for target in targets:
                    image = result.image_for(target)
                    images[(name, flow, target)] = image
                    memory, run = inputs.fresh(name, HOT_SIZES[0])
                    executor_for(image, memory).run(kernel.entry,
                                                    list(run.args))

    setups = common.timed_setups(setup, SETUP_REPEATS)
    service, images = state["service"], state["images"]

    op_list = [(name, flow, target, n) for name in names
               for flow in HOT_FLOWS for target in targets
               for n in HOT_SIZES]
    ledger = PassLedger()
    instructions = [0, 0]       # untraced, traced

    def make_pass(index: int, replay: bool) -> list:
        ops = op_list[:]
        rng_for(seed, "hot", index).shuffle(ops)
        return ops

    def op(item) -> float:
        name, flow, target, n = item
        kernel = ALL_KERNELS[name]
        memory, run = inputs.fresh(name, n)
        executor = executor_for(images[(name, flow, target)], memory)
        out.attempted += 1
        begin = time.perf_counter()
        try:
            result = executor.run(kernel.entry, list(run.args))
        except Exception as exc:      # counted, never fatal to the run
            out.fail(f"{item}: {type(exc).__name__}: {exc}")
            ledger.taint()
            return None
        latency = time.perf_counter() - begin
        instructions[tracer.enabled] += result.instructions
        ledger.add("modeled_cycles", result.cycles)
        for key, value in tiering(executor).items():
            ledger.add(key, value)
        if not outputs_match(snapshot_outputs(memory, run, result.value),
                             references[(name, n)], n):
            out.wrong_output(f"{item}: output differs from the IR interpreter")
        return latency

    builds_before = tier2_requests()
    loop = closed_loop(make_pass, op, seconds, tracer, traced, ledger)
    builds = tier2_requests() - builds_before
    if builds:
        # set-up runs every image once, so every tier-2 build belongs
        # to set-up; one in the timed ops would be measured as run time
        out.fail(f"{builds} tier-2 builds at request time in the "
                 f"timed ops")
    rss = peak_rss_mb()
    service.shutdown()
    ledger.first["code_bytes"] = sum(image.total_code_bytes
                                     for image in images.values())
    report_exact(out, ledger, traced, ("code_bytes",),
                 ("modeled_cycles", "tier2_promotions", "osr_entries",
                  "deopt_reentries"))
    if traced:
        for name, key in (("tier2.promotions", "tier2_promotions"),
                          ("osr.entries", "osr_entries"),
                          ("deopt.reentries", "deopt_reentries")):
            out.metrics[name] = out.metrics.pop(key)
        out.put("tier2.builds.request", builds, "count")
        raw = loop[2]
        if raw:
            out.put("run_mips", instructions[0] / 1e6 / sum(raw),
                    "MIPS", len(raw))
    finish(out, tracer, traced, loop, setups, rss)
    return out
