"""The ``edge_zipf`` workload: open-loop ``POST /deploy`` traffic
against a ``pvi-serve`` subprocess.

Program popularity is zipf over a pool warmed during set-up, and
exactly one request in ten is a never-seen program, so the median
sits in the warm mode (cache and memo reads) and the 95th percentile
in the cold mode (offline compile plus a 7-target fan-out on the
process route).  Two fixed-rate phases run back to back: ``low`` and
``high`` (about 70% of the sustainable rate measured on a 2-core
x86-64 host).  Each request is timed from when it was *due*, so a
stalled generator or a busy connection is charged to the requests
that waited.  Times are in reference-host units, read against one
probe per core (:class:`CoreProbes`).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import common
from common import (
    Outcome, Program, STATE_DIR, make_program, median, quantile, rng_for,
)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
LOW_RPS = 10.0
#: about 70% of the sustainable rate: with this mix on a 2-core
#: x86-64 host, 8 s phases at 20 and 30 req/s held a flat median, at
#: 40 the median grew within the phase (a backlog) and at 60 goodput
#: fell below the offered rate; 30 req/s is taken as sustainable
HIGH_RPS = 21.0
#: share of an untraced run spent in the low phase: it carries the
#: end-to-end latencies, and its never-seen tenth (16 requests in a
#: 20 s run) sets p95
LOW_SHARE = 0.8
ZIPF_S = 1.0
#: one request in COLD_EVERY is a never-seen program
COLD_EVERY = 10
#: the never-seen slot keeps this many requests from either end of its
#: block, so two never-seen requests are at least 7 requests apart and
#: their cold compiles never overlap (whether two did would otherwise
#: depend on the seed, and move p95 from seed to seed)
COLD_MARGIN = 3
#: goodput counts 200 responses within this limit
GOODPUT_LIMIT_S = 0.5
REQUEST_TIMEOUT_S = 30.0
#: a latency is read against the core probes' readings this close to
#: its due time: the cores change speed every few seconds
NEAR_S = 1.0
#: keep-alive connections of the generator, and workers of the
#: server's pools: one per core, so the run measures the program, not
#: the scheduler
CONNECTIONS = max(1, os.cpu_count() or 1)
#: pool flows, assigned to the sorted kernels in turn
POOL_FLOWS = ("split", "offline-only")
API_KEY = "perfbench-tenant-key"


# ---------------------------------------------------------------------------
# the request stream
# ---------------------------------------------------------------------------

def pool_programs(kernels, seed: int) -> List[Program]:
    """The warmed pool: every kernel once, named from the seed, in a
    popularity order that is the same for every seed (rank 0 is the
    most popular), so every seed serves the same warm work."""
    names = sorted(kernels)
    pool = [make_program(kernels, [name],
                         POOL_FLOWS[index % len(POOL_FLOWS)],
                         f"s{seed}pool{index}")
            for index, name in enumerate(names)]
    random.Random("edge-ranks").shuffle(pool)
    return pool


def zipf_quota(ranks: int, count: int) -> List[int]:
    """How many of ``count`` draws each rank gets: the zipf(ZIPF_S)
    shares, rounded by largest remainder so they sum to ``count``."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(ranks)]
    shares = [count * w / sum(weights) for w in weights]
    quota = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda r: quota[r] - shares[r])
    for rank in by_remainder[:count - sum(quota)]:
        quota[rank] += 1
    return quota


def schedule(kernels, pool: Sequence[Program], seed: int, phase: str,
             rate: float, seconds: float,
             replay: bool = False) -> List[Tuple[float, Program]]:
    """(due offset, program) for one phase.  In every block of
    COLD_EVERY requests one seed-chosen slot, COLD_MARGIN or more from
    either end of the block, is a never-seen program:
    single kernels taken in sorted order, so every seed's never-seen
    set is the same work under fresh names.  The rest are pool
    programs, each as often as its zipf share (:func:`zipf_quota`), in
    a seed-shuffled order.  A ``replay`` repeats the same draws with
    fresh names for the never-seen programs."""
    rng = rng_for(seed, "edge", phase)
    total = int(round(rate * seconds))
    cold_slots = {block + COLD_MARGIN + rng.randrange(
        COLD_EVERY - 2 * COLD_MARGIN)
        for block in range(0, total, COLD_EVERY)}
    cold_slots = {slot for slot in cold_slots if slot < total}
    warm = [program for program, quota in zip(
        pool, zipf_quota(len(pool), total - len(cold_slots)))
        for _ in range(quota)]
    rng.shuffle(warm)
    names = sorted(kernels)
    items: List[Tuple[float, Program]] = []
    cold = 0
    for index in range(total):
        if index in cold_slots:
            tag = f"s{seed}{phase}{'t' if replay else ''}c{cold}"
            program = make_program(kernels, [names[cold % len(names)]],
                                   "split", tag)
            cold += 1
        else:
            program = warm.pop()
        items.append((index / rate, program))
    return items


# ---------------------------------------------------------------------------
# the open-loop generator
# ---------------------------------------------------------------------------

@dataclass
class Record:
    due: float
    dispatched: float = 0.0
    connected: float = 0.0
    done: float = 0.0
    status: Optional[int] = None
    body: Optional[dict] = None
    program: Optional[Program] = None

    @property
    def latency(self) -> float:
        """From when the request was due to its response."""
        return self.done - self.due


async def open_loop(items: Sequence[Tuple[float, object]],
                    send: Callable, connections: Sequence,
                    stall: Optional[Callable[[int], None]] = None,
                    timeout: float = REQUEST_TIMEOUT_S) -> List[Record]:
    """Send ``items`` on schedule over a fixed set of connections.

    ``send(connection, payload)`` returns ``(status, body)``.  The
    generator never waits for responses; a request whose connection
    is busy waits for a free one, and that wait counts in its
    latency.  ``stall(index)`` runs just before dispatching request
    ``index`` (a test hook that can block the generator).
    """
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    for connection in connections:
        free.put_nowait(connection)
    origin = loop.time()
    records: List[Record] = []
    tasks = []

    async def one(record: Record, payload) -> None:
        connection = await free.get()
        record.connected = loop.time()
        try:
            record.status, record.body = await asyncio.wait_for(
                send(connection, payload), timeout)
        except (asyncio.TimeoutError, OSError, ValueError,
                asyncio.IncompleteReadError):
            record.status = None
        finally:
            record.done = loop.time()
            free.put_nowait(connection)

    for index, (offset, payload) in enumerate(items):
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if stall is not None:
            stall(index)
        record = Record(due=due, dispatched=loop.time())
        records.append(record)
        tasks.append(asyncio.ensure_future(one(record, payload)))
    await asyncio.gather(*tasks)
    return records


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------

class CoreProbes:
    """One :func:`common.core_probe` per core, for as long as the
    workload runs (see README, *Host speed*).  They keep every core
    busy at ``SCHED_IDLE`` priority, so no request waits for the host
    to wake an idle virtual core, and they read each core's speed
    whenever the program leaves it idle."""

    def __init__(self, workdir: Path):
        cpus = sorted(os.sched_getaffinity(0))
        self.paths = [workdir / f"probe-{cpu}.txt" for cpu in cpus]
        #: per core, (time.monotonic(), seconds of a calibration loop)
        self.readings: List[List[Tuple[float, float]]] = []
        self.procs = [subprocess.Popen(
            [sys.executable, "-c",
             "import sys, common; common.core_probe(int(sys.argv[1]), "
             "int(sys.argv[2]), sys.argv[3])",
             str(cpu), str(os.getpid()), str(path)], cwd=HERE)
            for cpu, path in zip(cpus, self.paths)]

    def stop(self) -> None:
        """Stop the probes and keep what they read."""
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []
        self.readings = [[tuple(map(float, line.split()))
                          for line in path.read_text().splitlines()]
                         for path in self.paths if path.exists()]

    def scale(self, start: float, end: float) -> float:
        """Multiply raw times of work done between ``start`` and
        ``end`` (``time.monotonic()``) by this to get reference-host
        time: CAL_REF_S over the mean, across cores, of each core's
        median reading in that span (or over the whole run, for a core
        with no reading in it)."""
        per_core = []
        for core in filter(None, self.readings):
            inside = [v for t, v in core if start <= t <= end]
            per_core.append(median(inside or [v for _, v in core]))
        if not per_core:
            raise RuntimeError("no core probe took a reading")
        return common.CAL_REF_S / (sum(per_core) / len(per_core))


class EdgeProcess:
    """One ``pvi-serve`` subprocess in its own process group."""

    def __init__(self, workdir: Path, trace_file: Optional[Path]):
        tenants = workdir / "tenants.json"
        tenants.write_text(json.dumps(
            {"tenants": [{"name": "bench", "api_key": API_KEY}]}))
        command = [sys.executable, str(HERE / "serve.py")]
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        command += ["--", "--port", "0", "--tenants", str(tenants),
                    "--workers", str(CONNECTIONS)]
        self.log = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True)
        self.port = self._read_port(deadline=time.monotonic() + 60)

    def _read_port(self, deadline: float) -> int:
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode()
                if not line:
                    break
                if "http://" in line:
                    return int(line.split("http://", 1)[1]
                               .split()[0].rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("pvi-serve did not start")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus every descendant (pool workers)."""
        total, stack = 0, [self.proc.pid]
        while stack:
            pid = stack.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                for tid in os.listdir(f"/proc/{pid}/task"):
                    stack += [int(child) for child in Path(
                        f"/proc/{pid}/task/{tid}/children")
                        .read_text().split()]
            except OSError:
                continue          # exited meanwhile
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        return total / 1024.0

    def stop(self) -> None:
        """Interrupt (clean shutdown of the pool), then make sure the
        whole process group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def phase_metrics(records: List[Record],
                  probes: Optional[CoreProbes] = None) -> Dict[str, float]:
    """Due-time latency percentiles of the phase's 200 responses
    (a failed request is counted in ``failed`` and fails the run; a
    fast refusal must not improve the latencies) and goodput of the
    phase: 200 responses within the limit per second of the phase,
    from the first due time to the last response (a backlog that
    drains after the schedule ends lowers it).  Empty when no request
    succeeded.

    With ``probes``, each latency is in reference-host time, read
    against the core probes' readings within NEAR_S of its due time
    (see README, *Host speed*); ``raw_p50`` is not.  Goodput counts
    against the raw limit."""
    ok = [r for r in records if r.status == 200]
    if not ok:
        return {}
    raw = [r.latency * 1e3 for r in ok]
    ms = raw if probes is None else [
        latency * probes.scale(r.due - NEAR_S, r.due + NEAR_S)
        for latency, r in zip(raw, ok)]
    good = sum(1 for r in ok if r.latency <= GOODPUT_LIMIT_S)
    span = max(r.done for r in records) - min(r.due for r in records)
    return {"p50": median(ms), "p95": quantile(ms, 0.95),
            "raw_p50": median(raw), "goodput": good / span,
            "n": len(ms)}


async def _session(port: int, work: Callable):
    """Open the keep-alive connections and run ``work`` with them."""
    from repro.service.edge.client import EdgeClient
    clients = [EdgeClient("127.0.0.1", port, api_key=API_KEY)
               for _ in range(CONNECTIONS)]
    try:
        return await work(clients)
    finally:
        for client in clients:
            await client.close()


async def _deploy(client, program: Program, targets):
    status, _headers, body = await client.deploy(
        program.source, targets, name=program.name, flow=program.flow)
    return status, body


def edge_zipf(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.flows import as_flow
    from repro.service import CompilationService, artifact_key
    from repro.service.requests import CompileRequest
    from repro.targets.registry import target_names
    from repro.workloads import ALL_KERNELS

    out = Outcome()
    targets = list(target_names())
    pool = pool_programs(ALL_KERNELS, seed)
    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="edge-", dir=STATE_DIR))
    trace_file = None
    if traced:
        trace_file = workdir / "trace.json"
    servers: List[EdgeProcess] = []
    probes = CoreProbes(workdir)
    try:
        warm: List[tuple] = []

        def setup(index: int) -> None:
            for server in servers:
                server.stop()
            servers[:] = [EdgeProcess(workdir, trace_file)]
            warm[:] = asyncio.run(_warm(servers[0].port, pool, targets))

        # raw here, read against the core probes of this span below
        setup_span = [time.monotonic()]
        setups = common.timed_setups(setup, SETUP_REPEATS,
                                     calibrate=False)
        setup_span.append(time.monotonic())
        for status, body in warm:
            if status != 200:
                raise RuntimeError(f"pool warm-up failed: {status} {body}")
        server = servers[0]
        if traced:
            phases = [("low", LOW_RPS, seconds / 3, False),
                      ("low", LOW_RPS, seconds / 3, True),
                      ("high", HIGH_RPS, seconds / 3, True)]
        else:
            phases = [("low", LOW_RPS, seconds * LOW_SHARE, False),
                      ("high", HIGH_RPS, seconds * (1 - LOW_SHARE), False)]
        results, stats = asyncio.run(_measure(
            server, pool, targets, seed, phases, traced))
        rss = server.peak_rss_mb()
        summary = _read_trace(server, trace_file) if traced else None
    finally:
        for server in servers:
            server.stop()
        probes.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    # -- correctness, outside every measurement ----------------------------
    reference = CompilationService(executor="inline")
    expected: Dict[str, dict] = {}

    def reference_of(program: Program) -> dict:
        if program.name not in expected:
            request = CompileRequest(source=program.source,
                                     name=program.name, targets=targets,
                                     flow=program.flow)
            result = reference.submit(request)
            options = reference.request_options(request,
                                                as_flow(program.flow))
            expected[program.name] = {
                "key": artifact_key(program.source, program.name,
                                    options),
                "code_bytes": {t: result.image_for(t).total_code_bytes
                               for t in targets},
                "jit_work": {t: result.image_for(t).total_jit_work
                             for t in targets}}
        return expected[program.name]

    def check(record: Record) -> None:
        out.attempted += 1
        if record.status != 200:
            out.fail(f"{record.program.name}: status {record.status}")
            return
        if not response_matches(record.body, reference_of(record.program),
                                targets):
            out.wrong_output(f"{record.program.name}: response differs "
                             f"from an in-process deployment")

    for records in results:
        for record in records:
            check(record)
    reference.shutdown()

    exact = {"code_bytes": 0, "jit.work": 0, "opt.work": 0}
    for program, (status, body) in zip(pool, warm):
        if not response_matches(body, reference_of(program), targets):
            out.wrong_output(f"{program.name}: warm-up response differs")
        for entry in body["deployments"].values():
            exact["code_bytes"] += entry["code_bytes"]
            exact["jit.work"] += entry["jit_work"]
        exact["opt.work"] += sum(body["offline_pass_work"].values())
    out.exact = exact

    named = dict(zip(("low", "high") if not traced else
                     ("low.untraced", "low", "high"),
                     (phase_metrics(records, probes)
                      for records in results)))
    if not all(named.values()):
        return out          # a phase had no 200 response: no latencies
    for phase in ("low", "high"):
        m = named[phase]
        out.put(f"serve_ms.p50.{phase}", m["p50"], "ms", m["n"])
        out.put(f"serve_ms.p95.{phase}", m["p95"], "ms", m["n"])
    out.put("goodput_rps.high", named["high"]["goodput"], "1/s",
            named["high"]["n"])
    if not traced:
        out.put("setup_s", median(setups) * probes.scale(*setup_span),
                "s", len(setups))
        out.put("raw.setup_s", median(setups), "s", len(setups))
        out.put("peak_rss_mb", rss, "MB")
        out.put("op_ms.p50", named["low"]["p50"], "ms", named["low"]["n"])
        out.put("raw.op_ms.p50", named["low"]["raw_p50"], "ms",
                named["low"]["n"])
        out.put("op_ms.p95", named["low"]["p95"], "ms", named["low"]["n"])
        out.put("ops_per_s", named["high"]["goodput"], "1/s",
                named["high"]["n"])
        out.put("code_bytes", exact["code_bytes"], "bytes")
        return out

    # -- per-layer, from the traced phases ---------------------------------
    traced_records = results[1] + results[2]
    for name, (value, unit) in summary["layers"].items():
        out.put(name, value, unit)
    serve_ms = [s * 1e3 for s in summary["serve_s"]]
    out.put("edge.server_ms.p50", median(serve_ms), "ms", len(serve_ms))
    out.put("edge.server_ms.p95", quantile(serve_ms, 0.95), "ms",
            len(serve_ms))
    out.put("edge.conn_wait_ms.p50",
            median([(r.connected - r.dispatched) * 1e3
                    for r in traced_records]), "ms", len(traced_records))
    out.put("edge.gen_lag_ms.max",
            max((r.dispatched - r.due) * 1e3 for r in traced_records),
            "ms", len(traced_records))
    before, after = stats
    out.put("edge.coalesced_ratio", _delta_ratio(
        before, after, ("edge", "coalesced"), ("edge", "requests")),
        "ratio")
    out.put("edge.shed_ratio", _delta_ratio(
        before, after, ("edge", "shed", "total"), ("edge", "requests")),
        "ratio")
    out.put("edge.route.process_share", _delta_ratio(
        before, after, ("edge", "routes", "cold", "submitted"),
        ("edge", "routes", "cold", "submitted"),
        ("edge", "routes", "warm", "submitted")), "ratio")
    out.put("cache.hit_ratio", _delta_ratio(
        before, after, ("service", "artifact", "hits"),
        ("service", "artifact", "hits"),
        ("service", "artifact", "misses")),
        "ratio")
    for name in ("opt.work", "jit.work"):
        out.put(name, exact[name], "count")
    out.put("trace_overhead_ratio",
            named["low"]["p50"] / named["low.untraced"]["p50"], "ratio",
            named["low"]["n"])
    return out


def response_matches(body: dict, want: dict, targets) -> bool:
    """The edge served the content address and the per-target images
    an in-process deployment of the same request produces."""
    if body.get("artifact_key") != want["key"]:
        return False
    deployments = body.get("deployments", {})
    return sorted(deployments) == sorted(targets) and all(
        deployments[t].get("ok") and
        deployments[t].get("code_bytes") == want["code_bytes"][t] and
        deployments[t].get("jit_work") == want["jit_work"][t]
        for t in targets)


def _get(stats: dict, path) -> float:
    for key in path:
        stats = stats[key]
    return stats


def _delta_ratio(before: dict, after: dict, num, *dens) -> float:
    delta = [_get(after, p) - _get(before, p) for p in (num,) + dens]
    den = sum(delta[1:])
    return delta[0] / den if den else 0.0


async def _warm(port: int, pool, targets):
    """Set-up: wait for the edge, then deploy the pool once (cold)."""
    async def work(clients):
        status = None
        for _ in range(200):
            try:
                status, _h, _b = await clients[0].healthz()
                break
            except OSError:
                await asyncio.sleep(0.05)
        if status != 200:
            raise RuntimeError("pvi-serve is not healthy")
        results: List[Optional[tuple]] = [None] * len(pool)
        queue = list(enumerate(pool))

        async def drain(client):
            while queue:
                index, program = queue.pop(0)
                results[index] = await _deploy(client, program, targets)
        await asyncio.gather(*(drain(c) for c in clients))
        return results
    return await _session(port, work)


async def _measure(server: EdgeProcess, pool, targets, seed: int,
                   phases, traced: bool):
    """Run the phases back to back; returns (records per phase,
    (/stats before, /stats after) the traced phases)."""
    from repro.workloads import ALL_KERNELS

    async def work(clients):
        async def send(client, program):
            return await _deploy(client, program, targets)
        results, stats = [], [None, None]
        for phase, rate, length, replay in phases:
            if replay and stats[0] is None:
                stats[0] = (await clients[0].stats())[2]
                server.signal(signal.SIGUSR1)
                await asyncio.sleep(0.2)
            items = schedule(ALL_KERNELS, pool, seed, phase, rate,
                             length, replay)
            records = await open_loop(items, send, clients)
            for record, (_, program) in zip(records, items):
                record.program = program
            results.append(records)
        if traced:
            stats[1] = (await clients[0].stats())[2]
        return results, tuple(stats)
    return await _session(server.port, work)


def _read_trace(server: EdgeProcess, path: Path) -> dict:
    server.signal(signal.SIGUSR2)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if path.exists():
            return json.loads(path.read_text())
        time.sleep(0.05)
    raise RuntimeError("the traced server wrote no span summary")
