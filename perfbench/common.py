"""Shared machinery of the benchmark: bootstrap, statistics, inputs,
the correctness oracle, the exactness ledger and the environment
fingerprint.

Everything here is deterministic given ``--seed``; the program under
test only ever sees the generated inputs (sources, requests, arrays).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: root of the checkout: the benchmark lives in ``<root>/perfbench``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (listed in .gitignore)
STATE_DIR = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no sources)."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if not (SRC / "repro" / "service").is_dir():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a sample."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# ---------------------------------------------------------------------------
# inputs drawn from the seed
# ---------------------------------------------------------------------------

#: input size of the correctness re-run after each cold request
CHECK_N = 64


def rng_for(seed: int, *stream) -> random.Random:
    """An independent generator per (seed, stream) — adding a stream
    never perturbs another stream's draws."""
    return random.Random(":".join(str(part) for part in (seed,) + stream))


def data_seed(seed: int) -> int:
    """Seed of the kernels' input arrays (a positive 31-bit int)."""
    return rng_for(seed, "data").randrange(1, 2 ** 31)


def renamed(kernel, tag: str) -> Tuple[str, str]:
    """``kernel``'s source with its entry point renamed ``<entry>_<tag>``.

    A renamed entry changes the program text, hence its content
    address, without changing what it computes or its code size.
    """
    entry = f"{kernel.entry}_{tag}"
    source, count = re.subn(r"\b%s\s*\(" % re.escape(kernel.entry),
                            entry + "(", kernel.source, count=1)
    if count != 1:
        raise ValueError(f"entry {kernel.entry!r} not found in source")
    return source, entry


@dataclass
class Program:
    """One generated module: 1-3 kernels, entry points renamed."""
    name: str
    source: str
    flow: str
    #: (kernel name, renamed entry) per function, in source order
    entries: List[Tuple[str, str]]


def make_program(kernels, names: Sequence[str], flow: str,
                 tag: str) -> Program:
    parts, entries = [], []
    for index, name in enumerate(names):
        source, entry = renamed(kernels[name], f"{tag}_{index}")
        parts.append(source)
        entries.append((name, entry))
    return Program(name=f"m_{tag}", source="".join(parts), flow=flow,
                   entries=entries)


#: how a cold-fanout pass splits each flow's 11 kernels into requests
GROUP_SIZES = (3, 3, 2, 2, 1)


def cold_pass(kernels, flows: Sequence[str], seed: int, index: int,
              replay: bool = False) -> List[Program]:
    """One pass of the cold fan-out stream: every (kernel, flow) pair
    exactly once, grouped 3/3/2/2/1 per flow.  A ``replay`` has the
    same grouping and order under fresh names.

    The grouping of pass ``index`` is the same for every seed, and the
    seed draws the order and the names: every seed then compiles the
    same work, so timings differ across seeds only by noise, and exact
    counts repeat pass to pass.
    """
    groups = random.Random(f"cold-groups:{index}")
    names = sorted(kernels)
    if sum(GROUP_SIZES) != len(names):
        raise ValueError("group sizes must cover the kernel set")
    shapes = []
    for flow in flows:
        order = names[:]
        groups.shuffle(order)
        sizes = list(GROUP_SIZES)
        groups.shuffle(sizes)
        start = 0
        for size in sizes:
            shapes.append((order[start:start + size], flow))
            start += size
    rng_for(seed, "cold", index).shuffle(shapes)
    mark = "t" if replay else ""
    return [make_program(kernels, group, flow,
                         f"s{seed}p{index}{mark}r{number}")
            for number, (group, flow) in enumerate(shapes)]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: time of one calibration loop on the reference host.  The shared VMs
#: this benchmark runs on flip between speeds up to 1.7x apart, a
#: state lasting seconds; a fixed interpreter-bound loop timed between
#: ops tracks that, so closed-loop times are reported in reference-host
#: time: raw * CAL_REF_S / (the loop's time around the work)
CAL_REF_S = 0.004
#: a closed loop takes one calibration sample this often, between ops
CAL_EVERY_S = 0.25


class _Probe:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def step(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.value


def calibration_sample() -> float:
    """Seconds for a fixed loop of closure and method calls (the kind
    of work the interpreter-bound program does), independent of the
    program under test."""
    step = _Probe().step

    def bump(x: int) -> int:
        return step(x) + 1

    start = time.perf_counter()
    for i in range(15000):
        bump(i)
    return time.perf_counter() - start


#: a core probe reports the median chunk time of each window this long
PROBE_WINDOW_S = 0.1
#: loop iterations per probe chunk (calibration_sample runs 15000)
PROBE_CHUNK = 1000


def core_probe(cpu: int, parent: int, path: str) -> None:
    """Time chunks of the calibration loop on core ``cpu`` at
    ``SCHED_IDLE`` priority until ``parent`` is gone, writing to
    ``path`` one line per PROBE_WINDOW_S: ``time.monotonic()`` and the
    window's median chunk time, scaled to a whole
    :func:`calibration_sample`.  It runs only when nothing else wants
    the core, so it takes no time from the program and measures the
    core's speed while it is idle."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    step = _Probe().step

    def bump(x: int) -> int:
        return step(x) + 1

    window: List[float] = []
    end = time.monotonic() + PROBE_WINDOW_S
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:
            start = time.perf_counter()
            for i in range(PROBE_CHUNK):
                bump(i)
            window.append(time.perf_counter() - start)
            now = time.monotonic()
            if now >= end:
                out.write(f"{now!r} "
                          f"{median(window) * 15000 / PROBE_CHUNK!r}\n")
                window, end = [], now + PROBE_WINDOW_S


class HostSpeed:
    """Calibration samples between stretches of work (every
    CAL_EVERY_S via :meth:`tick`, or in bursts)."""

    def __init__(self):
        self.samples: List[float] = []
        self._next = 0.0

    def burst(self, count: int = 5) -> None:
        self.samples += [calibration_sample() for _ in range(count)]

    def tick(self) -> int:
        """Sample if CAL_EVERY_S has passed since the last sample;
        returns the index of the latest sample, the one just before
        the work that follows."""
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(calibration_sample())
            self._next = now + CAL_EVERY_S
        return len(self.samples) - 1

    @property
    def scale(self) -> float:
        """Multiply raw times of work the samples surround by this to
        get reference-host time."""
        return CAL_REF_S / median(self.samples)

    def scale_at(self, index: int) -> float:
        """:attr:`scale` for work done between sample ``index`` and the
        next one, read from the two samples before the work and the
        two after it.  The host's speed can flip within a pass, so an
        op is read against the samples around it, not the pass's
        median: on hot_run that cut how much one op's normalized time
        varies from pass to pass from 18-20% to 12%."""
        return CAL_REF_S / median(self.samples[max(0, index - 1):
                                               index + 3])


def pin_to_one_core() -> None:
    """Keep this thread, and every thread it starts from now on, on
    one core.  The cores of the tuning host change speed independently
    of each other, so the calibration samples of a closed loop track
    its work only if both run on the same core; a closed loop works on
    one core at a time anyway, under the GIL."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_setups(setup, repeats: int,
                 calibrate: bool = True) -> List[float]:
    """Run ``setup(index)`` ``repeats`` times; the seconds of each, in
    reference-host time when ``calibrate`` (sampled just before and
    after it; set-ups whose work runs in other processes stay raw)."""
    times = []
    for index in range(repeats):
        speed = HostSpeed()
        if calibrate:
            speed.burst()
        begin = time.perf_counter()
        setup(index)
        seconds = time.perf_counter() - begin
        if calibrate:
            speed.burst()
            seconds *= speed.scale
        times.append(seconds)
    return times


# ---------------------------------------------------------------------------
# the correctness oracle
# ---------------------------------------------------------------------------

#: f32 unit roundoff; vectorized reductions reassociate float sums, so
#: floats are compared within n * eps relative to their magnitude
F32_EPS = 2.0 ** -23


def snapshot_outputs(memory, run, value):
    """(return value, output arrays) of one executed kernel call."""
    return (value, [memory.read_array(tag, addr, count)
                    for tag, addr, count in run.outputs])


def reference_outputs(source: str, entry: str, kernel, n: int,
                      seed: int):
    """Run ``entry`` of the *unoptimized* lowering of ``source`` on the
    IR interpreter — independent of opt, bytecode, jit and targets."""
    from repro.frontend import lower_source
    from repro.ir.interp import IRInterpreter
    from repro.semantics import Memory
    memory = Memory()
    run = kernel.prepare(memory, n, seed)
    value = IRInterpreter(lower_source(source), memory).call(
        entry, list(run.args))
    return snapshot_outputs(memory, run, value)


def _same(got, want, n: int) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return False
        if math.isnan(want):
            return isinstance(got, float) and math.isnan(got)
        return abs(got - want) <= n * F32_EPS * max(abs(want), 1.0)
    return got == want


def outputs_match(got, want, n: int) -> bool:
    """Ints exactly; floats within the reassociation bound."""
    got_value, got_arrays = got
    want_value, want_arrays = want
    if not _same(got_value, want_value, n):
        return False
    if len(got_arrays) != len(want_arrays):
        return False
    for got_array, want_array in zip(got_arrays, want_arrays):
        if got_array == want_array:
            continue
        if len(got_array) != len(want_array) or not all(
                _same(g, w, n) for g, w in zip(got_array, want_array)):
            return False
    return True


class InputCache:
    """Prepared input memories per (kernel, n); each run gets a copy,
    so building the arrays stays out of the op loop."""

    def __init__(self, kernels, seed: int):
        self.kernels = kernels
        self.seed = seed
        self._prepared: Dict[Tuple[str, int], tuple] = {}

    def fresh(self, name: str, n: int):
        key = (name, n)
        if key not in self._prepared:
            from repro.semantics import Memory
            memory = Memory()
            run = self.kernels[name].prepare(memory, n, self.seed)
            self._prepared[key] = (memory, run)
        memory, run = self._prepared[key]
        return copy.deepcopy(memory), run


# ---------------------------------------------------------------------------
# the exactness ledger
# ---------------------------------------------------------------------------

class ExactnessError(RuntimeError):
    """An exact count differed between runs (or passes) of one seed."""


def check_exact(workload: str, seed: int, counts: Dict[str, int],
                digest: Optional[str] = None) -> None:
    """Compare ``counts`` with what earlier runs of the same workload
    and seed, on the same code (``digest``, by default
    :func:`source_digest`), recorded in the checkout's ledger; record
    new ones.  A change to the program or the benchmark may move the
    counts: its runs start a ledger entry of their own.

    Raises :class:`ExactnessError` naming every count that moved.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "exact.json"
    try:
        ledger = json.loads(path.read_text())
    except (FileNotFoundError, ValueError):
        ledger = {}
    key = f"{workload}:{seed}:{digest or source_digest()}"
    previous = ledger.get(key)
    if previous is not None:
        moved = {name: (previous[name], value)
                 for name, value in counts.items()
                 if name in previous and previous[name] != value}
        if moved:
            raise ExactnessError(
                f"exact counts of {key} differ from an earlier run "
                f"(earlier, now): {moved}")
    ledger[key] = {**(previous or {}), **counts}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, sort_keys=True, indent=1))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files
    (commit-independent): both decide what a run computes."""
    digest = hashlib.sha256()
    for root in (SRC, Path(__file__).resolve().parent):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def fingerprint(workload: str, seed: int, seconds: int,
                traced: bool) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "PVI_ENGINE": os.environ.get("PVI_ENGINE"),
        "PVI_OSR": os.environ.get("PVI_OSR"),
        "traced": traced,
    }


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class Metric:
    value: float
    unit: str
    samples: Optional[int] = None


@dataclass
class Outcome:
    """What one workload run measured and checked."""
    attempted: int = 0
    #: failed, shed, refused, timed out or wrong
    failed: int = 0
    #: outputs that differ from the oracle (a subset of ``failed``)
    wrong: int = 0
    #: first few failure descriptions (for the report)
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: exact counts guarded across runs of one seed
    exact: Dict[str, int] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def wrong_output(self, why: str) -> None:
        self.wrong += 1
        self.fail(why)

    def put(self, name: str, value: float, unit: str,
            samples: Optional[int] = None) -> None:
        self.metrics[name] = Metric(value, unit, samples)
