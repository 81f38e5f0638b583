"""Pass management with work accounting and per-pass instrumentation.

Work accounting matters for the paper's argument: split compilation
moves *analysis work* offline.  Every pass reports how many instructions
it visited; the same passes can therefore be run by the offline
compiler (free at run time) or by the JIT (counted against its compile
budget), and experiment F1/S3a simply compares the counters.

Beyond the aggregate counters, every pass invocation is recorded as a
:class:`PassRecord` — wall time, work units, whether it changed the
function, and the IR size delta it caused — so a flow can explain
*where* its offline budget went (``OfflineArtifact.pass_stats``,
surfaced through the service's ``DeployResult``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.ir.function import Function

#: A pass is a callable ``(Function) -> PassResult``.
PassFn = Callable[[Function], "PassResult"]


@dataclass
class PassResult:
    """Outcome of one pass over one function."""
    changed: bool = False
    work: int = 0            # instructions visited (analysis effort proxy)

    def __iadd__(self, other: "PassResult") -> "PassResult":
        self.changed = self.changed or other.changed
        self.work += other.work
        return self


@dataclass
class PassRecord:
    """One pass invocation: what it cost and what it did."""
    name: str
    work: int = 0
    time: float = 0.0
    changed: bool = False
    ir_before: int = 0           # instruction count entering the pass
    ir_after: int = 0            # instruction count leaving it

    @property
    def ir_delta(self) -> int:
        return self.ir_after - self.ir_before


@dataclass
class PassSummary:
    """All invocations of one pass, aggregated."""
    name: str
    work: int = 0
    time: float = 0.0
    runs: int = 0
    changed_runs: int = 0        # invocations that changed the function
    ir_delta: int = 0            # net instruction-count change

    def absorb(self, record: PassRecord) -> None:
        self.work += record.work
        self.time += record.time
        self.runs += 1
        if record.changed:
            self.changed_runs += 1
        self.ir_delta += record.ir_delta


@dataclass
class PassStats:
    """Accumulated cost of a pipeline run."""
    work_by_pass: Dict[str, int] = field(default_factory=dict)
    time_by_pass: Dict[str, float] = field(default_factory=dict)
    runs: int = 0
    records: List[PassRecord] = field(default_factory=list)
    #: aggregates revived from a persisted artifact (no per-invocation
    #: records survive serialization, only their per-pass summaries)
    restored: Dict[str, PassSummary] = field(default_factory=dict)

    @property
    def total_work(self) -> int:
        return sum(self.work_by_pass.values())

    @property
    def total_time(self) -> float:
        return sum(self.time_by_pass.values())

    def record(self, name: str, work: int, elapsed: float,
               changed: bool = False, ir_before: int = 0,
               ir_after: int = 0) -> None:
        """Log one pass invocation (aggregates + per-invocation row)."""
        self.work_by_pass[name] = self.work_by_pass.get(name, 0) + work
        self.time_by_pass[name] = \
            self.time_by_pass.get(name, 0.0) + elapsed
        self.records.append(PassRecord(
            name=name, work=work, time=elapsed, changed=changed,
            ir_before=ir_before, ir_after=ir_after))

    def merge(self, other: "PassStats") -> "PassStats":
        """Fold another run's accounting into this one."""
        for name, summary in other.restored.items():
            mine = self.restored.setdefault(name, PassSummary(name))
            mine.work += summary.work
            mine.time += summary.time
            mine.runs += summary.runs
            mine.changed_runs += summary.changed_runs
            mine.ir_delta += summary.ir_delta
            self.work_by_pass[name] = \
                self.work_by_pass.get(name, 0) + summary.work
            self.time_by_pass[name] = \
                self.time_by_pass.get(name, 0.0) + summary.time
        for record in other.records:
            self.record(record.name, record.work, record.time,
                        record.changed, record.ir_before, record.ir_after)
        # A legacy PassStats with neither records nor restored
        # summaries still contributes its dicts.
        if not other.records and not other.restored:
            for name, work in other.work_by_pass.items():
                self.work_by_pass[name] = \
                    self.work_by_pass.get(name, 0) + work
            for name, elapsed in other.time_by_pass.items():
                self.time_by_pass[name] = \
                    self.time_by_pass.get(name, 0.0) + elapsed
        self.runs += other.runs
        return self

    def summaries(self) -> Dict[str, PassSummary]:
        """Per-pass aggregation of the invocation records, in first-run
        order (falling back to the work dict for recordless stats)."""
        out: Dict[str, PassSummary] = {
            name: dataclasses.replace(summary)
            for name, summary in self.restored.items()}
        for record in self.records:
            out.setdefault(record.name,
                           PassSummary(record.name)).absorb(record)
        for name, work in self.work_by_pass.items():
            if name not in out:
                out[name] = PassSummary(
                    name, work=work,
                    time=self.time_by_pass.get(name, 0.0))
        return out

    def summary_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-able per-pass aggregate (the persisted form)."""
        return {s.name: {"work": s.work, "time": s.time, "runs": s.runs,
                         "changed": s.changed_runs,
                         "ir_delta": s.ir_delta}
                for s in self.summaries().values()}

    @classmethod
    def from_summary(cls, data: Dict[str, Dict[str, object]]) \
            -> "PassStats":
        """Rebuild stats from :meth:`summary_dict` output; the result
        serializes back to exactly the same summary."""
        stats = cls()
        for name, row in data.items():
            summary = PassSummary(
                name, work=int(row["work"]), time=float(row["time"]),
                runs=int(row["runs"]), changed_runs=int(row["changed"]),
                ir_delta=int(row["ir_delta"]))
            stats.restored[name] = summary
            stats.work_by_pass[name] = summary.work
            stats.time_by_pass[name] = summary.time
        return stats

    def report(self) -> str:
        """Human-readable per-pass table (examples / debugging)."""
        summaries = self.summaries().values()
        width = max([4] + [len(s.name) for s in summaries])
        lines = [f"{'pass':<{width}} {'work':>8} {'ms':>8} {'runs':>5} "
                 f"{'changed':>8} {'ir delta':>9}"]
        for summary in summaries:
            lines.append(
                f"{summary.name:<{width}} {summary.work:>8} "
                f"{summary.time * 1e3:>8.3f} {summary.runs:>5} "
                f"{summary.changed_runs:>8} {summary.ir_delta:>+9}")
        return "\n".join(lines)


def _ir_size(func: Function) -> int:
    return sum(1 for _ in func.instructions())


def verify_after(func: Function, name: str) -> None:
    """Run the IR verifier on ``func``; a failure raises an
    ``AssertionError`` naming ``name`` as the pass that broke it."""
    from repro.ir.verify import verify_function

    try:
        verify_function(func)
    except Exception as exc:
        raise AssertionError(
            f"pass {name!r} broke {func.name!r}: {exc}") from exc


class PassManager:
    """Runs a named pipeline of passes to a fixpoint (bounded)."""

    def __init__(self, passes: List[tuple],
                 max_iterations: int = 4,
                 verify: bool = False):
        """``passes`` is a list of ``(name, fn)`` tuples.

        With ``verify=True`` the IR verifier runs after every pass that
        changed the function, and once at exit — so no function leaves
        a verifying run unverified, even when no pass changed it.  A
        pass that reports ``changed=False`` must leave the function
        untouched; one that breaks the IR anyway is caught by the exit
        check.  This is the default in the test suite.
        """
        self.passes = passes
        self.max_iterations = max_iterations
        self.verify = verify
        self.stats = PassStats()

    def run(self, func: Function) -> PassStats:
        size = _ir_size(func)
        # Passes that ran since the last verification (all reported
        # no change): the suspects if the exit check fails.
        unverified: List[str] = []
        for _ in range(self.max_iterations):
            any_changed = False
            for name, pass_fn in self.passes:
                start = time.perf_counter()
                result = pass_fn(func)
                elapsed = time.perf_counter() - start
                after = _ir_size(func) if result.changed else size
                self.stats.record(name, result.work, elapsed,
                                  result.changed, size, after)
                size = after
                if self.verify:
                    if result.changed:
                        verify_after(func, name)
                        unverified.clear()
                    elif name not in unverified:
                        unverified.append(name)
                any_changed = any_changed or result.changed
            self.stats.runs += 1
            if not any_changed:
                break
        if self.verify:
            verify_after(func, ", ".join(unverified) or "<exit>")
        return self.stats
