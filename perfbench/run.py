"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload cold_fanout --seed 1 \
        --seconds 20 --trace 0

prints a human-readable report, an ``env`` fingerprint line, and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload all --seconds 20

runs every workload untraced and traced, one process each.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

import common

WORKLOADS = ("cold_fanout", "hot_run", "edge_zipf")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="repository benchmark: one workload, one run")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _declared(traced: bool):
    """name -> unit of the metrics BENCHMARK.json declares."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def _workload(name: str):
    if name == "edge_zipf":
        import edge
        return edge.edge_zipf
    import workloads
    return getattr(workloads, name)


def run_one(args) -> int:
    traced = bool(args.trace)
    try:
        common.bootstrap()
        declared = _declared(traced)
    except (common.SetupError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    try:
        out = _workload(args.workload)(args.seed, args.seconds, traced)
        common.check_exact(args.workload, args.seed, out.exact)
    except common.ExactnessError as exc:
        print(f"perfbench: EXACTNESS VIOLATION: {exc}", file=sys.stderr)
        return 1
    # a failed op (raised, shed, refused, timed out) fails the run like
    # a wrong output: failed_ratio must be 0
    correct = out.wrong == 0 and out.failed == 0

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} traced={traced}")
    for name, metric in sorted(out.metrics.items()):
        samples = "" if metric.samples is None else \
            f"  (n={metric.samples})"
        print(f"  {name:<28} {metric.value!r:>24} {metric.unit}{samples}")
    ratio = out.failed / max(out.attempted, 1)
    print(f"  {'failed_ratio':<28} {ratio!r:>24} ratio  "
          f"(n={out.attempted})")
    for name, value in sorted(out.exact.items()):
        print(f"  exact {name} = {value}")
    for failure in out.failures:
        print(f"  FAILED: {failure}")

    metrics = {}
    missing, filled = [], []
    for name, unit in declared.items():
        metric = out.metrics.get(name)
        if metric is None and traced:
            # a layer this workload does not cross measures zero
            filled.append(name)
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metric is None or metric.unit != unit:
            missing.append(name)
        else:
            metrics[name] = {"value": metric.value, "unit": unit}
    if filled:
        print(f"  not crossed on this workload (0): {', '.join(filled)}")
    if missing:
        print(f"perfbench: metrics missing or with the wrong unit: "
              f"{missing}", file=sys.stderr)
        return 1
    env = common.fingerprint(args.workload, args.seed, args.seconds,
                             traced)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status |= subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                check=False).returncode
    return status


def main(argv=None) -> int:
    # a terminated run still stops the processes it started: the
    # workloads stop them in ``finally`` blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
