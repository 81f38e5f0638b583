"""Span recording around the program's layer entry points.

The benchmark never edits the program: :func:`install_layers` wraps
each layer's public entry points (module functions and class methods)
with span-recording wrappers from this file.  A layer's *self* time
is its span's duration minus the part its child spans on the same
thread cover; the tracer keeps per-layer totals of self time and of
the counters measured at the same boundaries, not the spans.

Wrappers stay installed for the whole run; ``Tracer.enabled`` turns
recording on and off, so a run can measure the same ops untraced and
traced and report the overhead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-layer self time and counters, recorded while enabled."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            #: self seconds per span name
            self.selfs: Dict[str, float] = defaultdict(float)
            #: durations of the flat (coroutine) spans, per name
            self.flats: Dict[str, List[float]] = defaultdict(list)
            self.counters: Dict[str, float] = defaultdict(float)
            #: duration of each finished JIT compile, by
            #: (module id, target name)
            self._jit_seconds: Dict[tuple, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> list:
        """Open a span on this thread: [start, child seconds]."""
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, name: str, frame: list) -> float:
        """Close ``frame``, charge its self time to ``name`` and its
        duration to the enclosing span; returns the duration."""
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.selfs[name] += duration - frame[1]
        return duration

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call while enabled;
        ``after(tracer, args, result, seconds)`` runs on success to
        record counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.exit(name, frame)
            if after is not None:
                after(tracer, args, result, seconds)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """Coroutine method ``fn`` recorded as a flat span (its
        duration only): coroutines interleave on one thread, so they
        take no part in self time."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.flats[name].append(time.perf_counter() - start)

        traced.__perfbench_original__ = fn
        return traced

    def patch_function(self, module: str, attr: str, name: str,
                       **hooks) -> None:
        """Wrap a module-level function everywhere it was imported:
        every loaded ``repro`` module holding the same object gets the
        wrapper."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or
                                   mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str,
                     is_async: bool = False, **hooks) -> None:
        original = cls.__dict__[attr]
        wrapper = self.wrap_async(original, name) if is_async else \
            self.wrap(original, name, **hooks)
        setattr(cls, attr, wrapper)


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------

def _opt_after(tracer, args, stats, seconds):
    for record in stats.records:
        tracer.count("opt.passes")
        tracer.count("opt.changed", bool(record.changed))
    tracer.count("opt.work", stats.total_work)


def _verify_after(tracer, args, result, seconds):
    tracer.count("ir.verify.calls")


def _encode_after(tracer, args, data, seconds):
    tracer.count("bytecode.encoded_bytes", len(data))


def _cache_get_after(tracer, args, artifact, seconds):
    tracer.count("cache.gets")
    tracer.count("cache.hits", artifact is not None)


def _jit_after(tracer, args, image, seconds):
    module, target = args[0], args[1]
    tracer.count("jit.work", image.total_jit_work)
    with tracer._lock:
        tracer._jit_seconds[(id(module),
                             getattr(target, "name", target))] = seconds


def _run_after(layer):
    def after(tracer, args, result, seconds):
        tracer.count(f"{layer}.instructions", result.instructions)
        tracer.count(f"{layer}.seconds", seconds)
    return after


def _install_deploy(tracer: Tracer) -> None:
    """Deployment hop: submit -> result per image, minus the JIT's own
    time (when the JIT ran in this process), plus memo hits."""
    from repro.core.online import select_bytecode
    from repro.service.deployment import DeploymentPool
    original = DeploymentPool.__dict__["_image_future"]

    @functools.wraps(original)
    def image_future(pool, artifact, target, flow):
        if not tracer.enabled:
            return original(pool, artifact, target, flow)
        key = (id(select_bytecode(artifact, flow)), target.name)
        submitted = time.perf_counter()
        future, created = original(pool, artifact, target, flow)
        tracer.count("deploy.requests")
        if not created:
            tracer.count("deploy.memo_hits")
            return future, created

        def done(_future):
            hop = time.perf_counter() - submitted
            with tracer._lock:
                jit = tracer._jit_seconds.pop(key, 0.0)
            tracer.count("deploy.compiles")
            tracer.count("deploy.wait_s", max(0.0, hop - jit))

        future.add_done_callback(done)
        return future, created

    DeploymentPool._image_future = image_future


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap every measured layer's entry points for ``tracer`` (once
    per process; span names follow the ``repro`` modules)."""
    from repro.service import CompilationService
    from repro.service.cache import ArtifactCache
    from repro.targets.registry import NativeBackend
    from repro.targets.simulator import Simulator
    from repro.targets.stackvm import StackBackend, StackExecutor

    tracer.patch_function("repro.lang", "parse_and_check", "lang")
    tracer.patch_function("repro.frontend.lower", "lower_source",
                          "frontend")
    tracer.patch_function("repro.flows", "run_pipeline", "opt",
                          after=_opt_after)
    tracer.patch_function("repro.ir.verify", "verify_function",
                          "ir.verify", after=_verify_after)
    tracer.patch_function("repro.bytecode.emit", "emit_module",
                          "bytecode")
    tracer.patch_function("repro.bytecode.verifier", "verify_module",
                          "bytecode")
    tracer.patch_function("repro.bytecode.encode", "encode_module",
                          "bytecode", after=_encode_after)
    tracer.patch_function("repro.analysis.lint", "check_admission",
                          "analysis")
    tracer.patch_function("repro.core.offline", "offline_compile",
                          "offline")
    tracer.patch_function("repro.jit.compiler", "compile_for_target",
                          "jit", after=_jit_after)
    tracer.patch_function("repro.targets.dispatch", "warm_module",
                          "predecode")
    tracer.patch_method(NativeBackend, "warm", "predecode")
    tracer.patch_method(StackBackend, "warm", "predecode")
    tracer.patch_method(ArtifactCache, "get", "cache",
                        after=_cache_get_after)
    tracer.patch_method(ArtifactCache, "put", "cache")
    tracer.patch_method(CompilationService, "submit", "service")
    tracer.patch_method(Simulator, "run", "sim", after=_run_after("sim"))
    tracer.patch_method(StackExecutor, "run", "vm",
                        after=_run_after("vm"))
    _install_deploy(tracer)
    return tracer


#: layers whose self time is reported as ``<layer>.self_ms``
SELF_TIME_LAYERS = ("lang", "frontend", "opt", "ir.verify", "bytecode",
                    "analysis", "cache", "jit", "predecode", "sim", "vm",
                    "offline")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, tuple]:
    """Per-layer metrics from the spans and counters of ``ops`` ops:
    name -> (value, unit).  Times are milliseconds per op."""
    selfs = tracer.selfs
    c = tracer.counters
    out = {f"{layer}.self_ms": (selfs.get(layer, 0.0) * 1e3 / max(ops, 1),
                                "ms")
           for layer in SELF_TIME_LAYERS}
    out["opt.changed_ratio"] = (_ratio(c["opt.changed"], c["opt.passes"]),
                                "ratio")
    out["ir.verify.calls"] = (c["ir.verify.calls"] / max(ops, 1), "count")
    out["bytecode.encoded_bytes"] = (
        c["bytecode.encoded_bytes"] / max(ops, 1), "bytes")
    out["cache.hit_ratio"] = (_ratio(c["cache.hits"], c["cache.gets"]),
                              "ratio")
    out["deploy.wait_ms"] = (_ratio(c["deploy.wait_s"] * 1e3,
                                    c["deploy.compiles"]), "ms")
    out["deploy.memo_hit_ratio"] = (
        _ratio(c["deploy.memo_hits"], c["deploy.requests"]), "ratio")
    for layer in ("sim", "vm"):
        out[f"{layer}.mips"] = (
            _ratio(c[f"{layer}.instructions"] / 1e6, c[f"{layer}.seconds"]),
            "MIPS")
    return out
