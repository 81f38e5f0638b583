"""First-class deployment flows: the registry the whole stack consumes.

The paper's claim is that one portable artifact serves many deployment
flows on heterogeneous targets.  A :class:`Flow` makes a deployment
configuration *data* instead of code: the offline pipeline spec (pass
names plus vectorize/annotation knobs), the online :class:`JITOptions`,
and which bytecode flavour ships to the device.  The global
:class:`FlowRegistry` holds the three paper flows plus two extended
ones, and every layer — ``core.offline`` / ``core.online``,
``compare_flows``, the JIT facade, the iterative search and the
compilation service — resolves flows through it.  Adding a flow is one
:func:`register_flow` call; it immediately appears in flow comparisons,
the search space and the service cache, with no edits elsewhere.

Flows and pipeline specs are plain frozen dataclasses: hashable,
picklable and JSON-describable (the service cache keys on
:meth:`Flow.cache_key`).  Picklability is what lets a flow cross the
``ProcessExecutor`` seam — the service's process-pool deployment
backend ships ``Flow`` objects to worker processes verbatim, and
replicates the registry into workers at pool start (see
:mod:`repro.service.executors`).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.jit import JITOptions
from repro.opt import (
    PassManager, PassStats, STANDARD_PASS_NAMES, resolve_passes,
)
from repro.opt.pass_manager import verify_after

#: bytecode flavours a flow may ship (see ``OfflineArtifact``)
BYTECODE_FLAVOURS = ("vector", "scalar")


class UnknownFlowError(ValueError):
    """Raised by every entry point handed a flow name that is not
    registered; the message lists what *is* registered."""

    def __init__(self, name: object, known: Tuple[str, ...]):
        self.flow_name = name
        self.known = known
        super().__init__(
            f"unknown flow {name!r}; registered flows: "
            f"{', '.join(known) if known else '(none)'}")


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of the offline (µproc-independent) side.

    ``passes`` are names resolved through :func:`repro.opt.resolve_passes`
    (a ``.N`` suffix marks a repeated invocation); ``unroll`` and
    ``vectorize`` run after the pass pipeline, exactly as the iterative
    search orders them.  The annotation knobs decide what the offline
    compiler attaches to the vector bytecode.
    """
    passes: Tuple[str, ...] = STANDARD_PASS_NAMES
    unroll: int = 1
    vectorize: bool = True
    annotate_regalloc: bool = True
    annotate_hw: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {"passes": list(self.passes), "unroll": self.unroll,
                "vectorize": self.vectorize,
                "annotate_regalloc": self.annotate_regalloc,
                "annotate_hw": self.annotate_hw}

    def label(self) -> str:
        """Compact tag for search histories and reports."""
        bits = [f"p{len(self.passes)}"]
        if self.unroll > 1:
            bits.append(f"u{self.unroll}")
        if self.vectorize:
            bits.append("V")
        return "".join(bits)

    def validate(self) -> "PipelineSpec":
        resolve_passes(self.passes)       # raises KeyError on a typo
        if self.unroll < 1:
            raise ValueError(f"unroll factor must be >= 1, "
                             f"got {self.unroll}")
        return self


#: the -O2-like default the paper flows share
DEFAULT_PIPELINE = PipelineSpec()


def run_pipeline(func, spec: PipelineSpec,
                 verify: bool = False) -> PassStats:
    """Run one function through a pipeline spec, fully instrumented.

    The returned :class:`PassStats` covers the pass pipeline plus the
    ``unroll`` and ``vectorize`` stages (recorded as pseudo-passes), so
    its total work is exactly the offline analysis effort spent on
    ``func``.  With ``verify=True`` the IR verifier runs after every
    pass that changed the function, pseudo-passes included, and once
    at the exit of each pass-pipeline run.
    """
    from repro.opt.unroll import unroll as unroll_pass
    from repro.opt.vectorize import vectorize as vectorize_pass

    manager = PassManager(resolve_passes(spec.passes), verify=verify)
    stats = manager.run(func)
    size = sum(1 for _ in func.instructions())
    if spec.unroll > 1:
        start = time.perf_counter()
        result = unroll_pass(func, spec.unroll)
        after = sum(1 for _ in func.instructions())
        stats.record("unroll", result.work, time.perf_counter() - start,
                     result.changed, size, after)
        size = after
        if verify and result.changed:
            verify_after(func, "unroll")
        if result.changed and spec.passes:
            # Rerun the pipeline over the unrolled body — this is the
            # point of unrolling offline: LICM/CSE/folding across what
            # used to be separate iterations, before vectorization.
            post = PassManager(resolve_passes(spec.passes),
                               verify=verify).run(func)
            for record in post.records:
                stats.record(f"post:{record.name}", record.work,
                             record.time, record.changed,
                             record.ir_before, record.ir_after)
            size = sum(1 for _ in func.instructions())
    if spec.vectorize:
        start = time.perf_counter()
        result = vectorize_pass(func)
        after = sum(1 for _ in func.instructions())
        stats.record("vectorize", result.work,
                     time.perf_counter() - start, result.changed,
                     size, after)
        if verify and result.changed:
            verify_after(func, "vectorize")
    return stats


@dataclass(frozen=True)
class Flow:
    """One deployment flow: offline spec + online options + flavour."""
    name: str
    pipeline: PipelineSpec = DEFAULT_PIPELINE
    jit: JITOptions = field(default_factory=JITOptions)
    #: which bytecode flavour ships to the device: 'vector' (annotated,
    #: vectorized) or 'scalar' (the portable baseline)
    bytecode: str = "vector"
    description: str = ""

    @property
    def charges_offline(self) -> bool:
        """Does this flow's deployment benefit from the offline
        analyses (and therefore charge ``offline_work`` to its
        budget report)?  Shipping the annotated vector flavour is
        what moves the analysis results across."""
        return self.bytecode == "vector"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "pipeline": self.pipeline.to_dict(),
                "jit": asdict(self.jit), "bytecode": self.bytecode}

    def cache_key(self) -> str:
        """Stable identity for service memo keys: the name plus a
        digest of the full configuration, so re-registering a name
        with different knobs can never alias a cached image."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return f"{self.name}#{digest[:12]}"

    def validate(self) -> "Flow":
        if self.bytecode not in BYTECODE_FLAVOURS:
            raise ValueError(
                f"flow {self.name!r}: bytecode flavour must be one of "
                f"{BYTECODE_FLAVOURS}, got {self.bytecode!r}")
        self.pipeline.validate()
        return self


class FlowRegistry:
    """Thread-safe name -> :class:`Flow` map (insertion-ordered)."""

    def __init__(self):
        self._flows: Dict[str, Flow] = {}
        self._lock = threading.Lock()

    def register(self, flow: Flow, replace: bool = False) -> Flow:
        flow.validate()
        with self._lock:
            if not replace and flow.name in self._flows:
                raise ValueError(f"flow {flow.name!r} is already "
                                 f"registered (pass replace=True)")
            self._flows[flow.name] = flow
        return flow

    def unregister(self, name: str) -> None:
        with self._lock:
            self._flows.pop(name, None)

    def get(self, name: Union[str, Flow]) -> Flow:
        if isinstance(name, Flow):
            return name
        with self._lock:
            flow = self._flows.get(name)
        if flow is None:
            raise UnknownFlowError(name, self.names())
        return flow

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._flows)

    def flows(self) -> Tuple[Flow, ...]:
        with self._lock:
            return tuple(self._flows.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._flows

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows())

    def __len__(self) -> int:
        with self._lock:
            return len(self._flows)


#: the process-wide registry every layer resolves flows through
REGISTRY = FlowRegistry()


def register_flow(flow: Flow, replace: bool = False) -> Flow:
    """Register a flow globally; it is immediately deployable, appears
    in ``compare_flows``, the iterative search space, and is cached
    under its own key by the compilation service."""
    return REGISTRY.register(flow, replace=replace)


def unregister_flow(name: str) -> None:
    REGISTRY.unregister(name)


def get_flow(name: Union[str, Flow]) -> Flow:
    return REGISTRY.get(name)


def as_flow(flow: Union[str, Flow]) -> Flow:
    """Accept either a registered name or a Flow object (every public
    entry point's contract)."""
    return REGISTRY.get(flow)


def flow_names() -> Tuple[str, ...]:
    return REGISTRY.names()


def registered_flows() -> Tuple[Flow, ...]:
    return REGISTRY.flows()


# ---------------------------------------------------------------------------
# the built-in flows
# ---------------------------------------------------------------------------

#: hotness weight at or above which the adaptive flow spends online
#: analysis on a function (unannotated functions count as hot).  The
#: execution engines reuse the same threshold as the tier-2 promotion
#: gate (see :mod:`repro.engine`): functions whose hotness annotation
#: clears it get whole-function translation, though there *unprofiled*
#: functions stay on the block tier — promotion wants positive
#: evidence, analysis gating only an absence of contrary evidence.
ADAPTIVE_HOTNESS_THRESHOLD = 1

register_flow(Flow(
    "offline-only",
    jit=JITOptions(use_annotations=False),
    bytecode="scalar",
    description="portable baseline: scalar bytecode through the cheap "
                "JIT, no annotations, no online analysis"))

register_flow(Flow(
    "online-only",
    jit=JITOptions(use_annotations=False, online_optimize=True,
                   online_vectorize=True),
    bytecode="scalar",
    description="the JIT re-derives everything at run time — best "
                "code, heaviest compile budget"))

register_flow(Flow(
    "split",
    jit=JITOptions(use_annotations=True),
    bytecode="vector",
    description="the paper's flow: offline analyses shipped as "
                "annotations, the JIT just trusts them"))

register_flow(Flow(
    "split-O3",
    pipeline=PipelineSpec(unroll=2),
    jit=JITOptions(use_annotations=True),
    bytecode="vector",
    description="split with an aggressive offline pipeline: 2x loop "
                "unrolling, then the pass pipeline rerun over the "
                "unrolled body (cross-iteration LICM/CSE) before "
                "vectorization"))

register_flow(Flow(
    "adaptive",
    jit=JITOptions(use_annotations=True, online_vectorize=True,
                   hotness_threshold=ADAPTIVE_HOTNESS_THRESHOLD,
                   osr=True),
    bytecode="scalar",
    description="hotness-gated online vectorization: the JIT spends "
                "its analysis budget only on functions profiled hot; "
                "the same hotness annotations drive the engines' "
                "tier-2 whole-function promotion, and long-running "
                "loops enter tier-2 mid-call via on-stack replacement "
                "(osr=True makes the default engine policy explicit "
                "for the flow that exists to tier adaptively)"))
