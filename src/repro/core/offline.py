"""The offline compiler driver (µproc-independent step of Figure 1).

``offline_compile(source)`` runs the whole expensive side of split
compilation:

1. parse, type-check, lower to IR;
2. the flow's declared pass pipeline (default: -O2-style scalar
   optimization), plus optional loop unrolling;
3. auto-vectorization to portable vector builtins;
4. spill-priority analysis for split register allocation;
5. hardware-requirement summarization;
6. emission to PVI bytecode with all results attached as annotations.

The pipeline is *data*: a :class:`repro.flows.PipelineSpec` (pass
names + vectorize/annotation knobs) — pass one explicitly, or let the
legacy boolean knobs build the default spec.  Every pass invocation is
instrumented (work, wall time, changed, IR size delta); the aggregate
lands in ``OfflineArtifact.pass_stats`` and its total *is* the
artifact's ``offline_work``.

It also produces the plain scalar bytecode of the same program (no
vector ops, no annotations) because the evaluation needs it twice:
as the portable baseline ("offline-only" flow) and as the input the
"online-only" flow must re-analyze at run time.  Scalar-side pass
records are tagged with a ``scalar:`` prefix in the stats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.bytecode.annotations import (
    HotnessAnnotation, HWRequirementAnnotation, VecLoopAnnotation,
)
from repro.bytecode.emit import emit_module
from repro.bytecode.module import BytecodeModule
from repro.bytecode.verifier import verify_module
from repro.frontend import lower_source
from repro.ir import instructions as ins
from repro.ir.function import Function, Module
from repro.lang import types as ty_mod
from repro.opt import PassStats
from repro.split import regalloc_annotation


@dataclass
class OfflineArtifact:
    """Everything the offline step hands to deployment."""
    name: str
    bytecode: BytecodeModule            # vectorized + annotated
    scalar_bytecode: BytecodeModule     # plain scalar, no annotations
    offline_work: int = 0               # analysis effort spent offline
    offline_time: float = 0.0
    vectorized_functions: List[str] = field(default_factory=list)
    #: the program text (lets a flow with a different pipeline recompile)
    source: Optional[str] = None
    #: the pipeline spec this artifact was compiled under
    pipeline: Optional["PipelineSpec"] = None
    #: the hotness profile it was annotated with (recompiles keep it)
    hotness: Optional[Dict[str, int]] = None
    #: per-pass instrumentation; ``pass_stats.total_work == offline_work``
    pass_stats: PassStats = field(default_factory=PassStats)

    def pass_report(self) -> str:
        """Human-readable per-pass breakdown of the offline budget."""
        return self.pass_stats.report()


def effective_pipeline(pipeline=None, *, optimize: bool = True,
                       do_vectorize: bool = True,
                       annotate_regalloc: bool = True,
                       annotate_hw: bool = True) -> "PipelineSpec":
    """The spec ``offline_compile`` will actually run.

    An explicit ``pipeline`` (spec or its dict form) wins outright;
    otherwise the legacy boolean knobs are folded into the default
    spec.  The artifact cache canonicalizes keys through this same
    function, so the key always reflects the pipeline that ran.
    """
    from repro.flows import PipelineSpec

    if pipeline is not None:
        if isinstance(pipeline, dict):
            defaults = PipelineSpec()
            unknown = set(pipeline) - {
                "passes", "unroll", "vectorize", "annotate_regalloc",
                "annotate_hw"}
            if unknown:
                raise ValueError(
                    f"unknown pipeline fields {sorted(unknown)}")
            spec = PipelineSpec(
                passes=tuple(pipeline.get("passes", defaults.passes)),
                unroll=int(pipeline.get("unroll", defaults.unroll)),
                vectorize=bool(pipeline.get("vectorize",
                                            defaults.vectorize)),
                annotate_regalloc=bool(
                    pipeline.get("annotate_regalloc",
                                 defaults.annotate_regalloc)),
                annotate_hw=bool(pipeline.get("annotate_hw",
                                              defaults.annotate_hw)))
        else:
            spec = pipeline
        return spec.validate()
    return PipelineSpec(
        passes=PipelineSpec().passes if optimize else (),
        vectorize=do_vectorize,
        annotate_regalloc=annotate_regalloc,
        annotate_hw=annotate_hw)


def offline_compile(source: str, name: str = "module", *,
                    pipeline=None,
                    optimize: bool = True,
                    do_vectorize: bool = True,
                    annotate_regalloc: bool = True,
                    annotate_hw: bool = True,
                    hotness: Optional[Dict[str, int]] = None,
                    verify: bool = True) -> OfflineArtifact:
    """Compile ``source`` to a PVI artifact (both bytecode flavours).

    With ``verify=True`` (the default) the IR verifier checks every
    function after every pass that changed the function, and once at
    exit, and the bytecode verifier checks both emitted modules.
    """
    from repro.flows import run_pipeline

    spec = effective_pipeline(pipeline, optimize=optimize,
                              do_vectorize=do_vectorize,
                              annotate_regalloc=annotate_regalloc,
                              annotate_hw=annotate_hw)
    start = time.perf_counter()
    stats = PassStats()

    # The scalar variant is compiled from its own lowering so the two
    # bytecode flavours are fully independent artifacts.
    scalar_spec = replace(spec, vectorize=False)
    scalar_module = lower_source(source, name)
    for func in scalar_module:
        func_stats = run_pipeline(func, scalar_spec, verify=verify)
        for record in func_stats.records:
            stats.record(f"scalar:{record.name}", record.work,
                         record.time, record.changed,
                         record.ir_before, record.ir_after)

    scalar_bc, _ = emit_module(scalar_module)

    module = lower_source(source, name)
    vectorized: List[str] = []
    for func in module:
        stats.merge(run_pipeline(func, spec, verify=verify))
        if spec.vectorize and getattr(func, "vector_loops", []):
            vectorized.append(func.name)

    bytecode, label_maps = emit_module(module)

    for func in module:
        labels = label_maps[func.name]
        for info in getattr(func, "vector_loops", []):
            bytecode.annotations.append(VecLoopAnnotation(
                function=func.name,
                vector_pc=labels[info.vector_header],
                scalar_pc=labels[info.scalar_header],
                lanes=info.lanes,
                elem=info.elem,
                kind=info.kind,
                reduce_op=info.reduce_op,
                acc_type=info.acc_type,
                noalias_count=len(info.noalias_bases),
            ))
        if spec.annotate_regalloc:
            bytecode.annotations.append(
                regalloc_annotation(func, bytecode[func.name]))
        if spec.annotate_hw:
            bytecode.annotations.append(_hw_annotation(func))
        if hotness and func.name in hotness:
            # Profile data rides on both flavours: the adaptive flow
            # ships the scalar bytecode and gates its online analyses
            # on these weights.
            weight = hotness[func.name]
            bytecode.annotations.append(HotnessAnnotation(
                function=func.name, weight=weight))
            scalar_bc.annotations.append(HotnessAnnotation(
                function=func.name, weight=weight))

    if verify:
        verify_module(bytecode)
        verify_module(scalar_bc)

    # Offline output is immutable from here on; freezing lets the fast
    # VM bind call targets at predecode time (per-call inline caching).
    bytecode.freeze()
    scalar_bc.freeze()

    return OfflineArtifact(
        name=name,
        bytecode=bytecode,
        scalar_bytecode=scalar_bc,
        offline_work=stats.total_work,
        offline_time=time.perf_counter() - start,
        vectorized_functions=vectorized,
        source=source,
        pipeline=spec,
        hotness=dict(hotness) if hotness else None,
        pass_stats=stats,
    )


def _hw_annotation(func: Function) -> HWRequirementAnnotation:
    """Summarize what hardware the function would benefit from."""
    wants_simd = False
    wants_fp = False
    wants_fp64 = False
    memory_ops = 0
    total = 0
    for instr in func.instructions():
        total += 1
        if isinstance(instr, (ins.VLoad, ins.VStore, ins.VBinOp,
                              ins.VSplat, ins.VReduce)):
            wants_simd = True
        for value in list(instr.uses()) + list(instr.defs()):
            value_ty = value.ty
            if isinstance(value_ty, ty_mod.FloatType):
                wants_fp = True
                if value_ty.bits == 64:
                    wants_fp64 = True
        if isinstance(instr, (ins.Load, ins.Store, ins.VLoad,
                              ins.VStore)):
            memory_ops += 1
    return HWRequirementAnnotation(
        function=func.name,
        wants_simd=wants_simd,
        wants_fp=wants_fp,
        wants_fp64=wants_fp64,
        memory_bound=total > 0 and memory_ops * 3 > total,
    )
