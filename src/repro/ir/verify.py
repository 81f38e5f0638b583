"""Structural and type verifier for IR functions.

Run after lowering and, under a verifying :class:`PassManager`, after
every pass that changed the function and once at exit: a pass that
produces ill-formed IR is a bug in the pass, and catching it at the
point of damage beats debugging a miscompile three stages later.

:func:`verify_function` walks the instructions once.  The walk checks
block structure and per-instruction types (a dispatch table keyed by
instruction type), records the block of each register's definitions
and queues the uses not defined earlier in their own block.  Those
queued uses are then checked against the dominator tree, in walk
order, so the first violation reported is the same one a block-by-
block check would find.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.lang import types as ty
from repro.ir import instructions as ins
from repro.ir.cfg import dominators
from repro.ir.function import Function
from repro.ir.values import VReg


class IRVerifyError(Exception):
    pass


def _fail(func: Function, message: str) -> None:
    raise IRVerifyError(f"{func.name}: {message}")


def verify_function(func: Function) -> None:
    """Raise :class:`IRVerifyError` on the first violation found."""
    if not func.blocks:
        _fail(func, "function has no blocks")

    labels = [b.label for b in func.blocks]
    if len(set(labels)) != len(labels):
        _fail(func, "duplicate block labels")
    label_set = set(labels)

    entry_label = func.entry.label
    terminators = ins.TERMINATORS
    checks = _CHECKS
    param_ids = {param.id for param in func.params}
    # Registers are keyed by id (VReg equality is id equality; int keys
    # skip VReg.__hash__).  ``def_block`` holds the block of each
    # register's first def; a register defined in a second block also
    # lands in ``multi_def``.  Params count as defined in the entry.
    def_block: Dict[int, str] = dict.fromkeys(param_ids, entry_label)
    multi_def: Set[int] = set()
    # Uses not defined earlier in their own block, in walk order.
    pending: List[Tuple[VReg, str]] = []

    for block in func.blocks:
        label = block.label
        instrs = block.instrs
        if not instrs or not isinstance(instrs[-1], terminators):
            _fail(func, f"block {label} lacks a terminator")
        for instr in instrs[:-1]:
            if isinstance(instr, terminators):
                _fail(func, f"terminator in the middle of {label}")
        for target in block.successors():
            if target not in label_set:
                _fail(func, f"branch to unknown block {target!r}")
        defined_here: Set[int] = \
            set(param_ids) if label == entry_label else set()
        for instr in instrs:
            check = checks.get(type(instr), _NOT_LISTED)
            if check is _NOT_LISTED:
                check = _inherited_check(type(instr))
            if check is not None:
                check(func, label, instr)
            # ``srcs``/``dst`` are what ``uses()``/``defs()`` read.
            for src in instr.srcs:
                if isinstance(src, VReg) and src.id not in defined_here:
                    pending.append((src, label))
            dst = instr.dst
            if dst is not None:
                reg_id = dst.id
                defined_here.add(reg_id)
                if def_block.setdefault(reg_id, label) != label:
                    multi_def.add(reg_id)

    _check_defs_dominate_uses(func, def_block, multi_def, pending)


def _check_defs_dominate_uses(func: Function, def_block: Dict[int, str],
                              multi_def: Set[int],
                              pending: List[Tuple[VReg, str]]) -> None:
    """Every use must be dominated by a definition (non-SSA: any def).

    Non-SSA IR with multi-block defs (e.g. loop-carried values written
    in the latch) is accepted as long as at least one def exists;
    strict dominance is checked only when a register is defined in a
    single block.  Uses in unreachable blocks are not checked.
    """
    # Only reachable blocks get dominator sets.
    dom = dominators(func)
    for reg, label in pending:
        dominators_here = dom.get(label)
        if dominators_here is None:
            continue
        only = def_block.get(reg.id)
        if only is None:
            _fail(func, f"use of undefined register {reg!r} in {label}")
        if only in dominators_here and only != label or \
                reg.id in multi_def:
            continue
        if only != label:
            _fail(func, f"use of {reg!r} in {label} not dominated by "
                        f"its def in {only}")
        # The single def is later in this very block, so the first
        # execution would read garbage.
        _fail(func, f"use of {reg!r} before its def in {label}")


# ---------------------------------------------------------------------------
# per-instruction type checks, keyed by instruction type
# ---------------------------------------------------------------------------

def _bad(func: Function, label: str, instr: ins.Instr, msg: str) -> None:
    _fail(func, f"{label}: {msg}: {instr!r}")


def _is_address(value) -> bool:
    return isinstance(value.ty, ty.IntType) and value.ty.bits == 64


_INTEGER_BINOPS = frozenset(("and", "or", "xor", "shl", "shr", "rem"))


def _check_binop(func, label, instr: ins.BinOp) -> None:
    if instr.dst.ty != instr.ty:
        _bad(func, label, instr, "binop dst type mismatch")
    for operand in (instr.a, instr.b):
        if operand.ty != instr.ty:
            _bad(func, label, instr,
                 f"binop operand type {operand.ty} != {instr.ty}")
    if instr.op in _INTEGER_BINOPS and not ty.is_integer(instr.ty):
        _bad(func, label, instr, f"{instr.op} requires integer type")


def _check_cmp(func, label, instr: ins.Cmp) -> None:
    if instr.dst.ty != ty.I32:
        _bad(func, label, instr, "cmp result must be i32")
    for operand in (instr.a, instr.b):
        if operand.ty != instr.ty:
            _bad(func, label, instr, "cmp operand type mismatch")


def _check_cast(func, label, instr: ins.Cast) -> None:
    if instr.dst.ty != instr.to_ty:
        _bad(func, label, instr, "cast dst type mismatch")
    if instr.src.ty != instr.from_ty:
        _bad(func, label, instr, "cast src type mismatch")


def _check_move(func, label, instr: ins.Move) -> None:
    if instr.dst.ty != instr.src.ty:
        _bad(func, label, instr, "move type mismatch")


def _check_select(func, label, instr: ins.Select) -> None:
    if instr.dst.ty != instr.ty:
        _bad(func, label, instr, "select dst type mismatch")
    for operand in (instr.a, instr.b):
        if operand.ty != instr.ty:
            _bad(func, label, instr, "select operand type mismatch")
    if not isinstance(instr.cond.ty, ty.IntType):
        _bad(func, label, instr, "select condition must be an integer")


def _check_load(func, label, instr: ins.Load) -> None:
    if instr.dst.ty != instr.ty:
        _bad(func, label, instr, "load dst type mismatch")
    if not _is_address(instr.addr):
        _bad(func, label, instr, "load address must be u64/i64")


def _check_store(func, label, instr: ins.Store) -> None:
    if instr.value.ty != instr.ty:
        _bad(func, label, instr, "store value type mismatch")
    if not _is_address(instr.addr):
        _bad(func, label, instr, "store address must be u64/i64")


def _check_frame_addr(func, label, instr: ins.FrameAddr) -> None:
    if instr.slot not in func.frame_slots:
        _bad(func, label, instr, f"unknown frame slot {instr.slot!r}")
    if instr.dst.ty != ty.U64:
        _bad(func, label, instr, "frame_addr result must be u64")


def _check_ret(func, label, instr: ins.Ret) -> None:
    if isinstance(func.ret_ty, ty.VoidType):
        if instr.value is not None:
            _bad(func, label, instr, "void function returning a value")
    elif instr.value is None:
        _bad(func, label, instr, "missing return value")
    elif instr.value.ty != func.ret_ty:
        _bad(func, label, instr,
             f"return type {instr.value.ty} != {func.ret_ty}")


def _check_vload(func, label, instr: ins.VLoad) -> None:
    if instr.dst.ty != instr.vty:
        _bad(func, label, instr, "vload dst type mismatch")
    if not _is_address(instr.addr):
        _bad(func, label, instr, "vload address must be u64/i64")


def _check_vstore(func, label, instr: ins.VStore) -> None:
    if instr.value.ty != instr.vty:
        _bad(func, label, instr, "vstore value type mismatch")


def _check_vbinop(func, label, instr: ins.VBinOp) -> None:
    if instr.dst.ty != instr.vty:
        _bad(func, label, instr, "vbinop dst type mismatch")
    for operand in (instr.a, instr.b):
        if operand.ty != instr.vty:
            _bad(func, label, instr, "vbinop operand type mismatch")


def _check_vsplat(func, label, instr: ins.VSplat) -> None:
    if instr.dst.ty != instr.vty:
        _bad(func, label, instr, "vsplat dst type mismatch")
    if instr.scalar.ty != instr.vty.elem:
        _bad(func, label, instr, "vsplat scalar type mismatch")


def _check_vreduce(func, label, instr: ins.VReduce) -> None:
    if instr.dst.ty != instr.acc_ty:
        _bad(func, label, instr, "vreduce dst type mismatch")
    if instr.src.ty != instr.vty:
        _bad(func, label, instr, "vreduce src type mismatch")
    if ty.is_integer(instr.vty.elem) != ty.is_integer(instr.acc_ty):
        _bad(func, label, instr, "vreduce accumulator class mismatch")


_Check = Callable[[Function, str, ins.Instr], None]

#: type check per instruction class (None: the class has no checks)
_CHECKS: Dict[type, Optional[_Check]] = {
    ins.BinOp: _check_binop,
    ins.UnOp: None,
    ins.Cmp: _check_cmp,
    ins.Cast: _check_cast,
    ins.Move: _check_move,
    ins.Select: _check_select,
    ins.Load: _check_load,
    ins.Store: _check_store,
    ins.FrameAddr: _check_frame_addr,
    ins.Call: None,
    ins.Ret: _check_ret,
    ins.Jump: None,
    ins.Branch: None,
    ins.VLoad: _check_vload,
    ins.VStore: _check_vstore,
    ins.VBinOp: _check_vbinop,
    ins.VSplat: _check_vsplat,
    ins.VReduce: _check_vreduce,
}

_NOT_LISTED = object()


def _inherited_check(cls: type) -> Optional[_Check]:
    """Check for a class not in the table (e.g. the JIT's indexed
    loads and stores): that of its nearest listed base."""
    return next((_CHECKS[base] for base in cls.__mro__
                 if base in _CHECKS), None)
