"""IR construction, CFG analyses, liveness and verifier tests."""

import pytest

from repro.ir import (
    Branch, Const, IRBuilder, Jump, Move, Ret,
    Function, IRVerifyError, verify_function,
)
from repro.ir.cfg import (
    dominators, innermost_loops, natural_loops, predecessors,
    reverse_postorder, remove_unreachable,
)
from repro.ir.liveness import analyze, live_ranges, max_live
from repro.lang import types as ty
from tests.support import lower_checked


def build_diamond():
    """if/else diamond: entry -> (a | b) -> join."""
    func = Function("diamond", ty.I32)
    cond = func.new_param(ty.I32, "c")
    entry = func.new_block("entry")
    a = func.new_block("a")
    b = func.new_block("b")
    join = func.new_block("join")
    builder = IRBuilder(func)
    result = func.new_reg(ty.I32, "r")

    builder.set_block(entry)
    builder.branch(cond, a, b)
    builder.set_block(a)
    builder.emit(Move(result, Const(1, ty.I32)))
    builder.jump(join)
    builder.set_block(b)
    builder.emit(Move(result, Const(2, ty.I32)))
    builder.jump(join)
    builder.set_block(join)
    builder.ret(result)
    return func


def build_loop():
    """Simple counted loop CFG."""
    func = Function("loop", ty.I32)
    n = func.new_param(ty.I32, "n")
    entry = func.new_block("entry")
    head = func.new_block("head")
    body = func.new_block("body")
    exit_bb = func.new_block("exit")
    builder = IRBuilder(func)
    i = func.new_reg(ty.I32, "i")

    builder.set_block(entry)
    builder.emit(Move(i, Const(0, ty.I32)))
    builder.jump(head)
    builder.set_block(head)
    cmp = builder.cmp("lt", i, n, ty.I32)
    builder.branch(cmp, body, exit_bb)
    builder.set_block(body)
    next_i = builder.binop("add", i, Const(1, ty.I32), ty.I32)
    builder.emit(Move(i, next_i))
    builder.jump(head)
    builder.set_block(exit_bb)
    builder.ret(i)
    return func


class TestCFG:
    def test_predecessors_diamond(self):
        func = build_diamond()
        preds = predecessors(func)
        assert sorted(preds["join0"[:-1] + "3"]) == ["a1", "b2"] or True
        # Look up by actual labels to stay robust to numbering:
        join = func.blocks[3].label
        assert sorted(preds[join]) == sorted(
            [func.blocks[1].label, func.blocks[2].label])

    def test_reverse_postorder_starts_at_entry(self):
        func = build_loop()
        rpo = reverse_postorder(func)
        assert rpo[0] == func.entry.label
        assert len(rpo) == 4

    def test_dominators_loop(self):
        func = build_loop()
        dom = dominators(func)
        entry, head, body, exit_bb = [b.label for b in func.blocks]
        assert entry in dom[body]
        assert head in dom[body]
        assert head in dom[exit_bb]
        assert body not in dom[exit_bb]

    def test_natural_loop_detection(self):
        func = build_loop()
        loops = natural_loops(func)
        assert len(loops) == 1
        loop = loops[0]
        head, body = func.blocks[1].label, func.blocks[2].label
        assert loop.header == head
        assert loop.body == {head, body}
        assert loop.preheader == func.entry.label

    def test_diamond_has_no_loops(self):
        assert natural_loops(build_diamond()) == []

    def test_innermost_loops_from_source(self):
        module = lower_checked("""
            int nested(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += i * j;
                return s;
            }""")
        func = module["nested"]
        loops = natural_loops(func)
        inner = innermost_loops(func)
        assert len(loops) == 2
        assert len(inner) == 1
        assert inner[0].body < max(loops, key=lambda l: len(l.body)).body

    def test_remove_unreachable(self):
        func = build_diamond()
        dead = func.new_block("dead")
        builder = IRBuilder(func)
        builder.set_block(dead)
        builder.ret(Const(0, ty.I32))
        assert remove_unreachable(func) == 1
        assert all(b.label != "dead4" for b in func.blocks)


class TestLiveness:
    def test_param_live_into_loop(self):
        func = build_loop()
        info = analyze(func)
        head = func.blocks[1].label
        n = func.params[0]
        assert n in info[head].live_in

    def test_loop_variable_live_around_backedge(self):
        func = build_loop()
        info = analyze(func)
        body = func.blocks[2].label
        i_reg = next(r for r in info[body].use if r.name == "i")
        assert i_reg in info[body].live_out or \
            i_reg in info[func.blocks[1].label].live_in

    def test_live_ranges_cover_defs_and_uses(self):
        func = build_loop()
        ranges = live_ranges(func)
        for reg, (start, end) in ranges.items():
            assert start <= end

    def test_max_live_positive(self):
        assert max_live(build_loop()) >= 2


class TestVerifier:
    def test_accepts_well_formed(self):
        verify_function(build_diamond())
        verify_function(build_loop())

    def test_rejects_missing_terminator(self):
        func = Function("bad", ty.VOID)
        func.new_block("entry")
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_branch_to_unknown_label(self):
        func = Function("bad", ty.VOID)
        block = func.new_block("entry")
        block.append(Jump("nowhere"))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_type_mismatch_in_binop(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        builder = IRBuilder(func)
        builder.set_block(block)
        from repro.ir import BinOp
        dst = func.new_reg(ty.I32)
        block.append(BinOp("add", dst, Const(1, ty.I64), Const(2, ty.I32),
                           ty.I32))
        block.append(Ret(dst))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_use_of_undefined_register(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        ghost = func.new_reg(ty.I32)
        block.append(Ret(ghost))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_use_before_single_def_in_block(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        reg = func.new_reg(ty.I32)
        copy = func.new_reg(ty.I32)
        block.append(Move(copy, reg))
        block.append(Move(reg, Const(1, ty.I32)))
        block.append(Ret(copy))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_wrong_return_type(self):
        func = Function("bad", ty.F32)
        block = func.new_block("entry")
        block.append(Ret(Const(1, ty.I32)))
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_rejects_mid_block_terminator(self):
        func = Function("bad", ty.VOID)
        block = func.new_block("entry")
        block.append(Ret())
        block.append(Ret())
        with pytest.raises(IRVerifyError):
            verify_function(func)

    def test_instruction_subclass_is_checked_as_its_base(self):
        from repro.jit.addrfold import LoadIndexed
        func = Function("bad", ty.I32)
        base = func.new_param(ty.U64, "p")
        block = func.new_block("entry")
        dst = func.new_reg(ty.I64)
        block.append(LoadIndexed(dst, base, Const(0, ty.U64), ty.I32))
        block.append(Ret(Const(0, ty.I32)))
        with pytest.raises(IRVerifyError, match="load dst type mismatch"):
            verify_function(func)

    def test_lowered_sources_always_verify(self):
        module = lower_checked("""
            int gcd(int a, int b) {
                while (b != 0) { int t = a % b; a = b; b = t; }
                return a;
            }
            double horner(double *c, int n, double x) {
                double acc = 0.0;
                for (int i = n - 1; i >= 0; i--) acc = acc * x + c[i];
                return acc;
            }""")
        assert len(list(module)) == 2   # verification happens in helper


class TestVerifierDominanceMessages:
    """Each branch of the defs-dominate-uses check, with its exact
    message (the single-walk verifier must report the same first
    violation, worded the same, as a block-by-block check)."""

    @staticmethod
    def message(func):
        with pytest.raises(IRVerifyError) as info:
            verify_function(func)
        return str(info.value)

    def test_use_before_its_def_in_the_same_block(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        reg = func.new_reg(ty.I32, "x")
        copy = func.new_reg(ty.I32)
        block.append(Move(copy, reg))
        block.append(Move(reg, Const(1, ty.I32)))
        block.append(Ret(copy))
        assert self.message(func) == \
            "bad: use of %0.x before its def in entry0"

    def test_single_def_that_does_not_dominate_the_use(self):
        func = Function("bad", ty.I32)
        cond = func.new_param(ty.I32, "c")
        entry, then, join = (func.new_block(hint)
                             for hint in ("entry", "then", "join"))
        value = func.new_reg(ty.I32, "v")
        entry.append(Branch(cond, then.label, join.label))
        then.append(Move(value, Const(1, ty.I32)))
        then.append(Jump(join.label))
        join.append(Ret(value))
        assert self.message(func) == \
            "bad: use of %1.v in join2 not dominated by its def in then1"

    def test_undefined_register(self):
        func = Function("bad", ty.I32)
        block = func.new_block("entry")
        block.append(Ret(func.new_reg(ty.I32, "ghost")))
        assert self.message(func) == \
            "bad: use of undefined register %0.ghost in entry0"

    def test_multi_def_register_used_across_blocks_is_accepted(self):
        # neither def block dominates ``join``; two defs suffice
        verify_function(build_diamond())
        verify_function(build_loop())

    def test_use_in_unreachable_block_is_ignored(self):
        func = Function("ok", ty.I32)
        entry = func.new_block("entry")
        dead = func.new_block("dead")
        entry.append(Ret(Const(0, ty.I32)))
        dead.append(Ret(func.new_reg(ty.I32, "ghost")))
        verify_function(func)

    def test_params_are_defined_at_entry(self):
        func = Function("ok", ty.I32)
        n = func.new_param(ty.I32, "n")
        entry = func.new_block("entry")
        body = func.new_block("body")
        copy = func.new_reg(ty.I32)
        entry.append(Move(copy, n))
        entry.append(Jump(body.label))
        # a param redefined in another block is a multi-def register
        body.append(Move(n, copy))
        body.append(Ret(n))
        verify_function(func)

    def test_first_violation_in_walk_order_wins(self):
        func = Function("bad", ty.I32)
        entry = func.new_block("entry")
        tail = func.new_block("tail")
        entry.append(Move(func.new_reg(ty.I32, "a"),
                          func.new_reg(ty.I32, "first")))
        entry.append(Jump(tail.label))
        tail.append(Ret(func.new_reg(ty.I32, "second")))
        assert self.message(func) == \
            "bad: use of undefined register %1.first in entry0"

    def test_structural_errors_precede_dominance_errors(self):
        func = Function("bad", ty.I32)
        entry = func.new_block("entry")
        tail = func.new_block("tail")
        entry.append(Move(func.new_reg(ty.I32, "a"),
                          func.new_reg(ty.I32, "ghost")))
        entry.append(Jump(tail.label))
        tail.append(Ret(Const(1, ty.I64)))
        assert self.message(func) == \
            "bad: tail1: return type i64 != i32: ret 1:i64"
