"""Unit tests for individual offline optimization passes."""

import pytest

from repro.frontend import lower_source
from repro.ir import (
    BinOp, Branch, Cmp, Const, Jump, Load, Move, Select, Store,
    format_function, verify_function,
)
from repro.ir.cfg import natural_loops
from repro.lang import types as ty
from repro.opt import (
    PassManager, PassResult, cleanup_passes, constfold, copyprop, cse,
    dce, simplify_cfg, standard_passes, strength_reduce,
)
from repro.opt.ifconvert import if_convert
from repro.opt.licm import licm
from repro.opt.loops import find_counted_loops
from tests.support import lower_checked


def cleaned(source, name=None):
    module = lower_source(source)
    for func in module:
        PassManager(cleanup_passes(), verify=True).run(func)
    return module[name] if name else next(iter(module))


def optimized(source, name=None):
    module = lower_source(source)
    for func in module:
        PassManager(standard_passes(), verify=True).run(func)
    return module[name] if name else next(iter(module))


def all_instrs(func):
    return list(func.instructions())


class TestConstFold:
    def test_folds_constant_expression(self):
        func = cleaned("int f(void) { return 2 * 21 + (7 - 7); }")
        ret = func.entry.terminator
        assert isinstance(ret.value, Const)
        assert ret.value.value == 42

    def test_folds_constant_branch(self):
        func = cleaned("int f(int x) { if (1 < 2) return x; return -x; }")
        # The false arm must be gone entirely.
        assert all(not isinstance(i, Branch) for i in all_instrs(func))

    def test_preserves_division_by_zero_trap(self):
        func = cleaned("int f(void) { return 1 / 0; }")
        assert any(isinstance(i, BinOp) and i.op == "div"
                   for i in all_instrs(func))

    def test_mul_by_zero_simplifies(self):
        func = cleaned("int f(int x) { return x * 0; }")
        ret = func.entry.terminator
        assert isinstance(ret.value, Const) and ret.value.value == 0

    def test_add_zero_identity(self):
        func = cleaned("int f(int x) { return x + 0; }")
        assert not any(isinstance(i, BinOp) for i in all_instrs(func))

    def test_float_identity_not_applied(self):
        # x + 0.0 must NOT be simplified (x could be -0.0).
        func = cleaned("double f(double x) { return x + 0.0; }")
        assert any(isinstance(i, BinOp) and i.op == "add"
                   for i in all_instrs(func))

    def test_xor_self_is_zero(self):
        func = cleaned("int f(int x) { return x ^ x; }")
        ret = func.entry.terminator
        assert isinstance(ret.value, Const) and ret.value.value == 0


class TestCopyPropAndDCE:
    def test_snapshot_movs_removed(self):
        func = cleaned("int f(int a, int b) { return a + b; }")
        assert not any(isinstance(i, Move) for i in all_instrs(func))

    def test_dead_computation_removed(self):
        func = cleaned("""
            int f(int x) {
                int unused = x * 37 + 5;
                return x;
            }""")
        assert not any(isinstance(i, BinOp) for i in all_instrs(func))

    def test_stores_never_removed(self):
        func = cleaned("void f(int *p) { *p = 1; }")
        assert any(isinstance(i, Store) for i in all_instrs(func))

    def test_chained_copies_collapse(self):
        func = cleaned("""
            int f(int x) {
                int a = x; int b = a; int c = b;
                return c;
            }""")
        ret = [b for b in func.blocks if b.terminator and
               b.terminator.srcs][-1].terminator
        assert ret.value == func.params[0]


class TestCSE:
    def test_duplicate_address_computation_shared(self):
        func = cleaned("""
            void f(float *y, float a, int i) {
                y[i] = y[i] * a;
            }""")
        muls = [i for i in all_instrs(func)
                if isinstance(i, BinOp) and i.op == "mul" and
                i.ty == ty.U64]
        assert len(muls) == 1      # one index scaling, not two

    def test_loads_not_merged_across_store(self):
        func = cleaned("""
            int f(int *p, int *q) {
                int a = p[0];
                q[0] = 7;
                int b = p[0];   /* may alias q: must reload */
                return a + b;
            }""")
        loads = [i for i in all_instrs(func) if isinstance(i, Load)]
        assert len(loads) == 2

    def test_loads_merged_without_store(self):
        func = cleaned("""
            int f(int *p) {
                int a = p[0];
                int b = p[0];
                return a + b;
            }""")
        loads = [i for i in all_instrs(func) if isinstance(i, Load)]
        assert len(loads) == 1

    def test_commutative_matching(self):
        func = cleaned("int f(int a, int b) { return a * b + b * a; }")
        muls = [i for i in all_instrs(func)
                if isinstance(i, BinOp) and i.op == "mul"]
        assert len(muls) == 1


class TestSimplifyCFG:
    def test_straightline_blocks_merged(self):
        func = cleaned("""
            int f(int x) {
                int y = x + 1;
                { int z = y * 2; return z; }
            }""")
        assert len(func.blocks) == 1

    def test_unreachable_code_removed(self):
        func = cleaned("""
            int f(int x) {
                return x;
                x = x + 1;  /* unreachable */
                return x;
            }""")
        assert len(func.blocks) == 1

    def test_loop_structure_preserved(self):
        func = cleaned("""
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += i;
                return s;
            }""")
        assert len(natural_loops(func)) == 1


class TestStrengthReduction:
    def test_mul_pow2_becomes_shift(self):
        module = lower_source("unsigned f(unsigned x) { return x * 8; }")
        func = next(iter(module))
        PassManager(cleanup_passes(), verify=True).run(func)
        strength_reduce(func)
        verify_function(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "shl" in ops and "mul" not in ops

    def test_unsigned_div_pow2_becomes_shift(self):
        module = lower_source("unsigned f(unsigned x) { return x / 4; }")
        func = next(iter(module))
        strength_reduce(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "shr" in ops and "div" not in ops

    def test_signed_div_untouched(self):
        module = lower_source("int f(int x) { return x / 4; }")
        func = next(iter(module))
        strength_reduce(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "div" in ops

    def test_unsigned_rem_pow2_becomes_and(self):
        module = lower_source("unsigned f(unsigned x) { return x % 16; }")
        func = next(iter(module))
        strength_reduce(func)
        ops = [i.op for i in all_instrs(func) if isinstance(i, BinOp)]
        assert "and" in ops and "rem" not in ops

    def test_semantics_preserved(self):
        from tests.support import run_ir
        src = "unsigned f(unsigned x) { return x * 8 + x / 4 + x % 16; }"
        plain = run_ir(src, "f", [1234567])[0]
        module = lower_source(src)
        func = next(iter(module))
        strength_reduce(func)
        from repro.ir.interp import IRInterpreter
        assert IRInterpreter(module).call("f", [1234567]) == plain


class TestLICM:
    def test_invariant_hoisted_out_of_loop(self):
        func = optimized("""
            int f(int n, int a, int b) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a * b;
                return s;
            }""")
        loops = natural_loops(func)
        assert len(loops) == 1
        loop_instrs = [i for blk in func.blocks
                       if blk.label in loops[0].body
                       for i in blk.instrs]
        assert not any(isinstance(i, BinOp) and i.op == "mul"
                       for i in loop_instrs)

    def test_division_not_hoisted(self):
        func = optimized("""
            int f(int n, int a, int b) {
                int s = 0;
                for (int i = 0; i < n; i++) s += a / b;  /* b may be 0 */
                return s;
            }""")
        loops = natural_loops(func)
        loop_instrs = [i for blk in func.blocks
                       if blk.label in loops[0].body
                       for i in blk.instrs]
        assert any(isinstance(i, BinOp) and i.op == "div"
                   for i in loop_instrs)

    def test_zero_trip_loop_division_still_safe(self):
        from tests.support import run_ir
        src = """
            int f(int n, int a, int b) {
                int s = 1;
                for (int i = 0; i < n; i++) s += a / b;
                return s;
            }"""
        module = lower_source(src)
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        from repro.ir.interp import IRInterpreter
        # n == 0 with b == 0 must not trap.
        assert IRInterpreter(module).call("f", [0, 1, 0]) == 1


class TestIfConvert:
    def test_max_idiom_becomes_max_op(self):
        func = optimized("""
            int max_u8(unsigned char *a, int n) {
                int m = 0;
                for (int i = 0; i < n; i++) if (a[i] > m) m = a[i];
                return m;
            }""")
        assert any(isinstance(i, BinOp) and i.op == "max"
                   for i in all_instrs(func))
        assert len(natural_loops(func)) == 1     # diamond is gone

    def test_min_idiom_becomes_min_op(self):
        func = optimized("""
            int min_i32(int *a, int n) {
                int m = 2147483647;
                for (int i = 0; i < n; i++) if (a[i] < m) m = a[i];
                return m;
            }""")
        assert any(isinstance(i, BinOp) and i.op == "min"
                   for i in all_instrs(func))

    def test_else_arm_variant(self):
        func = optimized("""
            int f(int *a, int n) {
                int m = 0;
                for (int i = 0; i < n; i++)
                    if (a[i] <= m) ; else m = a[i];
                return m;
            }""")
        assert any(isinstance(i, (Select, BinOp)) and
                   (isinstance(i, Select) or i.op == "max")
                   for i in all_instrs(func))

    def test_unsafe_load_not_speculated(self):
        # The load address differs from anything loaded on the hot path:
        # if-conversion must leave the branch alone.
        func = optimized("""
            int f(int *a, int *t, int n) {
                int m = 0;
                for (int i = 0; i < n; i++)
                    if (a[i] > 0) m = t[i];   /* t[i] must not speculate */
                return m;
            }""")
        branches = [i for i in all_instrs(func) if isinstance(i, Branch)]
        assert len(branches) >= 2    # loop branch + kept diamond

    def test_store_never_speculated(self):
        func = optimized("""
            void f(int *a, int n) {
                for (int i = 0; i < n; i++)
                    if (a[i] > 0) a[i] = 0;
            }""")
        branches = [i for i in all_instrs(func) if isinstance(i, Branch)]
        assert len(branches) >= 2

    def test_semantics_preserved(self):
        from repro.ir.interp import IRInterpreter
        from repro.semantics import Memory
        src = """
            int clampsum(int *a, int n, int lo, int hi) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    int v = a[i];
                    if (v < lo) v = lo;
                    if (v > hi) v = hi;
                    s += v;
                }
                return s;
            }"""
        values = [-100, 5, 99999, 13, -2, 0, 77]
        expected = sum(min(max(v, -10), 50) for v in values)

        module = lower_source(src)
        func = next(iter(module))
        PassManager(standard_passes(), verify=True).run(func)
        memory = Memory()
        addr = memory.alloc_array(ty.I32, values)
        got = IRInterpreter(module, memory).call(
            "clampsum", [addr, len(values), -10, 50])
        assert got == expected


class TestCountedLoopRecognition:
    def test_simple_for_recognized(self):
        func = cleaned("""
            void f(int *a, int n) {
                for (int i = 0; i < n; i++) a[i] = i;
            }""")
        loops = find_counted_loops(func)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.pred == "lt"
        assert loop.step == 1
        assert isinstance(loop.init, Const) and loop.init.value == 0
        assert loop.is_simple_forward

    def test_downward_loop_recognized_not_simple(self):
        func = cleaned("""
            void f(int *a, int n) {
                for (int i = n - 1; i >= 0; i--) a[i] = i;
            }""")
        loops = find_counted_loops(func)
        # Either unrecognized or recognized as non-simple; both are fine,
        # but if recognized the step must be negative.
        for loop in loops:
            assert loop.step == -1
            assert not loop.is_simple_forward

    def test_while_with_side_exit_not_counted(self):
        func = cleaned("""
            int f(int *a, int n) {
                for (int i = 0; i < n; i++) {
                    if (a[i] == 0) return i;
                }
                return -1;
            }""")
        loops = find_counted_loops(func)
        assert loops == []

    def test_bound_modified_in_loop_not_counted(self):
        func = cleaned("""
            void f(int *a, int n) {
                for (int i = 0; i < n; i++) { a[i] = i; n--; }
            }""")
        assert find_counted_loops(func) == []


# ---------------------------------------------------------------------------
# verification under PassManager: after changed passes and once at exit
# ---------------------------------------------------------------------------

SUM_LOOP = """
    int f(int *a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += a[i] * 2;
        return s;
    }"""


def _corrupt(func):
    """Make ``func`` ill-formed: drop the entry block's terminator."""
    func.entry.instrs.pop()


def _count_verify_calls(monkeypatch):
    import repro.ir.verify as verify_module
    calls = []
    original = verify_module.verify_function

    def counted(func):
        calls.append(func.name)
        return original(func)

    monkeypatch.setattr(verify_module, "verify_function", counted)
    return calls


class TestPassManagerVerification:
    def test_changed_pass_that_breaks_ir_is_named(self):
        def breaker(func):
            _corrupt(func)
            return PassResult(changed=True, work=1)

        func = next(iter(lower_source(SUM_LOOP)))
        manager = PassManager([("dce", dce), ("breaker", breaker)],
                              verify=True)
        with pytest.raises(AssertionError,
                           match="pass 'breaker' broke 'f'"):
            manager.run(func)

    def test_pass_lying_about_change_is_caught_at_exit(self):
        def liar(func):
            _corrupt(func)
            return PassResult(changed=False, work=1)

        func = next(iter(lower_source(SUM_LOOP)))
        with pytest.raises(AssertionError, match="pass 'liar' broke 'f'"):
            PassManager([("liar", liar)], verify=True).run(func)

    def test_unchanged_run_is_still_verified_once(self, monkeypatch):
        calls = _count_verify_calls(monkeypatch)
        func = next(iter(lower_source(SUM_LOOP)))
        PassManager(standard_passes(), verify=True).run(func)
        calls.clear()
        stats = PassManager(standard_passes(), verify=True).run(func)
        assert not any(record.changed for record in stats.records)
        assert calls == ["f"]

    def test_no_verification_without_verify(self, monkeypatch):
        calls = _count_verify_calls(monkeypatch)
        for func in lower_source(SUM_LOOP):
            PassManager(standard_passes()).run(func)
        assert calls == []

    def test_verify_calls_are_changed_invocations_plus_one(
            self, monkeypatch):
        """Deterministic count gate: a verifying run calls the IR
        verifier once per pass invocation that changed the function,
        plus once at exit — never after unchanged passes."""
        from repro.workloads import ALL_KERNELS
        calls = _count_verify_calls(monkeypatch)
        for kernel in ALL_KERNELS.values():
            for func in lower_source(kernel.source):
                del calls[:]
                stats = PassManager(standard_passes(), verify=True).run(func)
                changed = sum(record.changed for record in stats.records)
                assert len(calls) == changed + 1, kernel.name
                assert changed < len(stats.records), kernel.name

    def test_pipeline_verify_calls_count_pseudo_passes(self, monkeypatch):
        """``run_pipeline`` verifies after ``unroll``/``vectorize``
        when they change the function, plus once at the exit of each
        pass-manager run (the pipeline reruns after unrolling)."""
        from repro.flows import PipelineSpec, run_pipeline
        from repro.workloads import ALL_KERNELS
        calls = _count_verify_calls(monkeypatch)
        spec = PipelineSpec(unroll=2)
        for kernel in ALL_KERNELS.values():
            for func in lower_source(kernel.source):
                del calls[:]
                stats = run_pipeline(func, spec, verify=True)
                changed = sum(record.changed for record in stats.records)
                unrolled = any(record.name == "unroll" and record.changed
                               for record in stats.records)
                manager_runs = 2 if unrolled else 1
                assert len(calls) == changed + manager_runs, kernel.name

    def test_broken_vectorize_is_named(self, monkeypatch):
        import repro.opt.vectorize as vectorize_module
        from repro.flows import PipelineSpec, run_pipeline

        def broken_vectorize(func):
            _corrupt(func)
            return PassResult(changed=True, work=1)

        monkeypatch.setattr(vectorize_module, "vectorize",
                            broken_vectorize)
        func = next(iter(lower_source(SUM_LOOP)))
        with pytest.raises(AssertionError,
                           match="pass 'vectorize' broke 'f'"):
            run_pipeline(func, PipelineSpec(), verify=True)

    def test_broken_unroll_is_named(self, monkeypatch):
        import repro.opt.unroll as unroll_module
        from repro.flows import PipelineSpec, run_pipeline

        def broken_unroll(func, factor):
            _corrupt(func)
            return PassResult(changed=True, work=1)

        monkeypatch.setattr(unroll_module, "unroll", broken_unroll)
        func = next(iter(lower_source(SUM_LOOP)))
        with pytest.raises(AssertionError, match="pass 'unroll' broke 'f'"):
            run_pipeline(func, PipelineSpec(unroll=2), verify=True)


class TestChangedIsHonest:
    """Skipping verification after unchanged passes is lossless only if
    a pass reporting ``changed=False`` really left the function alone:
    every kernel x registered flow x unroll factor, pass by pass."""

    @pytest.mark.parametrize("unroll", [1, 2, 4])
    def test_unchanged_passes_leave_ir_byte_identical(self, unroll,
                                                      monkeypatch):
        import dataclasses
        import repro.flows as flows
        import repro.opt.unroll as unroll_module
        import repro.opt.vectorize as vectorize_module
        from repro.workloads import ALL_KERNELS

        violations = []

        def honest(name, pass_fn):
            def run(func, *args):
                before = format_function(func)
                result = pass_fn(func, *args)
                if not result.changed and format_function(func) != before:
                    violations.append((current[0], name))
                return result
            return run

        resolve = flows.resolve_passes
        monkeypatch.setattr(
            flows, "resolve_passes",
            lambda names: [(name, honest(name, fn))
                           for name, fn in resolve(names)])
        monkeypatch.setattr(unroll_module, "unroll",
                            honest("unroll", unroll_module.unroll))
        monkeypatch.setattr(vectorize_module, "vectorize",
                            honest("vectorize", vectorize_module.vectorize))
        current = [None]
        invocations = 0
        for kernel in ALL_KERNELS.values():
            for flow in flows.registered_flows():
                spec = dataclasses.replace(flow.pipeline, unroll=unroll)
                current[0] = (kernel.name, flow.name)
                for func in lower_source(kernel.source):
                    invocations += len(
                        flows.run_pipeline(func, spec).records)
        assert invocations > 0
        assert violations == []
