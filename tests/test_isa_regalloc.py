"""Tests for the register allocator, including a semantics-preservation
property check: the same virtual program lowered at different register
budgets must compute identical architectural results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.replacement import XorShift32
from repro.func.executor import run_program
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.isa.regalloc import AllocationError, SPILL_AREA_BASE, allocate_registers
from repro.mem.memory import SparseMemory

RESULT_ADDR = 0x2000_0000


def _chain_program(num_vregs: int, ops_seed: int):
    """A program mixing many live vregs so small budgets must spill."""
    b = ProgramBuilder("chain")
    rng = XorShift32(ops_seed or 1)
    vregs = [b.vint(f"v{k}") for k in range(num_vregs)]
    for k, v in enumerate(vregs):
        b.li(v, k + 1)
    # Random dataflow over the vregs, keeping them all live to the end.
    for _ in range(3 * num_vregs):
        a = vregs[rng.below(num_vregs)]
        c = vregs[rng.below(num_vregs)]
        d = vregs[rng.below(num_vregs)]
        op = (b.add, b.sub, b.xor, b.or_)[rng.below(4)]
        op(d, a, c)
    total = b.vint("total")
    b.li(total, 0)
    for v in vregs:
        b.add(total, total, v)
    ptr = b.vint("ptr")
    b.li(ptr, RESULT_ADDR)
    b.sw(total, ptr, 0)
    b.halt()
    return b


class TestBasics:
    def test_no_spills_under_generous_budget(self):
        b = _chain_program(12, 7)
        prog = b.build(int_regs=32, fp_regs=32)
        assert prog.alloc_info.spilled == []

    def test_spills_under_tight_budget(self):
        b = _chain_program(12, 7)
        prog = b.build(int_regs=8, fp_regs=8)
        assert len(prog.alloc_info.spilled) > 0
        assert prog.alloc_info.reload_count > 0

    def test_spill_code_targets_spill_area(self):
        b = _chain_program(12, 7)
        prog = b.build(int_regs=8, fp_regs=8)
        run = run_program(prog)
        written = [
            addr for addr in run.memory.diff_words(SparseMemory())
            if SPILL_AREA_BASE <= addr < SPILL_AREA_BASE + 4096
        ]
        assert written, "spilled values should land in the spill area"

    def test_budget_bounds_enforced(self):
        b = _chain_program(4, 1)
        with pytest.raises(AllocationError):
            b.build(int_regs=3)
        with pytest.raises(AllocationError):
            b.build(int_regs=64)

    def test_loop_hot_vregs_get_homes(self):
        b = ProgramBuilder()
        cold = [b.vint(f"cold{k}") for k in range(20)]
        for k, v in enumerate(cold):
            b.li(v, k)
        hot = b.vint("hot")
        i = b.vint("i")
        b.li(hot, 0)
        b.li(i, 0)
        with b.loop_until(i, 10):
            b.addi(hot, hot, 1)
            b.addi(i, i, 1)
        for v in cold:
            b.add(hot, hot, v)
        ptr = b.vint("ptr")
        b.li(ptr, RESULT_ADDR)
        b.sw(hot, ptr, 0)
        b.halt()
        prog = b.build(int_regs=8, fp_regs=8)
        info = prog.alloc_info
        assert "hot" in info.register_homes
        assert "i" in info.register_homes


class TestSemanticsPreservation:
    @pytest.mark.parametrize("budget", [32, 16, 8, 6])
    def test_chain_result_invariant_across_budgets(self, budget):
        reference = run_program(_chain_program(10, 42).build(32, 32))
        want = reference.memory.load_word(RESULT_ADDR)
        got = run_program(_chain_program(10, 42).build(budget, max(budget, 3)))
        assert got.memory.load_word(RESULT_ADDR) == want

    @given(
        num_vregs=st.integers(min_value=2, max_value=14),
        seed=st.integers(min_value=1, max_value=2**31),
        budget=st.sampled_from([6, 8, 12, 20, 32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_budget_never_changes_result(self, num_vregs, seed, budget):
        want = run_program(_chain_program(num_vregs, seed).build(32, 32)).memory.load_word(
            RESULT_ADDR
        )
        got = run_program(
            _chain_program(num_vregs, seed).build(budget, 8)
        ).memory.load_word(RESULT_ADDR)
        assert got == want


class TestControlFlowSpills:
    def test_spilled_loop_counter_still_terminates(self):
        b = ProgramBuilder()
        # Twenty live vregs force the counter to spill at budget 8.
        pad = [b.vint(f"p{k}") for k in range(20)]
        for k, v in enumerate(pad):
            b.li(v, k)
        i = b.vint("i")
        acc = b.vint("acc")
        b.li(i, 0)
        b.li(acc, 0)
        with b.loop_until(i, 7):
            b.add(acc, acc, i)
            b.addi(i, i, 1)
        for v in pad:
            b.add(acc, acc, v)
        ptr = b.vint("ptr")
        b.li(ptr, RESULT_ADDR)
        b.sw(acc, ptr, 0)
        b.halt()
        prog = b.build(int_regs=8, fp_regs=8)
        run = run_program(prog)
        assert run.halted
        assert run.memory.load_word(RESULT_ADDR) == sum(range(7)) + sum(range(20))

    def test_post_increment_spilled_base_written_back(self):
        b = ProgramBuilder()
        pad = [b.vint(f"p{k}") for k in range(20)]
        for k, v in enumerate(pad):
            b.li(v, k)
        from repro.isa.instructions import AddrMode

        ptr = b.vint("walker")
        val = b.vint("val")
        b.li(ptr, RESULT_ADDR)
        b.li(val, 9)
        b.sw(val, ptr, 0)
        b.lw(val, ptr, 4, mode=AddrMode.POST_INC)
        # After the post-increment the base must have advanced even if it
        # lived in a spill slot.
        out = b.vint("out")
        b.li(out, RESULT_ADDR + 8)
        b.sw(ptr, out, 0)
        for v in pad:
            b.add(val, val, v)
        b.halt()
        prog = b.build(int_regs=8, fp_regs=8)
        run = run_program(prog)
        assert run.memory.load_word(RESULT_ADDR + 8) == RESULT_ADDR + 4


class TestAllocatorBookkeeping:
    def test_alloc_info_counts_static_spill_code(self):
        b = _chain_program(12, 3)
        prog = b.build(int_regs=8, fp_regs=8)
        info = prog.alloc_info
        reloads = sum(
            1
            for inst in prog
            if inst.op in (Op.LW, Op.LFW) and inst.rs1 is not None and inst.imm >= 0
            and inst.rs1 == _sp_of(prog)
        )
        assert reloads == info.reload_count

    def test_labels_remap_through_expansion(self):
        b = _chain_program(12, 3)
        b32 = _chain_program(12, 3)
        tight = b.build(int_regs=8, fp_regs=8)
        loose = b32.build(int_regs=32, fp_regs=32)
        assert len(tight) > len(loose)


def _sp_of(prog):
    """The stack pointer chosen by the allocator (LUI target in prologue)."""
    assert prog[0].op is Op.LUI
    return prog[0].rd
