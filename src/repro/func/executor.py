"""Interpreter for the mini ISA.

:class:`Executor` runs a program to completion (or to an instruction
budget), yielding one :class:`~repro.func.dyninst.DynInst` per retired
instruction.  The register file is a flat 64-entry list (see
:mod:`repro.isa.registers`); integer results are masked to 32 bits and
interpreted as two's-complement where the ISA requires signed behaviour.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.func.dyninst import DecodedInst, DynInst
from repro.isa.instructions import AddrMode, Instruction
from repro.isa.opcodes import Op, op_class
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, REG_ZERO
from repro.mem.memory import SparseMemory

_MASK32 = 0xFFFF_FFFF
_SIGN32 = 0x8000_0000


def _s32(value: int) -> int:
    """Two's-complement interpretation of a 32-bit value."""
    value &= _MASK32
    return value - 0x1_0000_0000 if value & _SIGN32 else value


class ExecutionError(Exception):
    """Raised for architecturally invalid execution (div-by-zero, bad PC)."""


class Executor:
    """Architectural interpreter producing the dynamic instruction stream."""

    def __init__(self, program: Program, memory: SparseMemory | None = None):
        self.program = program
        self.memory = memory if memory is not None else SparseMemory()
        self.regs: list[int | float] = [0] * NUM_REGS
        self.pc_index = 0
        self.retired = 0
        self.halted = False
        self._decode_cache: list[DecodedInst] = [
            DecodedInst(i, inst, op_class(inst.op))
            for i, inst in enumerate(program.instructions)
        ]

    # -- register access ---------------------------------------------------

    def read(self, reg: int | None) -> int | float:
        """Read a register (``None`` and ``r0`` read as zero)."""
        if reg is None or reg == REG_ZERO:
            return 0
        return self.regs[reg]

    def write(self, reg: int | None, value: int | float) -> None:
        """Write a register (writes to ``r0`` are discarded)."""
        if reg is None or reg == REG_ZERO:
            return
        if isinstance(value, int):
            value &= _MASK32
        self.regs[reg] = value

    # -- main loop ----------------------------------------------------------

    def run(self, max_instructions: int | None = None) -> Iterator[DynInst]:
        """Execute, yielding retired instructions until HALT or the budget."""
        program = self.program
        decode = self._decode_cache
        n = len(decode)
        while not self.halted:
            if max_instructions is not None and self.retired >= max_instructions:
                return
            index = self.pc_index
            if not 0 <= index < n:
                raise ExecutionError(f"pc out of range: index {index}")
            d = decode[index]
            pc = program.pc_of(index)
            ea, taken, next_index = self._execute(d.inst)
            dyn = DynInst(self.retired, d, pc, ea=ea, taken=taken, next_index=next_index)
            self.retired += 1
            self.pc_index = next_index
            yield dyn

    def _execute(self, inst: Instruction) -> tuple[int | None, bool, int]:
        """Execute one instruction; returns (ea, taken, next_index)."""
        op = inst.op
        handler = _HANDLERS.get(op)
        if handler is None:
            raise ExecutionError(f"unimplemented opcode: {op.name}")
        return handler(self, inst)

    # -- effective addresses -----------------------------------------------------

    def _effective_address(self, inst: Instruction) -> int:
        mode = inst.mode
        base = self.read(inst.rs1)
        if not isinstance(base, int):
            raise ExecutionError(f"fp value used as base address: {inst}")
        if mode is AddrMode.BASE_IMM:
            return (base + inst.imm) & _MASK32
        if mode is AddrMode.BASE_REG:
            index = self.read(inst.rs2)
            return (base + index) & _MASK32
        # Post-increment/decrement: the access uses the unmodified base.
        return base & _MASK32

    def _post_update(self, inst: Instruction) -> None:
        mode = inst.mode
        if mode is AddrMode.POST_INC:
            self.write(inst.rs1, self.read(inst.rs1) + inst.imm)
        elif mode is AddrMode.POST_DEC:
            self.write(inst.rs1, self.read(inst.rs1) - inst.imm)


# ---------------------------------------------------------------------------
# Opcode handlers.  Each returns (ea, taken, next_index).
# ---------------------------------------------------------------------------

def _fallthrough(ex: Executor) -> int:
    return ex.pc_index + 1


def _h_alu3(fn: Callable[[int, int], int]):
    def handler(ex: Executor, inst: Instruction):
        a = ex.read(inst.rs1)
        b = ex.read(inst.rs2)
        ex.write(inst.rd, fn(a, b))
        return None, False, _fallthrough(ex)

    return handler


def _h_alui(fn: Callable[[int, int], int]):
    def handler(ex: Executor, inst: Instruction):
        a = ex.read(inst.rs1)
        ex.write(inst.rd, fn(a, inst.imm))
        return None, False, _fallthrough(ex)

    return handler


def _h_fp3(fn: Callable[[float, float], float]):
    def handler(ex: Executor, inst: Instruction):
        a = ex.read(inst.rs1)
        b = ex.read(inst.rs2)
        ex.write(inst.rd, fn(float(a), float(b)))
        return None, False, _fallthrough(ex)

    return handler


def _div(a: int, b: int) -> int:
    if _s32(b) == 0:
        raise ExecutionError("integer division by zero")
    q = abs(_s32(a)) // abs(_s32(b))
    if (_s32(a) < 0) != (_s32(b) < 0):
        q = -q
    return q & _MASK32


def _rem(a: int, b: int) -> int:
    if _s32(b) == 0:
        raise ExecutionError("integer remainder by zero")
    r = abs(_s32(a)) % abs(_s32(b))
    if _s32(a) < 0:
        r = -r
    return r & _MASK32


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise ExecutionError("fp division by zero")
    return a / b


def _h_load(ex: Executor, inst: Instruction):
    ea = ex._effective_address(inst)
    if inst.op is Op.LB:
        value: int | float = ex.memory.load_byte(ea)
    else:
        value = ex.memory.load_word(ea)
        if inst.op is Op.LW and not isinstance(value, int):
            raise ExecutionError(f"integer load of fp-valued word at {ea:#x}")
        if inst.op is Op.LFW:
            value = float(value)
    ex.write(inst.rd, value)
    ex._post_update(inst)
    return ea, False, _fallthrough(ex)


def _h_store(ex: Executor, inst: Instruction):
    ea = ex._effective_address(inst)
    value = ex.read(inst.rs2)
    if inst.op is Op.SB:
        if not isinstance(value, int):
            raise ExecutionError("byte store of fp value")
        ex.memory.store_byte(ea, value)
    elif inst.op is Op.SFW:
        ex.memory.store_word(ea, float(value))
    else:
        if not isinstance(value, int):
            raise ExecutionError("integer store of fp value")
        ex.memory.store_word(ea, value)
    ex._post_update(inst)
    return ea, False, _fallthrough(ex)


def _h_branch(cond: Callable[[int, int], bool]):
    def handler(ex: Executor, inst: Instruction):
        a_raw = ex.read(inst.rs1)
        a = _s32(a_raw) if isinstance(a_raw, int) else a_raw
        b_raw = ex.read(inst.rs2)
        b = _s32(b_raw) if isinstance(b_raw, int) else b_raw
        taken = cond(a, b)
        next_index = inst.target if taken else _fallthrough(ex)
        return None, taken, next_index

    return handler


def _h_j(ex: Executor, inst: Instruction):
    return None, True, inst.target


def _h_jal(ex: Executor, inst: Instruction):
    ex.write(inst.rd, ex.program.pc_of(ex.pc_index + 1))
    return None, True, inst.target


def _h_jr(ex: Executor, inst: Instruction):
    value = ex.read(inst.rs1)
    if not isinstance(value, int):
        raise ExecutionError("jr through fp register")
    return None, True, ex.program.index_of(value)


def _h_nop(ex: Executor, inst: Instruction):
    return None, False, _fallthrough(ex)


def _h_halt(ex: Executor, inst: Instruction):
    ex.halted = True
    return None, False, ex.pc_index


def _h_lui(ex: Executor, inst: Instruction):
    ex.write(inst.rd, (inst.imm << 16) & _MASK32)
    return None, False, _fallthrough(ex)


def _h_fmov(ex: Executor, inst: Instruction):
    ex.write(inst.rd, float(ex.read(inst.rs1)))
    return None, False, _fallthrough(ex)


def _h_fneg(ex: Executor, inst: Instruction):
    ex.write(inst.rd, -float(ex.read(inst.rs1)))
    return None, False, _fallthrough(ex)


def _h_cvtif(ex: Executor, inst: Instruction):
    ex.write(inst.rd, float(_s32(ex.read(inst.rs1))))
    return None, False, _fallthrough(ex)


def _h_cvtfi(ex: Executor, inst: Instruction):
    ex.write(inst.rd, int(float(ex.read(inst.rs1))) & _MASK32)
    return None, False, _fallthrough(ex)


def _h_flt(ex: Executor, inst: Instruction):
    a = float(ex.read(inst.rs1))
    b = float(ex.read(inst.rs2))
    ex.write(inst.rd, 1 if a < b else 0)
    return None, False, _fallthrough(ex)


_HANDLERS: dict[Op, Callable] = {
    Op.ADD: _h_alu3(lambda a, b: a + b),
    Op.SUB: _h_alu3(lambda a, b: a - b),
    Op.AND: _h_alu3(lambda a, b: a & b),
    Op.OR: _h_alu3(lambda a, b: a | b),
    Op.XOR: _h_alu3(lambda a, b: a ^ b),
    Op.NOR: _h_alu3(lambda a, b: ~(a | b)),
    Op.SLL: _h_alu3(lambda a, b: a << (b & 31)),
    Op.SRL: _h_alu3(lambda a, b: (a & _MASK32) >> (b & 31)),
    Op.SRA: _h_alu3(lambda a, b: _s32(a) >> (b & 31)),
    Op.SLT: _h_alu3(lambda a, b: 1 if _s32(a) < _s32(b) else 0),
    Op.MUL: _h_alu3(lambda a, b: _s32(a) * _s32(b)),
    Op.DIV: _h_alu3(_div),
    Op.REM: _h_alu3(_rem),
    Op.ADDI: _h_alui(lambda a, imm: a + imm),
    Op.ANDI: _h_alui(lambda a, imm: a & imm),
    Op.ORI: _h_alui(lambda a, imm: a | imm),
    Op.XORI: _h_alui(lambda a, imm: a ^ imm),
    Op.SLTI: _h_alui(lambda a, imm: 1 if _s32(a) < imm else 0),
    Op.SLLI: _h_alui(lambda a, imm: a << (imm & 31)),
    Op.SRLI: _h_alui(lambda a, imm: (a & _MASK32) >> (imm & 31)),
    Op.LUI: _h_lui,
    Op.FADD: _h_fp3(lambda a, b: a + b),
    Op.FSUB: _h_fp3(lambda a, b: a - b),
    Op.FMUL: _h_fp3(lambda a, b: a * b),
    Op.FDIV: _h_fp3(_fdiv),
    Op.FMOV: _h_fmov,
    Op.FNEG: _h_fneg,
    Op.CVTIF: _h_cvtif,
    Op.CVTFI: _h_cvtfi,
    Op.FLT: _h_flt,
    Op.LW: _h_load,
    Op.LB: _h_load,
    Op.LFW: _h_load,
    Op.SW: _h_store,
    Op.SB: _h_store,
    Op.SFW: _h_store,
    Op.BEQ: _h_branch(lambda a, b: a == b),
    Op.BNE: _h_branch(lambda a, b: a != b),
    Op.BLT: _h_branch(lambda a, b: a < b),
    Op.BGE: _h_branch(lambda a, b: a >= b),
    Op.BLTZ: _h_branch(lambda a, b: a < 0),
    Op.BGEZ: _h_branch(lambda a, b: a >= 0),
    Op.J: _h_j,
    Op.JAL: _h_jal,
    Op.JR: _h_jr,
    Op.NOP: _h_nop,
    Op.HALT: _h_halt,
}


def capture_trace(
    program: Program,
    memory: SparseMemory | None = None,
    max_instructions: int | None = None,
) -> list[DynInst]:
    """Run a program functionally and materialize its dynamic trace.

    This is the capture half of trace capture/replay: the returned list
    is what the timing engine replays, and what the artifact cache
    (:mod:`repro.eval.artifacts`) persists and hydrates instead of
    re-executing.
    """
    return list(Executor(program, memory).run(max_instructions=max_instructions))


def run_program(
    program: Program,
    memory: SparseMemory | None = None,
    max_instructions: int | None = None,
) -> Executor:
    """Run a program to completion; returns the finished executor.

    Convenience wrapper for tests and examples that only care about the
    final architectural state, not the dynamic stream.
    """
    executor = Executor(program, memory)
    for _ in executor.run(max_instructions=max_instructions):
        pass
    return executor
