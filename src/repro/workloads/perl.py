"""``perl`` — bytecode-interpreter kernel (dispatch + operand stack).

Perl running its test suite spends its time in the opcode dispatch loop:
fetch a bytecode, indirect-jump to its handler, push/pop an operand
stack in memory, occasionally look up a hash.  Branchy (the paper
measures 81.2% prediction) with 1.10 refs/cycle and high base-register
reuse (the interpreter's VM registers — bytecode pointer, stack pointer
— live in architected registers and are dereferenced constantly).

The kernel is a real interpreter for a tiny stack VM: a random but
valid bytecode program is synthesized into memory at build time, and a
dispatch table of *code addresses* (filled in after register
allocation, when label addresses are final) drives ``jr``-based
dispatch, exactly like a threaded interpreter.
"""

from __future__ import annotations

from itertools import chain, islice

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import AddrMode
from repro.isa.program import Program
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import SparseMemory
from repro.workloads.base import Workload, draws, register_workload, scaled

#: VM opcodes.  OP_JUMP is a *conditional* backward jump (pops its
#: condition); OP_LOOP unconditionally restarts the bytecode program.
OP_PUSH, OP_ADD, OP_DUP, OP_HASH, OP_DROP, OP_JUMP, OP_LOOP = range(7)

#: Bytecode program length (ops).
BYTECODE_OPS = 4096

#: Hash table words for OP_HASH (scattered lookups over 512 KB).
HASH_WORDS = 1 << 17


def _bytecode(rng: XorShift32):
    """Synthesize a valid bytecode program, word by word: ops keep the
    VM stack depth in [2, 64]; every op is (opcode word, operand word)."""
    depth = 0
    for i in range(BYTECODE_OPS):
        if i >= BYTECODE_OPS - 2:
            op = OP_LOOP  # wrap to the start
        elif depth < 3:
            op = OP_PUSH
        elif depth > 60:
            op = rng.below(2) + OP_HASH  # HASH or DROP shrink/keep
        else:
            op = rng.below(6)
            if op == OP_JUMP and i % 5:
                op = OP_HASH  # keep jumps rare-ish, hashes common
        operand = rng.next() & 0xFFFF
        if op == OP_JUMP:
            # Conditional jumps land backwards within 256 ops.
            operand = max(0, i - 1 - rng.below(256))
        yield op
        yield operand
        if op == OP_PUSH or op == OP_DUP:
            depth += 1
        elif op in (OP_ADD, OP_DROP, OP_JUMP):
            depth -= 1


@register_workload
class Perl(Workload):
    name = "perl"
    description = "threaded bytecode interpreter with memory operand stack"
    regime = "pointer"

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        rng = XorShift32(0x9E71)
        bytecode = layout.alloc_global(BYTECODE_OPS * 8)
        dispatch = layout.alloc_global(8 * 4)
        vm_stack = layout.alloc_stack(4096)
        hash_tab = layout.alloc_heap(HASH_WORDS * 4)
        self._dispatch_addr = dispatch

        memory.store_words(bytecode, _bytecode(rng))
        # Every third hash-table word holds a key.
        keys = draws(rng, len(range(0, HASH_WORDS, 3)), 0xFFFF)
        memory.store_words(
            hash_tab,
            islice(chain.from_iterable((key, 0, 0) for key in keys), HASH_WORDS),
        )

        steps = scaled(7000, scale)

        ip = b.vint("ip")  # bytecode pointer (VM register)
        sp = b.vint("vsp")  # VM operand stack pointer
        dt = b.vint("dt")
        htab = b.vint("htab")
        bc0 = b.vint("bc0")
        count = b.vint("count")
        b.li(ip, bytecode)
        b.li(sp, vm_stack)
        b.li(dt, dispatch)
        b.li(htab, hash_tab)
        b.li(bc0, bytecode)
        # Seed the stack.
        b.li(count, 7)
        b.sw(count, sp, 0)
        b.sw(count, sp, 4)
        b.addi(sp, sp, 8)
        b.li(count, 0)
        with b.loop_until(count, steps):
            op = b.vint("op")
            operand = b.vint("operand")
            handler = b.vint("handler")
            # Fetch and dispatch (the interpreter's hot path), using
            # the ISA's post-increment addressing as a real threaded
            # interpreter on such an ISA would.
            b.lw(op, ip, 4, mode=AddrMode.POST_INC)
            b.lw(operand, ip, 4, mode=AddrMode.POST_INC)
            b.slli(op, op, 2)
            b.add(op, op, dt)
            b.lw(handler, op, 0)
            b.jr(handler)

            next_label = b.fresh_label()
            t = b.vint("t")
            u = b.vint("u")

            b.label("h_push")
            b.sw(operand, sp, 0)
            b.addi(sp, sp, 4)
            b.j(next_label)

            b.label("h_add")
            b.addi(sp, sp, -4)
            b.lw(t, sp, 0)
            b.lw(u, sp, -4)
            b.add(u, u, t)
            b.sw(u, sp, -4)
            b.j(next_label)

            b.label("h_dup")
            b.lw(t, sp, -4)
            b.sw(t, sp, 0)
            b.addi(sp, sp, 4)
            b.j(next_label)

            b.label("h_hash")
            # Scatter probe keyed by the top of stack mixed with the op
            # counter (interpreter state evolves between visits).
            b.lw(t, sp, -4)
            b.slli(u, t, 7)
            b.xor(u, u, t)
            mix = b.vint("mix")
            b.slli(mix, count, 3)
            b.xor(u, u, mix)
            b.andi(u, u, HASH_WORDS - 1)
            b.slli(u, u, 2)
            b.add(u, u, htab)
            b.lw(u, u, 0)
            b.add(t, t, u)
            b.sw(t, sp, -4)
            b.j(next_label)

            b.label("h_drop")
            b.addi(sp, sp, -4)
            b.j(next_label)

            b.label("h_jump")
            # Pop the condition; mix in the op counter so revisited
            # jumps don't loop deterministically.
            no_jump = b.fresh_label()
            b.addi(sp, sp, -4)
            b.lw(t, sp, 0)
            b.add(u, t, count)
            b.andi(u, u, 1)
            b.beq(u, 0, no_jump)
            b.slli(t, operand, 3)
            b.add(ip, bc0, t)
            b.bind(no_jump)
            b.j(next_label)

            b.label("h_loop")
            b.mov(ip, bc0)
            b.j(next_label)

            b.bind(next_label)
            b.addi(count, count, 1)
        b.halt()

    def post_build(self, program: Program, memory: SparseMemory) -> None:
        """Fill the dispatch table with resolved handler code addresses."""
        handlers = [
            "h_push",
            "h_add",
            "h_dup",
            "h_hash",
            "h_drop",
            "h_jump",
            "h_loop",
        ]
        for slot, label in enumerate(handlers):
            memory.store_word(
                self._dispatch_addr + 4 * slot, program.pc_of(program.labels[label])
            )
