"""``xlisp`` — Lisp interpreter kernel (cons cells, GC mark phase).

Xlisp has the suite's highest memory reference density (1.86 refs/cycle
issued): nearly everything is a car/cdr dereference of a cons cell, and
the garbage collector periodically walks the whole heap.  Cells are
small (two words) and, after collection churn, scattered across the
heap, so list traversal is dependent pointer chasing with mediocre
spatial locality but heavy base-register reuse.

The kernel interleaves three phases, like a running interpreter:

* **cons**: allocate cells from a shuffled free list (fragmented heap)
  and thread them into lists;
* **traverse**: chase a list, summing the cars (load-load dependent);
* **mark**: sweep a range of cells setting mark bits
  (read-modify-write over the cell arena).
"""

from __future__ import annotations

from itertools import islice

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import AddrMode
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import PAGE_WORDS, SparseMemory
from repro.workloads.base import Workload, draws, register_workload, scaled

#: Cons cells (8 bytes each -> 512 KB arena: inside the 128-entry TLB's
#: reach, but scattered enough to thrash the small L1 TLBs).
CELLS = 1 << 16

#: List length built/traversed per round.
LIST_LEN = 48

#: Cells marked per round.
MARK_SPAN = 64


@register_workload
class Xlisp(Workload):
    name = "xlisp"
    description = "cons/traverse/mark phases over a fragmented 512 KB cell arena"
    regime = "pointer"

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        rng = XorShift32(0x115B)
        arena = layout.alloc_heap(CELLS * 8)
        freelist_head_addr = layout.alloc_global(8)

        # Shuffled free list threading every cell (fragmented-heap order):
        # cell.cdr = next free cell.  A cell is 8-byte aligned, so its
        # car and cdr share a page.
        order = list(range(CELLS))
        rng.shuffle(order)
        page = memory.page
        cars = draws(rng, CELLS - 1, 0xFF)  # car: small datum
        for car, here, there in zip(cars, order, islice(order, 1, None)):
            a = arena + 8 * here
            slots = page(a)
            slot = (a >> 2) & (PAGE_WORDS - 1)
            slots[slot] = car
            slots[slot + 1] = arena + 8 * there  # cdr
        last = arena + 8 * order[-1]
        memory.store_word(last, 1)
        memory.store_word(last + 4, arena + 8 * order[0])  # circular
        memory.store_word(freelist_head_addr, arena + 8 * order[0])

        rounds = scaled(340, scale)

        free_head = b.vint("free_head")
        total = b.vint("total")
        rnd = b.vint("rnd")
        fh_addr = b.vint("fh_addr")
        b.li(fh_addr, freelist_head_addr)
        b.lw(free_head, fh_addr, 0)
        b.li(total, 0)
        b.li(rnd, 0)
        with b.loop_until(rnd, rounds):
            # -- cons phase: pop LIST_LEN cells, thread a fresh list ----
            head = b.vint("head")
            prev = b.vint("prev")
            n = b.vint("n")
            b.li(prev, 0)
            b.li(n, 0)
            with b.loop_until(n, LIST_LEN):
                cell = b.vint("cell")
                nxt = b.vint("nxt")
                b.mov(cell, free_head)
                b.lw(nxt, cell, 4)  # pop from free list
                b.mov(free_head, nxt)
                b.sw(rnd, cell, 0)  # car := datum
                b.sw(prev, cell, 4)  # cdr := previous (list grows at head)
                b.mov(prev, cell)
                b.addi(n, n, 1)
            b.mov(head, prev)
            # -- traverse phase: sum the cars (dependent load chain) ----
            p = b.vint("p")
            b.mov(p, head)
            walk = b.label()
            walk_done = b.fresh_label()
            b.beq(p, 0, walk_done)
            car = b.vint("car")
            b.lw(car, p, 0)
            b.add(total, total, car)
            # Data-dependent early exit: odd cars sometimes stop the walk.
            oddcar = b.vint("oddcar")
            keep = b.fresh_label()
            b.andi(oddcar, car, 7)
            b.bne(oddcar, 0, keep)
            b.lw(p, p, 4)
            b.lw(p, p, 4)  # skip one (cddr)
            b.j(walk)
            b.bind(keep)
            b.lw(p, p, 4)
            b.j(walk)
            b.bind(walk_done)
            # -- mark phase: sweep a window of the arena ---------------
            mp = b.vint("mp")
            mend = b.vint("mend")
            moff = b.vint("moff")
            # Window start rotates round-robin over the arena.
            b.slli(moff, rnd, 9)
            b.andi(moff, moff, CELLS * 8 - 1)
            b.li(mp, arena)
            b.add(mp, mp, moff)
            b.li(mend, MARK_SPAN * 8)
            b.add(mend, mend, mp)
            mark = b.label()
            mark_done = b.fresh_label()
            b.bge(mp, mend, mark_done)
            m0 = b.vint("m0")
            m1 = b.vint("m1")
            b.lw(m0, mp, 0)
            b.lw(m1, mp, 8)
            b.ori(m0, m0, 0x100)
            b.ori(m1, m1, 0x100)
            # Post-increment stores walk the sweep pointer (paper's
            # extended addressing mode).
            b.sw(m0, mp, 8, mode=AddrMode.POST_INC)
            b.sw(m1, mp, 8, mode=AddrMode.POST_INC)
            b.j(mark)
            b.bind(mark_done)
            b.addi(rnd, rnd, 1)
        b.halt()
