"""``gcc`` — compiler IR-walk kernel (pointer chasing, branchy).

GCC's hot paths walk tree/RTL nodes scattered across the heap: short
data-dependent loops, many unpredictable multiway branches on node
codes (the paper measures its worst branch prediction rate, 80.2%), and
a moderate working set of a few MB.

The kernel evaluates expression trees whose nodes were allocated in a
*shuffled* order over a 256 KB arena (destroying allocation-order
locality, the way a long-lived compiler heap fragments).  Each step pops
a node from an explicit work stack, branches on its operator code,
pushes its children, and accumulates a value — a miniature of
fold-const / RTL walking.
"""

from __future__ import annotations

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import AddrMode
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import PAGE_WORDS, SparseMemory
from repro.workloads.base import Workload, draws, register_workload, scaled

#: Tree nodes (16 bytes each: code, left, right, value) over a 256 KB
#: arena (64 pages at 4 KB — far beyond the small L1 TLBs' reach, mostly
#: within a warm 128-entry base TLB).
NODES = 1 << 14

#: Walk roots available in the root table.
ROOTS = 64

#: Nodes visited per walk before the walker gives up (keeps walk sizes
#: bounded despite the supercritical branching process, and keeps the
#: hot upper tree levels reused across walks, as a compiler's arena is).
WALK_BUDGET = 96


@register_workload
class Gcc(Workload):
    name = "gcc"
    description = "expression-tree walk over a fragmented 256 KB node arena"
    regime = "pointer"

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        rng = XorShift32(0x6CC)
        arena = layout.alloc_heap(NODES * 16, align=16)
        stack = layout.alloc_stack(4 * (WALK_BUDGET * 2 + 8))
        root_table = layout.alloc_global(ROOTS * 4)

        # Shuffled node placement: logical node i lives at slot perm[i].
        perm = list(range(NODES))
        rng.shuffle(perm)

        def addr_of(node: int) -> int:
            return arena + 16 * perm[node]

        # Forest in heap order: node i's children are 2i+1 and 2i+2, so
        # every walk terminates at the frontier.  Each node draws its
        # code, then its value.  The arena is 16-byte aligned, so a
        # node's four words share a page.
        page = memory.page
        node_draws = draws(rng, 2 * NODES)
        for i, code_draw, value_draw in zip(range(NODES), node_draws, node_draws):
            code = code_draw % 4  # 0/2 = binary, 1 = unary, 3 = leaf
            left = right = 0
            if code != 3 and 2 * i + 2 < NODES:
                left = addr_of(2 * i + 1)
                right = addr_of(2 * i + 2)
            else:
                code = 3
            a = addr_of(i)
            slots = page(a)
            slot = (a >> 2) & (PAGE_WORDS - 1)
            slots[slot] = code
            slots[slot + 1] = left
            slots[slot + 2] = right
            slots[slot + 3] = value_draw & 0xFFFF

        # Root table: logical nodes 0..ROOTS-1 have the deepest subtrees.
        for k in range(ROOTS):
            memory.store_word(root_table + 4 * k, addr_of(k))

        walks = scaled(560, scale)

        value = b.vint("value")
        w = b.vint("w")
        stk_base = b.vint("stk_base")
        three = b.vint("three")
        one = b.vint("one")
        b.li(value, 0)
        b.li(stk_base, stack)
        b.li(three, 3)
        b.li(one, 1)
        b.li(w, 0)
        with b.loop_until(w, walks):
            sp = b.vint("wsp")
            root = b.vint("root")
            budget = b.vint("budget")
            rt = b.vint("rt")
            seed = b.vint("seed")
            # Pick this walk's root from the table.
            b.andi(seed, w, ROOTS - 1)
            b.slli(seed, seed, 2)
            b.li(rt, root_table)
            # Indexed (register+register) load, the paper's extended
            # addressing mode.
            b.lw(root, rt, mode=AddrMode.BASE_REG, index=seed)
            b.mov(sp, stk_base)
            b.sw(root, sp, 0)
            b.addi(sp, sp, 4)
            b.li(budget, WALK_BUDGET)
            loop = b.label()
            done = b.fresh_label()
            b.beq(sp, stk_base, done)
            b.beq(budget, 0, done)
            b.addi(budget, budget, -1)
            # Pop a node and fetch its fields.
            node = b.vint("node")
            code = b.vint("code")
            val = b.vint("val")
            b.addi(sp, sp, -4)
            b.lw(node, sp, 0)
            b.lw(code, node, 0)
            b.lw(val, node, 12)
            b.add(value, value, val)
            leaf = b.fresh_label()
            only_left = b.fresh_label()
            # Multiway dispatch on the operator code (data-dependent).
            b.beq(code, three, leaf)
            left = b.vint("left")
            right = b.vint("right")
            b.lw(left, node, 4)
            b.lw(right, node, 8)
            b.beq(code, one, only_left)
            b.sw(right, sp, 0)
            b.addi(sp, sp, 4)
            b.bind(only_left)
            b.sw(left, sp, 0)
            b.addi(sp, sp, 4)
            b.bind(leaf)
            b.j(loop)
            b.bind(done)
            b.addi(w, w, 1)
        b.halt()
