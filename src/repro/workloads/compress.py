"""``compress`` — LZW-style compression kernel.

SPEC '92 compress builds an LZW dictionary: it reads input bytes
sequentially and probes a large hash table whose index mixes the current
prefix code with the new byte, giving essentially random probes over a
table much larger than the TLB reach.  The paper singles compress out
(with mpeg_play and tfft) as having "notably little locality in their
reference streams; small data caches and TLBs perform very poorly".

This kernel reproduces that structure:

* sequential byte loads from an input buffer (good locality);
* hash probes into a 256 KB table (64 pages at 4 KB — far beyond the
  small L1 TLBs' reach), with a data-dependent hit/miss branch;
* secondary-probe rehash on collisions (more scattered accesses);
* an output-code store every accepted symbol (sequential).
"""

from __future__ import annotations

from itertools import chain

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import SparseMemory
from repro.workloads.base import (
    Workload,
    draws,
    fill_random_words,
    register_workload,
    scaled,
)

#: Hash-table entries (8 bytes each -> 256 KB table: 64 pages at 4 KB,
#: far past the small L1 TLBs, comfortably within a 128-entry base TLB).
TABLE_ENTRIES = 1 << 15

#: Input buffer size in bytes.
INPUT_BYTES = 1 << 16


@register_workload
class Compress(Workload):
    name = "compress"
    description = "LZW dictionary build: random hash probes over a 256 KB table"
    regime = "poor"

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        rng = XorShift32(0xC04)
        table = layout.alloc_heap(TABLE_ENTRIES * 8)
        input_buf = layout.alloc_heap(INPUT_BYTES)
        output_buf = layout.alloc_heap(INPUT_BYTES)
        # Random input bytes: incompressible, so probes stay scattered.
        fill_random_words(memory, input_buf, INPUT_BYTES // 4, rng, mask=0xFFFF_FFFF)
        # Pre-populate half the table so hit/miss branches are mixed;
        # each populated (even) entry has a key word and a code word.
        entry_draws = draws(rng, TABLE_ENTRIES)
        memory.store_words(
            table,
            chain.from_iterable(
                (key & 0xFFFF, code & 0x7FF, 0, 0)
                for key, code in zip(entry_draws, entry_draws)
            ),
        )

        symbols = scaled(5200, scale)

        in_ptr = b.vint("in_ptr")
        out_ptr = b.vint("out_ptr")
        tab = b.vint("tab")
        prefix = b.vint("prefix")
        i = b.vint("i")
        b.li(in_ptr, input_buf)
        b.li(out_ptr, output_buf)
        b.li(tab, table)
        b.li(prefix, 17)
        b.li(i, 0)
        with b.loop_until(i, symbols):
            ch = b.vint("ch")
            h = b.vint("h")
            slot = b.vint("slot")
            key = b.vint("key")
            want = b.vint("want")
            # Sequential input byte.
            b.lb(ch, in_ptr, 0)
            b.addi(in_ptr, in_ptr, 1)
            # hash = ((prefix << 5) ^ (ch << 8) ^ prefix) & mask
            b.slli(h, prefix, 5)
            t = b.vint("t")
            b.slli(t, ch, 8)
            b.xor(h, h, t)
            b.xor(h, h, prefix)
            b.andi(h, h, TABLE_ENTRIES - 1)
            # Probe: scattered table access.
            b.slli(slot, h, 3)
            b.add(slot, slot, tab)
            b.lw(key, slot, 0)
            b.andi(want, h, 0xFFFF)
            hit = b.fresh_label()
            done = b.fresh_label()
            # Data-dependent dictionary-hit branch: compares stored-key
            # bits against the probe's (skewed ~7:1 and hard to predict,
            # like real dictionary lookups).
            occupied = b.vint("occupied")
            b.xor(occupied, key, want)
            b.andi(occupied, occupied, 7)
            b.bne(occupied, 0, hit)
            # Miss: rehash once (secondary probe), then insert.
            b.xori(h, h, 0x5555)
            b.slli(slot, h, 3)
            b.add(slot, slot, tab)
            b.lw(key, slot, 4)
            b.sw(want, slot, 0)
            b.add(prefix, prefix, ch)
            b.andi(prefix, prefix, 0xFFF)
            b.j(done)
            b.bind(hit)
            # Hit: extend the prefix code with the stored code and the
            # input byte (keeps the hash evolving on both paths).
            b.lw(t, slot, 4)
            b.add(prefix, prefix, t)
            b.add(prefix, prefix, ch)
            b.andi(prefix, prefix, 0xFFF)
            b.bind(done)
            # Emit an output code every symbol (sequential store).
            b.sw(prefix, out_ptr, 0)
            b.addi(out_ptr, out_ptr, 4)
            b.addi(i, i, 1)
        b.halt()
