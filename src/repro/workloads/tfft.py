"""``tfft`` — iterative radix-2 FFT (large strides, worst TLB locality).

The paper's TFFT runs real and complex FFTs over a ~40 MB random data
set — the largest footprint of the suite and one of the three
poor-locality programs.  The butterfly stages stride the array at every
power of two up to N/2: once the stride exceeds a page, *every* access
lands on a new page, defeating any 128-entry TLB.

The kernel is a genuine decimation-in-time radix-2 pass structure over
a complex array spanning well over a hundred 4 KB pages.  Butterfly stages alternate with
*bit-reversal permutation* passes — the genuinely TLB-hostile part of
an FFT: the source index of each sequential destination element is the
bit-reverse of its position, so consecutive reads scatter uniformly
over all 512 pages.  Twiddle factors come from a small table; the
arithmetic is the classic four-multiply butterfly.
"""

from __future__ import annotations

import math
from itertools import chain

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import SparseMemory
from repro.workloads.base import (
    Workload,
    fill_float_words,
    register_workload,
    scaled,
)

#: Complex points (re/im pairs of FP words): 2^16 points = 512 KB of
#: data plus a 256 KB bit-reversal table — roughly 190 pages touched per
#: sweep at 4 KB: far beyond any small L1 TLB, mostly within a warm
#: 128-entry base TLB (the paper's Figure 6 regime for its big-data
#: programs: terrible at 4-16 entries, "already very low" at 128).
POINTS_LOG2 = 16

#: Twiddle table entries (re/im pairs).
TWIDDLES = 256


@register_workload
class Tfft(Workload):
    name = "tfft"
    description = "radix-2 FFT butterflies: page-spanning strides over 2 MB"
    regime = "poor"

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        rng = XorShift32(0xFF7)
        points = 1 << POINTS_LOG2
        data = layout.alloc_heap(points * 8)  # interleaved re/im
        twiddle = layout.alloc_global(TWIDDLES * 8)
        # The FP data is left zero-initialized: butterfly values never
        # feed addresses or branches, and skipping a 500k-word fill makes
        # workload construction an order of magnitude faster.  A small
        # random prefix is seeded so early stages mix non-zero values.
        fill_float_words(memory, data, 4096, rng)
        # Bit-reversal index table (word indices into ``data``), as real
        # FFT codes precompute.  Entries are point indices bit-reversed
        # within POINTS_LOG2 bits.
        brt = layout.alloc_heap(points * 4)
        memory.store_words(brt, _bit_reversed(POINTS_LOG2))
        # Twiddle factors: cos/sin pairs.
        angles = (-2.0 * math.pi * k / (2 * TWIDDLES) for k in range(TWIDDLES))
        memory.store_words(
            twiddle, chain.from_iterable((math.cos(a), math.sin(a)) for a in angles)
        )

        # Butterflies per stage, sized so a run covers the big strides.
        per_stage = scaled(280, scale)
        # Strides sweep from intra-page to many-pages-apart; large
        # (page-hostile) strides are interleaved with small ones so that
        # truncated runs still see the characteristic mix.
        stages = [1 << s for s in (13, 2, 11, 6, 14, 9, POINTS_LOG2 - 1, 4)]

        base = b.vint("base")
        tw = b.vint("tw")
        brt_base = b.vint("brt_base")
        b.li(base, data)
        b.li(tw, twiddle)
        b.li(brt_base, brt)
        per_reversal = scaled(1800, scale)
        # Virtual registers are hoisted out of the per-stage Python loop
        # and reused: a fresh set per stage would blow past the
        # architected budget and flood the run with spill traffic.
        r = b.vint("r")
        rstart = b.vint("rstart")
        ridx = b.vint("ridx")
        rptr = b.vint("rptr")
        sidx = b.vint("sidx")
        sptr = b.vint("sptr")
        dptr = b.vint("dptr")
        dre = b.vfp("dre")
        dim = b.vfp("dim")
        i = b.vint("i")
        hashc = b.vint("hashc")
        span = b.vint("span")
        pa = b.vint("pa")
        pb = b.vint("pb")
        k = b.vint("k")
        g = b.vint("g")
        tptr = b.vint("tptr")
        wre = b.vfp("wre")
        wim = b.vfp("wim")
        are = b.vfp("are")
        aim = b.vfp("aim")
        bre = b.vfp("bre")
        bim = b.vfp("bim")
        tre = b.vfp("tre")
        tim = b.vfp("tim")
        m0 = b.vfp("m0")
        m1 = b.vfp("m1")
        nre = b.vfp("nre")
        nim = b.vfp("nim")
        bound = b.vint("bound")
        b.li(bound, per_reversal)
        bound2 = b.vint("bound2")
        b.li(bound2, per_stage)
        for stage_index, stride in enumerate(stages):
            # Bit-reversal permutation pass: sequential destinations,
            # bit-reversed (page-scattered) sources.
            # Rotate the window so successive passes touch new regions.
            b.li(rstart, (stage_index * per_reversal * 7) % points)
            b.li(r, 0)
            with b.loop_until(r, bound):
                b.add(ridx, r, rstart)
                b.andi(ridx, ridx, points - 1)
                # Sequential table read of the bit-reversed index.
                b.slli(rptr, ridx, 2)
                b.add(rptr, rptr, brt_base)
                b.lw(sidx, rptr, 0)
                # Scattered source read, sequential destination write.
                b.slli(sptr, sidx, 3)
                b.add(sptr, sptr, base)
                b.lfw(dre, sptr, 0)
                b.lfw(dim, sptr, 4)
                b.slli(dptr, ridx, 3)
                b.add(dptr, dptr, base)
                b.sfw(dre, dptr, 0)
                b.sfw(dim, dptr, 4)
                b.addi(r, r, 1)
            # Butterfly pass for this stage's stride.
            # A full stage touches every group; a truncated run must see
            # the same *distribution*, so sample group indices with a
            # multiplicative hash (Knuth's constant) rather than walking
            # a prefix — power-of-two strides over a power-of-two array
            # would otherwise alias into a handful of residues.
            groups = points // (2 * stride)
            b.li(hashc, 2654435761)
            b.li(span, stride * 8)
            b.li(i, 0)
            with b.loop_until(i, bound2):
                b.mul(g, i, hashc)
                b.srli(g, g, 8)
                b.andi(g, g, groups - 1)
                # index = group * 2*stride + (i mod stride)
                b.slli(g, g, (2 * stride).bit_length() - 1)
                b.andi(k, i, stride - 1)
                b.add(k, k, g)
                b.slli(k, k, 3)
                b.add(pa, base, k)
                b.add(pb, pa, span)
                # Twiddle for this butterfly (hot table).
                b.andi(tptr, i, TWIDDLES - 1)
                b.slli(tptr, tptr, 3)
                b.add(tptr, tptr, tw)
                b.lfw(wre, tptr, 0)
                b.lfw(wim, tptr, 4)
                b.lfw(are, pa, 0)
                b.lfw(aim, pa, 4)
                b.lfw(bre, pb, 0)
                b.lfw(bim, pb, 4)
                # t = w * b (complex).
                b.fmul(m0, wre, bre)
                b.fmul(m1, wim, bim)
                b.fsub(tre, m0, m1)
                b.fmul(m0, wre, bim)
                b.fmul(m1, wim, bre)
                b.fadd(tim, m0, m1)
                # a' = a + t ; b' = a - t.
                b.fadd(nre, are, tre)
                b.fadd(nim, aim, tim)
                b.fsub(are, are, tre)
                b.fsub(aim, aim, tim)
                b.sfw(nre, pa, 0)
                b.sfw(nim, pa, 4)
                b.sfw(are, pb, 0)
                b.sfw(aim, pb, 4)
                b.addi(i, i, 1)
        b.halt()


def _bit_reversed(bits: int):
    """``0 .. 2**bits - 1``, each bit-reversed within ``bits`` bits, in
    counting order (a reversed counter)."""
    rev = 0
    top = 1 << (bits - 1)
    for _ in range(1 << bits):
        yield rev
        bit = top
        while rev & bit:
            rev ^= bit
            bit >>= 1
        rev |= bit
