"""``mpeg_play`` — video decode kernel (motion compensation + IDCT add).

The paper's MPEG_play decodes a 79-frame video.  Decode bandwidth is
dominated by motion compensation: each macroblock copies a block from
the *reference* frame at a motion-vector-dependent (effectively
scattered) offset, adds the IDCT residual, and stores into the
*current* frame sequentially.  Two multi-hundred-KB frame buffers plus
scattered reference reads put mpeg_play in the paper's poor-locality
trio (with compress and tfft).

The kernel processes macroblock rows: unrolled 4-word reference loads
from a data-dependent offset, residual adds from a small coefficient
table, sequential stores to the current frame, and a frame swap every
row sweep.
"""

from __future__ import annotations

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

#: Frame size in words (512 KB per frame; two frames = 1 MB).
FRAME_WORDS = 1 << 17

#: Residual coefficient table (one 8x8 block of words).
RESIDUAL_WORDS = 64

#: Words copied per macroblock line (8 words = 32 bytes).
BLOCK_WORDS = 8


@register_workload
class MpegPlay(Workload):
    name = "mpeg_play"
    description = "motion compensation: scattered reference reads, streaming writes"
    regime = "poor"

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        rng = XorShift32(0x3964)
        frame_bytes = FRAME_WORDS * 4  # 512 KB per frame
        reference = layout.alloc_heap(frame_bytes)
        current = layout.alloc_heap(frame_bytes)
        residual = layout.alloc_global(RESIDUAL_WORDS * 4)
        motion = layout.alloc_global(1024 * 4)
        fill_random_words(memory, reference, FRAME_WORDS, rng, mask=0xFF)
        fill_random_words(memory, residual, RESIDUAL_WORDS, rng, mask=0x1F)
        # Motion vectors: byte offsets into the reference frame, scattered
        # over its whole extent (block-aligned).
        memory.store_words(
            motion,
            ((v % (FRAME_WORDS - BLOCK_WORDS)) * 4 & ~31 for v in draws(rng, 1024)),
        )

        blocks = scaled(3200, scale)

        ref = b.vint("ref")
        cur = b.vint("cur")
        res = b.vint("res")
        mv = b.vint("mv")
        i = b.vint("i")
        b.li(ref, reference)
        b.li(cur, current)
        b.li(res, residual)
        b.li(mv, motion)
        b.li(i, 0)
        with b.loop_until(i, blocks):
            # Fetch this block's motion vector (hot table).
            mvi = b.vint("mvi")
            off = b.vint("off")
            src = b.vint("src")
            dst = b.vint("dst")
            b.andi(mvi, i, 1023)
            b.slli(mvi, mvi, 2)
            b.add(mvi, mvi, mv)
            b.lw(off, mvi, 0)
            b.add(src, ref, off)
            # Destination advances sequentially through the current frame.
            b.slli(dst, i, 5)
            b.andi(dst, dst, frame_bytes - 32)
            b.add(dst, dst, cur)
            # Residual row for this block (tiny, hot).
            rptr = b.vint("rptr")
            b.andi(rptr, i, (RESIDUAL_WORDS // 4 - 1))
            b.slli(rptr, rptr, 4)
            b.add(rptr, rptr, res)
            # Unrolled 4-word motion-compensated copy.
            s0 = b.vint("s0")
            s1 = b.vint("s1")
            s2 = b.vint("s2")
            s3 = b.vint("s3")
            r0 = b.vint("r0_")
            r1 = b.vint("r1_")
            r2 = b.vint("r2_")
            r3 = b.vint("r3_")
            b.lw(s0, src, 0)
            b.lw(s1, src, 4)
            b.lw(s2, src, 8)
            b.lw(s3, src, 12)
            b.lw(r0, rptr, 0)
            b.lw(r1, rptr, 4)
            b.lw(r2, rptr, 8)
            b.lw(r3, rptr, 12)
            b.add(s0, s0, r0)
            b.add(s1, s1, r1)
            b.add(s2, s2, r2)
            b.add(s3, s3, r3)
            b.sw(s0, dst, 0)
            b.sw(s1, dst, 4)
            b.sw(s2, dst, 8)
            b.sw(s3, dst, 12)
            # Saturation branch: clip if the first sample overflowed
            # (data-dependent, moderately skewed).
            clip = b.fresh_label()
            noclip = b.fresh_label()
            lim = b.vint("lim")
            b.li(lim, 0x100)
            b.blt(s0, lim, noclip)
            b.bind(clip)
            b.andi(s0, s0, 0xFF)
            b.sw(s0, dst, 0)
            b.bind(noclip)
            b.addi(i, i, 1)
        b.halt()
