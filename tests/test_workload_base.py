"""Unit tests for the workload framework helpers."""

import pytest

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import SparseMemory
from repro.workloads.base import (
    Workload,
    fill_float_words,
    fill_random_words,
    register_workload,
    scaled,
)


class TestHelpers:
    def test_scaled_rounds_and_clamps(self):
        assert scaled(100, 1.0) == 100
        assert scaled(100, 0.5) == 50
        assert scaled(100, 0.001) == 1
        assert scaled(3, 0.1, minimum=2) == 2

    def test_fill_random_words_masks(self):
        mem = SparseMemory()
        fill_random_words(mem, 0x1000, 64, XorShift32(1), mask=0xFF)
        values = [mem.load_word(0x1000 + 4 * i) for i in range(64)]
        assert all(0 <= v <= 0xFF for v in values)
        assert len(set(values)) > 8  # actually random-ish

    def test_fill_float_words_in_unit_interval(self):
        mem = SparseMemory()
        fill_float_words(mem, 0x1000, 64, XorShift32(1))
        values = [mem.load_word(0x1000 + 4 * i) for i in range(64)]
        assert all(isinstance(v, float) and 0.0 < v <= 1.0 for v in values)

    @pytest.mark.parametrize("count", [1, 1023, 1024, 2500])
    def test_fills_draw_the_per_word_sequence(self, count):
        """Page-at-a-time bulk fills equal one ``next()`` per word, also
        from a base that is not page-aligned."""
        base = 0x1FF8
        ints, floats = SparseMemory(), SparseMemory()
        fill_random_words(ints, base, count, XorShift32(5), mask=0x7FF)
        fill_float_words(floats, base, count, XorShift32(5))
        rng = XorShift32(5)
        expected = [rng.next() for _ in range(count)]
        assert [ints.load_word(base + 4 * i) for i in range(count)] == [
            v & 0x7FF for v in expected
        ]
        assert [floats.load_word(base + 4 * i) for i in range(count)] == [
            ((v & 0xFFFF) + 1) / 65536.0 for v in expected
        ]
        assert ints.load_word(base + 4 * count) == 0


class TestWorkloadClass:
    def test_construct_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Workload().build()

    def test_post_build_hook_runs_after_resolution(self):
        seen = {}

        class Hooked(Workload):
            name = "hooked-test"

            def construct(self, b: ProgramBuilder, memory, layout: AddressSpaceLayout, scale):
                b.label("entry")
                b.halt()

            def post_build(self, program, memory):
                seen["entry_pc"] = program.pc_of(program.labels["entry"])

        build = Hooked().build()
        # The register allocator prepends a one-instruction stack-pointer
        # prologue, so the builder's first label lands at index 1.
        assert seen["entry_pc"] == build.program.pc_of(1)

    def test_duplicate_registration_rejected(self):
        class Dup(Workload):
            name = "compress"  # already registered

            def construct(self, *a):
                pass

        with pytest.raises(ValueError, match="duplicate"):
            register_workload(Dup)

    def test_build_product_fields(self):
        from repro.workloads import make_workload

        build = make_workload("espresso").build()
        assert build.name == "espresso"
        assert len(build.program) > 0
        assert build.memory.diff_words(SparseMemory())  # some word is nonzero
