"""Tests for the ten synthetic workloads."""

import hashlib

import pytest

from repro.func.executor import Executor
from repro.mem.memory import PAGE_SHIFT, SparseMemory
from repro.workloads import iter_workload_names, make_workload

ALL = list(iter_workload_names())

#: sha256 of each workload's initialized image (see :func:`_image_digest`)
#: at full scale and register budget, computed when images were still
#: held as one dict entry per word: the paged store and the bulk draws
#: that fill it must reproduce them exactly.
IMAGE_SHA256 = {
    "compress": "3c91004a302485f54c6bb972e906ab9b5f9d552db9fbf0391aa3366e6e99b7f8",
    "doduc": "a3e2b3f53f0bbe230752460da4ea12294b332347f3868a87fe78792cde97daa9",
    "espresso": "9a02c4696b6606f01e819b08f7884e3c3ef0094746ce978c472d7deccbf0222b",
    "gcc": "e948859a6ed51e0361056b6e9ba3c68666dba4c93085353f255b5aaa50e7f090",
    "ghostscript": "d35fb8245f6140a1b16ed5418a6cb4d7f825dc67cf0be2d4c1900f7c2c0f8eb7",
    "mpeg_play": "170cfef1a54b472f7ec181cedb00fa40a5b4296d50e95578fdd69ddc9095e113",
    "perl": "3af0a0beb74b32db1a300146ad3bc3c57ee2410b3e2dbb0f81e00e72713e0580",
    "tfft": "c8380c0588c91af39bc602eebd49f50fa2dbf364889a56de4c11427cc110eafd",
    "tomcatv": "afab4361676a18b114b9f17502854cf000736ccff2d494f99b53712710c1ab9e",
    "xlisp": "bd70e4a36db70a8f9c5ee2e643ee9050d1241b84e69eb674203d307d82b2a26d",
}


def _image_digest(memory: SparseMemory) -> str:
    """sha256 over the sorted ``(address, type name, value)`` of every
    word that is nonzero or a float (tfft's twiddles store float zeros,
    which must not silently become int zeros)."""
    words = sorted(
        ((number << PAGE_SHIFT) + 4 * slot, type(value).__name__, value)
        for number, page in memory._pages.items()
        for slot, value in enumerate(page)
        if value != 0 or isinstance(value, float)
    )
    return hashlib.sha256(repr(words).encode()).hexdigest()


def _mix(build, budget=20_000):
    ex = Executor(build.program, build.memory.clone())
    loads = stores = branches = total = 0
    pages = set()
    for dyn in ex.run(max_instructions=budget):
        total += 1
        dec = dyn.decoded
        if dec.is_load:
            loads += 1
            pages.add(dyn.ea >> 12)
        elif dec.is_store:
            stores += 1
            pages.add(dyn.ea >> 12)
        elif dec.is_branch:
            branches += 1
    return dict(
        total=total, loads=loads, stores=stores, branches=branches, pages=len(pages)
    )


class TestRegistry:
    def test_ten_workloads_registered(self):
        assert len(ALL) == 10
        assert set(ALL) == {
            "compress",
            "doduc",
            "espresso",
            "gcc",
            "ghostscript",
            "mpeg_play",
            "perl",
            "tfft",
            "tomcatv",
            "xlisp",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_workload("spice")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            make_workload("compress").build(scale=0)


@pytest.mark.parametrize("name", ALL)
class TestEveryWorkload:
    def test_builds_and_executes(self, name):
        build = make_workload(name).build()
        mix = _mix(build, budget=8_000)
        assert mix["total"] == 8_000  # runs at least this long

    def test_makes_memory_references(self, name):
        build = make_workload(name).build()
        mix = _mix(build, budget=8_000)
        refs = mix["loads"] + mix["stores"]
        assert refs / mix["total"] > 0.10

    def test_has_branches(self, name):
        build = make_workload(name).build()
        mix = _mix(build, budget=8_000)
        assert mix["branches"] > 0

    def test_no_spills_at_full_budget(self, name):
        build = make_workload(name).build(int_regs=32, fp_regs=32)
        assert build.program.alloc_info.spilled == []

    def test_eight_register_build_spills_and_runs(self, name):
        build = make_workload(name).build(int_regs=8, fp_regs=8)
        assert len(build.program.alloc_info.spilled) > 0
        mix = _mix(build, budget=5_000)
        assert mix["total"] == 5_000

    def test_deterministic_build(self, name):
        a = make_workload(name).build()
        b = make_workload(name).build()
        assert len(a.program) == len(b.program)
        assert a.memory.diff_words(b.memory) == []
        assert a.memory.diff_words(SparseMemory())  # the image is not empty

    def test_image_digest_pinned(self, name):
        assert _image_digest(make_workload(name).build().memory) == IMAGE_SHA256[name]


class TestRegimes:
    def test_poor_locality_trio_thrashes_small_tlb(self):
        """compress / mpeg_play / tfft must look bad to a 4-entry TLB."""
        from repro.eval.missrates import measure_miss_rates

        for name in ("compress", "mpeg_play", "tfft"):
            row = measure_miss_rates(name, sizes=(4,), max_instructions=40_000)
            assert row.miss_rate[4] > 0.04, name

    def test_dense_workloads_friendly_to_modest_tlb(self):
        from repro.eval.missrates import measure_miss_rates

        for name in ("doduc", "espresso", "tomcatv"):
            row = measure_miss_rates(name, sizes=(16,), max_instructions=40_000)
            assert row.miss_rate[16] < 0.02, name

    def test_few_register_build_adds_memory_traffic(self):
        """Figure 9's premise: fewer registers => more loads/stores."""
        wl = make_workload("tomcatv")
        full = _mix(wl.build(int_regs=32, fp_regs=32), budget=20_000)
        tight = _mix(wl.build(int_regs=8, fp_regs=8), budget=20_000)
        full_density = (full["loads"] + full["stores"]) / full["total"]
        tight_density = (tight["loads"] + tight["stores"]) / tight["total"]
        assert tight_density > full_density

    def test_spill_traffic_has_stack_locality(self):
        """The extra references go to a tiny set of spill-area pages."""
        from repro.isa.regalloc import SPILL_AREA_BASE

        build = make_workload("doduc").build(int_regs=8, fp_regs=8)
        ex = Executor(build.program, build.memory.clone())
        spill_pages = set()
        for dyn in ex.run(max_instructions=20_000):
            if dyn.ea is not None and dyn.ea >= SPILL_AREA_BASE:
                spill_pages.add(dyn.ea >> 12)
        assert 0 < len(spill_pages) <= 2


class TestPerlInterpreter:
    def test_dispatch_table_holds_code_addresses(self):
        build = make_workload("perl").build()
        prog = build.program
        from repro.workloads.perl import Perl

        wl = make_workload("perl")
        build2 = wl.build()
        dispatch = wl._dispatch_addr
        for slot in range(7):
            pc = build2.memory.load_word(dispatch + 4 * slot)
            index = build2.program.index_of(pc)
            assert 0 <= index < len(build2.program)

    def test_interpreter_executes_indirect_jumps(self):
        build = make_workload("perl").build()
        ex = Executor(build.program, build.memory.clone())
        from repro.isa.opcodes import Op

        saw_jr = any(
            dyn.op is Op.JR for dyn in ex.run(max_instructions=2_000)
        )
        assert saw_jr
