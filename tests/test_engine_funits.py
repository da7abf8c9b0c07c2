"""Tests for functional-unit scheduling and machine configuration."""

import pytest

from repro.engine.config import MachineConfig
from repro.engine.funits import FunctionalUnitPool
from repro.isa.opcodes import OpClass


@pytest.fixture
def units():
    """Per-opclass ``(free_at, busy, latency)`` of a Table-1 machine."""
    return FunctionalUnitPool(MachineConfig()).class_map()


class TestConfig:
    def test_defaults_match_table1(self):
        cfg = MachineConfig()
        assert cfg.fetch_width == 8
        assert cfg.rob_entries == 64
        assert cfg.lsq_entries == 32
        assert cfg.tlb_miss_latency == 30
        assert cfg.mispredict_penalty == 3
        assert cfg.dcache_size == 32 * 1024
        assert cfg.fu_specs["ialu"].units == 8
        assert cfg.fu_specs["ldst"].units == 4

    def test_page_shift(self):
        assert MachineConfig().page_shift == 12
        assert MachineConfig(page_size=8192).page_shift == 13

    def test_bad_issue_model_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(issue_model="vliw")

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(page_size=5000)


class TestLatencies:
    def test_table1_latencies(self, units):
        latency = {op_class: units[op_class][2] for op_class in units}
        assert latency[OpClass.IALU] == 1
        assert latency[OpClass.LOAD] == 2
        assert latency[OpClass.STORE] == 2
        assert latency[OpClass.IMULT] == 3
        assert latency[OpClass.IDIV] == 12
        assert latency[OpClass.FPADD] == 2
        assert latency[OpClass.FPMULT] == 4
        assert latency[OpClass.FPDIV] == 12


class TestScheduling:
    """Table 1's unit counts and sharing, read off ``class_map()``:
    op classes that share a unit class share one live ``free_at`` list."""

    def test_eight_alus_per_cycle(self, units):
        free_at, busy, _ = units[OpClass.IALU]
        assert len(free_at) == 8 and busy == 1

    def test_four_ldst_units(self, units):
        load, store = units[OpClass.LOAD][0], units[OpClass.STORE][0]
        assert load is store  # shared unit class
        assert len(load) == 4

    def test_pipelined_units_free_next_cycle(self, units):
        for op_class in (OpClass.IALU, OpClass.LOAD, OpClass.IMULT, OpClass.FPADD, OpClass.FPMULT):
            assert units[op_class][1] == 1, op_class

    def test_divider_blocks_for_full_latency(self, units):
        free_at, busy, latency = units[OpClass.IDIV]
        assert busy == latency == 12
        assert free_at is units[OpClass.IMULT][0]  # same physical unit

    def test_fp_divider_blocks_fp_multiplier(self, units):
        free_at, busy, latency = units[OpClass.FPDIV]
        assert busy == latency == 12
        assert free_at is units[OpClass.FPMULT][0]

    def test_branches_use_alus(self, units):
        alus = units[OpClass.IALU][0]
        assert units[OpClass.BRANCH][0] is alus
        assert units[OpClass.JUMP][0] is alus
