"""Pinning tests for the design table: one definition, every consumer.

A design mnemonic is defined once, in :mod:`repro.tlb.factory`; the
simulator, the analytical model's design space and the cost model all
read that definition.  These tests pin what each consumer derives from
it, so a change to how designs are described cannot move a price, a
screening row or a constructed mechanism.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.tlb.costmodel import design_cost
from repro.tlb.factory import DESIGN_MNEMONICS, EXTENSION_MNEMONICS, make_mechanism

#: design -> (area, hit latency, note), exactly as design_cost prices it.
COSTS = {
    "T4": (2048, 1.45, "4-ported cells: area x16, loaded match lines"),
    "T2": (512, 1.15, "2-ported cells: area x4, loaded match lines"),
    "T1": (128, 1.0, "1-ported cells: area x1, loaded match lines"),
    "I8": (140.8, 0.9357142857142857, "single-ported banks + crossbar adder"),
    "I4": (131.2, 1.0071428571428571, "single-ported banks + crossbar adder"),
    "X4": (131.2, 1.0071428571428571, "single-ported banks + crossbar adder"),
    "M16": (384, 1.1392857142857142, "small 4-ported L1 on the hit path; L2 off it"),
    "M8": (256, 1.0357142857142858, "small 4-ported L1 on the hit path; L2 off it"),
    "M4": (192, 0.932142857142857, "small 4-ported L1 on the hit path; L2 off it"),
    "P8": (256, 0.5178571428571429, "8-entry pretranslation cache read at decode"),
    "PB2": (512.5, 1.15, "2 real ports + 2 comparators"),
    "PB1": (128.75, 1.0, "1 real ports + 3 comparators"),
    "I4/PB": (134.2, 1.0071428571428571, "I4 plus per-bank piggyback comparators"),
    "BAC32": (640, 0.6214285714285714, "32-entry PC-indexed cache read at decode"),
    "THB32": (640, 0.6214285714285714, "32-entry PC-indexed cache read at decode"),
}

#: sha256 over the default screening space: per design, its label, its
#: mechanism spec and the exact bits of its area and hit delay.
DEFAULT_SPACE_SIZE = 115
DEFAULT_SPACE_SHA256 = "91049921715d330cb62a29e5e0841d38f0ccc54917759f102a718fb28b8c235a"


class TestDesignCost:
    @pytest.mark.parametrize("mnemonic", sorted(COSTS))
    def test_price_pinned(self, mnemonic):
        cost = design_cost(mnemonic)
        assert (cost.area, cost.hit_latency, cost.note) == COSTS[mnemonic]

    def test_every_priced_design_is_pinned(self):
        assert set(COSTS) == set(DESIGN_MNEMONICS) | set(EXTENSION_MNEMONICS) - {"PERFECT"}

    def test_perfect_has_no_price(self):
        with pytest.raises(ValueError, match="no cost model"):
            design_cost("PERFECT")


class TestScreeningSpace:
    def test_default_space_pinned(self):
        pytest.importorskip("numpy")
        from repro.eval.screen import ScreenSpec, enumerate_space, space_cost

        space = enumerate_space(ScreenSpec())
        area, delay = space_cost(space)
        digest = hashlib.sha256()
        for i in range(len(space)):
            digest.update(
                repr(
                    (
                        space.label(i),
                        space.mechanism_spec(i),
                        float(area[i]).hex(),
                        float(delay[i]).hex(),
                    )
                ).encode()
            )
        assert len(space) == DEFAULT_SPACE_SIZE
        assert digest.hexdigest() == DEFAULT_SPACE_SHA256


def _state(obj):
    """A comparable snapshot of an object graph's constructor state."""
    if isinstance(obj, random.Random):
        return ("Random", obj.getstate())
    if isinstance(obj, (list, tuple)):
        return [_state(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _state(v) for k, v in obj.items()}
    if callable(obj) and hasattr(obj, "__code__"):
        cells = [c.cell_contents for c in obj.__closure__ or ()]
        return ("function", obj.__qualname__, _state(cells))
    slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    if hasattr(obj, "__dict__") or slots:
        fields = dict(getattr(obj, "__dict__", {}))
        fields.update({s: getattr(obj, s) for s in slots if hasattr(obj, s)})
        return (type(obj).__name__, _state(fields))
    return obj


class TestModelRowsMatchFactory:
    @pytest.mark.parametrize("mnemonic", DESIGN_MNEMONICS + ("PERFECT",))
    def test_model_spec_builds_the_factory_mechanism(self, mnemonic):
        pytest.importorskip("numpy")
        from repro.analysis import atmodel
        from repro.tlb.factory import make_mechanism_from_spec

        spec = atmodel.mnemonic_space([mnemonic]).mechanism_spec(0)
        built = make_mechanism_from_spec(spec, 12)
        direct = make_mechanism(mnemonic, 12)
        assert type(built) is type(direct)
        assert _state(built) == _state(direct)


class TestOneEntryAddsADesign:
    """A design added to the factory table alone is simulated, modeled
    and priced by every consumer, with no other edit."""

    SPEC = ("MultiPortedTLB", (("ports", 4), ("entries", 64), ("replacement", "random")))

    @pytest.fixture(autouse=True)
    def _t4e64(self, monkeypatch):
        from repro.tlb import factory

        monkeypatch.setitem(factory.DESIGNS, "T4E64", self.SPEC)

    def test_simulates(self):
        from repro.eval.runner import RunRequest, simulate

        result = simulate(RunRequest.create("espresso", "t4e64", max_instructions=1500))
        assert result.stats.committed >= 1500
        assert result.request.mechanism is None

    def test_prices(self):
        cost = design_cost("T4E64")
        assert cost.area == 64 * 4 * 4
        assert cost.hit_latency == pytest.approx((0.5 + 0.5 * 6 / 7) * 1.45)
        assert cost.note == "4-ported cells: area x16, loaded match lines"

    def test_models(self):
        np = pytest.importorskip("numpy")
        from repro.analysis import atmodel
        from repro.eval.screen import space_cost
        from repro.tlb.factory import make_mechanism_from_spec

        space = atmodel.mnemonic_space(["T4E64"])
        assert space.label(0) == "T4e64"
        built = make_mechanism_from_spec(space.mechanism_spec(0), 12)
        assert _state(built) == _state(make_mechanism("T4E64", 12))
        area, delay = space_cost(space)
        cost = design_cost("T4E64")
        assert (float(area[0]), float(delay[0])) == (cost.area, cost.hit_latency)
        assert np.isfinite(delay).all()
