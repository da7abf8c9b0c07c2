"""Workload framework: registry, build products, shared helpers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

from repro.caches.replacement import XorShift32
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.mem.layout import AddressSpaceLayout
from repro.mem.memory import PAGE_WORDS, SparseMemory


@dataclass
class WorkloadBuild:
    """A ready-to-run workload instance: program plus initialized memory."""

    name: str
    program: Program
    memory: SparseMemory
    #: Approximate dynamic instruction count at scale 1.0 (informative).
    approx_instructions: int = 0


class Workload:
    """Base class: subclasses implement :meth:`construct`.

    ``scale`` linearly adjusts iteration counts (and, where meaningful,
    data-set sizes) so tests can run tiny instances and benchmarks can
    run larger ones.
    """

    #: Registry name (set by subclasses).
    name = "workload"
    #: One-line description of what the synthetic kernel mimics.
    description = ""
    #: Locality regime tag: "poor", "dense", or "pointer".
    regime = "dense"

    def build(
        self, int_regs: int = 32, fp_regs: int = 32, scale: float = 1.0
    ) -> WorkloadBuild:
        """Build the program at a register budget and scale."""
        if scale <= 0:
            raise ValueError(f"scale must be positive: {scale}")
        builder = ProgramBuilder(self.name)
        memory = SparseMemory()
        layout = AddressSpaceLayout()
        self.construct(builder, memory, layout, scale)
        program = builder.build(int_regs=int_regs, fp_regs=fp_regs)
        self.post_build(program, memory)
        return WorkloadBuild(self.name, program, memory)

    def construct(
        self,
        b: ProgramBuilder,
        memory: SparseMemory,
        layout: AddressSpaceLayout,
        scale: float,
    ) -> None:
        """Emit the program and initialize its data (subclass hook)."""
        raise NotImplementedError

    def post_build(self, program: Program, memory: SparseMemory) -> None:
        """Hook for initialization that needs resolved label addresses
        (e.g. interpreter dispatch tables containing code pointers)."""


_REGISTRY: dict[str, Callable[[], Workload]] = {}


def register_workload(cls: type[Workload]) -> type[Workload]:
    """Class decorator: add a workload to the registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate workload name: {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def make_workload(name: str) -> Workload:
    """Instantiate a registered workload by name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown workload {name!r}; known: {known}")
    return cls()


def iter_workload_names() -> Iterator[str]:
    """All registered workload names, in registration order."""
    return iter(_REGISTRY)


# -- shared data-generation helpers ------------------------------------------


def draws(rng: XorShift32, count: int, mask: int = 0xFFFF_FFFF) -> Iterator[int]:
    """The next ``count`` values of ``rng.next() & mask``, drawn a page
    at a time (never a region-sized list)."""
    return chain.from_iterable(
        rng.words(min(PAGE_WORDS, count - start), mask)
        for start in range(0, count, PAGE_WORDS)
    )


def fill_random_words(
    memory: SparseMemory, base: int, count: int, rng: XorShift32, mask: int = 0xFFFF
) -> None:
    """Initialize ``count`` words at ``base`` with bounded random values."""
    memory.store_words(base, draws(rng, count, mask))


def fill_float_words(
    memory: SparseMemory, base: int, count: int, rng: XorShift32
) -> None:
    """Initialize ``count`` FP words with values in (0, 1]."""
    memory.store_words(base, ((v + 1) / 65536.0 for v in draws(rng, count, 0xFFFF)))


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale an iteration count, clamped below."""
    return max(minimum, int(value * scale))
