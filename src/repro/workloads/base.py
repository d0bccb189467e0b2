"""Workload specification and the synthetic trace builder.

A :class:`WorkloadSpec` captures a benchmark's *memory personality*:
instruction mix, branch predictability, data-dependence density, value
locality, and a weighted mixture of address-pattern engines (optionally
varying across execution phases, which is what gives SimPoint something to
find).  :class:`SyntheticWorkload` turns a spec into a concrete
``(trace, image)`` pair deterministically (same spec + seed + length -> same
trace).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.isa.instr import Op
from repro.workloads.image import WORD_BYTES, MemoryImage
from repro.workloads.patterns import ENGINE_KINDS, FREQUENT_VALUES, PatternEngine

#: Spacing between engine data regions (keeps them in distinct DRAM areas).
_REGION_SPACING = 0x0400_0000
_REGION_BASE = 0x1000_0000
_CODE_BASE = 0x0040_0000


@dataclass(frozen=True)
class PatternMix:
    """One engine in a workload's mixture: kind, weight, constructor args."""

    kind: str
    weight: float
    params: Tuple[Tuple[str, object], ...] = ()

    def make(self, base: int, rng: random.Random) -> PatternEngine:
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        return ENGINE_KINDS[self.kind](base, rng, **dict(self.params))


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to synthesise one benchmark's trace."""

    name: str
    suite: str                      # "int" or "fp"
    description: str
    patterns: Tuple[PatternMix, ...]
    mem_fraction: float = 0.35      # fraction of instructions that are loads/stores
    store_fraction: float = 0.25    # fraction of memory ops that are stores
    branch_fraction: float = 0.12
    fp_fraction: float = 0.0        # fraction of ALU ops that are FP
    mispredict_rate: float = 0.04
    value_locality: float = 0.3     # frequent-value share of stored/initial data
    dep_density: float = 0.5        # chance an ALU op consumes the latest load
    #: Execution phases: (fraction_of_trace, per-pattern weight multipliers).
    #: Empty means one homogeneous phase.
    phases: Tuple[Tuple[float, Tuple[float, ...]], ...] = ()
    #: Static code size (bytes) the PC stream walks through.  Footprints
    #: beyond the 32 KB L1 instruction cache create front-end fetch misses,
    #: as for the code-heavy SPEC INT members (gcc, perlbmk, crafty...).
    code_footprint: int = 4096
    seed: int = 1

    def __post_init__(self) -> None:
        if self.suite not in ("int", "fp"):
            raise ValueError(f"suite must be 'int' or 'fp', got {self.suite!r}")
        if not self.patterns:
            raise ValueError(f"{self.name}: at least one pattern required")
        for fraction_name in ("mem_fraction", "branch_fraction"):
            value = getattr(self, fraction_name)
            if not 0 < value < 1:
                raise ValueError(f"{self.name}: {fraction_name}={value} out of (0,1)")
        for _, multipliers in self.phases:
            if len(multipliers) != len(self.patterns):
                raise ValueError(
                    f"{self.name}: phase multiplier count != pattern count"
                )


class SyntheticWorkload:
    """Builds deterministic traces (lists of ISA records) from a spec."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec

    def build(
        self, n_instructions: int, image: Optional[MemoryImage] = None
    ) -> Tuple[List[Tuple[int, int, int, int, int]], MemoryImage]:
        """Generate ``n_instructions`` records; return ``(trace, image)``."""
        spec = self.spec
        rng = random.Random(spec.seed)
        draw, choice, randrange, randint = (
            rng.random, rng.choice, rng.randrange, rng.randint)
        if image is None:
            image = MemoryImage()

        engines: List[PatternEngine] = []
        load_pcs: List[int] = []
        store_pcs: List[int] = []
        for i, mix in enumerate(spec.patterns):
            base = _REGION_BASE + i * _REGION_SPACING
            engine = mix.make(base, rng)
            engine.setup(image, spec.value_locality)
            engines.append(engine)
            load_pcs.append(_CODE_BASE + i * 0x100)
            store_pcs.append(_CODE_BASE + i * 0x100 + 0x40)
        nexts = [engine.next for engine in engines]
        chained = [engine.chained for engine in engines]

        # Per phase, the engine pick's total weight and running sums.
        phase_bounds, phase_weights = self._phase_plan(n_instructions)
        pickers = [(sum(weights), list(accumulate(weights, initial=0.0))[1:])
                   for weights in phase_weights]

        trace: List[Tuple[int, int, int, int, int]] = []
        append = trace.append
        words = image.words()
        load_op = int(Op.LOAD)
        store_op = int(Op.STORE)
        branch_op = int(Op.BRANCH)
        int_alu = int(Op.INT_ALU)
        fp_alu = int(Op.FP_ALU)
        int_mul = int(Op.INT_MUL)
        fp_mul = int(Op.FP_MUL)

        mem_cut = spec.mem_fraction
        branch_cut = mem_cut + spec.branch_fraction
        store_fraction = spec.store_fraction
        value_locality = spec.value_locality
        mispredict_rate = spec.mispredict_rate
        fp_fraction = spec.fp_fraction
        dep_density = spec.dep_density
        # Non-memory PCs walk the code region in basic blocks, not bytes:
        # eight sequential 4-byte instructions per block, with blocks laid
        # out 132 bytes apart — skipping both 32-byte instruction-cache
        # lines and 64-byte L2 lines — so the fetch stream is sequential
        # *within* a block, as real code is, but a data-side next-line
        # prefetcher gets no free instruction-stream coverage from the
        # unified L2.  Each phase runs in its own 4 MB code window.
        code_footprint = max(256, spec.code_footprint)
        code_pc = _CODE_BASE + 0x10000
        last_load_idx: Dict[int, int] = {}  # engine index -> trace index
        latest_load = -1
        n_stores = 0
        last_phase = len(phase_bounds) - 1
        phase = bound = 0

        for idx in range(n_instructions):
            if idx >= bound:  # phase boundary: re-resolve the phase
                while phase < last_phase and idx >= phase_bounds[phase]:
                    phase += 1
                bound = phase_bounds[phase]
                total, running = pickers[phase]
                phase_pc = code_pc + (phase << 22)
            r = draw()
            if r < mem_cut:
                engine_idx = 0
                if total > 0:
                    pick = draw() * total
                    for engine_idx, acc in enumerate(running):
                        if pick < acc:
                            break
                addr = nexts[engine_idx]()
                if not chained[engine_idx] and draw() < store_fraction:
                    if draw() < value_locality:
                        value = choice(FREQUENT_VALUES)
                    else:
                        value = randrange(1 << 32) | (1 << 33)
                    # Functional execution at generation time: the image
                    # matches the trace before simulation ever runs.
                    words[addr & -WORD_BYTES] = value
                    n_stores += 1
                    append((store_op, store_pcs[engine_idx], addr, 0, value))
                else:
                    dep = 0
                    if chained[engine_idx]:
                        prev = last_load_idx.get(engine_idx)
                        if prev is not None:
                            distance = idx - prev
                            if distance < 500:
                                dep = distance
                    append((load_op, load_pcs[engine_idx], addr, dep, 0))
                    last_load_idx[engine_idx] = idx
                    latest_load = idx
            elif r < branch_cut:
                mispredicted = draw() < mispredict_rate
                pc = phase_pc + (idx >> 3) * 132 % code_footprint + (idx & 7) * 4
                append((branch_op, pc, 0, 0, 1 if mispredicted else 0))
            else:
                if draw() < fp_fraction:
                    op = fp_mul if draw() < 0.2 else fp_alu
                else:
                    op = int_mul if draw() < 0.1 else int_alu
                dep = 0
                if latest_load >= 0 and draw() < dep_density:
                    distance = idx - latest_load
                    if distance < 500:
                        dep = distance
                elif idx:
                    dep = randint(1, 4)
                pc = phase_pc + (idx >> 3) * 132 % code_footprint + (idx & 7) * 4
                append((op, pc, 0, dep, 0))

        image.writes += n_stores
        return trace, image

    # -- helpers -------------------------------------------------------------

    def _phase_plan(
        self, n_instructions: int
    ) -> Tuple[List[int], List[List[float]]]:
        """Resolve the phase schedule into boundaries and engine weights."""
        spec = self.spec
        base = [mix.weight for mix in spec.patterns]
        if not spec.phases:
            return [n_instructions], [base]
        bounds: List[int] = []
        weights: List[List[float]] = []
        acc = 0.0
        for fraction, multipliers in spec.phases:
            acc += fraction
            bounds.append(min(n_instructions, int(acc * n_instructions)))
            weights.append([b * m for b, m in zip(base, multipliers)])
        bounds[-1] = n_instructions
        return bounds, weights
