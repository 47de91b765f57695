"""Shared in-order pipeline timing mathematics and reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.timing.branch import BimodalPredictor
from repro.timing.cache import Cache
from repro.timing.classify import (
    BRANCH,
    LOAD,
    MUL,
    STORE,
    InstructionClassifier,
)


@dataclass
class TimingReport:
    """Summary of one timing-simulation run."""

    organization: str
    instructions: int = 0
    cycles: int = 0
    branch_mispredicts: int = 0
    icache_misses: int = 0
    dcache_misses: int = 0
    mismatches: int = 0  # timing-first checker corrections
    rollbacks: int = 0  # speculative functional-first recoveries
    rolled_back_instructions: int = 0
    exit_status: int | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


def default_caches() -> tuple[Cache, Cache]:
    l2 = Cache("L2", size=256 * 1024, line=64, assoc=8, hit_latency=8,
               miss_penalty=60)
    icache = Cache("I1", size=8 * 1024, line=32, assoc=2, hit_latency=1,
                   next_level=l2)
    dcache = Cache("D1", size=8 * 1024, line=32, assoc=2, hit_latency=1,
                   next_level=l2)
    return icache, dcache


class InOrderPipelineModel:
    """Scalar in-order pipeline: 1 CPI plus memory/branch/multiply stalls.

    The one cycle model of the integrated, functional-first, timing-first
    and speculative functional-first organizations.  It consumes
    per-instruction information at the paper's "Decode" informational
    level: pc, instruction bits, next pc and effective address.
    """

    def __init__(
        self,
        spec,
        icache: Cache | None = None,
        dcache: Cache | None = None,
        predictor: BimodalPredictor | None = None,
        mispredict_penalty: int = 6,
        mul_latency: int = 4,
    ) -> None:
        if icache is None or dcache is None:
            icache, dcache = default_caches()
        self.classifier = InstructionClassifier(spec)
        self.ilen = spec.ilen
        self.icache = icache
        self.dcache = dcache
        self.predictor = predictor or BimodalPredictor()
        self.mispredict_penalty = mispredict_penalty
        self.mul_latency = mul_latency
        self.cycles = 0
        self.instructions = 0
        self.mispredicts = 0

    def consume(
        self,
        pc: int,
        instr_bits: int,
        next_pc: int,
        effective_addr: int | None,
    ) -> None:
        """Account one committed instruction.

        Branch direction is ``next_pc != pc + ilen``: ``next_pc`` is the
        one field every interface exposes, and every instruction writes
        it, so it never carries a previous instruction's value.
        """
        kind = self.classifier.kind(instr_bits)
        cycles = self.icache.access(pc)  # fetch
        if kind in (LOAD, STORE) and effective_addr is not None:
            cycles += self.dcache.access(effective_addr, kind == STORE)
        elif kind == MUL:
            cycles += self.mul_latency
        if kind == BRANCH:
            if not self.predictor.update(pc, next_pc != pc + self.ilen):
                cycles += self.mispredict_penalty
                self.mispredicts += 1
        self.cycles += cycles
        self.instructions += 1

    def fill_report(self, report: TimingReport) -> TimingReport:
        report.instructions = self.instructions
        report.cycles = self.cycles
        report.branch_mispredicts = self.mispredicts
        report.icache_misses = self.icache.stats.misses
        report.dcache_misses = self.dcache.stats.misses
        return report
