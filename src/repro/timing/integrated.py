"""Integrated organization (paper §II-A).

"The integrated organization uses only a single simulator which
intermingles the functional and timing aspects ... and thus does not have
a separate functional simulator nor an interface."  We model it as one
loop that executes each instruction through a One-detail simulator and
hands it straight to the shared :class:`InOrderPipelineModel` — the
baseline row of the Figure 1 demonstration and the timing side of
timing-first.  Because the cycle model is the one functional-first uses,
the two organizations agree to the cycle on every program; they differ
only in the exit instruction, which functional-first's trace includes.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.pipeline import InOrderPipelineModel, TimingReport


class IntegratedSimulator:
    """Functional execution and cycle accounting intermingled in one loop."""

    def __init__(self, generated: GeneratedSimulator, syscall_handler=None,
                 obs=None):
        if generated.plan.buildset.semantic_detail != "one":
            raise ValueError("integrated baseline uses a One-detail build")
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = generated.make(syscall_handler=syscall_handler, obs=self.obs)
        self.timing = InOrderPipelineModel(generated.spec)

    @property
    def state(self):
        return self.sim.state

    def step_instruction(self) -> None:
        """Execute one instruction and account its cycles."""
        sim = self.sim
        di = sim.di
        sim.do_in_one(di)
        self.timing.consume(
            di.pc, di.instr_bits, di.next_pc, getattr(di, "effective_addr", None)
        )

    def run(self, max_instructions: int) -> TimingReport:
        report = TimingReport("integrated")
        timing = self.timing
        try:
            while timing.instructions < max_instructions:
                self.step_instruction()
        except ExitProgram as exc:
            report.exit_status = exc.status
        if self.obs.enabled:
            record_timing_stats(self.obs, "integrated", timing)
        return timing.fill_report(report)
