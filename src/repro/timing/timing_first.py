"""Timing-first organization (paper §II-D).

"The timing simulator performs functional behaviour which is then checked
by the functional simulator; when there is a mismatch, the timing
simulator's pipeline is flushed and its architectural state is reloaded
from the functional simulator."

The timing side here is an :class:`IntegratedSimulator` (it executes
instructions itself and accounts them through the shared in-order cycle
model); the checker is a One/Min functional simulator running one
instruction behind.  A mismatch flushes the pipeline, which adds a fixed
penalty to the timing side's cycles, so a run costs exactly the
integrated cycles plus ``FLUSH_PENALTY`` per mismatch.  A fault-injection
hook lets tests demonstrate the organization's selling point: timing-model
functional bugs surface as counted, recoverable mismatches rather than
silent corruption.
"""

from __future__ import annotations

from repro.arch.faults import ExitProgram
from repro.obs.events import TIMING_MISMATCH
from repro.obs.probe import NULL_OBS
from repro.obs.report import record_timing_stats
from repro.prof.spans import TIMING, bind_spans
from repro.synth.synthesizer import GeneratedSimulator
from repro.timing.integrated import IntegratedSimulator
from repro.timing.pipeline import TimingReport

#: Cycles charged for the pipeline flush that follows a mismatch.
FLUSH_PENALTY = 10


class TimingFirstSimulator:
    """Integrated timing model checked by a decoupled functional model."""

    def __init__(
        self,
        timing_generated: GeneratedSimulator,
        checker_generated: GeneratedSimulator,
        syscall_handler_factory,
        inject_bug_every: int | None = None,
        obs=None,
    ) -> None:
        # Two independent simulators with independent OS emulators: the
        # paper's organization keeps completely separate state and
        # resynchronizes on mismatch.
        self.obs = obs if obs is not None else NULL_OBS
        self.integrated = IntegratedSimulator(
            timing_generated, syscall_handler_factory(), obs=self.obs
        )
        self.checker_sim = checker_generated.make(
            syscall_handler=syscall_handler_factory()
        )
        self.inject_bug_every = inject_bug_every
        self.mismatches = 0
        bind_spans(self, self.obs.prof, {"run": TIMING})

    @property
    def state(self):
        return self.integrated.state

    def load(self, loader) -> None:
        """Apply a loader callable to both simulators' states."""
        loader(self.integrated.state)
        loader(self.checker_sim.state)

    def step_instruction(self) -> None:
        integrated = self.integrated
        integrated.step_instruction()
        state = integrated.state
        checker = self.checker_sim
        instructions = integrated.timing.instructions
        if self.inject_bug_every and instructions % self.inject_bug_every == 0:
            # Deliberate timing-model functional bug (paper: "bugs can be
            # tolerated"): corrupt a register before the check runs.
            regfile = next(iter(state.rf.values()))
            regfile[5] ^= 0x1000
        # The checker executes the same instruction on its own state...
        checker.do_in_one(checker.di)
        # ...and the timing model's architectural state is validated
        # against it ("the timing model directly queries architectural
        # state in the functional model").
        if (
            state.pc != checker.state.pc
            or state.rf != checker.state.rf
            or state.sr != checker.state.sr
        ):
            self.mismatches += 1
            if self.obs.enabled:
                self.obs.counters.inc("timing_first.mismatches")
                self.obs.events.emit(
                    TIMING_MISMATCH,
                    pc=state.pc,
                    instruction=instructions,
                )
            # Pipeline flush + state reload from the functional model.
            state.copy_architectural_state_from(checker.state)
            integrated.timing.cycles += FLUSH_PENALTY

    def run(self, max_instructions: int) -> TimingReport:
        report = TimingReport("timing-first")
        timing = self.integrated.timing
        try:
            while timing.instructions < max_instructions:
                self.step_instruction()
        except ExitProgram as exc:
            report.exit_status = exc.status
        report.mismatches = self.mismatches
        if self.obs.enabled:
            record_timing_stats(self.obs, "timing_first", timing)
        return timing.fill_report(report)
