"""The three workloads of the end-to-end simulator benchmark.

Each workload is a closed loop in one process: one simulator at a time,
no threads.  A *pass* runs every program of the workload once cold, on a
fresh simulator from load to guest exit, and then re-runs it warm from its
post-load snapshot on the same simulator.  Every pass does identical work,
so the counts a pass produces repeat exactly.

- ``block_kernels``: Alpha ``block_min`` over the nine suite kernels.  The
  translator does nearly all of the cold work; runtime dispatch, chaining
  and the translated units do all of the warm work.
- ``sampling``: Alpha :class:`SamplingSimulator` (``step_all`` detailed
  windows plus ``block_min`` fast-forward over one state).  Its bounded
  ``run()`` calls reach the translator's partial-unit path, which
  ``block_kernels`` never does.  sieve, strsearch, listsum, sort and
  matmul are left out: each alone costs several times the other four.
- ``spec_ff``: ARM :class:`SpeculativeFunctionalFirstSimulator` on
  ``one_decode_spec``.  It never calls the translator, so a translator
  change should leave it unchanged; it loads the per-instruction One
  path, the in-order pipeline model and the undo log.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field

from repro.isa.base import get_bundle
from repro.synth import synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.timing.sampling import SamplingSimulator
from repro.timing.spec_functional_first import SpeculativeFunctionalFirstSimulator
from repro.workloads import SUITE, kernel_names

#: no kernel comes near this; a program that reaches it did not exit
MAX_INSTRUCTIONS = 50_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    isa: str
    interfaces: tuple[str, ...]
    kernels: tuple[str, ...]
    #: kernel size is the larger of the kernel's test size and
    #: ``scale`` times its bench size, before the seed perturbs it
    scale: float
    #: guest instructions each warm window runs, at least one re-run
    warm_instructions: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("block_kernels", "alpha", ("block_min",),
                 tuple(kernel_names()), 0.0, 400_000),
        Workload("sampling", "alpha", ("step_all", "block_min"),
                 ("bitcount", "checksum", "fib", "memcopy"), 0.1, 1),
        Workload("spec_ff", "arm", ("one_decode_spec",),
                 tuple(kernel_names()), 0.25, 1),
    )
}


def kernel_sizes(workload: Workload, seed: int) -> dict[str, int]:
    """Each kernel's size ``n`` for one seed.

    The seed adds up to 2% to the base size, so every seed gives new
    inputs while the work per pass stays nearly the same.  listsum keeps
    ``gcd(n, 7) == 1``, which its reference model assumes.
    """
    sizes = {}
    for kernel in workload.kernels:
        spec = SUITE[kernel]
        base = max(spec.test_n, round(spec.bench_n * workload.scale))
        rng = random.Random(f"{workload.name}:{kernel}:{seed}")
        n = base + rng.randrange(base // 50 + 1)
        if kernel == "listsum":
            while math.gcd(n, 7) != 1:
                n += 1
        sizes[kernel] = n
    return sizes


@dataclass
class Program:
    kernel: str
    n: int
    image: object
    #: the value the kernel's reference model gives for ``n``
    expected: int


@dataclass
class Setup:
    workload: Workload
    abi: object
    generated: dict
    programs: list[Program]
    seconds: float

    def options(self) -> dict:
        return {name: asdict(g.plan.options) for name, g in self.generated.items()}


def _plain(name, fn, amount=None):
    return fn


def setup(workload: Workload, seed: int, tracer=None) -> Setup:
    """Load the spec, synthesize each interface, assemble and load programs.

    The timed part is what a user pays before the first run call; call it
    in a fresh process, since the loaded spec is cached per process.
    """
    wrap = tracer.wrap if tracer is not None else _plain
    sizes = kernel_sizes(workload, seed)
    sources = {
        kernel: SUITE[kernel].build(n).emit(workload.isa)
        for kernel, n in sizes.items()
    }
    expected = {
        kernel: SUITE[kernel].reference(n) & 0xFFFFFFFF
        for kernel, n in sizes.items()
    }
    bundle = get_bundle(workload.isa)
    start = time.perf_counter()
    spec = wrap("adl.load_spec", bundle.load_spec)()
    generated = {
        name: wrap("synth.synthesize", synthesize)(spec, name)
        for name in workload.interfaces
    }
    programs = []
    for kernel, source in sources.items():
        image = wrap("isa.assemble", bundle.make_assembler().assemble)(
            source, origin=0x1000
        )
        # A program is loaded into a fresh simulator before each cold run;
        # this first load is the one setup pays for.
        sim = generated[workload.interfaces[-1]].make()
        wrap("sysemu.load_image", load_image)(sim.state, image, bundle.abi)
        programs.append(Program(kernel, sizes[kernel], image, expected[kernel]))
    seconds = time.perf_counter() - start
    return Setup(workload, bundle.abi, generated, programs, seconds)


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of one workload; run in a fresh worker process."""
    return setup(WORKLOADS[name], seed).seconds


@dataclass
class ProgramRun:
    """One program's cold run and warm re-runs."""

    cold_s: float
    #: guest instructions per host second of each warm re-run
    warm_rates: list[float]
    #: program runs attempted and failed (cold run plus warm re-runs)
    attempted: int
    failed: int
    #: simulated counts of the cold run; they repeat exactly across passes
    counts: dict = field(default_factory=dict)


def _result(state, program: Program) -> int:
    return state.mem.read_u32(program.image.symbol("result"))


def _warm_reps(workload: Workload, executed: int) -> int:
    return max(1, -(-workload.warm_instructions // max(executed, 1)))


def _run_block(env: Setup, program: Program, tracer) -> ProgramRun:
    sim = env.generated["block_min"].make(syscall_handler=OSEmulator(env.abi))
    load_image(sim.state, program.image, env.abi)
    snapshot = sim.state.snapshot()
    start = time.perf_counter()
    cold = sim.run(MAX_INSTRUCTIONS)
    cold_s = time.perf_counter() - start
    bad = int(not cold.exited or _result(sim.state, program) != program.expected)
    reps = _warm_reps(env.workload, cold.executed)
    rates = []
    for _ in range(reps):
        sim.state.restore(snapshot)
        start = time.perf_counter()
        warm = sim.run(MAX_INSTRUCTIONS)
        rates.append(warm.executed / (time.perf_counter() - start))
        bad += int(
            not warm.exited
            or warm.executed != cold.executed
            or _result(sim.state, program) != program.expected
        )
    if tracer is not None:
        tracer.add("runtime.chain_links", sim._translator.cache_stats.chain_links)
    return ProgramRun(cold_s, rates, 1 + reps, bad, {"instructions": cold.executed})


def _run_sampling(env: Setup, program: Program, tracer) -> ProgramRun:
    sampler = SamplingSimulator(
        env.generated["step_all"], env.generated["block_min"],
        syscall_handler=OSEmulator(env.abi),
    )
    load_image(sampler.state, program.image, env.abi)
    snapshot = sampler.state.snapshot()
    if tracer is not None:
        sampler.fast.run = tracer.wrap(
            "timing.fastforward", sampler.fast.run, lambda r: r.executed
        )
    start = time.perf_counter()
    cold = sampler.run(MAX_INSTRUCTIONS)
    cold_s = time.perf_counter() - start
    detailed = sampler.detailed
    counts = {
        "instructions": cold.instructions,
        "detailed_instructions": cold.detailed_instructions,
        "cycles": detailed.cycles,
        "sampled_cycles": cold.sampled_cycles,
        "icache_misses": detailed.icache.stats.misses,
        "dcache_misses": detailed.dcache.stats.misses,
        "branch_mispredicts": detailed.mispredicts,
    }
    bad = int(cold.exit_status is None
              or _result(sampler.state, program) != program.expected)
    reps = _warm_reps(env.workload, cold.instructions)
    rates = []
    for _ in range(reps):
        sampler.state.restore(snapshot)
        start = time.perf_counter()
        warm = sampler.run(MAX_INSTRUCTIONS)
        rates.append(warm.instructions / (time.perf_counter() - start))
        bad += int(
            warm.exit_status is None
            or warm.instructions != cold.instructions
            or _result(sampler.state, program) != program.expected
        )
    if tracer is not None:
        tracer.add(
            "runtime.chain_links", sampler.fast._translator.cache_stats.chain_links
        )
    return ProgramRun(cold_s, rates, 1 + reps, bad, counts)


def _run_spec_ff(env: Setup, program: Program, tracer) -> ProgramRun:
    sff = SpeculativeFunctionalFirstSimulator(
        env.generated["one_decode_spec"],
        syscall_handler=OSEmulator(env.abi),
        window=16,
        diverge_every=89,
        diverge_depth=3,
    )
    load_image(sff.state, program.image, env.abi)
    snapshot = sff.state.snapshot()
    if tracer is not None:
        sff.sim.do_in_one = tracer.wrap("codegen.one", sff.sim.do_in_one)
    start = time.perf_counter()
    cold = sff.run(MAX_INSTRUCTIONS)
    cold_s = time.perf_counter() - start
    executed = _guest_instructions(sff)
    counts = {
        "instructions": executed,
        "cycles": cold.cycles,
        "icache_misses": cold.icache_misses,
        "dcache_misses": cold.dcache_misses,
        "branch_mispredicts": cold.branch_mispredicts,
        "rollbacks": cold.rollbacks,
    }
    bad = int(cold.exit_status is None
              or _result(sff.state, program) != program.expected)
    reps = _warm_reps(env.workload, executed)
    rates = []
    for _ in range(reps):
        before = _guest_instructions(sff)
        sff.state.restore(snapshot)
        start = time.perf_counter()
        warm = sff.run(MAX_INSTRUCTIONS)
        seconds = time.perf_counter() - start
        ran = _guest_instructions(sff) - before
        rates.append(ran / seconds)
        bad += int(
            warm.exit_status is None
            or ran != executed
            or _result(sff.state, program) != program.expected
        )
    return ProgramRun(cold_s, rates, 1 + reps, bad, counts)


def _guest_instructions(sff) -> int:
    # The simulator's counters are cumulative, and its pipeline model
    # consumes an instruction again when it is re-executed after a
    # rollback; the guest ran the difference.
    return sff.timing.instructions - sff.rolled_back_instructions


RUNNERS = {
    "block_kernels": _run_block,
    "sampling": _run_sampling,
    "spec_ff": _run_spec_ff,
}


def run_program(env: Setup, program: Program, tracer=None) -> ProgramRun:
    return RUNNERS[env.workload.name](env, program, tracer)
