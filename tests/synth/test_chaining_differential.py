"""Differential on-vs-off equivalence for superblocks + chaining.

Every Block buildset of every shipping ISA runs a kernel with the
optimizations on (the defaults) and off (``chain=False, superblock=0``)
and must land in the same architectural state: same registers, special
registers, memory, exit status and executed-instruction count.  The
program counter is deliberately excluded — translated units only
materialize ``state.pc`` on exits that need it, so its staleness
differs by design between unit shapes.
"""

import pytest

from repro.isa.base import get_bundle
from repro.obs import make_observability
from repro.synth import SynthOptions, synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel

OFF = SynthOptions(chain=False, superblock=0)

ISAS = ("alpha", "arm", "ppc", "sparc")

#: checksum touches memory, loops, and calls; small n keeps this fast
KERNEL, N = "checksum", 6


def block_buildsets(spec):
    return sorted(
        name
        for name, bs in spec.buildsets.items()
        if bs.semantic_detail == "block"
    )


def run_blocks(isa, bundle, spec, buildset, options):
    generated = synthesize(spec, buildset, options)
    image = assemble_kernel(isa, SUITE[KERNEL], N)
    sim = generated.make(syscall_handler=OSEmulator(bundle.abi))
    load_image(sim.state, image, bundle.abi)
    result = sim.run(50_000_000)
    assert result.exited, f"{isa}/{buildset}: did not finish"
    return sim, result


@pytest.mark.parametrize("isa", ISAS)
def test_on_off_equivalence_all_block_buildsets(isa):
    bundle = get_bundle(isa)
    spec = bundle.load_spec()
    names = block_buildsets(spec)
    assert names, f"{isa} defines no block buildsets"
    for buildset in names:
        sim_on, res_on = run_blocks(isa, bundle, spec, buildset, None)
        sim_off, res_off = run_blocks(isa, bundle, spec, buildset, OFF)
        context = f"{isa}/{buildset}"
        assert res_on.exit_status == res_off.exit_status, context
        assert res_on.executed == res_off.executed, context
        assert sim_on.state.rf == sim_off.state.rf, context
        assert sim_on.state.sr == sim_off.state.sr, context
        snap_on = sim_on.state.mem.snapshot()
        snap_off = sim_off.state.mem.snapshot()
        assert snap_on == snap_off, f"{context}: memory diverged"



#: kernel for the sliced run: a bit-twiddling loop long enough to chain
SLICED_KERNEL, SLICED_N = "bitcount", 10

#: instructions per bounded ``run()`` slice; shorter than the kernel's
#: unrolled loop unit, so slices end inside units (the partial-unit path)
SLICE = 60


def run_sliced(generated, bundle, obs):
    """Run the kernel in ``SLICE``-instruction ``run()`` calls to its exit.

    Returns the simulator, every slice's :class:`RunResult` and the
    number of partial units (cut short by a slice's budget) translated.
    """
    image = assemble_kernel("alpha", SUITE[SLICED_KERNEL], SLICED_N)
    sim = generated.make(syscall_handler=OSEmulator(bundle.abi, obs=obs), obs=obs)
    load_image(sim.state, image, bundle.abi)
    translate = sim._translator._translate
    partial = []

    def spy(sim, pc, limit=None):
        if limit is not None:
            partial.append(pc)
        return translate(sim, pc, limit)

    sim._translator._translate = spy
    results = []
    while not (results and results[-1].exited):
        results.append(sim.run(SLICE))
    return sim, results, len(partial)


def test_dispatch_loops_agree_on_sliced_run_with_eviction():
    """The plain and the instrumented dispatch loops compute the same run.

    The instrumented loop serves both observed and profiled instances;
    a two-unit cache forces eviction and chain unlinking under it.
    """
    bundle = get_bundle("alpha")
    spec = bundle.load_spec()
    plain = synthesize(spec, "block_min")
    bounded = synthesize(spec, "block_min", SynthOptions(cache_limit=2))
    runs = {
        "off": run_sliced(plain, bundle, make_observability(enabled=False)),
        "observed": run_sliced(bounded, bundle, make_observability()),
        "profiled": run_sliced(
            bounded, bundle, make_observability(profile=True)
        ),
    }
    off, off_results, off_partial = runs["off"]
    assert "do_block" not in off.__dict__
    assert off_partial > 0 and len(off_results) > 1
    for label, (sim, results, partial) in runs.items():
        assert results == off_results, label
        assert partial == off_partial, label
        assert sim.state.pc == off.state.pc, label
        assert sim.state.rf == off.state.rf, label
        assert sim.state.sr == off.state.sr, label
        assert sim.state.mem.snapshot() == off.state.mem.snapshot(), label
    observed = runs["observed"][0]._translator.cache_stats
    profiled = runs["profiled"][0]._translator.cache_stats
    assert observed.evictions > 0 and observed.chain_unlinks > 0
    assert observed.chained > 0
    assert observed.as_dict() == profiled.as_dict()
