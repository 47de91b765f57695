"""Experiment F1 — Figure 1: the decoupled-simulator organization taxonomy.

Figure 1 is a diagram, not a measurement; its executable reproduction is
that all five organizations (integrated, functional-first,
timing-directed, timing-first, speculative functional-first) run against
interfaces synthesized from ONE specification, produce architecturally
identical results, and exhibit their characteristic properties (trace
consumption, step control, mismatch checking, rollback recovery).
"""

from repro.harness import render_table
from repro.isa.base import get_bundle
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.timing import (
    FunctionalFirstSimulator,
    IntegratedSimulator,
    SpeculativeFunctionalFirstSimulator,
    TimingDirectedSimulator,
    TimingFirstSimulator,
)
from repro.workloads import SUITE, assemble_kernel

from conftest import generator

ISA = "alpha"
KERNEL = SUITE["checksum"]
N = 1500


def _image():
    return assemble_kernel(ISA, KERNEL, N)


def _handler():
    return OSEmulator(get_bundle(ISA).abi)


def _run_all():
    bundle = get_bundle(ISA)
    expected = KERNEL.reference(N) & 0xFFFFFFFF
    image = _image()
    reports = []

    integrated = IntegratedSimulator(generator(ISA, "one_all"), _handler())
    load_image(integrated.state, image, bundle.abi)
    reports.append((integrated.run(10_000_000), integrated.state, "one_all"))

    ff = FunctionalFirstSimulator(
        generator(ISA, "block_decode"), syscall_handler=_handler()
    )
    load_image(ff.state, image, bundle.abi)
    reports.append((ff.run(10_000_000), ff.state, "block_decode"))

    td = TimingDirectedSimulator(generator(ISA, "step_all"), _handler())
    load_image(td.state, image, bundle.abi)
    reports.append((td.run(10_000_000), td.state, "step_all"))

    tf = TimingFirstSimulator(
        generator(ISA, "one_all"), generator(ISA, "one_min"), _handler,
        inject_bug_every=700,
    )
    tf.load(lambda st: load_image(st, image, bundle.abi))
    reports.append((tf.run(10_000_000), tf.checker_sim.state, "one_all+one_min"))

    sff = SpeculativeFunctionalFirstSimulator(
        generator(ISA, "one_decode_spec"),
        syscall_handler=_handler(),
        diverge_every=89,
        diverge_depth=3,
    )
    load_image(sff.state, image, bundle.abi)
    reports.append((sff.run(10_000_000), sff.state, "one_decode_spec"))

    return reports, expected, image


def test_fig1_all_organizations(benchmark, publish, publish_json):
    reports, expected, image = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    publish_json(
        "F1",
        {
            "experiment": "fig1_organizations",
            "kernel": "checksum",
            "organizations": {
                report.organization: {
                    "interface": interface,
                    "instructions": report.instructions,
                    "cycles": report.cycles,
                    "mismatches": report.mismatches,
                    "rollbacks": report.rollbacks,
                }
                for report, _, interface in reports
            },
        },
    )
    rows = []
    for report, state, interface in reports:
        value = state.mem.read_u32(image.symbol("result"))
        rows.append(
            [
                report.organization,
                interface,
                report.instructions,
                report.cycles,
                round(report.ipc, 3) if report.cycles else "-",
                report.mismatches,
                report.rollbacks,
                "ok" if value == expected else "WRONG",
            ]
        )
        assert value == expected, f"{report.organization} diverged"
    publish(
        "fig1_organizations",
        render_table(
            "Figure 1 (executable analogue): one specification driving "
            "every simulator organization",
            ["Organization", "Interface used", "Instr", "Cycles", "IPC",
             "Mismatch", "Rollback", "Arch state"],
            rows,
        ),
    )
    by_org = {report.organization: report for report, _, _ in reports}
    # Each organization shows its characteristic behaviour:
    assert by_org["timing-first"].mismatches > 0  # injected bugs caught
    assert by_org["speculative-functional-first"].rollbacks > 0
    assert by_org["timing-directed"].cpi > by_org["functional-first"].cpi
    # ...and the organizations sharing the in-order cycle model agree on
    # it: functional-first also accounts the exit instruction (its fetch
    # costs 1, 9 or 69 cycles), and every timing-first mismatch adds one
    # 10-cycle pipeline flush to the integrated count.
    integrated = by_org["integrated"]
    ff = by_org["functional-first"]
    assert ff.instructions == integrated.instructions + 1
    assert 1 <= ff.cycles - integrated.cycles <= 69
    tf = by_org["timing-first"]
    assert tf.cycles == integrated.cycles + 10 * tf.mismatches
