"""Table III: costs of detail in host operations per simulated instruction.

The paper counts host instructions; our host is the CPython VM, so the
unit is executed Python bytecode operations.  :func:`counted_run` counts
them with a tracer around ``sim.run``: every opcode executed in generated
code (the synthesized module's functions and the translator's units,
compiled under ``<synth …>`` / ``<block …>`` names) is charged, plus every
opcode of the :class:`~repro.arch.memory.Memory` ``read``/``write``
primitives that code calls.  Nothing inside the simulator is built
differently for counting: the counted module is the one Table II times.
Translation itself is not charged; like the paper's binary-translation
cost it amortizes away over a long run.

The table's derived rows match the paper's: a base cost (One/Min/No) and
incremental costs of decode information, full information, block-call
batching (negative: block interfaces are cheaper), multiple calls per
instruction, and speculation support.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

from repro.arch.memory import Memory
from repro.isa.base import get_bundle
from repro.synth import SynthOptions, synthesize
from repro.sysemu.loader import load_image
from repro.sysemu.syscalls import OSEmulator
from repro.workloads import SUITE, assemble_kernel

PROFILE_KERNELS = ("checksum", "sieve", "memcopy")

#: ``co_filename`` prefixes of generated code (synthesizer, translator).
_GENERATED = ("<synth ", "<block ")
#: The memory primitives generated code calls; charged like its own code.
_MEMORY_CODES = (Memory.read.__code__, Memory.write.__code__)


def counted_run(sim, max_instructions: int):
    """``sim.run(max_instructions)``, also counting the host ops it executes.

    Returns ``(RunResult, host ops)``.  Any tracer already installed (a
    debugger's, coverage's) is suspended for the run and restored after it.
    """
    ops = 0

    def count(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return count

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in _MEMORY_CODES or (
            code.co_filename.startswith(_GENERATED) and code.co_name != "<module>"
        ):
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return count
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = sim.run(max_instructions)
    finally:
        sys.settrace(previous)
    return result, ops


def hostops_per_instruction(
    isa: str,
    buildset: str,
    kernels=PROFILE_KERNELS,
    scale: float = 1.0,
    options: SynthOptions | None = None,
) -> float:
    """Mean host ops per simulated instruction over the given kernels."""
    bundle = get_bundle(isa)
    generated = synthesize(bundle.load_spec(), buildset, options)
    total_ops = 0
    total_instructions = 0
    for name in kernels:
        spec = SUITE[name]
        n = max(2, int(spec.test_n * scale))
        if name == "listsum":
            while math.gcd(n, 7) != 1:
                n += 1
        image = assemble_kernel(isa, spec, n)
        os_emu = OSEmulator(bundle.abi)
        sim = generated.make(syscall_handler=os_emu)
        load_image(sim.state, image, bundle.abi)
        result, ops = counted_run(sim, 50_000_000)
        if not result.exited:
            raise RuntimeError(f"{isa}/{name}: did not finish")
        total_ops += ops
        total_instructions += result.executed
    return total_ops / total_instructions


@dataclass
class CostsOfDetail:
    """One column of Table III."""

    isa: str
    base: float  # One/Min/No
    incr_decode_info: float
    incr_full_info: float
    incr_block_call: float  # negative: batching wins
    incr_multiple_calls: float
    incr_speculation: float

    @classmethod
    def measure(cls, isa: str, kernels=PROFILE_KERNELS, scale: float = 1.0):
        cost = {
            name: hostops_per_instruction(isa, name, kernels, scale)
            for name in (
                "one_min",
                "one_decode",
                "one_all",
                "one_all_spec",
                "block_min",
                "step_all",
            )
        }
        return cls(
            isa=isa,
            base=cost["one_min"],
            incr_decode_info=cost["one_decode"] - cost["one_min"],
            incr_full_info=cost["one_all"] - cost["one_min"],
            incr_block_call=cost["block_min"] - cost["one_min"],
            incr_multiple_calls=cost["step_all"] - cost["one_all"],
            incr_speculation=cost["one_all_spec"] - cost["one_all"],
        )


def table3(isas=("alpha", "arm", "ppc"), scale: float | None = None):
    if scale is None:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return [CostsOfDetail.measure(isa, scale=scale) for isa in isas]
