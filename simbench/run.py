"""End-to-end benchmark of the synthesized simulators.

Run from the repository root::

    python3 simbench/run.py --workload block_kernels --seed 1 --seconds 40 --trace 0

``--workload`` is one of ``block_kernels``, ``sampling`` and ``spec_ff``
(see ``workloads.py``).  The seed sets each kernel's size; every program's
stored result is checked against its kernel's reference model.  The run
repeats passes over the workload for about ``--seconds`` seconds.

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
several set-ups, each in a fresh process), cold run time (host seconds in
the run calls, summed over programs), warm speed (geometric mean over
programs of guest MIPS when re-run from the post-load snapshot on the
simulator that already ran the program) and peak resident memory.  With ``--trace 1`` it alternates untraced and traced passes
and prints the per-layer metrics from spans the benchmark records around
each layer's entry points (``tracing.py``).  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, Setup, run_program, setup, setup_seconds  # noqa: E402

#: set-ups per untraced run; the first is the run's own
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "warm_mips": "MIPS",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "adl.load_spec_s": "s",
    "synth.synthesize_s": "s",
    "synth.synthesize_calls": "count",
    "isa.assemble_s": "s",
    "sysemu.load_image_s": "s",
    "translator.units": "count",
    "translator.unit_instrs": "count",
    "translator.s": "s",
    "translator.ms_per_unit": "ms",
    "translator.partial_units": "count",
    "translator.partial_s": "s",
    "translator.partial_frac": "ratio",
    "runtime.run_calls": "count",
    "runtime.guest_instrs": "count",
    "runtime.self_s": "s",
    "runtime.chain_links": "count",
    "codegen.one_calls": "count",
    "codegen.one_s": "s",
    "timing.detailed_instrs": "count",
    "timing.detailed_s": "s",
    "timing.fastforward_instrs": "count",
    "timing.fastforward_s": "s",
    "timing.consume_calls": "count",
    "timing.consume_s": "s",
    "arch.commit_calls": "count",
    "arch.commit_s": "s",
    "arch.rollback_calls": "count",
    "arch.rolled_back_instrs": "count",
    "arch.rollback_frac": "ratio",
    "timing.cycles": "count",
    "timing.sampled_cycles": "count",
    "timing.icache_misses": "count",
    "timing.dcache_misses": "count",
    "timing.branch_mispredicts": "count",
    "trace_overhead": "ratio",
}


@dataclass
class Measurement:
    """Every pass of one run: per pass, whether traced and each program's run."""

    passes: list = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    attempted: int = 0
    failed: int = 0

    def runs(self, traced: bool) -> list:
        return [runs for was_traced, runs in self.passes if was_traced == traced]


def measure(env: Setup, seconds: float, trace: bool) -> Measurement:
    """Run passes over the programs until ``seconds`` is up.

    An untraced run makes at least one pass, then stops before the first
    program that would end after ``seconds`` if it took its first-pass
    time, so its last pass may be cut short: every program gets as many
    runs as fit.  A traced run alternates untraced and traced whole passes
    and makes at least one of each.
    """
    result = Measurement(tracer=tracing.Tracer() if trace else None)
    first_counts, costs = None, []
    start = time.perf_counter()
    while True:
        traced = trace and len(result.passes) % 2 == 1
        gc.collect()
        runs = []
        with tracing.installed(result.tracer) if traced else contextlib.nullcontext():
            for i, program in enumerate(env.programs):
                late = result.passes and time.perf_counter() - start + costs[i] > seconds
                if late and not trace:
                    break
                began = time.perf_counter()
                runs.append(run_program(env, program, result.tracer if traced else None))
                if not result.passes:
                    costs.append(time.perf_counter() - began)
        counts = [run.counts for run in runs]
        first_counts = first_counts or counts
        for run, expected in zip(runs, first_counts):
            result.attempted += run.attempted
            # Simulated counts of one seed must repeat exactly across passes.
            result.failed += run.failed + int(run.counts != expected)
        if runs:
            result.passes.append((traced, runs))
        if not trace:
            if len(runs) < len(env.programs):
                return result
        elif len(result.passes) >= 2:
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(result.passes)) > seconds:
                return result


def _per_program(passes: list) -> list:
    """Each program's runs over ``passes``, of which the last may be cut short."""
    return [[runs[i] for runs in passes if i < len(runs)] for i in range(len(passes[0]))]


def _cold_seconds(passes: list) -> float:
    """Summed over programs, each program's fastest cold run in ``passes``.

    The fastest, not the median: on a shared 2-vCPU VM the same pass took
    up to 1.8x longer in slow spells lasting tens of seconds, and
    interference only ever adds time.  Over groups of twelve spec_ff
    passes there, per-group medians spread 0.20 (quartile distance over
    median) and per-group minima 0.10.
    """
    return sum(min(r.cold_s for r in runs) for runs in _per_program(passes))


def end_to_end(env: Setup, result: Measurement, setups: list[float]) -> dict:
    passes = result.runs(traced=False)
    # Per program, the fastest warm re-run of any pass, as for run_s.
    warm_rates = [
        max(rate for run in runs for rate in run.warm_rates)
        for runs in _per_program(passes)
    ]
    return {
        "setup_s": statistics.median(setups),
        "run_s": _cold_seconds(passes),
        "warm_mips": math.exp(statistics.fmean(map(math.log, warm_rates))) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(setup_tracer: tracing.Tracer, result: Measurement) -> dict:
    """Per-layer metrics, per traced pass; set-up spans are from one set-up."""
    tracer = result.tracer
    traced = result.runs(traced=True)
    n = len(traced)
    calls = {k: v / n for k, v in tracer.calls.items()}
    total = {k: v / n for k, v in tracer.total.items()}
    amount = {k: v / n for k, v in tracer.amount.items()}
    units = calls.get("translator.translate", 0)
    partial = calls.get("translator.partial", 0)
    translations = units + partial
    translate_s = total.get("translator.translate", 0.0) + total.get(
        "translator.partial", 0.0
    )
    one_calls = calls.get("codegen.one", 0)
    rolled_back = amount.get("arch.rollback", 0)
    simulated = {}
    for run in traced[0]:
        for key, value in run.counts.items():
            simulated[key] = simulated.get(key, 0) + value
    return {
        "adl.load_spec_s": setup_tracer.total["adl.load_spec"],
        "synth.synthesize_s": setup_tracer.total["synth.synthesize"],
        "synth.synthesize_calls": setup_tracer.calls["synth.synthesize"],
        "isa.assemble_s": setup_tracer.total["isa.assemble"],
        "sysemu.load_image_s": setup_tracer.total["sysemu.load_image"],
        "translator.units": units,
        "translator.unit_instrs": amount.get("translator.translate", 0),
        "translator.s": translate_s,
        "translator.ms_per_unit": 1e3 * translate_s / translations if translations else 0.0,
        "translator.partial_units": partial,
        "translator.partial_s": total.get("translator.partial", 0.0),
        "translator.partial_frac": partial / translations if translations else 0.0,
        "runtime.run_calls": calls.get("runtime.run", 0),
        "runtime.guest_instrs": amount.get("runtime.run", 0),
        "runtime.self_s": tracer.self_s.get("runtime.run", 0.0) / n,
        "runtime.chain_links": amount.get("runtime.chain_links", 0),
        "codegen.one_calls": one_calls,
        "codegen.one_s": total.get("codegen.one", 0.0),
        "timing.detailed_instrs": calls.get("timing.detailed", 0),
        "timing.detailed_s": total.get("timing.detailed", 0.0),
        "timing.fastforward_instrs": amount.get("timing.fastforward", 0),
        "timing.fastforward_s": total.get("timing.fastforward", 0.0),
        "timing.consume_calls": calls.get("timing.consume", 0),
        "timing.consume_s": total.get("timing.consume", 0.0),
        "arch.commit_calls": calls.get("arch.commit", 0),
        "arch.commit_s": total.get("arch.commit", 0.0),
        "arch.rollback_calls": calls.get("arch.rollback", 0),
        "arch.rolled_back_instrs": rolled_back,
        "arch.rollback_frac": rolled_back / one_calls if one_calls else 0.0,
        "timing.cycles": simulated.get("cycles", 0),
        "timing.sampled_cycles": simulated.get("sampled_cycles", 0),
        "timing.icache_misses": simulated.get("icache_misses", 0),
        "timing.dcache_misses": simulated.get("dcache_misses", 0),
        "timing.branch_mispredicts": simulated.get("branch_mispredicts", 0),
        "trace_overhead": _cold_seconds(traced)
        / _cold_seconds(result.runs(traced=False)),
    }


def fresh_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times, each measured in a new process that has ended on return."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
    ]
    return [
        float(subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=120
        ).stdout.split()[-1])
        for _ in range(count)
    ]


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(env: Setup, args, result: Measurement) -> dict:
    return {
        "workload": env.workload.name,
        "isa": env.workload.isa,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(result.passes),
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_sizes": {p.kernel: p.n for p in env.programs},
        "synth_options": env.options(),
    }


def report(metrics: dict, units: dict, result: Measurement) -> dict:
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: print one set-up time and exit (see ``fresh_setups``).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(setup_seconds(args.workload, args.seed))
        return 0
    workload = WORKLOADS[args.workload]
    setup_tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    env = setup(workload, args.seed, setup_tracer)
    setups = [env.seconds]
    if not args.trace:
        setups += fresh_setups(workload.name, args.seed, SETUP_RUNS - 1)
    # The set-ups count against the run's time, so a run lasts --seconds.
    result = measure(env, args.seconds - (time.perf_counter() - start), bool(args.trace))
    if args.trace:
        metrics, units = per_layer(setup_tracer, result), PER_LAYER
    else:
        metrics, units = end_to_end(env, result, setups), END_TO_END
    for name, unit in units.items():
        print(f"{name:28} {metrics[name]:>14.6g} {unit}")
    print(f"{'fail_frac':28} {result.failed / result.attempted:>14.6g} ratio"
          f"  ({result.failed} of {result.attempted} program runs)")
    print(json.dumps({"meta": metadata(env, args, result)}))
    print(json.dumps(report(metrics, units, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
