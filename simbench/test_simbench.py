"""Tiny-size smoke tests of the benchmark.

Run from the repository root with ``python -m pytest simbench -q``.
Each workload is cut down to one small kernel (checksum) and one pass.
"""

import dataclasses
import json

import pytest

import run
from workloads import WORKLOADS, ProgramRun, kernel_sizes, setup

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name):
    return dataclasses.replace(
        WORKLOADS[name], kernels=("checksum",), scale=0.0, warm_instructions=1
    )


def _measure(name, trace, wrong=False):
    tracer = run.tracing.Tracer() if trace else None
    env = setup(_tiny(name), seed=3, tracer=tracer)
    if wrong:
        env.programs[0].expected ^= 1
    result = run.measure(env, seconds=0, trace=trace)
    if trace:
        return result, run.report(run.per_layer(tracer, result), run.PER_LAYER, result)
    metrics = run.end_to_end(env, result, [env.seconds])
    return result, run.report(metrics, run.END_TO_END, result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, out = _measure(name, trace)
    listed = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert len(result.passes) == (2 if trace else 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_wrong_result_is_counted_as_failed(name):
    _, out = _measure(name, trace=0, wrong=True)
    # The cold run and its one warm re-run both store the wrong result.
    assert out["failed"] == 2 and not out["correct"]


def test_traced_pass_splits_the_work_by_layer():
    _, block = _measure("block_kernels", trace=1)
    _, sampling = _measure("sampling", trace=1)
    _, spec_ff = _measure("spec_ff", trace=1)
    assert block["metrics"]["translator.units"]["value"] > 0
    assert block["metrics"]["translator.partial_units"]["value"] == 0
    assert sampling["metrics"]["translator.partial_units"]["value"] > 0
    assert spec_ff["metrics"]["translator.units"]["value"] == 0
    assert spec_ff["metrics"]["arch.rollback_calls"]["value"] > 0


def test_a_cut_last_pass_keeps_every_program():
    def ran(cold_s, rate):
        return ProgramRun(cold_s, [rate], attempted=2, failed=0)

    passes = [[ran(3.0, 1.0), ran(5.0, 2.0)], [ran(2.0, 4.0)]]
    assert run._cold_seconds(passes) == 2.0 + 5.0
    assert [[r.cold_s for r in runs] for runs in run._per_program(passes)] == [
        [3.0, 2.0], [5.0],
    ]


def test_seed_sets_kernel_sizes():
    workload = WORKLOADS["spec_ff"]
    assert kernel_sizes(workload, 1) == kernel_sizes(workload, 1)
    sizes = [kernel_sizes(workload, seed) for seed in range(20)]
    assert len({s["checksum"] for s in sizes}) > 1
    assert all(s["listsum"] % 7 for s in sizes)
