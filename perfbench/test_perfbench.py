"""The benchmark's own tests, on CI-sized inputs.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import harness
import workloads
from ledger import LAYERS, Ledger
from workloads import TenantsCycle, Workload

#: Per-layer metrics that count work rather than time it: two traced runs
#: with the same seed must report them exactly equal.
COUNT_UNITS = ("count", "bytes", "modeled_s")


def _small_workloads():
    return [
        Workload("test-prim",
                 workloads._prim(("NW", "TRNS", "SpMV", "VA"), "test"),
                 steady_passes=2),
        Workload("test-tenants",
                 lambda seed: TenantsCycle(seed, n_elements=1 << 14),
                 steady_passes=4),
    ]


def _counts(samples) -> dict:
    return {name: value
            for name, (value, unit) in harness.per_layer(samples).items()
            if unit in COUNT_UNITS}


def test_traced_runs_repeat_every_count_exactly():
    for workload in _small_workloads():
        first = harness.run(workload, 3, 0, trace=True)
        second = harness.run(workload, 3, 0, trace=True)
        assert first.failed == second.failed == 0, first.failures
        counts = _counts(first)
        assert counts == _counts(second), workload.name
        assert counts["virt.plans.lookups"] > 0
        assert counts["observability.spans.calls"] > 0
        metrics = harness.per_layer(first)
        assert metrics["unattributed.share"][0] <= harness.MAX_UNATTRIBUTED
        if workload.name == "test-tenants":
            assert counts["paging.evictions"] > 0
            assert counts["virt.transfer_cache.suppressed_bytes"] > 0
            assert counts["qos.calls"] > 0


def test_ledger_restores_every_patched_attribute():
    ledger = Ledger()
    cycle = _small_workloads()[0].build(0)
    for layer, owner, attr in cycle.traced_methods():
        ledger.add(layer, owner, attr)
    targets = [(owner, attr) for _, owner, attr in ledger.targets]
    assert len(targets) >= sum(len(attrs) for sites in LAYERS.values()
                               for _, _, attrs in sites)
    missing = object()
    before = [vars(owner).get(attr, missing) for owner, attr in targets]
    with ledger:
        during = [vars(owner).get(attr, missing) for owner, attr in targets]
        assert all(a is not b for a, b in zip(before, during))
    after = [vars(owner).get(attr, missing) for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


def test_changed_modeled_output_fails_the_session():
    workload = _small_workloads()[0]
    checker = harness.Checker(workload, 5)
    samples = harness.RunSamples()
    harness.run_cycle(workload, 5, checker, samples)
    assert samples.failed == 0
    key = (1, 0)
    checker.expected[key] = checker.expected[key].replace("total=", "total=-")
    harness.run_cycle(workload, 5, checker, samples)
    assert samples.failed == 1
    assert "differ from the reference" in samples.failures[0]


def test_recorded_references_cover_both_seeds():
    for name, workload in workloads.WORKLOADS.items():
        for seed in (harness.DEFAULT_SEED, harness.HELD_OUT_SEED):
            ref = harness.load_reference(name, seed)
            assert ref is not None, (name, seed)
            assert len(ref["passes"]) == 1 + workload.steady_passes


def test_benchmark_json_names_every_metric_the_runs_print():
    import json

    import run

    bench = json.loads((harness.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    workload = _small_workloads()[1]
    samples = harness.run(workload, 3, 0, trace=True)
    e2e = {k: u for k, (_, u, _) in harness.end_to_end(samples).items()
           if k != "error_rate"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == e2e
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: u for k, (_, u) in harness.per_layer(samples).items()}
