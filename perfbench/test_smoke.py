"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is reported for each
workload, untraced and traced, on a few cheap cases, and that one seed
always generates the same cases.
"""

import json
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# A few cheap cases per workload, including a known-defect one where the
# workload has a cheap one.
SMOKE_CASES = {
    "catalog-verify": ("default-00-harmonic", "defect-1-hyperbolic-v1"),
    "sector-build": ("periodic-v1-n20", "hyperbolic-v1-n20"),
    "general-numeric": ("set0-n2", "finite-u-n2"),
}


def test_one_seed_generates_the_same_cases():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        assert first == workloads.generate(name, 7)
        assert first != workloads.generate(name, 8)
        assert len({c.case_id for c in first}) == len(first)
        assert workloads.RERUN_CASE[name] in {c.case_id for c in first}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER_UNITS


def test_every_named_metric_appears_for_each_workload():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    for name in workloads.WORKLOADS:
        cases = [c for c in workloads.generate(name, 1)
                 if c.case_id in SMOKE_CASES[name]]
        plain = run.run_workload(name, 1, 0.0, False, cases=cases)
        values, samples = run.end_to_end(plain, [0.5])
        assert set(values) == e2e and set(samples) == e2e
        traced = run.run_workload(name, 1, 0.0, True, cases=cases)
        values, per_case = run.per_layer(traced)
        assert set(values) == layer
        assert len(per_case) == len(traced["records"])
        assert not any(r["unexpected"] for r in plain["records"])
        assert not any(r["unexpected"] for r in traced["records"])
