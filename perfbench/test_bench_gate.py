"""The correctness gate behind ``failed_share``, and BENCHMARK.json against
the metrics the benchmark reports."""

import copy
import json
from pathlib import Path

import pytest

import layers
import workloads
from povmlab import harness

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("seed", workloads.REFERENCE_SEEDS)
def test_default_passes_its_reference(seed):
    report = workloads.run_iteration("default", seed)
    out = workloads.check("default", report,
                          workloads.load_reference("default", seed))
    assert out.failures == []
    assert out.executed == len(report["cases"])
    assert out.attempted == len(report["cases"]) + len(harness.REQUIRED_ANCHORS)


def test_anchor_covered_only_by_skips_fails():
    # at d=48 the guard beta*d <= 20 skips every thermal-L case, yet the
    # report itself passes; the gate must not accept that as coverage
    report = harness.run_suite(harness.SuiteConfig(suite="all", d=48))
    assert report["summary"]["failed"] == 0
    out = workloads.check_verify(report, workloads.verdicts(report))
    assert out.failures == ["anchor 'Thm thermal-L' has no executed case"]


def test_tampered_verdict_fails():
    seed = workloads.REFERENCE_SEEDS[0]
    report = workloads.run_iteration("default", seed)
    reference = workloads.load_reference("default", seed)

    tampered = copy.deepcopy(reference)
    tampered[3][2] = not tampered[3][2]
    assert len(workloads.check_verify(report, tampered).failures) == 1

    report["cases"][5]["pass"] = False
    assert len(workloads.check_verify(report, reference).failures) == 1

    del report["cases"][-1]
    assert len(workloads.check_verify(report, reference).failures) == 2


def test_raising_iteration_fails_every_check():
    reference = workloads.load_reference("default", 7)
    out = workloads.check("default", RuntimeError("boom"), reference)
    assert len(out.failures) == out.attempted > len(reference)
    study_ref = workloads.load_reference("study", 7)
    out = workloads.check("study", ValueError("boom"), study_ref)
    kinds = len(harness.STUDY_KINDS)
    assert len(out.failures) == out.attempted \
        == (len(workloads.STUDY_SIZES) + 1) * kinds


def _as_result(reference):
    return {kind: {"kind": kind, "monotone": s["monotone"],
                   "rows": [{"size": n, "error": e} for n, e in s["rows"]]}
            for kind, s in reference.items()}


def test_study_rows_and_flags_are_gated():
    reference = workloads.load_reference("study", 7)
    # recorded as the code reports it: the weyl-wrap rows from 512 on sit
    # at the rounding floor and are not monotone
    assert reference["weyl-wrap"]["monotone"] == "non-monotone"
    result = _as_result(reference)
    assert workloads.check_study(result, reference).failures == []

    moved = copy.deepcopy(result)
    moved["covariance-interp"]["rows"][2]["error"] *= 1.001
    assert len(workloads.check_study(moved, reference).failures) == 1

    flipped = copy.deepcopy(result)
    flipped["weyl-wrap"]["monotone"] = "decreasing"
    assert len(workloads.check_study(flipped, reference).failures) == 1

    floor = copy.deepcopy(result)
    floor["weyl-wrap"]["rows"][3]["error"] += 1e-13
    assert workloads.check_study(floor, reference).failures == []


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.metric_units()
