"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The smoke runs shrink every input and run in-process, so the pinned
digests, which belong to the default seed at full and at timing size,
are not checked there; one test runs each workload at both sizes on
the default seed instead.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import ledger  # noqa: E402
import run as bench  # noqa: E402
from repro.wsrf.xmldoc import parse_xml  # noqa: E402
from workloads import WORKLOADS, run_rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = 0.1


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _smoke(name: str, trace: int) -> dict:
    run = bench.Run(WORKLOADS[name], 3, SMOKE_SCALE)
    units = bench._per_layer_units() if trace else bench.END_TO_END
    metrics = (bench.trace if trace else bench.measure)(run, 0)
    return json.loads(json.dumps(bench.report(name, run, metrics, units)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    result = _smoke(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["requests_per_ref_s"]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_trace_reports_every_per_layer_metric(name):
    result = _smoke(name, trace=1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench._per_layer_units())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_digest(name):
    workload = WORKLOADS[name]
    first = run_rep(workload, workload.inputs(5, SMOKE_SCALE)).outcome
    again = run_rep(workload, workload.inputs(5, SMOKE_SCALE)).outcome
    other = run_rep(workload, workload.inputs(6, SMOKE_SCALE)).outcome
    assert first.problems == [] and again.problems == [] and other.problems == []
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_observability_leaves_the_outcome_digest_alone():
    inputs = WORKLOADS["overload_open"].inputs(7, SMOKE_SCALE)
    plain = run_rep(WORKLOADS["overload_open"], inputs).outcome
    observed = run_rep(WORKLOADS["overload_obs"], inputs).outcome
    assert plain.digest == observed.digest
    assert plain.shed > 0  # the point is overloaded even at smoke size
    pinned = json.loads((HERE / "pinned.json").read_text())["digests"]
    assert pinned["overload_open"] == pinned["overload_obs"]


def test_pinned_digests_match_the_default_seed_at_full_and_timing_size():
    pinned = json.loads((HERE / "pinned.json").read_text())
    for name, workload in WORKLOADS.items():
        if name == "overload_obs":
            continue  # shares overload_open's inputs and digest (checked above)
        for scale, digests in ((1.0, "digests"), (workload.TIMING_SCALE, "timing_digests")):
            out = run_rep(workload, workload.inputs(pinned["default_seed"], scale)).outcome
            assert out.problems == []
            assert out.digest == pinned[digests][name], (name, scale)
    assert pinned["timing_digests"]["overload_open"] == pinned["timing_digests"]["overload_obs"]


def test_host_factor_is_the_reference_loop_over_its_quiet_time(monkeypatch):
    assert hostspeed.reference_loop() > 0
    monkeypatch.setattr(hostspeed, "reference_loop", lambda: 3 * hostspeed.REFERENCE_S)
    assert hostspeed.host_factor() == pytest.approx(3.0)


def test_percentile_is_exact_and_needs_ten_samples_beyond():
    values = np.arange(1, 1001, dtype=float)
    assert bench.percentile(values, 0.5) == (500.0, 500)
    assert bench.percentile(values, 0.99) == (990.0, 10)
    assert bench.percentile(values[:999], 0.99) == (None, 9)


def test_ledger_charges_foreign_time_to_its_caller_or_the_harness():
    xml = "<root>" + "<item a='1'>x</item>" * 2000 + "</root>"
    profile = cProfile.Profile()
    profile.runcall(parse_xml, xml)
    profile.runcall(sorted, list(range(200_000, 0, -1)))
    buckets = ledger.own_time_by_layer(profile, ROOT / "src" / "repro", HERE)
    assert set(buckets) == set(ledger.BUCKETS)
    assert buckets["wsrf"] > 0  # the stdlib parser parse_xml called
    assert buckets["harness"] > 0  # sorted() had no program caller
    assert buckets["other"] == 0


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "overload_open", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
