"""The gate table of the wall-clock harness.

Pins the seeded kernel-trace fingerprint and the end-to-end simulated
experiment outputs against ``BENCH_kernel.json`` and a hard-coded copy
of the trace hash, and checks the table itself: every check row fires
on exactly the corruption it guards against, and every gate fails
closed when a measurement is missing.  The committed fingerprints of all eight
suites are compared in ``tests/property/test_orchestration_baseline.py``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro import perf

REPO_ROOT = Path(__file__).resolve().parents[1]

#: hard-coded second copy of the trace pin so a regenerated baseline
#: file cannot silently ratify a behaviour change
KERNEL_TRACE_SHA = "608a9146715772e560498dcaf8ac5d94dbba4f9c21b1022034e9d4eb3f27645b"


def _committed(name):
    with (REPO_ROOT / perf.SUITES[name].baseline).open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def baseline():
    return _committed("kernel")


class TestDeterminismGate:
    def test_kernel_trace_matches_committed_baseline(self, baseline):
        current = perf.kernel_trace_fingerprint()
        assert current == baseline["determinism"]["kernel_trace"]

    def test_kernel_trace_matches_hardcoded_pin(self):
        current = perf.kernel_trace_fingerprint()
        assert current["sha256"] == KERNEL_TRACE_SHA
        assert current["events"] == 266
        assert current["final_time"] == "100.0"

    def test_experiment_outputs_match_committed_baseline(self, baseline):
        current = perf.experiment_fingerprint()
        expected = baseline["determinism"]["experiment"]
        # compare key-by-key so a drift names the quantity that moved
        assert set(current) == set(expected)
        for key in expected:
            assert current[key] == expected[key], f"drift in {key}"


class TestBaselineFile:
    def test_baseline_has_required_rates(self, baseline):
        for name in ("kernel", "rpc", "fig10_registry", "fig10_index"):
            result = baseline["results"][name]
            assert result["value"] > 0
            assert result["wall_seconds"] > 0
            assert result["work_units"] > 0
        assert baseline["peak_rss_kb"] > 0

    def test_compare_to_baseline_accepts_itself(self, baseline):
        assert perf.compare_to_baseline("kernel", baseline, baseline) == []

    def test_compare_to_baseline_flags_regression(self, baseline):
        slow = copy.deepcopy(baseline)
        slow["results"]["kernel"]["value"] = baseline["results"]["kernel"]["value"] / 3
        failures = perf.compare_to_baseline("kernel", slow, baseline)
        assert len(failures) == 1
        assert "results.kernel.value" in failures[0]

    def test_small_jitter_within_tolerance(self, baseline):
        jittered = copy.deepcopy(baseline)
        for name in ("kernel", "rpc"):
            jittered["results"][name]["value"] *= 0.9
        assert perf.compare_to_baseline("kernel", jittered, baseline) == []

    def test_mismatched_jobs_refuses_rate_comparison(self, baseline):
        fanned = copy.deepcopy(baseline)
        fanned["jobs"] = 4
        fanned["results"]["kernel"]["value"] /= 3
        failures = perf.compare_to_baseline("kernel", fanned, baseline)
        assert len(failures) == 1
        assert "SameJobs" in failures[0]


def _set(doc, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        doc = doc[part]
    doc[leaf] = value


def _violation(check, value):
    """A value at ``check.path`` that trips ``check`` and nothing else.

    Checks that compare against the baseline get the corrupted value in
    the baseline only; the rest get it in the run *and* the baseline,
    so the row's :class:`perf.Match` twin (if any) still agrees.
    """
    if isinstance(check, perf.MaxDrop):
        return value * 10
    if isinstance(check, perf.MaxRise):
        return value / 10 if value else -1
    if isinstance(check, perf.MaxIncrease):
        return value - 2 * check.bound
    if isinstance(check, perf.SameJobs):
        return value + 1
    if isinstance(check, perf.Floor):
        return check.bound * 0.99
    if isinstance(check, perf.Ceiling):
        return check.bound + 1
    if isinstance(check, perf.Relation) and check.op == "<":
        return 1e9
    if isinstance(check, perf.Relation) and check.op == ">=":
        return "0"
    if isinstance(check, perf.Expect) and isinstance(check.value, bool):
        return not check.value
    return "corrupted"


_BASELINE_SIDE = (perf.Match, perf.MaxDrop, perf.MaxRise, perf.MaxIncrease,
                  perf.SameJobs)

CHECK_ROWS = [
    pytest.param(name, index, id=f"{name}:{check.label.replace(' ', '_')}")
    for name, row in perf.SUITES.items()
    for index, check in enumerate(row.checks)
]


@pytest.mark.parametrize("name", list(perf.SUITES))
def test_committed_baseline_passes_its_own_gate(name):
    committed = _committed(name)
    assert perf.compare_to_baseline(name, committed, committed) == []


@pytest.mark.parametrize("name,index", CHECK_ROWS)
def test_corrupted_key_trips_exactly_its_row(name, index):
    check = perf.SUITES[name].checks[index]
    run, base = _committed(name), _committed(name)
    bad = _violation(check, perf.lookup(base, check.path, "baseline"))
    _set(base, check.path, bad)
    if not isinstance(check, _BASELINE_SIDE):
        _set(run, check.path, bad)
    failures = perf.compare_to_baseline(name, run, base)
    assert len(failures) == 1, failures
    assert f"{name}: {check.label}:" in failures[0]


@pytest.mark.parametrize("name", list(perf.SUITES))
def test_missing_results_fail_closed(name):
    """A run that measured nothing must not pass any gate."""
    committed = _committed(name)
    section = "determinism" if name == "kernel" else "fingerprint"
    empty = {"results": {}, section: committed[section]}
    failures = perf.compare_to_baseline(name, empty, committed)
    assert failures
    assert all("missing measurement" in f for f in failures)


@pytest.mark.parametrize("name", list(perf.SUITES))
def test_missing_baseline_key_fails_closed(name):
    committed = _committed(name)
    failures = perf.compare_to_baseline(name, committed, {})
    assert failures
    assert all("missing measurement: baseline" in f for f in failures)
