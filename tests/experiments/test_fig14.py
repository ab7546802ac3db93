"""Fig. 14: the scaled resolution path must cut messages without
changing any result set."""

import pytest

from repro import perf
from repro.experiments.fig14 import (
    FULL_WORKLOAD_RESOLUTIONS,
    format_fig14,
    run_fig14_point,
    run_fig14_sampled_point,
    run_revalidation_point,
)


@pytest.fixture(scope="module")
def small_pair():
    base = run_fig14_point(16, optimized=False)
    opt = run_fig14_point(16, optimized=True)
    return base, opt


class TestFig14Point:
    def test_optimizations_preserve_result_sets(self, small_pair):
        base, opt = small_pair
        assert base.resolutions == opt.resolutions > 0
        assert base.result_digest == opt.result_digest

    def test_optimizations_cut_messages(self, small_pair):
        base, opt = small_pair
        assert opt.messages_per_resolution < base.messages_per_resolution
        assert opt.digest_stats["singleflight_joined"] > 0
        assert opt.digest_stats["group_hits"] > 0
        assert opt.digest_stats["negative_hits"] > 0

    def test_tier_attribution_matches_baseline(self, small_pair):
        base, opt = small_pair
        assert base.tiers == opt.tiers

    def test_format_reports_ratio_and_equality(self, small_pair):
        text = format_fig14(list(small_pair))
        assert "results ==" in text
        assert "16" in text

    @pytest.mark.slow
    def test_128_sites_meets_3x_reduction(self):
        """The acceptance bar: >=3x fewer messages at 128 sites."""
        base = run_fig14_point(128, optimized=False)
        opt = run_fig14_point(128, optimized=True)
        assert base.result_digest == opt.result_digest
        ratio = base.messages_per_resolution / opt.messages_per_resolution
        assert ratio >= 3.0


class TestSampledBaseline:
    """The 4,096-site broadcast baseline runs a reduced workload and
    extrapolates (see EXPERIMENTS.md deviations); the bookkeeping must
    stay honest about what was measured vs scaled."""

    def test_sampled_point_extrapolates_exactly(self):
        point = run_fig14_sampled_point(16)
        assert point.sampled
        assert point.resolutions == FULL_WORKLOAD_RESOLUTIONS
        # 18 measured resolutions scale to the 126-resolution workload
        assert point.extrapolation_factor == FULL_WORKLOAD_RESOLUTIONS / 18
        measured = point.workload_messages / point.extrapolation_factor
        # per-resolution cost is direct measurement, never extrapolated
        assert point.messages_per_resolution == pytest.approx(
            measured / 18)

    def test_sampled_estimate_tracks_exact_measurement(self):
        sampled = run_fig14_sampled_point(16)
        exact = run_fig14_point(16, optimized=False)
        ratio = (sampled.messages_per_resolution
                 / exact.messages_per_resolution)
        assert 0.8 <= ratio <= 1.2

    def test_format_marks_sampled_series(self):
        base = run_fig14_sampled_point(16)
        opt = run_fig14_point(16, optimized=True)
        text = format_fig14([base, opt])
        assert "(sampled)" in text
        assert "n/a, sampled" in text
        assert "results ==" not in text


class TestRevalidationPoint:
    def test_batching_cheaper_per_cycle(self):
        point = run_revalidation_point()
        assert point.cached_entries > point.distinct_sources
        assert point.batched_messages < point.per_entry_messages


class TestResolutionHarness:
    def test_fingerprint_is_deterministic(self):
        assert (perf.resolution_suite()["fingerprint"]
                == perf.resolution_suite()["fingerprint"])

    def test_baseline_roundtrip_and_drift_detection(self):
        suite = perf.resolution_suite(quick=True)
        assert perf.compare_to_baseline("resolution", suite, suite) == []
        tampered = {
            "results": {"resolution": {"details": dict(
                suite["results"]["resolution"]["details"],
                optimized_messages_per_resolution=1.0,
            )}},
            "fingerprint": dict(suite["fingerprint"],
                                optimized_result_digest="deadbeef"),
        }
        failures = perf.compare_to_baseline("resolution", suite, tampered)
        assert len(failures) == 2
        assert any("MaxRise" in f for f in failures)
        assert any("Match fingerprint.optimized_result_digest" in f
                   for f in failures)

    def test_committed_baseline_matches(self):
        """BENCH_resolution.json stays in lockstep with the code."""
        import json
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "BENCH_resolution.json")
        with open(path) as handle:
            baseline = json.load(handle)
        suite = perf.resolution_suite()
        assert perf.compare_to_baseline("resolution", suite, baseline) == []
