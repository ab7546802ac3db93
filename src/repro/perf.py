"""Wall-clock performance harness: eight fixed-seed suites, one gate table.

The paper's evaluation (Figs. 10-13, Table 1) and the fig14-19
extensions ride on the DES inner loop, so speed work on the simulator
must be measured *and* proven not to change any simulated result.
Each suite below runs fixed-seed workloads and returns one dict:

* ``results`` — per-benchmark wall seconds, CPU seconds, peak RSS and
  a headline rate, plus ``details`` (mostly simulated figures);
* ``fingerprint`` (``determinism`` for the kernel suite) — digests and
  counts of simulated behaviour that must stay byte-identical.

:data:`SUITES` is the one list of gates.  Each row names a suite, its
committed ``BENCH_<name>.json`` baseline, the ``run(quick)`` callable
that produces the suite dict, and the typed checks that gate it:
:class:`Floor`, :class:`Ceiling`, :class:`MaxDrop` / :class:`MaxRise`
(ratio against the baseline), :class:`MaxIncrease` (additive rise
against the baseline), :class:`Match` (exact equality with the
baseline), :class:`Expect` (a fixed value), :class:`Relation` (two
values of one run) and :class:`SameJobs` (the kernel suite refuses to
compare rates recorded under a different ``--jobs``).  A check whose
input is missing from the run or from the baseline fails.

``benchmarks/bench_wallclock.py`` is the CLI over the table::

    python benchmarks/bench_wallclock.py --quick --check-all [--jobs 4] [-o merged.json]
    python benchmarks/bench_wallclock.py --quick --check-baseline BENCH_faults.json
    python benchmarks/bench_wallclock.py -o BENCH_kernel.json   # record the kernel suite

Everything here uses only public simulator APIs, so the harness is
independent of kernel internals.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import resource as _resource
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.net.network import Network
from repro.net.service import EchoService
from repro.net.topology import Topology
from repro.runner import WorkUnit, run_units
from repro.simkernel import Simulator
from repro.simkernel.primitives import Resource, Store

#: strips CPython object addresses out of event reprs so traces can be
#: compared across processes (and across the timeout free list)
_ADDR_RE = re.compile(r"0x[0-9a-f]+")


# -- measurement helpers ---------------------------------------------------


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes."""
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def current_rss_kb() -> int:
    """Current (not peak) resident set size, in kilobytes.

    The memory-flatness gate needs before/after deltas around a single
    workload, which the process-lifetime high-water mark of
    :func:`peak_rss_kb` cannot provide.  Falls back to the peak figure
    on platforms without ``/proc``.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (_resource.getpagesize() // 1024)
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return peak_rss_kb()


def _timed(fn: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
    """Call ``fn``; return its value, wall seconds and CPU seconds."""
    start, cpu_start = time.perf_counter(), time.process_time()
    value = fn(*args, **kwargs)
    cpu = time.process_time() - cpu_start
    return value, time.perf_counter() - start, cpu


def bench_result(name: str, metric: str, work_units: int, wall: float,
                 cpu: float, details: Dict[str, Any],
                 value: Optional[float] = None) -> Dict[str, Any]:
    """One benchmark measurement as a ``results`` entry.

    The headline ``value`` defaults to work units per wall second.
    Beside it every benchmark records the CPU time its measured
    section consumed (wall/CPU divergence flags a loaded machine) and
    the process's peak RSS when it finished.  RSS is a process-lifetime
    high-water mark, so within one process later benchmarks inherit
    earlier peaks; under ``--jobs`` each unit runs in its own worker
    and the figure is its own.
    """
    return {
        "name": name,
        "metric": metric,
        "value": work_units / wall if value is None else value,
        "wall_seconds": wall,
        "work_units": work_units,
        "cpu_seconds": cpu,
        "peak_rss_kb": peak_rss_kb(),
        "details": details,
    }


def _suite(name: str, quick: bool, results: List[Dict[str, Any]],
           fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "suite": f"bench_{name}",
        "mode": "quick" if quick else "full",
        "results": {r["name"]: r for r in results},
        "fingerprint": fingerprint,
    }


# -- kernel suite (BENCH_kernel.json) --------------------------------------


def bench_kernel_events(
    n_procs: int = 64, events_per_proc: int = 4000, seed: int = 11
) -> Dict[str, Any]:
    """Pure event churn: ``n_procs`` processes yielding timeouts.

    The delays differ per process so the agenda stays genuinely
    interleaved (no degenerate single-timestamp batching).
    """
    sim = Simulator(seed=seed)

    def ticker(index: int) -> Generator:
        delay = 0.001 + (index % 7) * 0.0005
        timeout = sim.timeout
        for _ in range(events_per_proc):
            yield timeout(delay)

    for index in range(n_procs):
        sim.process(ticker(index), name=f"ticker-{index}")
    _, wall, cpu = _timed(sim.run)
    # per process: one init event, one timeout per tick, one
    # termination event for the Process itself
    events = n_procs * (events_per_proc + 2)
    return bench_result("kernel", "events_per_sec", events, wall, cpu, {
        "n_procs": n_procs, "events_per_proc": events_per_proc,
        "final_time": sim.now,
    })


def _echo_run(clients: int, horizon: float, seed: int,
              obs: Any = None) -> Tuple[int, float, float, Network]:
    """Closed-loop echo RPCs over a four-client star.

    Returns the completed RPCs, the wall and CPU seconds of the
    simulation run, and the network (for its byte counters).
    """
    sim = Simulator(seed=seed)
    client_sites = [f"c{i}" for i in range(4)]
    topo = Topology.star("server", client_sites, latency=0.004, bandwidth=12.5e6)
    net = Network(sim, topo, obs=obs)
    net.add_node("server", cores=2)
    for site in client_sites:
        net.add_node(site, cores=2)
    EchoService(net, "server", demand=0.0005)
    if obs is not None and obs.slo is not None:
        obs.slo.start()

    completed = [0]

    def client(index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        payload = f"ping-{index:03d}"
        while True:
            yield from net.call(site, "server", "echo", "echo", payload=payload)
            completed[0] += 1

    for index in range(clients):
        sim.process(client(index), name=f"echo-client-{index}")
    _, wall, cpu = _timed(sim.run, until=horizon)
    return completed[0], wall, cpu, net


def bench_rpc_roundtrips(
    clients: int = 8, horizon: float = 40.0, seed: int = 11
) -> Dict[str, Any]:
    """Closed-loop echo RPCs: the full marshalling + transport path."""
    completed, wall, cpu, net = _echo_run(clients, horizon, seed)
    return bench_result("rpc", "rpcs_per_sec", completed, wall, cpu, {
        "clients": clients, "sim_horizon": horizon,
        "sim_throughput": completed / horizon, "wire_bytes": net.total_bytes,
    })


def bench_fig10(mode: str, clients: int = 8, n_types: int = 30,
                seed: int = 3) -> Dict[str, Any]:
    """Scaled-down Fig. 10 point: ``registry`` (named hash-table
    lookups) or ``index`` (XPath over the aggregation)."""
    from repro.experiments.fig10 import run_fig10_point

    point, wall, cpu = _timed(run_fig10_point, mode, False, clients,
                              n_types=n_types, seed=seed)
    # simulated requests completed over the 25 s measured window
    requests = int(round(point.throughput * 25.0))
    return bench_result(f"fig10_{mode}", "sim_requests_per_wall_sec",
                        requests, wall, cpu, {
                            "sim_throughput_rps": point.throughput,
                            "mean_response_ms": point.mean_response_ms,
                        })


def _mixed_kernel_scenario(seed: int) -> Simulator:
    """A small scenario exercising every kernel feature with trace on.

    Timeouts, stores, resources, conditions, interrupts and process
    failure recovery all appear, so the trace fingerprint is sensitive
    to any change in event ordering anywhere in the kernel.
    """
    sim = Simulator(seed=seed, trace=True)
    store: Store = Store(sim, capacity=4)
    pool = Resource(sim, capacity=2)

    def producer(index: int) -> Generator:
        for item in range(20):
            yield store.put((index, item))
            yield sim.timeout(0.5 + 0.1 * index)

    def consumer() -> Generator:
        for _ in range(40):
            got = yield store.get()
            with (yield pool.request()):
                yield sim.timeout(0.25 + 0.01 * got[1])

    def racer() -> Generator:
        for round_no in range(10):
            fast = sim.timeout(0.3, value="fast")
            slow = sim.timeout(0.9, value="slow")
            yield sim.any_of([fast, slow])
            yield sim.all_of([slow])
            yield sim.timeout(0.1 * round_no)

    def victim() -> Generator:
        while True:
            try:
                yield sim.timeout(100.0)
            except Exception:
                yield sim.timeout(1.0)
                return "recovered"

    target = sim.process(victim(), name="victim")

    def attacker() -> Generator:
        yield sim.timeout(7.0)
        target.interrupt("now")

    sim.process(producer(0), name="producer-0")
    sim.process(producer(1), name="producer-1")
    sim.process(consumer(), name="consumer")
    sim.process(racer(), name="racer")
    sim.process(attacker(), name="attacker")
    sim.run()
    return sim


def kernel_trace_fingerprint(seed: int = 5) -> Dict[str, Any]:
    """Digest of the seeded kernel event trace (address-normalized)."""
    sim = _mixed_kernel_scenario(seed)
    normalized = "\n".join(
        f"{when:.9f} {_ADDR_RE.sub('0x0', label)}" for when, label in sim.trace_log
    )
    return {
        "seed": seed,
        "events": len(sim.trace_log),
        "final_time": repr(sim.now),
        "sha256": hashlib.sha256(normalized.encode()).hexdigest(),
    }


def experiment_fingerprint(seed: int = 3) -> Dict[str, Any]:
    """End-to-end simulated outputs that must survive any perf work.

    Combines a Fig. 10 registry point (throughput + response time — a
    function of every CPU charge and message size on the lookup path),
    a Fig. 10 index point (exercising the XPath engine, whose
    node-visit counts drive the MDS cost model), and the byte/message
    totals of a full provisioning scenario (the ``lookup``
    observability scenario: resolution, on-demand install, warm-cache
    hit).
    """
    from repro.experiments.fig10 import run_fig10_point
    from repro.obs.scenarios import run_scenario
    from repro.stats import collect_metrics

    point = run_fig10_point("registry", False, 4, n_types=12, seed=seed)
    index_point = run_fig10_point("index", False, 4, n_types=12, seed=seed)
    vo = run_scenario("lookup")
    metrics = collect_metrics(vo)
    return {
        "fig10_throughput": repr(point.throughput),
        "fig10_mean_response_ms": repr(point.mean_response_ms),
        "fig10_index_throughput": repr(index_point.throughput),
        "fig10_index_mean_response_ms": repr(index_point.mean_response_ms),
        "scenario_messages": metrics.total_messages,
        "scenario_wire_bytes": metrics.wire_bytes,
        "scenario_site_bytes_out": metrics.site_bytes_out,
        "scenario_taken_at": repr(metrics.taken_at),
    }


#: kernel-suite benchmark → (callable, quick kwargs, full kwargs), in run order
_KERNEL_BENCHES = {
    "kernel": (bench_kernel_events, {"n_procs": 32, "events_per_proc": 1500},
               {"n_procs": 64, "events_per_proc": 4000}),
    "rpc": (bench_rpc_roundtrips, {"clients": 4, "horizon": 15.0},
            {"clients": 8, "horizon": 40.0}),
    "fig10_registry": (partial(bench_fig10, "registry"),
                       {"clients": 4, "n_types": 20}, {"clients": 8, "n_types": 30}),
    "fig10_index": (partial(bench_fig10, "index"),
                    {"clients": 4, "n_types": 20}, {"clients": 8, "n_types": 30}),
}

#: the kernel suite's ``determinism`` sections
_KERNEL_FINGERPRINTS = {
    "kernel_trace": kernel_trace_fingerprint,
    "experiment": experiment_fingerprint,
}


def run_bench_unit(name: str, quick: bool = False) -> Dict[str, Any]:
    """One kernel-suite work unit, addressable by name.

    Module-level so :mod:`repro.runner` can ship it to a worker as a
    dotted path.  Every unit's seed is the fixed one baked into its
    benchmark — repeat batches *intentionally* re-run the identical
    workload (they measure wall clock, not new behaviour).
    """
    if name in _KERNEL_FINGERPRINTS:
        return _KERNEL_FINGERPRINTS[name]()
    fn, quick_kwargs, full_kwargs = _KERNEL_BENCHES[name]
    return fn(**(quick_kwargs if quick else full_kwargs))


def run_suite(quick: bool = False, repeats: int = 1,
              jobs: int = 1) -> Dict[str, Any]:
    """The kernel suite: keep the best (lowest-wall) of ``repeats``.

    Every (benchmark, repeat) batch and both determinism fingerprints
    are work units for :func:`repro.runner.run_units`, which runs them
    inline when ``jobs <= 1`` and fans them across worker processes
    otherwise.  Each worker measures its own RSS, so per-benchmark peak
    figures are genuinely per-benchmark.  The worker count lands in the
    suite metadata: wall-clock rates from an oversubscribed parallel
    run are not comparable to serial ones, and :class:`SameJobs`
    refuses to compare them.
    """
    repeats = max(1, repeats)
    units = [
        WorkUnit(f"{name}#r{i}", "repro.perf:run_bench_unit",
                 {"name": name, "quick": quick})
        for name in _KERNEL_BENCHES
        for i in range(repeats)
    ]
    units += [WorkUnit(name, "repro.perf:run_bench_unit", {"name": name})
              for name in _KERNEL_FINGERPRINTS]
    outputs = run_units(units, jobs=jobs)
    results = {
        name: min(outputs[index * repeats:(index + 1) * repeats],
                  key=lambda r: r["wall_seconds"])
        for index, name in enumerate(_KERNEL_BENCHES)
    }
    return {
        "suite": "bench_wallclock",
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "jobs": jobs,
        "results": results,
        "determinism": dict(zip(_KERNEL_FINGERPRINTS,
                                outputs[-len(_KERNEL_FINGERPRINTS):])),
        "peak_rss_kb": peak_rss_kb(),
    }


# -- resolution suite: the Fig. 14 pair (BENCH_resolution.json) ------------


def resolution_suite(quick: bool = False, n_sites: int = 16,
                     seed: int = 21) -> Dict[str, Any]:
    """Broadcast baseline vs scaled resolution path at one VO size.

    The headline rate is resolutions simulated per wall second (both
    series); the message counts and result-set digests are simulated,
    so they pin the resolution walk.  Both modes run the same sizes.
    """
    from repro.experiments.fig14 import run_fig14_point, run_revalidation_point

    (base, opt, reval), wall, cpu = _timed(lambda: (
        run_fig14_point(n_sites, optimized=False, seed=seed),
        run_fig14_point(n_sites, optimized=True, seed=seed),
        run_revalidation_point(),
    ))
    result = bench_result(
        "resolution", "sim_resolutions_per_wall_sec",
        base.resolutions + opt.resolutions, wall, cpu, {
            "n_sites": n_sites,
            "baseline_messages_per_resolution": base.messages_per_resolution,
            "optimized_messages_per_resolution": opt.messages_per_resolution,
            "message_ratio": (base.messages_per_resolution
                              / max(opt.messages_per_resolution, 1e-9)),
            "results_equal": base.result_digest == opt.result_digest,
            "revalidation_per_entry_messages": reval.per_entry_messages,
            "revalidation_batched_messages": reval.batched_messages,
        })
    return _suite("resolution", quick, [result], {
        "n_sites": n_sites,
        "seed": seed,
        "resolutions": base.resolutions,
        "baseline_workload_messages": base.workload_messages,
        "optimized_workload_messages": opt.workload_messages,
        "baseline_result_digest": base.result_digest,
        "optimized_result_digest": opt.result_digest,
    })


# -- provisioning suite: the Fig. 15 pair (BENCH_provisioning.json) --------


def provisioning_suite(quick: bool = False, n_sites: int = 16,
                       seed: int = 29) -> Dict[str, Any]:
    """Serial origin-only rollout vs parallel + replica-aware transfers.

    The headline rate is installations simulated per wall second (both
    series); rollout times, message and byte counts and the
    deployment-set digests are simulated, so they pin the pipeline.
    """
    from repro.experiments.fig15 import run_fig15_point

    (base, opt), wall, cpu = _timed(lambda: (
        run_fig15_point(n_sites, optimized=False, seed=seed),
        run_fig15_point(n_sites, optimized=True, seed=seed),
    ))
    result = bench_result(
        "provisioning", "sim_installs_per_wall_sec",
        base.installed + opt.installed, wall, cpu, {
            "n_sites": n_sites,
            "baseline_rollout_elapsed": base.rollout_elapsed,
            "optimized_rollout_elapsed": opt.rollout_elapsed,
            "rollout_speedup": (base.rollout_elapsed
                                / max(opt.rollout_elapsed, 1e-9)),
            "baseline_origin_bytes_out": base.origin_bytes_out,
            "optimized_origin_bytes_out": opt.origin_bytes_out,
            "replica_hits": opt.replica_hits,
            "results_equal": base.result_digest == opt.result_digest,
        })
    return _suite("provisioning", quick, [result], {
        "n_sites": n_sites,
        "seed": seed,
        "installed": base.installed,
        "baseline_rollout_elapsed": repr(base.rollout_elapsed),
        "optimized_rollout_elapsed": repr(opt.rollout_elapsed),
        "baseline_messages": base.messages,
        "optimized_messages": opt.messages,
        "baseline_origin_bytes_out": base.origin_bytes_out,
        "optimized_origin_bytes_out": opt.origin_bytes_out,
        "baseline_result_digest": base.result_digest,
        "optimized_result_digest": opt.result_digest,
    })


# -- faults suite: the Fig. 16 churn pair (BENCH_faults.json) --------------


def faults_suite(quick: bool = False, seed: int = 33) -> Dict[str, Any]:
    """Fragile vs resilient under super-peer churn.

    Runs the full experiment including its same-seed determinism
    double-run of the resilient point; the headline rate counts
    simulated client requests per wall second across all three runs.
    Success rates, takeover latencies and per-request outcome digests
    are simulated and deterministic.
    """
    from repro.experiments.fig16 import run_fig16

    (fragile, resilient), wall, cpu = _timed(run_fig16, seed=seed)
    # the determinism verification re-runs the resilient point
    requests = (fragile.resolutions + fragile.provisions
                + 2 * (resilient.resolutions + resilient.provisions))
    result = bench_result("faults", "sim_requests_per_wall_sec", requests,
                          wall, cpu, {
        "n_sites": resilient.n_sites,
        "crashes": resilient.crashes,
        "resilient_resolution_success": resilient.resolution_success_rate,
        "fragile_resolution_success": fragile.resolution_success_rate,
        "resilient_provision_success": resilient.provision_success_rate,
        "fragile_provision_success": fragile.provision_success_rate,
        "reelections": resilient.reelections,
        "fragile_reelections": fragile.reelections,
        "retries": resilient.retries,
        "mean_recovery_s": resilient.mean_recovery_s,
    })
    return _suite("faults", quick, [result], {
        "seed": seed,
        "crashes": resilient.crashes,
        "reelections": resilient.reelections,
        "fragile_reelections": fragile.reelections,
        "resilient_resolution_failures": resilient.resolution_failures,
        "fragile_resolution_failures": fragile.resolution_failures,
        "resilient_provision_failures": resilient.provision_failures,
        "fragile_provision_failures": fragile.provision_failures,
        "retries": resilient.retries,
        "recovery_times": [repr(t) for t in resilient.recovery_times],
        "fragile_result_digest": fragile.result_digest,
        "resilient_result_digest": resilient.result_digest,
    })


# -- obs suite: instrumentation overhead + SLO judgements (BENCH_obs.json) --


def _echo_tier(tier: str, clients: int, horizon: float, seed: int) -> Dict[str, Any]:
    """The echo workload at one observability tier.

    ``"off"`` is null observability (the production default), ``"obs"``
    adds the tracer and metrics interceptors, ``"slo"`` adds an
    availability objective over the echo endpoint so every RPC crosses
    the SLO interceptor and engine.  Seed and topology are identical
    across tiers, so rate deltas are pure instrumentation overhead.
    """
    from repro.obs import Observability
    from repro.obs.slo import SLOSpec

    obs = None
    if tier == "obs":
        obs = Observability(enabled=True, sample_interval=5.0)
    elif tier == "slo":
        obs = Observability(enabled=True, sample_interval=5.0, slos=(
            SLOSpec(name="echo-availability", endpoint="echo.*", target=0.999),))
    completed, wall, _, _ = _echo_run(clients, horizon, seed, obs=obs)
    return {"rpcs": completed, "wall_seconds": wall,
            "rpcs_per_wall_sec": completed / wall,
            "sim_throughput": completed / horizon}


def obs_suite(quick: bool = False, seed: int = 33) -> Dict[str, Any]:
    """Echo RPCs with obs off / on / on+SLOs, plus the health plane's
    judgements on the quick Fig. 16 SLO pair.

    Simulated throughput must be identical across tiers (observability
    charges no simulated time); only wall clock differs.  Alert counts,
    detection latencies (MTTD), repair times (MTTR), error-budget
    verdicts and request digests are simulated, so they pin the plane.
    """
    from repro.experiments.fig16 import run_fig16_slo

    clients, horizon = (4, 15.0) if quick else (8, 40.0)
    runs, _, cpu = _timed(lambda: {tier: _echo_tier(tier, clients, horizon, 11)
                                   for tier in ("off", "obs", "slo")})
    base_rate = runs["off"]["rpcs_per_wall_sec"]
    result = bench_result(
        "obs", "instrumented_rpcs_per_wall_sec",
        sum(r["rpcs"] for r in runs.values()),
        sum(r["wall_seconds"] for r in runs.values()), cpu, {
            "clients": clients,
            "sim_horizon": horizon,
            "null_rpcs_per_wall_sec": base_rate,
            "obs_rpcs_per_wall_sec": runs["obs"]["rpcs_per_wall_sec"],
            "slo_rpcs_per_wall_sec": runs["slo"]["rpcs_per_wall_sec"],
            "obs_overhead_frac": 1.0 - runs["obs"]["rpcs_per_wall_sec"] / base_rate,
            "slo_overhead_frac": 1.0 - runs["slo"]["rpcs_per_wall_sec"] / base_rate,
            "sim_throughput_equal": len(
                {r["sim_throughput"] for r in runs.values()}) == 1,
        }, value=runs["slo"]["rpcs_per_wall_sec"])

    fragile, resilient = run_fig16_slo(seed=seed, quick=True,
                                       verify_determinism=False)
    return _suite("obs", quick, [result], {
        "seed": seed,
        "crashes": resilient.crashes,
        "fragile_alerts_fired": fragile.alerts_fired,
        "resilient_alerts_fired": resilient.alerts_fired,
        "undetected_crashes": (fragile.undetected_crashes
                               + resilient.undetected_crashes),
        "fragile_detection_latencies": [repr(t) for t in
                                        fragile.detection_latencies],
        "resilient_detection_latencies": [repr(t) for t in
                                          resilient.detection_latencies],
        "fragile_repair_times": [repr(t) for t in fragile.repair_times],
        "resilient_repair_times": [repr(t) for t in resilient.repair_times],
        "fragile_verdicts": dict(sorted(fragile.slo_verdicts.items())),
        "resilient_verdicts": dict(sorted(resilient.slo_verdicts.items())),
        "fragile_result_digest": fragile.result_digest,
        "resilient_result_digest": resilient.result_digest,
    })


# -- storage suite: the Fig. 17 backends (BENCH_storage.json) --------------


def storage_suite(quick: bool = False, shards: int = 16,
                  seed: int = 23) -> Dict[str, Any]:
    """Flat dict vs consistent-hash shards.

    The benchmark loads both backends at a 10^3 anchor and at the sweep
    size (10^4 quick, 10^5 full) and reports warm per-lookup CPU; the
    in-run *flatness ratio* (sharded per-lookup at the sweep size over
    the anchor) is a same-machine ratio, so it travels across hosts.
    The fingerprint — placement digests, shard occupancy and one
    simulated routing pair at 4 super-peer groups — uses the same cheap
    sizes in both modes.
    """
    from repro.experiments.fig17 import (
        _load_backend,
        _lookup_digest,
        _lookup_sample,
        run_routing_point,
        run_storage_point,
    )
    from repro.glare.storage import DictBackend, StorageConfig

    n_types, anchor_size = (10_000 if quick else 100_000), 1_000
    (anchor, point), wall, cpu = _timed(lambda: (
        run_storage_point(anchor_size, shard_counts=(shards,)),
        run_storage_point(n_types, shard_counts=(shards,)),
    ))
    sharded = {p.backend: p for p in point}[f"sharded/{shards}"]
    sharded_anchor = {p.backend: p for p in anchor}[f"sharded/{shards}"]
    result = bench_result(
        "storage", "sharded_lookups_per_wall_sec",
        2 * (n_types + anchor_size), wall, cpu, {  # records loaded
            "n_types": n_types,
            "shards": shards,
            "dict_per_lookup_ns": point[0].per_lookup_ns,
            "sharded_per_lookup_ns": sharded.per_lookup_ns,
            "flatness_ratio": (sharded.per_lookup_ns
                               / sharded_anchor.per_lookup_ns),
            "max_shard": sharded.max_shard,
            "imbalance": sharded.imbalance,
            "digests_equal": all(p.digest_matches_dict for p in point),
        }, value=1e9 / sharded.per_lookup_ns)

    placement: Dict[str, Any] = {}
    for size in (1_000, 10_000):
        sample = _lookup_sample(size)
        flat = DictBackend()
        _load_backend(flat, size)
        placement[f"dict/{size}"] = _lookup_digest(flat, sample)
        for count in (4, 16):
            backend = StorageConfig.sharded(shards=count).make_backend()
            _load_backend(backend, size)
            placement[f"sharded/{count}/{size}"] = {
                "lookup_digest": _lookup_digest(backend, sample),
                "shard_sizes": dict(sorted(backend.shard_sizes().items())),
            }
    base = run_routing_point(4, 1_000, routed=False, seed=seed)
    routed = run_routing_point(4, 1_000, routed=True, seed=seed)
    return _suite("storage", quick, [result], {
        "seed": seed,
        "placement": placement,
        "baseline_workload_messages": base.workload_messages,
        "routed_workload_messages": routed.workload_messages,
        "routed_route_hits": routed.shard_route_hits,
        "routed_fallbacks": routed.shard_fallbacks,
        "baseline_result_digest": base.result_digest,
        "routed_result_digest": routed.result_digest,
    })


# -- workload suite: the Fig. 18 open-loop plane (BENCH_workload.json) -----


def bench_workload(target_arrivals: int = 1_500_000, seed: int = 17) -> Dict[str, Any]:
    """Arrival-engine throughput: generate + schedule a diurnal trace.

    Generates a non-homogeneous (two-region diurnal) arrival trace
    sized to ``target_arrivals`` and injects it into a bare simulator
    as same-timestamp cohorts, running the agenda to exhaustion.  The
    headline rate counts *both* phases — an arrival only counts once
    its cohort event has actually dispatched — so the figure is the
    end-to-end cost of putting one open-loop user on the wire.
    """
    from repro.load.arrivals import DiurnalRate, NHPoissonProcess
    from repro.load.inject import CohortInjector

    horizon = 50.0
    # two staggered regions, weights summing to 1 => mean rate == base
    rate = DiurnalRate(target_arrivals / horizon, amplitude=0.8,
                       period=horizon, regions=((0.0, 0.6), (0.3 * horizon, 0.4)))
    model = NHPoissonProcess(rate, name="bench-diurnal")

    start = time.perf_counter()
    cpu_start = time.process_time()
    times = model.sample(horizon, seed)
    generated = time.perf_counter()

    sim = Simulator(seed=seed)
    injector = CohortInjector(sim, times, lambda t, i: None, tick=0.005)
    injector.start()
    sim.run()
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    if injector.fired != times.size:  # pragma: no cover - harness invariant
        raise RuntimeError(
            f"cohort injection dropped arrivals: fired {injector.fired} "
            f"of {times.size}"
        )
    return bench_result("workload", "arrivals_per_wall_sec", int(times.size),
                        wall, cpu, {
        "target_arrivals": target_arrivals,
        "arrivals": int(times.size),
        "cohorts": injector.cohorts,
        "generate_seconds": generated - start,
        "schedule_seconds": wall - (generated - start),
        "final_time": sim.now,
    })


def bench_workload_memory(
    target_arrivals: int = 1_000_000, anchor_arrivals: int = 50_000
) -> Dict[str, Any]:
    """Memory flatness of the full open-loop fig18 path.

    Runs the fixed-rate overload scenario at an anchor size and at
    ``target_arrivals`` (a 20x step in the full suite), reading RSS
    before and after each.  A small throwaway run first pages in the
    code and numpy buffers so the anchor delta is not polluted by
    one-time warm-up.  Streaming stats bound the per-run state to the
    fixed histogram grid plus one window row per elapsed window, so the
    target run's RSS growth must stay O(1) in the arrival count — one
    absolute cap serves quick and full sizes precisely because flat
    means size-independent.
    """
    from repro.experiments.fig18 import run_fig18_memory

    run_fig18_memory(max(anchor_arrivals // 5, 2_000))  # warm-up, unmeasured

    rss0 = current_rss_kb()
    anchor = run_fig18_memory(anchor_arrivals)
    anchor_growth = current_rss_kb() - rss0

    rss1 = current_rss_kb()
    out, wall, cpu = _timed(run_fig18_memory, target_arrivals)
    target_growth = current_rss_kb() - rss1

    arrivals = int(out["arrivals"])
    return bench_result("workload_memory", "sim_arrivals_per_wall_sec",
                        arrivals, wall, cpu, {
        "target_arrivals": target_arrivals,
        "anchor_arrivals": int(anchor["arrivals"]),
        "anchor_rss_growth_kb": int(anchor_growth),
        "target_rss_growth_kb": int(target_growth),
        "rss_bytes_per_arrival": 1024.0 * max(target_growth, 0) / arrivals,
        "stats_footprint_bytes": int(out["stats_footprint_bytes"]),
        "completed": int(out["completed"]),
        "shed": int(out["shed"]),
        "digest": out["digest"],
    })


def workload_suite(quick: bool = False, seed: int = 41) -> Dict[str, Any]:
    """Arrival-engine rate, open-loop memory flatness, trace digests.

    Only the two benchmarks scale down under ``quick``.  The
    fingerprint — sha256 over each generator model's raw float64
    timestamps, the cohort count of the quantisation grid and one small
    overload point pinning mix assignment, admission shedding and the
    streaming-stats merge — runs the same sizes in both modes.
    """
    from repro.experiments.fig18 import run_fig18_point
    from repro.load.arrivals import (
        DiurnalRate,
        MMPPProcess,
        NHPoissonProcess,
        ParetoSessions,
        PoissonProcess,
        StepRate,
    )
    from repro.load.inject import quantize_ticks

    if quick:
        engine = bench_workload(target_arrivals=200_000)
        memory = bench_workload_memory(target_arrivals=48_000,
                                       anchor_arrivals=12_000)
    else:
        engine = bench_workload()
        memory = bench_workload_memory()

    horizon = 40.0
    traces = {
        "poisson": PoissonProcess(500.0).sample(horizon, seed),
        "diurnal": NHPoissonProcess(
            DiurnalRate(400.0, period=horizon, regions=((0.0, 0.6), (12.0, 0.4)))
        ).sample(horizon, seed),
        "flash": NHPoissonProcess(
            StepRate(200.0, 2_000.0, 15.0, 20.0), name="nhpp-step"
        ).sample(horizon, seed),
        "mmpp": MMPPProcess().sample(horizon, seed),
        "sessions": ParetoSessions(PoissonProcess(30.0, name="session-starts"))
        .sample(horizon, seed),
    }
    point = run_fig18_point(
        multiple=2.0, capacity=600.0, seed=seed, n_sites=5, n_types=4,
        horizon=10.0, warmup=2.0,
    )
    return _suite("workload", quick, [engine, memory], {
        "seed": seed,
        "models": {
            name: {"arrivals": int(times.size),
                   "sha256": hashlib.sha256(times.tobytes()).hexdigest()}
            for name, times in traces.items()
        },
        "poisson_cohorts": int(np.unique(
            quantize_ticks(traces["poisson"], 0.005)).size),
        "point_completed": point.completed,
        "point_shed": point.shed,
        "point_timeouts": point.timeouts,
        "point_goodput": repr(point.goodput),
        "point_shed_by_op": point.server_shed_by_op,
        "point_result_digest": point.result_digest,
    })


# -- orchestration suite: the Fig. 19 control loop (BENCH_orchestration.json)


def _planner_decision_digest(seed: int = 43) -> str:
    """Digest of the pure planner over a grid of synthetic worlds.

    No simulator at all: every (utilization level, shed level, health
    mix, placement count) cell is planned once and its TypePlan folded
    into one sha256.  Catches policy drift — threshold comparisons,
    tie-breaking, clamping — independently of the simulation around it.
    """
    from repro.orchestrate.planner import Observed, Planner, SiteObservation
    from repro.orchestrate.spec import DeploymentSpec, OrchestrationConfig

    planner = Planner(OrchestrationConfig())
    spec = DeploymentSpec(type_name="T", min_replicas=1, max_replicas=3,
                          target_utilization=0.6)
    digest = hashlib.sha256(f"planner|{seed}".encode())
    site_names = ("a", "b", "c", "d")
    for busy in (0.05, 0.3, 0.65, 0.95):
        for shed in (0, 5):
            for bad in ("", "a", "d"):
                for n_placed in (0, 1, 2, 4):
                    sites = tuple(
                        SiteObservation(
                            site=name,
                            utilization=busy * (1.0 + 0.1 * index),
                            load=busy * 4.0,
                            run_queue=index,
                            shed=shed if index == 0 else 0,
                            health="down" if name == bad else "healthy",
                        )
                        for index, name in enumerate(site_names)
                    )
                    observed = Observed(
                        sites=sites,
                        placements={"T": site_names[:n_placed]},
                    )
                    tp = planner.plan([spec], observed).types[0]
                    digest.update(
                        f"{busy}|{shed}|{bad}|{n_placed}=>"
                        f"{tp.desired}|{tp.placements}|{tp.add}|{tp.remove}"
                        f"|{tp.reason};".encode()
                    )
    return digest.hexdigest()


def orchestration_suite(quick: bool = False, seed: int = 43) -> Dict[str, Any]:
    """The desired-state control loop riding a flash crowd.

    The benchmark times the orchestrated flash (observe → plan →
    actuate rounds over a live open-loop workload) as reconcile rounds
    per wall second.  The orchestrated and static series digests, the
    replica trajectory, convergence times and a pure-planner decision
    digest pin the loop's behaviour.  Quick and full modes run the same
    fixed shape, so the fingerprint pins one exact simulation.
    """
    from repro.experiments.fig19 import run_fig19_flash

    shape = dict(seed=seed, n_sites=6, max_replicas=3, horizon=40.0,
                 warmup=4.0, spike_start=10.0, spike_end=26.0, adapt=8.0)
    flash, wall, cpu = _timed(run_fig19_flash, orchestrated=True, **shape)
    static = run_fig19_flash(orchestrated=False, **shape)
    result = bench_result(
        "orchestration", "reconcile_rounds_per_wall_sec",
        flash.reconcile_rounds, wall, cpu, {
            "rounds": flash.reconcile_rounds,
            "installs": flash.installs,
            "drains": flash.drains,
            "max_replicas_seen": flash.max_replicas_seen,
            "final_replicas": flash.final_replicas,
            "convergence_times": [round(t, 6) for t in flash.convergence_times],
        })
    return _suite("orchestration", quick, [result], {
        "seed": seed,
        "planner_decisions": _planner_decision_digest(seed),
        "orchestrated_digest": flash.result_digest,
        "static_digest": static.result_digest,
        "replica_series": [[round(t, 3), n] for t, n in flash.replica_series],
        "max_replicas_seen": flash.max_replicas_seen,
        "final_replicas": flash.final_replicas,
        "rounds": flash.reconcile_rounds,
        "installs": flash.installs,
        "drains": flash.drains,
        "convergence_times": [repr(round(t, 6))
                              for t in flash.convergence_times],
        "recovered_goodput": repr(flash.phases["recovered"]["goodput"]),
        "static_recovered_goodput": repr(static.phases["recovered"]["goodput"]),
    })


# -- typed checks ------------------------------------------------------------


class Missing(LookupError):
    """A check's input is absent from the run or from the baseline."""


def lookup(doc: Dict[str, Any], path: str, where: str) -> Any:
    """The value at dotted ``path`` in ``doc``; :class:`Missing` if absent."""
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise Missing(f"{where} has no {path}")
        node = node[part]
    return node


@dataclass(frozen=True)
class Check:
    """One gate: reads ``path`` and returns a failure text or ``None``."""

    path: str

    @property
    def label(self) -> str:
        """Names the row in failure messages."""
        return f"{type(self).__name__} {self.path}"

    def current(self, suite: Dict[str, Any]) -> Any:
        return lookup(suite, self.path, "run")

    def base(self, baseline: Dict[str, Any]) -> Any:
        return lookup(baseline, self.path, "baseline")

    def failure(self, suite: Dict[str, Any],
                baseline: Dict[str, Any]) -> Optional[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Floor(Check):
    """The run's value must be at least ``bound``."""

    bound: float = 0.0

    def failure(self, suite, baseline):
        value = self.current(suite)
        if value < self.bound:
            return f"{value:,.4g} is below the floor {self.bound:,.4g}"
        return None


@dataclass(frozen=True)
class Ceiling(Check):
    """The run's value must be at most ``bound``."""

    bound: float = 0.0

    def failure(self, suite, baseline):
        value = self.current(suite)
        if value > self.bound:
            return f"{value:,.4g} exceeds the ceiling {self.bound:,.4g}"
        return None


@dataclass(frozen=True)
class MaxDrop(Check):
    """The run may fall at most ``bound`` (a fraction) below the baseline."""

    bound: float = 0.0

    def failure(self, suite, baseline):
        value, base = self.current(suite), self.base(baseline)
        if value < base * (1.0 - self.bound):
            return (f"{value:,.4g} is {1.0 - value / base:.1%} below baseline "
                    f"{base:,.4g} (allowed {self.bound:.0%})")
        return None


@dataclass(frozen=True)
class MaxRise(Check):
    """The run may rise at most ``bound`` (a fraction) above the baseline."""

    bound: float = 0.0

    def failure(self, suite, baseline):
        value, base = self.current(suite), self.base(baseline)
        if value > base * (1.0 + self.bound):
            return (f"{value:,.4g} rose above baseline {base:,.4g} "
                    f"(allowed {self.bound:.0%})")
        return None


@dataclass(frozen=True)
class MaxIncrease(Check):
    """The run may exceed the baseline by at most ``bound`` (additive)."""

    bound: float = 0.0

    def failure(self, suite, baseline):
        value, base = self.current(suite), self.base(baseline)
        if value > base + self.bound:
            return (f"{value:.3f} grew more than {self.bound:.2f} over "
                    f"baseline {base:.3f}")
        return None


@dataclass(frozen=True)
class Match(Check):
    """The run's value must equal the baseline's exactly."""

    def failure(self, suite, baseline):
        value, base = self.current(suite), self.base(baseline)
        if value != base:
            return f"drift: {value!r} vs baseline {base!r}"
        return None


@dataclass(frozen=True)
class Expect(Check):
    """The run's value must equal ``value``."""

    value: Any = None

    def failure(self, suite, baseline):
        actual = self.current(suite)
        if actual != self.value:
            return f"{actual!r}, expected {self.value!r}"
        return None


_RELATIONS = {"<": operator.lt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Relation(Check):
    """Two values of one run: ``path op factor * other``.

    Ordering relations compare the values as floats (some fingerprint
    figures are ``repr`` strings); ``==`` compares them as they are.
    """

    op: str = "=="
    other: str = ""
    factor: float = 1.0

    @property
    def label(self) -> str:
        scale = f"{self.factor:g} * " if self.factor != 1.0 else ""
        return f"Relation {self.path} {self.op} {scale}{self.other}"

    def failure(self, suite, baseline):
        left, right = self.current(suite), lookup(suite, self.other, "run")
        if self.op != "==":
            left, right = float(left), self.factor * float(right)
        if not _RELATIONS[self.op](left, right):
            return f"{left!r} vs {right!r}"
        return None


@dataclass(frozen=True)
class SameJobs(Check):
    """Refuse to compare rates recorded under a different ``--jobs``.

    Concurrent workers timeshare cores, so rates from different worker
    counts are not the same measurement.  When this check fails, the
    suite's :class:`MaxDrop` / :class:`MaxRise` rows are skipped rather
    than producing a bogus pass or fail.
    """

    path: str = "jobs"

    def failure(self, suite, baseline):
        jobs, base = self.current(suite), self.base(baseline)
        if jobs != base:
            return (f"suite ran with jobs={jobs} but the baseline was recorded "
                    f"with jobs={base}; rates are not comparable — rerun with "
                    "matching --jobs or re-record the baseline")
        return None


def _match(section: str, *keys: str) -> Tuple[Match, ...]:
    return tuple(Match(f"{section}.{key}") for key in keys)


# -- the gate table ------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One row of the gate table."""

    name: str
    run: Callable[..., Dict[str, Any]]
    checks: Tuple[Check, ...]

    @property
    def baseline(self) -> str:
        """The committed baseline file, relative to the repo root."""
        return f"BENCH_{self.name}.json"

    def work_unit(self, **kwargs: Any) -> WorkUnit:
        return WorkUnit(self.name, f"{__name__}:{self.run.__name__}", kwargs)


_RES = "results.resolution.details"
_PROV = "results.provisioning.details"
_FAULTS = "results.faults.details"
_OBS = "results.obs.details"
_STORE = "results.storage.details"

#: every gate, in ``--check-all`` run order
SUITES: Dict[str, Suite] = {row.name: row for row in (
    Suite("kernel", run_suite, (
        SameJobs(),
        MaxDrop("results.kernel.value", 0.25),
        MaxDrop("results.rpc.value", 0.25),
        *_match("determinism.kernel_trace", "seed", "events", "final_time",
                "sha256"),
        *_match("determinism.experiment", "fig10_throughput",
                "fig10_mean_response_ms", "fig10_index_throughput",
                "fig10_index_mean_response_ms", "scenario_messages",
                "scenario_wire_bytes", "scenario_site_bytes_out",
                "scenario_taken_at"),
    )),
    Suite("resolution", resolution_suite, (
        MaxRise(f"{_RES}.baseline_messages_per_resolution", 0.25),
        MaxRise(f"{_RES}.optimized_messages_per_resolution", 0.25),
        Expect(f"{_RES}.results_equal", True),
        *_match("fingerprint", "baseline_result_digest",
                "optimized_result_digest"),
    )),
    Suite("provisioning", provisioning_suite, (
        Floor(f"{_PROV}.rollout_speedup", 3.0),
        Expect(f"{_PROV}.results_equal", True),
        MaxRise("fingerprint.optimized_origin_bytes_out", 0.0),
        *_match("fingerprint", "baseline_result_digest",
                "optimized_result_digest"),
    )),
    Suite("faults", faults_suite, (
        Floor(f"{_FAULTS}.resilient_resolution_success", 0.95),
        Floor(f"{_FAULTS}.resilient_provision_success", 0.95),
        Relation(f"{_FAULTS}.fragile_resolution_success", "<",
                 f"{_FAULTS}.resilient_resolution_success"),
        Floor(f"{_FAULTS}.reelections", 1),
        Expect(f"{_FAULTS}.fragile_reelections", 0),
        *_match("fingerprint", "fragile_result_digest",
                "resilient_result_digest", "recovery_times", "crashes",
                "reelections"),
    )),
    Suite("obs", obs_suite, (
        Ceiling(f"{_OBS}.obs_overhead_frac", 0.75),
        MaxIncrease(f"{_OBS}.obs_overhead_frac", 0.15),
        Ceiling(f"{_OBS}.slo_overhead_frac", 0.75),
        MaxIncrease(f"{_OBS}.slo_overhead_frac", 0.15),
        Expect(f"{_OBS}.sim_throughput_equal", True),
        Expect("fingerprint.undetected_crashes", 0),
        Expect("fingerprint.fragile_verdicts.client-availability", "exhausted"),
        Expect("fingerprint.resilient_verdicts.client-availability", "met"),
        *_match("fingerprint", "crashes", "fragile_alerts_fired",
                "resilient_alerts_fired", "fragile_detection_latencies",
                "resilient_detection_latencies", "fragile_repair_times",
                "resilient_repair_times", "fragile_verdicts",
                "resilient_verdicts", "fragile_result_digest",
                "resilient_result_digest"),
    )),
    Suite("storage", storage_suite, (
        Ceiling(f"{_STORE}.flatness_ratio", 1.5),
        Expect(f"{_STORE}.digests_equal", True),
        Relation("fingerprint.baseline_result_digest", "==",
                 "fingerprint.routed_result_digest"),
        MaxRise("fingerprint.routed_workload_messages", 0.25),
        *_match("fingerprint", "placement", "baseline_workload_messages",
                "routed_route_hits", "routed_fallbacks",
                "baseline_result_digest", "routed_result_digest"),
    )),
    Suite("workload", workload_suite, (
        Floor("results.workload.value", 1_000_000.0),
        Ceiling("results.workload_memory.details.target_rss_growth_kb", 131_072),
        Ceiling("results.workload_memory.details.stats_footprint_bytes",
                1_000_000),
        *_match("fingerprint", "models", "poisson_cohorts", "point_completed",
                "point_shed", "point_timeouts", "point_goodput",
                "point_shed_by_op", "point_result_digest"),
    )),
    Suite("orchestration", orchestration_suite, (
        MaxDrop("results.orchestration.value", 0.25),
        Expect("fingerprint.final_replicas", 1),
        Relation("fingerprint.recovered_goodput", ">=",
                 "fingerprint.static_recovered_goodput", factor=1.2),
        *_match("fingerprint", "planner_decisions", "orchestrated_digest",
                "static_digest", "replica_series", "max_replicas_seen",
                "final_replicas", "rounds", "installs", "drains",
                "convergence_times", "recovered_goodput",
                "static_recovered_goodput"),
    )),
)}


def compare_to_baseline(name: str, suite: Dict[str, Any],
                        baseline: Dict[str, Any]) -> List[str]:
    """Run row ``name``'s checks; one failure text per failed check."""
    failures: List[str] = []
    refused = False
    for check in SUITES[name].checks:
        if refused and isinstance(check, (MaxDrop, MaxRise)):
            continue
        try:
            problem = check.failure(suite, baseline)
        except Missing as missing:
            problem = f"missing measurement: {missing}"
        except (TypeError, ValueError) as error:
            problem = f"unreadable measurement: {error}"
        if problem:
            failures.append(f"{name}: {check.label}: {problem}")
            refused = refused or isinstance(check, SameJobs)
    return failures


def dump_suite(suite: Dict[str, Any], path: str) -> None:
    """Write a suite result as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(suite, handle, indent=2, sort_keys=True)
        handle.write("\n")
