#!/usr/bin/env python3
"""End-to-end benchmark of the simulated GLARE stack.

Run from the repository root::

    python3 perfbench/run.py --workload overload_open --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``overload_open``, ``overload_obs``,
``resolve_fanout``, ``provision_wave``, or ``all`` (each workload in a
process of its own, so host figures such as peak RSS are its own).
With ``--trace 0`` the run makes one full-size rep for the given seed
(and one for the pinned default seed), then short timed reps for the
rest of ``--seconds`` (alternating the two seeds), each between two
timings of a fixed reference loop so that host load can be divided out
(see ``hostspeed.py``), and prints every end-to-end metric; with
``--trace 1`` it adds a profiled, call-counted rep and prints the
per-layer ledger instead.  Every rep is checked:
every request resolved exactly once, the workload's answers, VO
invariants and empty queues after drain, identical digests for
identical seeds, and the pinned digest for the default seed.  The last
line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import copy
import cProfile
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: short timed reps a measured run makes at least, whatever ``--seconds`` says
MIN_TIMED = 5

#: input scale of the unmeasured warm-up rep that precedes timed reps
WARMUP_SCALE = 0.1

#: samples that must lie beyond a reported percentile
TAIL_SAMPLES = 10

#: name -> (unit, kind) of every end-to-end metric
END_TO_END = {
    "requests_per_ref_s": ("req/ref-s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "goodput_rps": ("req/s", "sim"),
    "latency_p50_ms": ("ms", "sim"),
    "latency_p99_ms": ("ms", "sim"),
    "served_frac": ("ratio", "sim"),
}


def _per_layer_units() -> Dict[str, Tuple[str, str]]:
    from ledger import BUCKETS

    units = {f"{name}.self_ms_per_kreq": ("ms/kreq", "host") for name in BUCKETS}
    units.update({
        "trace.overhead_frac": ("ratio", "host"),
        "obs.overhead_frac": ("ratio", "host"),
        "simkernel.processes_per_req": ("count", "sim"),
        "simkernel.timeouts_per_req": ("count", "sim"),
        "simkernel.conditions_per_req": ("count", "sim"),
        "net.rpcs_per_req": ("count", "sim"),
        "net.deadline_rpcs_frac": ("ratio", "sim"),
        "net.messages_per_req": ("count", "sim"),
        "net.bytes_per_req": ("B", "sim"),
        "net.dispatch_admitted_frac": ("ratio", "sim"),
        "glare.fanout_rpcs_per_req": ("count", "sim"),
        "glare.wire_parses_per_req": ("count", "sim"),
        "glare.registry_cache_hit_frac": ("ratio", "sim"),
        "glare.resolved_local_frac": ("ratio", "sim"),
        "wsrf.xml_parses_per_req": ("count", "sim"),
        "load.inject_lag_ms_max": ("ms", "sim"),
        "load.cohorts_per_kreq": ("count", "sim"),
        "site.cpu_demand_ms_per_req": ("ms", "sim"),
        "site.server_busy_frac": ("ratio", "sim"),
        "gridftp.bytes_per_install": ("B", "sim"),
        "gridftp.retries_per_install": ("count", "sim"),
        "gram.jobs_per_install": ("count", "sim"),
        "obs.spans_per_req": ("count", "sim"),
        "outcome.shed_frac": ("ratio", "sim"),
        "outcome.failed_frac": ("ratio", "sim"),
    })
    return units


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def _pinned() -> Dict[str, Any]:
    with open(HERE / "pinned.json") as handle:
        return json.load(handle)


def percentile(sorted_values, q: float) -> Tuple[Optional[float], int]:
    """Exact nearest-rank ``q``-quantile and the count of samples beyond it.

    Returns ``(None, beyond)`` unless at least :data:`TAIL_SAMPLES`
    samples lie beyond the percentile.
    """
    n = len(sorted_values)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < TAIL_SAMPLES:
        return None, beyond
    return float(sorted_values[rank - 1]), beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Reps of one workload and the checks across them.

    ``scale`` < 1 shrinks every input, for the benchmark's own tests;
    the pinned digests and the percentile sample counts are checked at
    full size only, which is the only size the command line runs.
    Short timed reps use the workload's ``TIMING_SCALE`` (or ``scale``,
    if that is smaller).
    """

    def __init__(self, workload, seed: int, scale: float = 1.0) -> None:
        pinned = _pinned()
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.timing_scale = min(scale, workload.TIMING_SCALE)
        self.default_seed = int(pinned["default_seed"])
        #: input scale -> pinned digest of the default seed at that scale
        self.pinned: Dict[float, str] = {} if scale != 1.0 else {
            1.0: pinned["digests"][workload.name],
            self.timing_scale: pinned["timing_digests"][workload.name],
        }
        self._inputs: Dict[Tuple[int, float], Any] = {}
        self.reps: List[Tuple[int, Any]] = []
        self.problems: List[str] = []
        #: metric -> note printed beside it in the table
        self.notes: Dict[str, str] = {}
        self._digests: Dict[Tuple[int, float], str] = {}

    def inputs(self, seed: int, scale: Optional[float] = None):
        key = (seed, self.scale if scale is None else scale)
        if key not in self._inputs:
            self._inputs[key] = self.workload.inputs(*key)
        return self._inputs[key]

    def rep(self, seed: int, workload=None, around_run=None, scale: Optional[float] = None):
        from workloads import run_rep

        workload = workload or self.workload
        scale = self.scale if scale is None else scale
        gc.collect()
        rep = run_rep(workload, self.inputs(seed, scale), around_run=around_run)
        out = rep.outcome
        label = f"{workload.name} seed {seed} scale {scale:g}"
        self.problems += [f"{label}: {p}" for p in out.problems]
        first = self._digests.setdefault((seed, scale), out.digest)
        if out.digest != first:
            self.problems.append(f"{label}: digest {out.digest} != {first} of an earlier rep")
        pinned = self.pinned.get(scale)
        if seed == self.default_seed and pinned is not None and out.digest != pinned:
            self.problems.append(f"{label}: digest {out.digest} != pinned {pinned}")
        self.reps.append((seed, rep))
        return rep

    def warm_up(self) -> None:
        """One small unmeasured rep, so timed reps start with warm caches."""
        from workloads import run_rep

        gc.collect()
        inputs = self.workload.inputs(self.seed, WARMUP_SCALE * self.scale)
        out = run_rep(self.workload, inputs).outcome
        self.problems += [f"{self.workload.name} warm-up: {p}" for p in out.problems]

    @property
    def attempted(self) -> int:
        return sum(rep.outcome.attempted for _, rep in self.reps)

    @property
    def failed(self) -> int:
        if self.problems:
            return self.attempted
        return sum(rep.outcome.timeouts + rep.outcome.failed for _, rep in self.reps)

    def seeds(self):
        """The rep schedule: the given seed, then the pinned one, alternating."""
        while True:
            yield self.seed
            yield self.default_seed


def measure(run: Run, seconds: float) -> Dict[str, float]:
    """Full-size reps, then short timed reps for ``seconds``; every end-to-end metric.

    Sim metrics come from the full-size rep of the given seed.  Host
    metrics come from the short reps: each is bracketed by two timings
    of the reference loop, its set-up and run-phase wall times are
    divided by the mean host factor of the two, and the medians over
    all short reps are reported, in reference seconds.
    """
    import hostspeed

    start = time.perf_counter()
    run.warm_up()
    first = run.rep(run.seed).outcome
    if run.seed != run.default_seed:
        run.rep(run.default_seed)
    factors = [hostspeed.host_factor()]
    rates: List[float] = []
    wall_rates: List[float] = []
    setups: List[float] = []
    timed_start = time.perf_counter()
    for seed in run.seeds():
        elapsed = time.perf_counter() - start
        per_rep = (time.perf_counter() - timed_start) / max(1, len(rates))
        # stop once one more short rep of average length would overrun --seconds
        if len(rates) >= MIN_TIMED and elapsed + per_rep > seconds:
            break
        rep = run.rep(seed, scale=run.timing_scale)
        factors.append(hostspeed.host_factor())
        factor = (factors[-2] + factors[-1]) / 2
        rates.append(rep.outcome.attempted * factor / rep.run_s)
        wall_rates.append(rep.requests_per_wall_s)
        setups.append(rep.setup_s / factor)
    metrics = {
        "requests_per_ref_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "goodput_rps": first.goodput_rps,
        "served_frac": first.completed / first.attempted if first.attempted else 0.0,
    }
    for name, q in (("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)):
        value, beyond = percentile(first.latencies, q)
        if value is None and run.scale == 1.0:
            run.problems.append(f"{name}: only {beyond} samples beyond it")
        metrics[name] = None if value is None else value * 1000.0
    host = statistics.median(factors)
    run.notes = {
        "latency_p50_ms": f"n={first.latencies.size}",
        "latency_p99_ms": f"n={first.latencies.size}",
        "requests_per_ref_s": f"median of {len(rates)} reps at scale {run.timing_scale:g}; "
                              f"host factor {host:.2f}; "
                              f"{statistics.median(wall_rates):.6g} req/wall-s",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return metrics


def trace(run: Run, seconds: float) -> Dict[str, float]:
    """Plain, observability-twin and one profiled rep; the per-layer ledger."""
    import ledger

    twin = copy.copy(run.workload)
    twin.observe = not run.workload.observe
    plain: List[Any] = []
    observed: List[Any] = []

    def pair(seed: int) -> None:
        for workload, bucket in ((run.workload, plain), (twin, observed)):
            rep = run.rep(seed, workload)
            bucket.append((seed, rep))

    start = time.perf_counter()
    run.warm_up()
    pair(run.seed)

    counter = ledger.CallCounter()
    profile = cProfile.Profile()
    marks: Dict[str, Any] = {}

    @contextmanager
    def profiled(state):
        vo = state[0]
        marks["before"] = ledger.snapshot(vo)
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            marks["after"] = ledger.snapshot(vo)

    with counter:
        traced = run.rep(run.seed, around_run=profiled)
    if run.seed != run.default_seed:
        plain.append((run.default_seed, run.rep(run.default_seed)))
    for seed in run.seeds():
        elapsed = time.perf_counter() - start
        if elapsed * 1.25 > seconds:
            break
        pair(seed)

    out = traced.outcome
    n = out.attempted
    before, after = marks["before"], marks["after"]
    delta = {k: after[k] - before[k] for k in after if k != "busy"}
    elapsed_sim = delta["now"]
    busy = max(
        (after["busy"][node][0] - before["busy"][node][0]) / (cores * elapsed_sim)
        for node, (_, cores) in after["busy"].items()
    ) if elapsed_sim > 0 else 0.0
    counts = counter.counts
    installs = out.attempted if run.workload.installs else 0

    buckets = ledger.own_time_by_layer(profile, SRC / "repro", HERE)

    def per_req(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plain_rate = statistics.median(r.requests_per_wall_s for _, r in plain)
    observed_rate = statistics.median(r.requests_per_wall_s for _, r in observed)
    obs_rate, bare_rate = ((observed_rate, plain_rate) if twin.observe
                           else (plain_rate, observed_rate))
    untraced_wall = statistics.median(r.run_s for s, r in plain if s == run.seed)

    metrics = {f"{name}.self_ms_per_kreq": seconds_ * 1e6 / n
               for name, seconds_ in buckets.items()}
    metrics.update({
        "trace.overhead_frac": traced.run_s / untraced_wall - 1.0,
        "obs.overhead_frac": 1.0 - obs_rate / bare_rate,
        "simkernel.processes_per_req": per_req(counts["processes"]),
        "simkernel.timeouts_per_req": per_req(counts["timeouts"]),
        "simkernel.conditions_per_req": per_req(counts["conditions"]),
        "net.rpcs_per_req": per_req(counts["rpcs"]),
        "net.deadline_rpcs_frac": ratio(counts["deadline_rpcs"], counts["rpcs"]),
        "net.messages_per_req": per_req(delta["messages"]),
        "net.bytes_per_req": per_req(delta["bytes"]),
        "net.dispatch_admitted_frac": ratio(delta["handled"], delta["handled"] + delta["shed"]),
        "glare.fanout_rpcs_per_req": per_req(counts["fanout_rpcs"]),
        "glare.wire_parses_per_req": per_req(counts["wire_parses"]),
        "glare.registry_cache_hit_frac": ratio(delta["cache_hits"], delta["lookups"]),
        "glare.resolved_local_frac": ratio(delta["resolved_locally"], delta["resolutions"]),
        "wsrf.xml_parses_per_req": per_req(counts["xml_parses"]),
        "load.inject_lag_ms_max": out.inject_lag_s * 1000.0,
        "load.cohorts_per_kreq": out.cohorts * 1000.0 / n,
        "site.cpu_demand_ms_per_req": per_req(counter.cpu_demand * 1000.0),
        "site.server_busy_frac": busy,
        "gridftp.bytes_per_install": ratio(delta["transfer_bytes"], installs),
        "gridftp.retries_per_install": ratio(delta["transfer_retries"], installs),
        "gram.jobs_per_install": ratio(delta["gram_jobs"], installs),
        "obs.spans_per_req": per_req(delta["spans"]),
        "outcome.shed_frac": out.shed / n,
        "outcome.failed_frac": (out.timeouts + out.failed) / n,
    })
    run.notes = {
        "trace.overhead_frac": f"profiled {traced.run_s:.2f}s vs {untraced_wall:.2f}s",
        "obs.overhead_frac": f"obs {obs_rate:.0f}/s vs off {bare_rate:.0f}/s",
    }
    return metrics


def report(name: str, run: Run, metrics: Dict[str, Optional[float]],
           units: Dict[str, Tuple[str, str]]) -> Dict[str, Any]:
    """Print the human table; return the JSON result object."""
    print(f"== {name} (seed {run.seed}, {len(run.reps)} reps)")
    for metric, (unit, kind) in units.items():
        value = metrics[metric]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = run.notes.get(metric, "")
        print(f"  {metric:34s} {shown:>14s} {unit:8s} {kind:4s} {note}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m][0]} for m in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return 1 if any(codes) else 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all")
    units = _per_layer_units() if args.trace else END_TO_END
    run = Run(WORKLOADS[args.workload], args.seed)
    metrics = (trace if args.trace else measure)(run, args.seconds)
    result = report(args.workload, run, metrics, units)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
