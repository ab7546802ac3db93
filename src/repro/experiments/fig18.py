"""Fig. 18 (extension): the registry stack under open-loop overload.

Every other experiment drives the VO with closed-loop clients, which
self-throttle the moment the service slows down — so ``admission_limit``
shedding never engages and "capacity" is never actually crossed.  This
experiment uses the `repro.load` workload plane to offer *open-loop*
population traffic at configured multiples of measured capacity and
watches how the stack degrades.

Three scenarios, all deterministic and fan-out-able via
:mod:`repro.runner`:

**Offered-load sweep** (:func:`run_fig18_point`) — Poisson arrivals at
0.5x–4x the capacity a closed-loop probe measured, mixed across three
op classes (activity *resolution*, ensure-provisioned *provisioning*,
and AGWL workflow *enactment* through GRAM).  Reports goodput, shed
rate, timeout rate and p50/p99/p99.9 latency per op class from
streaming histograms.  The acceptance property is *graceful
degradation*: past 1x, goodput plateaus near capacity while admission
control sheds the excess — it must not collapse.

**Flash crowd** (:func:`run_fig18_flash`) — steady background mix at
0.7x capacity plus one activity type whose arrival rate steps up 100x
mid-run (non-homogeneous Poisson via thinning).  Reports
before/during/after phase stats for the hot type vs the background.

**Mass-provisioning wave** (:func:`run_fig18_wave`) — every site
installs a batch of freshly published activity types (archive download
+ build steps under fair-share link contention), arrivals staggered by
an open-loop exponential schedule.  Reports the time-to-ready
*distribution* (p50/p90/p99/max), not just a mean.

Determinism: arrival traces, mix assignment and the simulation itself
are all seeded; every request outcome folds into an order-independent
:class:`~repro.load.stats.CommutativeDigest`, so a double run must
agree bit-for-bit and ``--jobs`` fan-out merges to the same
fingerprint regardless of worker scheduling (asserted by
:func:`run_fig18`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.apps.catalog import _deployfile, _steps, _type_xml
from repro.experiments.report import format_table
from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.glare.rdm import RDM_SERVICE
from repro.load import (
    CohortInjector,
    NHPoissonProcess,
    OpenLoopDriver,
    PoissonProcess,
    StepRate,
    StreamStats,
    TrafficMix,
    arrival_stream,
)
from repro.load.stats import CommutativeDigest
from repro.obs.metrics import Histogram
from repro.vo import build_vo

#: op classes and their share of open-loop traffic
MIX_WEIGHTS = {"resolve": 0.90, "provision": 0.06, "enact": 0.04}

#: arrival quantisation grid (cohort width) for the sweep scenarios
TICK = 0.005

#: goodput window for the streaming per-window counters
WINDOW = 2.0

#: per-request deadline; overload past it surfaces as RpcTimeout
REQUEST_TIMEOUT = 8.0

#: post-horizon drain so in-flight requests resolve or time out
DRAIN = REQUEST_TIMEOUT + 4.0

TYPE_XML_TEMPLATE = """
<ActivityTypeEntry name="{name}" kind="concrete">
  <Domain>overload</Domain>
  <Function name="run"><Input>data</Input><Output>result</Output></Function>
</ActivityTypeEntry>
"""


# ---------------------------------------------------------------------------
# VO construction + content
# ---------------------------------------------------------------------------


def _build_overload_vo(seed: int, n_sites: int, admission_limit: Optional[int]):
    """A VO shaped for overload measurement: one hot server site.

    Monitors/lifecycle off (no background churn in the latency
    profile); caches on (steady-state production path); GRAM overhead
    shrunk so enactment latency is dominated by modelled work, not the
    1 s testbed submission constant.
    """
    return build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=True,
        monitors=False,
        lifecycle=False,
        admission_limit=admission_limit,
        gram_overhead=0.05,
    )


def _setup_content(vo, server: str, n_types: int) -> List[str]:
    """Register resolvable types with ACTIVE deployments on ``server``.

    Returns the deployment keys (for ``instantiate``), discovered the
    way a client would: one ``get_deployments`` per type.
    """
    keys: List[str] = []
    for i in range(n_types):
        type_name = f"Fig18Type{i:02d}"
        vo.run_process(vo.client_call(
            server, "register_type",
            payload={"xml": TYPE_XML_TEMPLATE.format(name=type_name)},
        ))
        deployment = ActivityDeployment(
            name=f"{type_name.lower()}-bin",
            type_name=type_name,
            kind=DeploymentKind.EXECUTABLE,
            site=server,
            path=f"/opt/deployments/{type_name.lower()}/bin/run",
            home=f"/opt/deployments/{type_name.lower()}",
            status=DeploymentStatus.ACTIVE,
        )
        vo.run_process(vo.client_call(
            server, "register_deployment",
            payload={"xml": deployment.wire_xml()},
        ))
        wires = vo.run_process(vo.client_call(
            server, "get_deployments",
            payload={"type": type_name, "auto_deploy": False},
        ))
        keys.extend(sorted(str(w["epr"]["key"]) for w in wires))
    return keys


def _wave_type(index: int) -> Tuple[str, str, str, str, int]:
    """One synthetic installable type: (name, type_xml, deployfile_url,
    deployfile_xml, archive_size)."""
    name = f"Wave{index:02d}"
    lower = name.lower()
    home = f"$DEPLOYMENT_DIR/{lower}/{lower}"
    archive_size = 2_000_000 + 350_000 * (index % 7)
    archive_url = f"http://origin/archives/{lower}.tgz"
    deployfile_url = f"http://origin/deployfiles/{lower}.build"
    build_steps = _steps(home, [
        {"name": "Configure", "depends": "Expand", "task": "sh ./configure",
         "timeout": 60, "demand": 0.3 + 0.05 * (index % 5)},
        {"name": "Install", "depends": "Configure", "task": "make install",
         "timeout": 120, "demand": 0.2,
         "produces": [(f"bin/{lower}", 400_000 + 10_000 * index, True)]},
    ])
    type_xml = _type_xml(
        name, base="SyntheticService", domain="wave",
        functions='<Function name="run"><Input>data</Input><Output>result</Output></Function>',
        deployfile_url=deployfile_url,
    )
    deployfile_xml = _deployfile(name, archive_url, archive_size, build_steps, home)
    return name, type_xml, deployfile_url, deployfile_xml, archive_size


# ---------------------------------------------------------------------------
# Capacity probe
# ---------------------------------------------------------------------------


def run_fig18_capacity(
    seed: int = 41,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
    n_types: int = 6,
    clients: int = 40,
    horizon: float = 12.0,
    warmup: float = 3.0,
) -> float:
    """Measured capacity: closed-loop resolution throughput, req/s.

    A saturating closed-loop client pool (enough concurrency to keep
    the server CPU busy, not enough to trip admission) measures what
    the hot site can actually complete per second.  The sweep's
    offered-load multiples are anchored to this number, and the value
    is deterministic for a seed — it participates in the workload
    fingerprint.
    """
    vo = _build_overload_vo(seed, n_sites, admission_limit)
    server = vo.site_names[1]
    client_sites = [s for s in vo.site_names if s != server]
    _setup_content(vo, server, n_types)
    completed = [0]

    def probe_client(index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        type_name = f"Fig18Type{index % n_types:02d}"
        while vo.sim.now < horizon:
            try:
                yield from vo.network.call(
                    site, server, RDM_SERVICE, "get_deployments",
                    payload={"type": type_name, "auto_deploy": False},
                )
            except Exception:
                continue
            if vo.sim.now >= warmup:
                completed[0] += 1

    for i in range(clients):
        vo.sim.process(probe_client(i), name=f"fig18-probe-{i}")
    vo.sim.run(until=horizon)
    capacity = completed[0] / (horizon - warmup)
    # round to keep downstream arrival-rate floats tidy in reports
    return round(capacity, 1)


# ---------------------------------------------------------------------------
# Offered-load sweep
# ---------------------------------------------------------------------------


@dataclass
class Fig18Point:
    """One offered-load multiple of the open-loop sweep."""

    multiple: float
    capacity: float
    offered_rate: float
    arrivals: int
    measured_arrivals: int
    completed: int
    shed: int
    timeouts: int
    failed: int
    goodput: float
    per_op: Dict[str, Dict[str, float]] = field(default_factory=dict)
    server_shed_by_op: Dict[str, int] = field(default_factory=dict)
    result_digest: str = ""
    stats_footprint_bytes: int = 0

    @property
    def shed_rate(self) -> float:
        measured = self.completed + self.shed + self.timeouts + self.failed
        return self.shed / measured if measured else 0.0

    @property
    def timeout_rate(self) -> float:
        measured = self.completed + self.shed + self.timeouts + self.failed
        return self.timeouts / measured if measured else 0.0


def run_fig18_point(
    multiple: float,
    capacity: float,
    seed: int = 41,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
    n_types: int = 6,
    horizon: float = 50.0,
    warmup: float = 10.0,
    request_timeout: float = REQUEST_TIMEOUT,
) -> Fig18Point:
    """One sweep point: open-loop mixed traffic at ``multiple``x capacity."""
    vo = _build_overload_vo(seed, n_sites, admission_limit)
    server = vo.site_names[1]
    client_sites = [s for s in vo.site_names if s != server]
    keys = _setup_content(vo, server, n_types)

    offered = multiple * capacity
    mix = TrafficMix(MIX_WEIGHTS, name="fig18-mix")
    times = PoissonProcess(offered, name="fig18-arrivals").sample(horizon, seed)
    assignment = mix.assign(times.size, seed)

    # content setup consumed simulated time; run the workload relative
    # to the post-setup clock so the horizon/warmup windows line up
    t0 = vo.sim.now
    stats = StreamStats(window=WINDOW)
    driver = OpenLoopDriver(vo, stats, request_timeout=request_timeout,
                            warmup=t0 + warmup)

    def make_call(op: str, index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        if op == "resolve":
            payload = {"type": f"Fig18Type{index % n_types:02d}", "auto_deploy": False}
            value = yield from driver.call(site, server, "get_deployments", payload)
        elif op == "provision":
            payload = {"type": f"Fig18Type{index % n_types:02d}", "auto_deploy": True}
            value = yield from driver.call(site, server, "get_deployments", payload)
        else:  # enact: one AGWL activity instance through GRAM
            payload = {"key": keys[index % len(keys)], "demand": 0.01}
            value = yield from driver.call(site, server, "instantiate", payload)
        return value

    def fire(t: float, i: int) -> None:
        driver.fire(mix.ops[assignment[i]], t, i, make_call)

    injector = CohortInjector(vo.sim, times + t0, fire, tick=TICK)
    injector.start()
    vo.sim.run(until=t0 + horizon + DRAIN)

    measured = int(np.count_nonzero(times >= warmup))
    span = horizon - warmup
    per_op = {
        op: dict(stats.ops[op].latency.to_dict(),
                 completed=stats.ops[op].completed,
                 shed=stats.ops[op].shed,
                 timeouts=stats.ops[op].timeouts,
                 failed=stats.ops[op].failed)
        for op in sorted(stats.ops)
    }
    return Fig18Point(
        multiple=multiple,
        capacity=capacity,
        offered_rate=offered,
        arrivals=int(times.size),
        measured_arrivals=measured,
        completed=stats.completed,
        shed=stats.shed_total,
        timeouts=stats.timeout_total,
        failed=stats.failed_total,
        goodput=stats.completed / span,
        per_op=per_op,
        server_shed_by_op=dict(sorted(vo.rdm(server).shed_by_op.items())),
        result_digest=stats.fingerprint(),
        stats_footprint_bytes=stats.footprint_bytes(),
    )


# ---------------------------------------------------------------------------
# Flash crowd
# ---------------------------------------------------------------------------


@dataclass
class Fig18Flash:
    """Before/during/after phase stats of the 100x hot-type spike."""

    capacity: float
    hot_spike_rate: float
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    result_digest: str = ""


def run_fig18_flash(
    capacity: float,
    seed: int = 41,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
    n_types: int = 6,
    horizon: float = 60.0,
    warmup: float = 8.0,
    spike_start: float = 24.0,
    spike_end: float = 40.0,
    request_timeout: float = REQUEST_TIMEOUT,
) -> Fig18Flash:
    """Background mix at 0.7x capacity + one type spiking 100x.

    The hot type idles at 2% of capacity and steps 100x to 2x capacity
    during ``[spike_start, spike_end)`` — total offered load crosses
    capacity only while the spike is up, so the phase comparison
    isolates what the flash crowd does to everyone else.
    """
    vo = _build_overload_vo(seed, n_sites, admission_limit)
    server = vo.site_names[1]
    client_sites = [s for s in vo.site_names if s != server]
    keys = _setup_content(vo, server, n_types)

    phases = (("before", 0.0, spike_start),
              ("during", spike_start, spike_end),
              ("after", spike_end, horizon))
    t0 = vo.sim.now  # workload clock starts after content setup
    stats = {name: StreamStats(window=WINDOW) for name, _, _ in phases}
    drivers = {
        name: OpenLoopDriver(vo, stats[name], request_timeout=request_timeout,
                             warmup=t0 + warmup)
        for name, _, _ in phases
    }

    def phase_of(t: float) -> str:
        for name, start, end in phases:
            if start <= t < end:
                return name
        return phases[-1][0]

    mix = TrafficMix(MIX_WEIGHTS, name="fig18-flash-mix")
    bg_times = PoissonProcess(0.7 * capacity, name="fig18-flash-bg").sample(horizon, seed)
    bg_assignment = mix.assign(bg_times.size, seed)

    hot_base = 0.02 * capacity
    hot_spike = 100.0 * hot_base  # 2x capacity while the spike is up
    hot_rate = StepRate(hot_base, hot_spike, spike_start, spike_end)
    hot_times = NHPoissonProcess(hot_rate, name="fig18-flash-hot").sample(horizon, seed)

    def make_bg_call(op: str, index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        driver = drivers[op.split("|", 1)[0]]
        kind = op.split("|", 1)[1]
        if kind == "resolve":
            payload = {"type": f"Fig18Type{index % n_types:02d}", "auto_deploy": False}
            value = yield from driver.call(site, server, "get_deployments", payload)
        elif kind == "provision":
            payload = {"type": f"Fig18Type{index % n_types:02d}", "auto_deploy": True}
            value = yield from driver.call(site, server, "get_deployments", payload)
        else:
            payload = {"key": keys[index % len(keys)], "demand": 0.01}
            value = yield from driver.call(site, server, "instantiate", payload)
        return value

    def make_hot_call(op: str, index: int) -> Generator:
        site = client_sites[index % len(client_sites)]
        driver = drivers[op.split("|", 1)[0]]
        payload = {"type": "Fig18Type00", "auto_deploy": False}
        value = yield from driver.call(site, server, "get_deployments", payload)
        return value

    def fire_bg(t: float, i: int) -> None:
        phase = phase_of(t - t0)
        op = f"{phase}|{mix.ops[bg_assignment[i]]}"
        drivers[phase].fire(op, t, i, make_bg_call)

    def fire_hot(t: float, i: int) -> None:
        phase = phase_of(t - t0)
        drivers[phase].fire(f"{phase}|hot", t, i, make_hot_call)

    CohortInjector(vo.sim, bg_times + t0, fire_bg, tick=TICK).start()
    CohortInjector(vo.sim, hot_times + t0, fire_hot, tick=TICK).start()
    vo.sim.run(until=t0 + horizon + DRAIN)

    out_phases: Dict[str, Dict[str, float]] = {}
    for name, start, end in phases:
        s = stats[name]
        span = end - max(start, warmup)
        hot_key = f"{name}|hot"
        hot_digest = s.ops[hot_key].latency if hot_key in s.ops else Histogram()
        bg_resolve = s.ops.get(f"{name}|resolve")
        out_phases[name] = {
            "arrivals": s.offered,
            "completed": s.completed,
            "shed": s.shed_total,
            "timeouts": s.timeout_total,
            "goodput": s.completed / span if span > 0 else 0.0,
            "hot_completed": hot_digest.count,
            "hot_p99_ms": hot_digest.p99 * 1000.0,
            "bg_p99_ms": (bg_resolve.latency.p99 * 1000.0 if bg_resolve else 0.0),
        }
    digest = hashlib.sha256(
        "|".join(f"{name}:{stats[name].fingerprint()}" for name, _, _ in phases).encode()
    ).hexdigest()
    return Fig18Flash(
        capacity=capacity,
        hot_spike_rate=hot_spike,
        phases=out_phases,
        result_digest=digest,
    )


# ---------------------------------------------------------------------------
# Mass-provisioning wave
# ---------------------------------------------------------------------------


@dataclass
class Fig18Wave:
    """Time-to-ready distribution of a cross-VO provisioning wave."""

    installs: int
    statuses: Dict[str, int] = field(default_factory=dict)
    ttr: Dict[str, float] = field(default_factory=dict)
    wave_seconds: float = 0.0
    result_digest: str = ""


def run_fig18_wave(
    seed: int = 41,
    n_sites: int = 8,
    n_types: int = 18,
    span: float = 90.0,
) -> Fig18Wave:
    """Install ``n_types`` fresh types on every site, open-loop staggered.

    Every (type, site) pair is one install request: archive download
    from the origin under fair-share link contention, expand, and two
    build steps on the target's CPU.  Requests start on an exponential
    open-loop schedule across ``span`` seconds in a seeded shuffled
    order, so concurrent downloads genuinely contend.  Reports the
    *distribution* of time-to-ready, not a mean.
    """
    vo = build_vo(
        n_sites=n_sites,
        seed=seed,
        cache_enabled=True,
        monitors=False,
        lifecycle=False,
        contention=True,
    )
    community = vo.community_site
    wave_types: List[Tuple[str, str]] = []
    for i in range(n_types):
        name, type_xml, deployfile_url, deployfile_xml, archive_size = _wave_type(i)
        archive_url = f"http://origin/archives/{name.lower()}.tgz"
        vo.publish_archive(archive_url, archive_size, md5sum=f"c0ffee{archive_size:x}")
        vo.publish_deployfile(deployfile_url, deployfile_xml, md5sum="d41d8cd98f")
        vo.run_process(vo.client_call(
            community, "register_type", payload={"xml": type_xml},
        ))
        wave_types.append((name, type_xml))

    units = [(t, s) for t in range(n_types) for s in vo.site_names]
    rng = arrival_stream(seed, "fig18-wave")
    order = rng.permutation(len(units))
    gaps = rng.exponential(span / max(len(units), 1), len(units))
    times = np.cumsum(gaps)

    ttr = Histogram()
    statuses: Dict[str, int] = {}
    digest = CommutativeDigest()

    def install(type_index: int, site: str) -> Generator:
        name, type_xml = wave_types[type_index]
        start = vo.sim.now
        try:
            result = yield from vo.network.call(
                community, site, RDM_SERVICE, "deploy",
                payload={"type_xml": type_xml},
            )
            if isinstance(result, dict):
                status = "installed" if result.get("success", True) else "failed"
            else:
                status = "installed"
        except Exception as error:
            status = f"error:{type(error).__name__}"
        duration = vo.sim.now - start
        ttr.observe(duration)
        statuses[status] = statuses.get(status, 0) + 1
        digest.fold(f"{name}|{site}|{status}|{duration:.6f}")

    procs: List = []

    def fire(t: float, i: int) -> None:
        type_index, site = units[int(order[i])]
        procs.append(vo.sim.process(install(type_index, site)))

    start_now = vo.sim.now
    CohortInjector(vo.sim, times + start_now, fire, tick=0.01).start()
    # two stages: let every arrival fire, then drain the installs (the
    # VO keeps periodic machinery alive, so run-to-exhaustion never ends)
    vo.sim.run(until=start_now + float(times[-1]) + 0.02)
    vo.sim.run(until=vo.sim.all_of(procs))

    dist = ttr.to_dict()
    return Fig18Wave(
        installs=len(units),
        statuses=dict(sorted(statuses.items())),
        ttr={
            "p50_s": dist["p50_ms"] / 1000.0,
            "p90_s": dist["p90_ms"] / 1000.0,
            "p99_s": dist["p99_ms"] / 1000.0,
            "max_s": dist["max_ms"] / 1000.0,
        },
        wave_seconds=vo.sim.now - start_now,
        result_digest=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# Memory probe (used by the perf harness RSS-flatness gate)
# ---------------------------------------------------------------------------


def run_fig18_memory(
    target_arrivals: int,
    seed: int = 41,
    offered_rate: float = 1500.0,
    n_sites: int = 8,
    admission_limit: Optional[int] = 64,
) -> Dict[str, float]:
    """A fixed-rate open-loop run sized to ``target_arrivals``.

    The perf harness wraps this with before/after RSS readings: the
    streaming-stats footprint and the RSS growth must stay flat as
    ``target_arrivals`` scales 10x (no per-request lists anywhere).
    """
    horizon = target_arrivals / offered_rate
    point = run_fig18_point(
        multiple=1.0,
        capacity=offered_rate,
        seed=seed,
        n_sites=n_sites,
        admission_limit=admission_limit,
        horizon=horizon,
        warmup=min(5.0, 0.1 * horizon),
    )
    return {
        "arrivals": point.arrivals,
        "completed": point.completed,
        "shed": point.shed,
        "timeouts": point.timeouts,
        "failed": point.failed,
        "stats_footprint_bytes": point.stats_footprint_bytes,
        "digest": point.result_digest,
    }


# ---------------------------------------------------------------------------
# Driver + formatting
# ---------------------------------------------------------------------------


@dataclass
class Fig18Result:
    capacity: float
    points: List[Fig18Point]
    flash: Fig18Flash
    wave: Fig18Wave
    merged_digest: str


#: sweep multiples of measured capacity (the ISSUE's 0.5x–4x)
MULTIPLES = (0.5, 1.0, 2.0, 4.0)


def run_fig18(
    seed: int = 41,
    quick: bool = False,
    verify_determinism: bool = True,
    jobs: int = 1,
) -> Fig18Result:
    """The full experiment: sweep + flash crowd + provisioning wave.

    All scenario units are independent fixed-seed simulations, so with
    ``jobs > 1`` they fan out across worker processes; the merged
    digest is order-independent, and with ``verify_determinism`` the
    2x sweep point runs twice and must agree bit-for-bit.
    """
    from repro.runner import WorkUnit, merge_digests, run_units

    sweep_kwargs: Dict = {"seed": seed}
    flash_kwargs: Dict = {"seed": seed}
    wave_kwargs: Dict = {"seed": seed}
    capacity_kwargs: Dict = {"seed": seed}
    if quick:
        sweep_kwargs.update(n_sites=6, horizon=16.0, warmup=4.0)
        flash_kwargs.update(n_sites=6, horizon=24.0, warmup=4.0,
                            spike_start=9.0, spike_end=16.0)
        wave_kwargs.update(n_sites=6, n_types=8, span=30.0)
        capacity_kwargs.update(n_sites=6, clients=24, horizon=8.0, warmup=2.0)

    capacity = run_fig18_capacity(**capacity_kwargs)

    units = [
        WorkUnit(f"fig18:x{multiple}", "repro.experiments.fig18:run_fig18_point",
                 dict(sweep_kwargs, multiple=multiple, capacity=capacity))
        for multiple in MULTIPLES
    ]
    if verify_determinism:
        units.append(WorkUnit(
            "fig18:x2.0-repeat", "repro.experiments.fig18:run_fig18_point",
            dict(sweep_kwargs, multiple=2.0, capacity=capacity),
        ))
    units.append(WorkUnit("fig18:flash", "repro.experiments.fig18:run_fig18_flash",
                          dict(flash_kwargs, capacity=capacity)))
    units.append(WorkUnit("fig18:wave", "repro.experiments.fig18:run_fig18_wave",
                          wave_kwargs))
    results = run_units(units, jobs=jobs)

    points = list(results[:len(MULTIPLES)])
    cursor = len(MULTIPLES)
    if verify_determinism:
        repeat = results[cursor]
        cursor += 1
        reference = next(p for p in points if p.multiple == 2.0)
        if repeat.result_digest != reference.result_digest:
            raise AssertionError(
                f"fig18 2x point is not deterministic for seed {seed}: "
                f"{reference.result_digest} != {repeat.result_digest}"
            )
    flash = results[cursor]
    wave = results[cursor + 1]

    # graceful degradation: goodput must plateau near capacity with
    # shedding engaged, not collapse under 4x offered load
    at_1x = next(p for p in points if p.multiple == 1.0)
    at_max = max(points, key=lambda p: p.multiple)
    if at_1x.goodput <= 0:
        raise AssertionError("fig18: zero goodput at 1x offered load")
    if at_max.goodput < 0.6 * at_1x.goodput:
        raise AssertionError(
            f"fig18: goodput collapsed under overload "
            f"({at_max.goodput:.1f}/s at {at_max.multiple}x vs "
            f"{at_1x.goodput:.1f}/s at 1x)"
        )
    if at_max.shed == 0:
        raise AssertionError(
            f"fig18: no shedding at {at_max.multiple}x offered load — "
            "admission control never engaged"
        )

    named = {f"fig18:x{p.multiple}": p.result_digest for p in points}
    named["fig18:flash"] = flash.result_digest
    named["fig18:wave"] = wave.result_digest
    return Fig18Result(
        capacity=capacity,
        points=points,
        flash=flash,
        wave=wave,
        merged_digest=merge_digests(named),
    )


def format_fig18(result: Fig18Result) -> str:
    """Render the sweep, flash-crowd and wave reports."""
    headers = ["offered", "rate/s", "goodput/s", "shed%", "timeout%",
               "resolve p50/p99/p99.9 ms", "provision p99 ms", "enact p99 ms"]
    rows = []
    for p in result.points:
        resolve = p.per_op.get("resolve", {})
        provision = p.per_op.get("provision", {})
        enact = p.per_op.get("enact", {})
        rows.append([
            f"{p.multiple:.1f}x",
            f"{p.offered_rate:.0f}",
            f"{p.goodput:.0f}",
            f"{100.0 * p.shed_rate:.1f}",
            f"{100.0 * p.timeout_rate:.1f}",
            (f"{resolve.get('p50_ms', 0.0):.1f}/"
             f"{resolve.get('p99_ms', 0.0):.1f}/"
             f"{resolve.get('p999_ms', 0.0):.1f}"),
            f"{provision.get('p99_ms', 0.0):.1f}",
            f"{enact.get('p99_ms', 0.0):.1f}",
        ])
    out = [format_table(
        headers, rows,
        title=(f"Fig. 18 — open-loop overload sweep "
               f"(measured capacity {result.capacity:.0f} req/s)"),
    )]
    shed_attribution = max(
        result.points, key=lambda p: sum(p.server_shed_by_op.values()),
    ).server_shed_by_op
    if shed_attribution:
        detail = ", ".join(f"{op}={n}" for op, n in shed_attribution.items())
        out.append(f"server shed by op (worst point): {detail}")

    flash_headers = ["phase", "arrivals", "goodput/s", "shed", "timeouts",
                     "hot completed", "hot p99 ms", "bg p99 ms"]
    flash_rows = []
    for name in ("before", "during", "after"):
        ph = result.flash.phases.get(name, {})
        flash_rows.append([
            name,
            int(ph.get("arrivals", 0)),
            f"{ph.get('goodput', 0.0):.0f}",
            int(ph.get("shed", 0)),
            int(ph.get("timeouts", 0)),
            int(ph.get("hot_completed", 0)),
            f"{ph.get('hot_p99_ms', 0.0):.1f}",
            f"{ph.get('bg_p99_ms', 0.0):.1f}",
        ])
    out.append(format_table(
        flash_headers, flash_rows,
        title=(f"Fig. 18 — flash crowd (one type spikes 100x to "
               f"{result.flash.hot_spike_rate:.0f}/s)"),
    ))

    wave = result.wave
    statuses = ", ".join(f"{k}={v}" for k, v in wave.statuses.items())
    out.append(
        f"mass-provisioning wave: {wave.installs} installs over "
        f"{wave.wave_seconds:.0f}s — time-to-ready p50 {wave.ttr['p50_s']:.1f}s, "
        f"p90 {wave.ttr['p90_s']:.1f}s, p99 {wave.ttr['p99_s']:.1f}s, "
        f"max {wave.ttr['max_s']:.1f}s ({statuses})"
    )
    out.append(
        "open-loop arrivals (cohort-injected, seeded) vs closed-loop "
        "probes elsewhere; shed = admission-control Overloaded, "
        "timeout = per-request deadline exceeded."
    )
    return "\n".join(out)
