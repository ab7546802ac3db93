"""The four benchmark workloads, driven through GLARE's public APIs.

Every workload is a fixed-size simulation.  Its inputs (arrival times,
op mix, think times, install order) are generated here from the seed
with ``repro.load`` public APIs, so the program under test only ever
receives inputs.  One *rep* builds a fresh VO and registers content,
runs the inputs until every request has resolved (timed as the run
phase), and returns an :class:`Outcome`: per-request
outcome codes, exact latencies measured from each request's *due*
time, an outcome digest and the list of correctness problems found.
Set-up is timed on its own.

The same seed always yields the same outcome digest; that is what lets
a later change to the simulator prove it left the modelled VO alone.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.glare.model import ActivityDeployment, DeploymentKind, DeploymentStatus
from repro.glare.rdm import RDM_SERVICE
from repro.invariants import check_vo_invariants
from repro.load import (
    CohortInjector,
    OpenLoopDriver,
    PoissonProcess,
    StreamStats,
    TrafficMix,
    arrival_stream,
)
from repro.net.interceptors import Overloaded, RpcTimeout
from repro.obs import Observability
from repro.vo import build_vo

#: outcome codes of one request
PENDING, OK, SHED, TIMEOUT, FAILED = -1, 0, 1, 2, 3

#: finished spans the observed workload keeps (bounded ring)
SPAN_RING = 4096


@dataclass
class Inputs:
    """Seed-derived inputs of one workload run."""

    seed: int
    horizon: float
    #: open loop: sorted due times; wave: due time of each install
    due: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: open loop: op name per arrival; wave: (type, site) unit per install
    ops: Tuple = ()
    #: closed loop: think time per (client, request slot)
    think: Optional[np.ndarray] = None


@dataclass
class Outcome:
    """What one rep did, as the modelled VO saw it."""

    attempted: int
    completed: int
    shed: int
    timeouts: int
    failed: int
    #: exact latencies (s) of measured completed requests, due -> done
    latencies: np.ndarray
    #: simulated length of the measured window (s)
    window_s: float
    digest: str
    problems: List[str]
    #: largest injection lag (fire time minus due time, s)
    inject_lag_s: float = 0.0
    cohorts: int = 0

    @property
    def goodput_rps(self) -> float:
        done = int(self.latencies.size)
        return done / self.window_s if self.window_s > 0 else 0.0


class Tally:
    """Per-request bookkeeping of one rep: due time, outcome, completion."""

    __slots__ = ("due", "code", "done", "lag", "reclosed")

    def __init__(self, due: Sequence[float] = ()) -> None:
        self.due: List[float] = [float(t) for t in due]
        self.code: List[int] = [PENDING] * len(self.due)
        self.done: List[float] = [float("nan")] * len(self.due)
        #: largest fire-minus-due lag of an injected request
        self.lag = 0.0
        #: requests closed after they already had an outcome
        self.reclosed = 0

    def fired(self, index: int, now: float) -> None:
        """Request ``index`` was injected at ``now``."""
        self.lag = max(self.lag, now - self.due[index])

    def open(self, due: float) -> int:
        self.due.append(due)
        self.code.append(PENDING)
        self.done.append(float("nan"))
        return len(self.due) - 1

    def close(self, index: int, now: float, error: Optional[BaseException] = None) -> None:
        if error is None:
            code = OK
        elif isinstance(error, Overloaded):
            code = SHED
        elif isinstance(error, RpcTimeout):
            code = TIMEOUT
        else:
            code = FAILED
        if self.code[index] != PENDING:
            self.reclosed += 1
        self.code[index] = code
        self.done[index] = now

    def outcome(self, window: Tuple[float, float], window_s: float,
                extra_digest: str = "") -> Outcome:
        due = np.asarray(self.due, dtype=np.float64)
        code = np.asarray(self.code, dtype=np.int8)
        done = np.asarray(self.done, dtype=np.float64)
        measured = (due >= window[0]) & (due < window[1])
        ok = measured & (code == OK)
        digest = hashlib.sha256()
        for array in (due, code, done):
            digest.update(array.tobytes())
        digest.update(extra_digest.encode())
        # one code per request, so attempted = completed + shed + timeouts
        # + failed holds by construction once nothing is left pending
        counts = np.bincount(code[code >= 0], minlength=4)
        problems = []
        pending = int(np.count_nonzero(code == PENDING))
        if pending:
            problems.append(f"{pending} requests never resolved")
        if self.reclosed:
            problems.append(f"{self.reclosed} requests resolved twice")
        return Outcome(
            attempted=int(code.size),
            completed=int(counts[OK]),
            shed=int(counts[SHED]),
            timeouts=int(counts[TIMEOUT]),
            failed=int(counts[FAILED]),
            latencies=np.sort(done[ok] - due[ok]),
            window_s=window_s,
            digest=digest.hexdigest(),
            problems=problems,
        )


def drained_problems(vo) -> List[str]:
    """Post-drain checks: VO invariants hold and nothing is in flight."""
    problems = list(check_vo_invariants(vo))
    for node in vo.network.nodes.values():
        if node.inflight_rpcs:
            problems.append(f"{node.name}: {node.inflight_rpcs} RPCs still in flight")
        for service in node.services.values():
            if service.inflight:
                problems.append(
                    f"{node.name}/{service.name}: inflight={service.inflight} after drain"
                )
    return problems


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


class Workload:
    """One named workload: inputs from a seed, a VO, and a drive loop."""

    name = ""
    #: tracing and metrics on (spans kept in a bounded ring)
    observe = False
    #: every request is an install (the ledger reports per-install counts)
    installs = False
    #: input scale of the short timed reps (a run phase of ~0.25-0.5 s)
    TIMING_SCALE = 0.1

    def inputs(self, seed: int, scale: float = 1.0) -> Inputs:
        """Inputs generated from ``seed``; ``scale`` < 1 shrinks them."""
        raise NotImplementedError

    def setup(self, inputs: Inputs) -> Any:
        """Build the VO and register content; returns the run state."""
        raise NotImplementedError

    def drive(self, state: Any, inputs: Inputs) -> Outcome:
        """Run the inputs to drain on a set-up VO."""
        raise NotImplementedError

    def _observability(self):
        return Observability(enabled=True, max_spans=SPAN_RING) if self.observe else False


TYPE_XML = """
<ActivityTypeEntry name="{name}" kind="concrete">
  <Domain>perfbench</Domain>
  <Function name="run"><Input>data</Input><Output>result</Output></Function>
</ActivityTypeEntry>
"""


def _register_type(vo, site: str, name: str) -> None:
    vo.run_process(vo.client_call(
        site, "register_type", payload={"xml": TYPE_XML.format(name=name)},
    ))


def _register_deployment(vo, site: str, type_name: str, name: str) -> None:
    """Install an executable on ``site``'s disk and register it ACTIVE."""
    lower = type_name.lower()
    vo.stack(site).site.fs.put_file(
        f"/opt/deployments/{lower}/bin/{name}", size=400_000, executable=True,
    )
    deployment = ActivityDeployment(
        name=name,
        type_name=type_name,
        kind=DeploymentKind.EXECUTABLE,
        site=site,
        path=f"/opt/deployments/{lower}/bin/{name}",
        home=f"/opt/deployments/{lower}",
        status=DeploymentStatus.ACTIVE,
    )
    vo.run_process(vo.client_call(
        site, "register_deployment", payload={"xml": deployment.wire_xml()},
    ))


class OverloadOpen(Workload):
    """Open-loop Poisson traffic at a fixed rate past one server's capacity.

    The fig18 mix (resolve / provision / enact) against one RDM server
    with admission control, every request under the driver's
    single-attempt deadline, so ~40% of arrivals are shed.
    """

    name = "overload_open"
    RATE = 1500.0
    HORIZON = 10.0
    WARMUP = 1.0
    N_SITES = 8
    N_TYPES = 6
    ADMISSION_LIMIT = 64
    REQUEST_TIMEOUT = 8.0
    DRAIN = REQUEST_TIMEOUT + 4.0
    TICK = 0.005
    MIX = {"resolve": 0.90, "provision": 0.06, "enact": 0.04}

    def inputs(self, seed: int, scale: float = 1.0) -> Inputs:
        horizon = self.HORIZON * scale
        due = PoissonProcess(self.RATE, name="perfbench-arrivals").sample(horizon, seed)
        mix = TrafficMix(self.MIX, name="perfbench-mix")
        ops = tuple(mix.ops[k] for k in mix.assign(due.size, seed))
        return Inputs(seed=seed, horizon=horizon, due=due, ops=ops)

    def setup(self, inputs: Inputs) -> Any:
        vo = build_vo(
            n_sites=self.N_SITES, seed=inputs.seed, cache_enabled=True,
            monitors=False, lifecycle=False, admission_limit=self.ADMISSION_LIMIT,
            gram_overhead=0.05, observability=self._observability(),
        )
        server = vo.site_names[1]
        keys: List[str] = []
        for i in range(self.N_TYPES):
            type_name = f"BenchType{i:02d}"
            _register_type(vo, server, type_name)
            _register_deployment(vo, server, type_name, f"{type_name.lower()}-bin")
            wires = vo.run_process(vo.client_call(
                server, "get_deployments",
                payload={"type": type_name, "auto_deploy": False},
            ))
            keys.extend(sorted(str(w["epr"]["key"]) for w in wires))
        return vo, server, keys

    def drive(self, state: Any, inputs: Inputs) -> Outcome:
        vo, server, keys = state
        sim = vo.sim
        t0 = sim.now
        clients = [s for s in vo.site_names if s != server]
        stats = StreamStats(window=2.0)
        driver = OpenLoopDriver(vo, stats, request_timeout=self.REQUEST_TIMEOUT)
        due = inputs.due + t0
        tally = Tally(due)
        n_types = self.N_TYPES

        def make_call(op: str, index: int) -> Generator:
            site = clients[index % len(clients)]
            if op == "enact":
                method = "instantiate"
                payload = {"key": keys[index % len(keys)], "demand": 0.01}
            else:
                method = "get_deployments"
                payload = {"type": f"BenchType{index % n_types:02d}",
                           "auto_deploy": op == "provision"}
            try:
                value = yield from driver.call(site, server, method, payload)
            except Exception as error:
                tally.close(index, sim.now, error)
                raise
            tally.close(index, sim.now)
            return value

        def fire(t: float, index: int) -> None:
            tally.fired(index, sim.now)
            driver.fire(inputs.ops[index], t, index, make_call)

        injector = CohortInjector(sim, due, fire, tick=self.TICK)
        injector.start()
        sim.run(until=t0 + inputs.horizon + self.DRAIN)

        warmup = min(self.WARMUP, 0.1 * inputs.horizon)
        out = tally.outcome((t0 + warmup, t0 + inputs.horizon),
                            inputs.horizon - warmup, extra_digest=stats.fingerprint())
        out.inject_lag_s = tally.lag
        out.cohorts = injector.cohorts
        driver_counts = (stats.completed, stats.shed_total, stats.timeout_total,
                         stats.failed_total)
        if driver_counts != (out.completed, out.shed, out.timeouts, out.failed):
            out.problems.append(
                f"driver counted {driver_counts}, benchmark counted "
                f"{(out.completed, out.shed, out.timeouts, out.failed)}"
            )
        if driver.spawned != out.attempted:
            out.problems.append(f"driver spawned {driver.spawned} of {out.attempted}")
        out.problems += drained_problems(vo)
        return out


class OverloadObs(OverloadOpen):
    """``overload_open`` with tracing and metrics on (bounded span ring)."""

    name = "overload_obs"
    observe = True


class ResolveFanout(Workload):
    """Closed-loop resolution of one type spread over seven registries.

    The fig12 "no cache, 7 sites" shape: clients at three client sites
    ask their local RDM for the full deployment list, and with caches
    off every request fans out to the registry sites.  26 clients with
    a 50 ms mean think time keep the registries ~80% busy, so requests
    queue now and then and latency depends on the seed.
    """

    name = "resolve_fanout"
    TIMING_SCALE = 0.05
    N_REGISTRY = 7
    N_CLIENT_SITES = 3
    CLIENTS = 26
    #: mean think time; each gap is uniform on [THINK/2, 3*THINK/2]
    THINK = 0.05
    DEPLOYMENTS = 42
    HORIZON = 4.2
    WARMUP = 0.42
    TYPE_NAME = "FanoutSolver"

    def inputs(self, seed: int, scale: float = 1.0) -> Inputs:
        horizon = self.HORIZON * scale
        slots = int(4 * horizon / self.THINK) + 1
        think = arrival_stream(seed, "perfbench-think").uniform(
            0.5 * self.THINK, 1.5 * self.THINK, size=(self.CLIENTS, slots))
        return Inputs(seed=seed, horizon=horizon, think=think)

    def setup(self, inputs: Inputs) -> Any:
        n_sites = self.N_REGISTRY + self.N_CLIENT_SITES
        vo = build_vo(
            n_sites=n_sites, seed=inputs.seed, cache_enabled=False,
            group_size=n_sites + 1, monitors=False,
            observability=self._observability(),
        )
        vo.form_overlay()
        registries = vo.site_names[:self.N_REGISTRY]
        for site in registries:
            _register_type(vo, site, self.TYPE_NAME)
        for k in range(self.DEPLOYMENTS):
            site = registries[k % len(registries)]
            _register_deployment(vo, site, self.TYPE_NAME, f"solver{k:03d}")
        return vo, vo.site_names[self.N_REGISTRY:]

    def drive(self, state: Any, inputs: Inputs) -> Outcome:
        vo, client_sites = state
        sim = vo.sim
        t0 = sim.now
        end = t0 + inputs.horizon
        tally = Tally()
        think = inputs.think
        payload = {"type": self.TYPE_NAME, "auto_deploy": False}
        short: List[int] = []

        def client(c: int) -> Generator:
            site = client_sites[c % len(client_sites)]
            gaps = think[c]
            k = 0
            while True:
                yield sim.timeout(float(gaps[k % gaps.size]))
                k += 1
                if sim.now >= end:
                    return
                index = tally.open(sim.now)
                try:
                    wires = yield from vo.client_call(site, "get_deployments", payload=payload)
                except Exception as error:
                    tally.close(index, sim.now, error)
                else:
                    tally.close(index, sim.now)
                    if len({w["epr"]["key"] for w in wires}) != self.DEPLOYMENTS:
                        short.append(index)

        procs = [sim.process(client(c), name=f"perfbench-client-{c}")
                 for c in range(self.CLIENTS)]
        sim.run(until=sim.all_of(procs))

        warmup = min(self.WARMUP, 0.1 * inputs.horizon)
        out = tally.outcome((t0 + warmup, end), inputs.horizon - warmup)
        if short:
            out.problems.append(
                f"{len(short)} answers did not list all {self.DEPLOYMENTS} deployments"
            )
        out.problems += drained_problems(vo)
        return out


WAVE_TYPE_XML = """
<ActivityTypeEntry name="{name}" kind="concrete">
  <Domain>wave</Domain>
  <BaseType>SyntheticService</BaseType>
  <Function name="run"><Input>data</Input><Output>result</Output></Function>
  <Installation mode="on-demand">
    <Constraints><platform>Intel</platform><os>Linux</os><arch>32bit</arch></Constraints>
    <DeployFile url="{deployfile_url}" md5sum="d41d8cd98f"/>
  </Installation>
</ActivityTypeEntry>
"""

WAVE_DEPLOYFILE = """
<Build baseDir="$DEPLOYMENT_DIR/{lower}" defaultTask="Deploy" name="{name}">
  <Step name="Init" task="mkdir-p" baseDir="$DEPLOYMENT_DIR/{lower}" timeout="10">
    <Property name="argument" value="{home}"/>
  </Step>
  <Step name="Download" depends="Init" task="$GLOBUS_LOCATION/bin/globus-url-copy"
        baseDir="{home}" timeout="600">
    <Property name="source" value="{archive_url}"/>
    <Property name="destination" value="file://{home}/{lower}.tgz"/>
    <Property name="md5sum" value="{md5}"/>
  </Step>
  <Step name="Expand" depends="Download" task="tar xvfz" baseDir="{home}" timeout="60">
    <Property name="argument" value="{home}/{lower}.tgz"/>
  </Step>
  <Step name="Configure" depends="Expand" task="sh ./configure" baseDir="{home}"
        timeout="60" demand="{configure_demand}">
  </Step>
  <Step name="Install" depends="Configure" task="make install" baseDir="{home}"
        timeout="120" demand="0.2">
    <Produces path="bin/{lower}" size="{binary_size}" executable="true"/>
  </Step>
</Build>
"""


class ProvisionWave(Workload):
    """Open-loop wave of (type, site) installs under link contention.

    Every install fetches the deploy file, downloads an archive from the
    origin through the hub (fair-share bandwidth), expands it and runs
    two build steps on the target's CPU (fig18's default ``expect``
    handler, so no GRAM jobs), then registers the deployment.  Latency
    is time-to-ready.
    """

    name = "provision_wave"
    installs = True
    N_SITES = 32
    N_TYPES = 36
    SPAN = 480.0
    TICK = 0.01

    def _types(self) -> List[Dict[str, Any]]:
        out = []
        for i in range(self.N_TYPES):
            name = f"Wave{i:02d}"
            lower = name.lower()
            archive_size = 2_000_000 + 350_000 * (i % 7)
            out.append({
                "name": name,
                "lower": lower,
                "home": f"$DEPLOYMENT_DIR/{lower}/{lower}",
                "archive_url": f"http://origin/archives/{lower}.tgz",
                "deployfile_url": f"http://origin/deployfiles/{lower}.build",
                "archive_size": archive_size,
                "md5": f"c0ffee{archive_size:x}",
                "configure_demand": 0.3 + 0.05 * (i % 5),
                "binary_size": 400_000 + 10_000 * i,
            })
        return out

    def inputs(self, seed: int, scale: float = 1.0) -> Inputs:
        """The whole wave; ``scale`` < 1 keeps its first installs only.

        The VO keeps all its sites and types, so a shortened wave has
        the same arrival rate, install mix and link contention.
        """
        units = [(t, s) for t in range(self.N_TYPES) for s in range(self.N_SITES)]
        rng = arrival_stream(seed, "perfbench-wave")
        order = rng.permutation(len(units))
        due = np.cumsum(rng.exponential(self.SPAN / len(units), len(units)))
        n = max(1, round(len(units) * scale))
        return Inputs(seed=seed, horizon=self.SPAN * n / len(units), due=due[:n],
                      ops=tuple(units[k] for k in order[:n]))

    def setup(self, inputs: Inputs) -> Any:
        vo = build_vo(
            n_sites=self.N_SITES, seed=inputs.seed, cache_enabled=True,
            monitors=False, lifecycle=False, contention=True,
            observability=self._observability(),
        )
        type_xml = []
        for spec in self._types():
            vo.publish_archive(spec["archive_url"], spec["archive_size"], md5sum=spec["md5"])
            deployfile = WAVE_DEPLOYFILE.format(**spec)
            vo.publish_deployfile(spec["deployfile_url"], deployfile, md5sum="d41d8cd98f")
            xml = WAVE_TYPE_XML.format(**spec)
            vo.run_process(vo.client_call(
                vo.community_site, "register_type", payload={"xml": xml},
            ))
            type_xml.append(xml)
        return vo, type_xml

    def _unregistered(self, vo, inputs: Inputs, tally: Tally) -> List[str]:
        """Completed installs with no ACTIVE deployment in the site's registry."""
        missing = 0
        for index, (type_index, site_index) in enumerate(inputs.ops):
            if tally.code[index] != OK:
                continue
            site = vo.site_names[site_index]
            found = vo.stack(site).adr.local_deployments_for(f"Wave{type_index:02d}")
            if not any(d.site == site and d.status is DeploymentStatus.ACTIVE for d in found):
                missing += 1
        return [f"{missing} completed installs are not registered ACTIVE"] if missing else []

    def drive(self, state: Any, inputs: Inputs) -> Outcome:
        vo, type_xml = state
        sim = vo.sim
        community = vo.community_site
        sites = vo.site_names
        t0 = sim.now
        due = inputs.due + t0
        tally = Tally(due)
        procs: List = []

        def install(index: int) -> Generator:
            type_index, site_index = inputs.ops[index]
            try:
                result = yield from vo.network.call(
                    community, sites[site_index], RDM_SERVICE, "deploy",
                    payload={"type_xml": type_xml[type_index]},
                )
            except Exception as error:
                tally.close(index, sim.now, error)
                return
            if isinstance(result, dict) and not result.get("success", True):
                tally.close(index, sim.now, RuntimeError("install reported failure"))
            else:
                tally.close(index, sim.now)

        def fire(t: float, index: int) -> None:
            tally.fired(index, sim.now)
            procs.append(sim.process(install(index)))

        injector = CohortInjector(sim, due, fire, tick=self.TICK)
        injector.start()
        sim.run(until=float(due[-1]) + 2 * self.TICK)
        sim.run(until=sim.all_of(procs))

        out = tally.outcome((t0, float("inf")), sim.now - t0)
        out.inject_lag_s = tally.lag
        out.cohorts = injector.cohorts
        out.problems += self._unregistered(vo, inputs, tally)
        out.problems += drained_problems(vo)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (OverloadOpen(), OverloadObs(), ResolveFanout(), ProvisionWave())
}


@dataclass
class Rep:
    """One rep: its set-up and run-phase wall times and its outcome."""

    setup_s: float
    run_s: float
    outcome: Outcome

    @property
    def requests_per_wall_s(self) -> float:
        return self.outcome.attempted / self.run_s


def run_rep(workload: Workload, inputs: Inputs,
            around_run: Optional[Callable[[Any], Any]] = None) -> Rep:
    """Set up a fresh VO, then drive ``inputs`` through it to drain.

    Set-up and run phase are timed apart.  ``around_run(state)`` may
    return a context manager entered around the run phase only (the
    traced run profiles there).
    """
    start = time.perf_counter()
    state = workload.setup(inputs)
    setup_s = time.perf_counter() - start
    with around_run(state) if around_run is not None else nullcontext():
        start = time.perf_counter()
        outcome = workload.drive(state, inputs)
        run_s = time.perf_counter() - start
    return Rep(setup_s=setup_s, run_s=run_s, outcome=outcome)
