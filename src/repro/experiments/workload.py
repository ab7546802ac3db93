"""Shared workload machinery for the figure experiments.

Closed-loop clients, think-time requesters, notification sinks, and
the synthetic activity-type population used by the registry/index
comparisons (Figs. 10/11/13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.glare.model import ActivityType
from repro.net.network import RpcTimeout
from repro.obs.metrics import Histogram
from repro.simkernel import Simulator
from repro.simkernel.errors import Interrupt, OfflineError
from repro.wsrf.xmldoc import Element


def synthetic_type_doc(index: int) -> Element:
    """A realistic-size activity-type resource document (~14 nodes).

    Matches what the GLARE registries and the WS-MDS index actually
    aggregate: name, domain, base type, functions with I/O, benchmark
    entries, installation constraints.
    """
    doc = Element("ActivityTypeEntry",
                  attrib={"name": f"type{index:04d}", "kind": "concrete"})
    doc.make_child("Domain", text=f"domain{index % 7}")
    doc.make_child("BaseType", text=f"base{index % 11}")
    function = doc.make_child("Function", attrib={"name": "run"})
    function.make_child("Input", text="data")
    function.make_child("Output", text="result")
    doc.make_child("Benchmark", text="1.0", platform="Intel")
    installation = doc.make_child("Installation", mode="on-demand")
    constraints = installation.make_child("Constraints")
    constraints.make_child("platform", text="Intel")
    constraints.make_child("os", text="Linux")
    installation.make_child("DeployFile", url=f"http://x/t{index}.build")
    doc.make_child("Provider", text=f"provider{index % 3}")
    return doc


def synthetic_activity_type(index: int) -> ActivityType:
    """The model object corresponding to :func:`synthetic_type_doc`."""
    return ActivityType.from_xml(synthetic_type_doc(index))


@dataclass
class ClientStats:
    """What a load generator records — streaming, no per-request list.

    ``observations``/``response_total`` replace the old unbounded
    ``response_times`` list.  ``response_total`` accumulates with the
    same left-to-right float additions ``sum(list)`` performed, so
    ``mean_response`` stays *bit-identical* to the list-based
    implementation (the perf fingerprints pin ``repr`` of fig10 means).
    The latency histogram adds percentiles at fixed size.
    """

    completed: int = 0
    failed: int = 0
    observations: int = 0
    response_total: float = 0.0
    latency: Histogram = field(default_factory=Histogram)

    def observe(self, seconds: float) -> None:
        """Record one measured response time."""
        self.observations += 1
        self.response_total += seconds
        self.latency.observe(seconds)

    def merge(self, other: "ClientStats") -> None:
        self.completed += other.completed
        self.failed += other.failed
        self.observations += other.observations
        self.response_total += other.response_total
        self.latency.merge(other.latency)

    @property
    def mean_response(self) -> float:
        if not self.observations:
            return float("nan")
        return self.response_total / self.observations


def closed_loop_client(
    sim: Simulator,
    request: Callable[[], Generator],
    stats: ClientStats,
    think_time: float = 0.0,
    request_timeout: Optional[float] = None,
    warmup: float = 0.0,
    think_sampler: Optional[Callable[[], float]] = None,
) -> Generator:
    """A client that issues requests back-to-back (optional think time).

    ``request`` is a zero-argument callable returning a fresh
    sub-generator per call.  Responses completed before ``warmup`` are
    not counted.  ``think_sampler`` overrides the fixed think time with
    a drawn one (e.g. exponential, for Poisson-like arrivals).  Runs
    until interrupted or the simulation horizon.
    """
    try:
        while True:
            start = sim.now
            try:
                yield from request()
                if sim.now >= warmup:
                    stats.completed += 1
                    stats.observe(sim.now - start)
            except (OfflineError, RpcTimeout):
                if sim.now >= warmup:
                    stats.failed += 1
            pause = think_sampler() if think_sampler is not None else think_time
            if pause > 0:
                yield sim.timeout(pause)
    except Interrupt:
        return


def spawn_clients(
    sim: Simulator,
    count: int,
    request_factory: Callable[[int], Callable[[], Generator]],
    think_time: float = 0.0,
    warmup: float = 0.0,
    exponential_think: bool = False,
) -> ClientStats:
    """Start ``count`` closed-loop clients; returns their shared stats.

    ``exponential_think`` draws each pause from an exponential with
    mean ``think_time`` (memoryless users => Poisson-like arrivals).
    """
    stats = ClientStats()
    for index in range(count):
        request = request_factory(index)
        sampler = None
        if exponential_think and think_time > 0:
            sampler = (lambda i=index: sim.rng.exponential(f"think-{i}", think_time))
        sim.process(
            closed_loop_client(sim, request, stats, think_time=think_time,
                               warmup=warmup, think_sampler=sampler),
            name=f"client-{index}",
        )
    return stats


def measure_throughput(
    sim: Simulator,
    stats: ClientStats,
    horizon: float,
    warmup: float = 0.0,
) -> float:
    """Run to ``horizon`` and return completed requests per second."""
    sim.run(until=horizon)
    window = horizon - warmup
    if window <= 0:
        raise ValueError("horizon must exceed warmup")
    return stats.completed / window
