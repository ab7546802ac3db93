"""Node runtimes and the RPC transport primitive.

A :class:`Network` binds a :class:`~repro.net.topology.Topology` to a
simulator: every site gets a :class:`NodeRuntime` (CPU + registered
services + online flag), and processes anywhere in the model invoke
remote operations through ``yield from network.call(...)``.

Calls flow through the interceptor pipeline of
:mod:`repro.net.interceptors` (trace, metrics, SLO, fault injection —
each installed only when its subsystem is on) into the terminal
*transport* stage, :meth:`Network._transport`, which charges, in order:
client marshalling CPU, security handshake latency, request
transmission (propagation + size/bandwidth), server-side crypto +
unmarshalling CPU, the service handler itself (which typically
executes on the server CPU), and the response transmission back.  This
is the cost model every experiment in the paper's evaluation rides on,
and ``_transport`` is the only code that charges it: with no layer
installed the pipeline is that stage alone.  A :class:`RetryPolicy`
passed to :meth:`Network.call` re-runs the whole pipeline per attempt.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.net.interceptors import (
    CallContext,
    FaultInterceptor,
    MetricsInterceptor,
    RemoteError,
    RetryPolicy,
    RpcTimeout,
    SLOInterceptor,
    TraceInterceptor,
    compose,
)
from repro.net.message import Message, Response
from repro.net.topology import Topology
from repro.net.transport import SecurityPolicy
from repro.obs import Observability
from repro.obs import disabled as _disabled_observability
from repro.obs.slo import CALL as SLO_CALL_LEVEL
from repro.simkernel import CPU, Simulator
from repro.simkernel.errors import OfflineError, SimulationError


class ServiceNotFound(SimulationError):
    """No service with the requested name is deployed on the target node."""


class NodeRuntime:
    """Per-site execution context: CPU, services, liveness."""

    def __init__(self, network: "Network", name: str, cpu: CPU) -> None:
        self.network = network
        self.name = name
        self.cpu = cpu
        self.services: Dict[str, Any] = {}
        self.online = True
        # traffic counters (for reports and tests)
        self.messages_in = 0
        self.messages_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: RPCs currently being served on this node (always maintained:
        #: admission control and the observability gauge both read it)
        self.inflight_rpcs = 0

    def service(self, name: str):
        """Look up a deployed service by name."""
        try:
            return self.services[name]
        except KeyError:
            raise ServiceNotFound(f"service {name!r} not found on node {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "OFFLINE"
        return f"<NodeRuntime {self.name} [{state}] services={sorted(self.services)}>"


class Network:
    """The simulated WAN plus per-node runtimes and RPC.

    Parameters
    ----------
    sim, topology:
        Simulator and static topology.
    security:
        Default :class:`SecurityPolicy` applied to calls that do not
        override it.
    marshal_cpu_per_kb:
        Serialization/deserialization CPU demand per kilobyte, charged
        at both endpoints (models SOAP/XML processing in GT4).
    connect_fail_delay:
        Time a caller loses discovering that the target is offline
        (connection timeout).
    contention:
        When true, concurrent transmissions crossing the same link
        share its bandwidth (snapshot fair-share approximation: a
        transfer starting while N others are active on its bottleneck
        path runs at bandwidth/(N+1)).  Off by default: the paper's
        experiments never saturate links, and the calibrated timings
        assume dedicated paths.
    obs:
        The VO's :class:`~repro.obs.Observability` bundle.  When
        enabled, every RPC is wrapped in client/server spans, the
        envelope carries trace-context metadata, and per-endpoint
        latency histograms and call counters are recorded.  Defaults
        to a disabled instance (one attribute check per call).
    faults:
        The VO's :class:`~repro.faults.FaultPlane`.  When enabled, a
        fault-injection layer joins the pipeline (link loss,
        partitions) and the dispatch step applies per-service error
        rules.  Defaults to a disabled plane.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        security: Optional[SecurityPolicy] = None,
        marshal_cpu_per_kb: float = 0.0002,
        connect_fail_delay: float = 1.0,
        contention: bool = False,
        obs: Optional[Observability] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.security = security or SecurityPolicy.http()
        self.obs = obs if obs is not None else _disabled_observability()
        self.obs.bind(sim)
        #: health registry shared with ``Service.dispatch`` (may be None)
        self.health = self.obs.health
        if faults is None:
            # deferred import: repro.faults itself imports the pipeline
            from repro.faults import FaultPlane

            faults = FaultPlane(sim)
        self.faults = faults.bind(self)
        self.marshal_cpu_per_kb = marshal_cpu_per_kb
        self.connect_fail_delay = connect_fail_delay
        self.contention = contention
        self._link_active: Dict[tuple, int] = {}
        self.nodes: Dict[str, NodeRuntime] = {}
        self.total_messages = 0
        self.total_bytes = 0
        #: retry-layer attempts beyond the first, across all calls
        self.retries_total = 0
        self.interceptors: list = []
        self.rebuild_pipeline()

    def rebuild_pipeline(self) -> None:
        """(Re)compose the interceptor chain around the transport stage.

        Layers are installed only when their subsystem is on.  With none
        installed ``compose`` returns :meth:`_transport` itself, so the
        all-off default runs the cost model with no layer frames at all.
        """
        layers = []
        if self.obs.enabled:
            layers.append(TraceInterceptor(self))
            layers.append(MetricsInterceptor(self))
        if self.obs.slo is not None:
            # inside trace/metrics, outside faults: each SLI event also
            # sees the faults the fault layer injects below it
            layers.append(SLOInterceptor(self))
        if self.faults.enabled:
            layers.append(FaultInterceptor(self))
        self.interceptors = layers
        self._invoke = compose(layers, self._transport)

    # -- node management ---------------------------------------------------

    def add_node(self, name: str, cores: int = 2, speed: float = 1.0) -> NodeRuntime:
        """Create the runtime for site ``name`` (adds it to the topology)."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        if name not in self.topology.sites():
            self.topology.add_site(name)
        runtime = NodeRuntime(self, name, CPU(self.sim, cores=cores, speed=speed))
        self.nodes[name] = runtime
        return runtime

    def node(self, name: str) -> NodeRuntime:
        """Runtime for site ``name``."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ValueError(f"unknown node {name!r}")

    def register_service(self, service) -> None:
        """Deploy ``service`` (must expose .name and .node_name)."""
        runtime = self.node(service.node_name)
        if service.name in runtime.services:
            raise ValueError(
                f"service {service.name!r} already deployed on {service.node_name!r}"
            )
        runtime.services[service.name] = service

    def set_online(self, name: str, online: bool) -> None:
        """Fail or recover a site; offline nodes refuse all calls."""
        self.node(name).online = online

    def is_online(self, name: str) -> bool:
        """Liveness of site ``name``."""
        return self.node(name).online

    # -- transmission ----------------------------------------------------------

    def _transmit(self, src: str, dst: str, size: int) -> Generator:
        """Move ``size`` bytes over a contended path: propagation + shared bandwidth.

        Only used with ``contention=True`` between distinct sites; every
        other leg is one inline timeout in :meth:`_transport`.
        """
        latency, bandwidth = self.topology.path_metrics(src, dst)
        edges = self.topology.path_edges(src, dst)
        active = max((self._link_active.get(e, 0) for e in edges), default=0)
        effective = bandwidth / (active + 1)
        for edge in edges:
            self._link_active[edge] = self._link_active.get(edge, 0) + 1
        try:
            yield self.sim.timeout(latency + size / effective)
        finally:
            for edge in edges:
                self._link_active[edge] -= 1
                if self._link_active[edge] <= 0:
                    del self._link_active[edge]

    # -- RPC -----------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        service: str,
        method: str,
        payload: Any = None,
        size: int = 0,
        security: Optional[SecurityPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> Generator:
        """Sub-generator performing one remote call; yields the result.

        Use as ``value = yield from network.call(...)``.  Raises
        :class:`OfflineError` when either endpoint is down,
        :class:`ServiceNotFound` for unknown services, and re-raises
        application exceptions from the remote handler.  With a
        ``retry`` policy the whole pipeline is re-run per attempt
        (per-attempt timeouts raise :class:`RpcTimeout`; transient
        errors back off and retry within the deadline budget).  With no
        layer installed the pipeline *is* :meth:`_transport`.
        """
        ctx = CallContext(src, dst, service, method, payload, size, security)
        if retry is not None and retry.engaged:
            dispatch = self._call_with_policy(ctx, retry)
        else:
            dispatch = self._invoke(ctx)
        engine = self.obs.slo
        if engine is None:
            value = yield from dispatch
            return value
        # call-level SLI: one event per client-visible outcome, after
        # the whole retry loop resolved (attempt-level events come from
        # the SLOInterceptor inside the pipeline)
        started = self.sim.now
        ok = False
        try:
            value = yield from dispatch
            ok = True
        finally:
            engine.record(ctx.endpoint, started, self.sim.now, ok,
                          level=SLO_CALL_LEVEL)
        return value

    # -- retry layer -----------------------------------------------------------

    def _call_with_policy(self, ctx: CallContext, policy: RetryPolicy) -> Generator:
        """Run the pipeline under ``policy`` (attempts, timeouts, backoff)."""
        sim = self.sim
        start = sim.now
        jitter_key = f"retry:{ctx.src}:{ctx.endpoint}"
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.attempts + 1):
            ctx.attempt = attempt
            remaining = None
            if policy.deadline is not None:
                remaining = policy.deadline - (sim.now - start)
                if remaining <= 0:
                    break
            per_try = policy.per_try_timeout
            if per_try is None:
                per_try = remaining
            elif remaining is not None:
                per_try = min(per_try, remaining)
            try:
                if per_try is None:
                    value = yield from self._invoke(ctx)
                else:
                    value = yield from self._attempt_with_deadline(ctx, per_try)
                return value
            except BaseException as error:
                last_error = error
                if attempt >= policy.attempts or not policy.retryable(error):
                    raise
                delay = policy.backoff_delay(attempt, rng=sim.rng, key=jitter_key)
                if (policy.deadline is not None
                        and (sim.now - start) + delay >= policy.deadline):
                    raise
                self.retries_total += 1
                if self.obs.enabled:
                    self.obs.metrics.counter(
                        "rpc.retries", endpoint=ctx.endpoint
                    ).inc()
                if delay > 0:
                    yield sim.timeout(delay)
        # deadline budget exhausted before the attempt budget
        assert last_error is not None
        raise last_error

    def _attempt_with_deadline(self, ctx: CallContext, timeout: float) -> Generator:
        """One pipeline attempt raced against ``timeout``.

        The in-flight call is interrupted when the deadline passes so
        it does not linger.
        """
        proc = self.sim.process(self._invoke(ctx),
                                name=f"rpc:{ctx.service}.{ctx.method}")
        deadline = self.sim.timeout(timeout)
        yield self.sim.any_of([proc, deadline])
        if proc.triggered:
            if not proc.ok:
                proc.defused = True
                raise proc.value
            return proc.value
        try:
            proc.interrupt("rpc timeout")
        except SimulationError:  # pragma: no cover - already finished
            pass
        proc.defused = True
        raise RpcTimeout(
            f"{ctx.service}.{ctx.method} on {ctx.dst!r} timed out after {timeout}s"
        )

    # -- terminal transport stage ------------------------------------------------

    def _transport(self, ctx: CallContext) -> Generator:
        """Marshalling, security, wire transfer and dispatch for one attempt.

        The one place the RPC cost model is charged, as one flat frame:
        client marshal + crypto CPU, handshake, request leg, server
        crypto + unmarshal CPU, dispatch, response crypto, response leg.
        Uncontended legs are a single timeout; contended ones go through
        :meth:`_transmit`.
        """
        sim = self.sim
        obs = self.obs
        src, dst = ctx.src, ctx.dst
        policy = ctx.security if ctx.security is not None else self.security
        src_node = self.node(src)
        dst_node = self.node(dst)
        if not src_node.online:
            raise OfflineError(f"source node {src!r} is offline")

        message = Message(
            src=src,
            dst=dst,
            service=ctx.service,
            method=ctx.method,
            payload=ctx.payload,
            size=ctx.size,
            secure=policy.enabled,
        )
        if obs.enabled:
            # inject the caller's span identity into the envelope (the
            # simulated ``traceparent`` header)
            message.trace_ctx = obs.tracer.current_context()
        msize = message.size
        latency, bandwidth = self.topology.path_metrics(src, dst)
        contended = self.contention and src != dst

        # client-side marshalling + crypto: one co-scheduled CPU grant
        # (they share the send path; splitting them would change FCFS
        # ordering under load)
        demand = self.marshal_cpu_per_kb * (msize / 1024.0)
        demand += policy.client_cpu_demand(msize)
        if demand > 0:
            yield from src_node.cpu.execute(demand)

        # transport security handshake (TLS round trips)
        handshake = policy.handshake_latency(2.0 * latency)
        if handshake > 0:
            yield sim.timeout(handshake)

        # request transmission
        if contended:
            yield from self._transmit(src, dst, msize)
        else:
            yield sim.timeout(latency + msize / bandwidth)
        self.total_messages += 1
        self.total_bytes += msize
        src_node.messages_out += 1
        src_node.bytes_out += msize

        if not dst_node.online:
            # the connection attempt times out
            yield sim.timeout(self.connect_fail_delay)
            raise OfflineError(f"target node {dst!r} is offline")

        dst_node.messages_in += 1
        dst_node.bytes_in += msize

        # server-side crypto + unmarshalling (one co-scheduled grant)
        demand = self.marshal_cpu_per_kb * (msize / 1024.0)
        demand += policy.server_cpu_demand(msize)
        if demand > 0:
            yield from dst_node.cpu.execute(demand)

        # dispatch: fault rules, inflight gauge, server span
        handler = dst_node.service(ctx.service)
        if self.faults.enabled:
            injected = self.faults.service_fault(ctx)
            if injected is not None:
                raise injected
        dst_node.inflight_rpcs += 1
        try:
            if obs.enabled:
                # Handlers run inline in the caller's process, so the server
                # span usually nests under the ``rpc:`` span automatically.
                # When the dispatch happens in a process with no active span
                # (e.g. a retry-deadline runner started before the tracer
                # existed) the envelope's trace context re-parents it.
                parent = None
                if obs.tracer.current_context() is None:
                    parent = message.trace_ctx
                with obs.tracer.span(
                    f"serve:{ctx.service}.{ctx.method}", parent=parent, site=dst
                ):
                    result = yield from handler.dispatch(ctx.method, message)
            else:
                result = yield from handler.dispatch(ctx.method, message)
        finally:
            dst_node.inflight_rpcs -= 1
        response = result if isinstance(result, Response) else Response(value=result)

        # crypto on the response body + the return transmission
        resp_crypto = policy.server_cpu_demand(response.size) - policy.server_cpu_demand(0)
        if resp_crypto > 0:
            yield from dst_node.cpu.execute(resp_crypto)
        rsize = response.size
        if contended:
            yield from self._transmit(dst, src, rsize)
        else:
            latency, bandwidth = self.topology.path_metrics(dst, src)
            yield sim.timeout(latency + rsize / bandwidth)
        self.total_messages += 1
        self.total_bytes += rsize
        dst_node.messages_out += 1
        dst_node.bytes_out += rsize
        src_node.messages_in += 1
        src_node.bytes_in += rsize
        return response.value


__all__ = [
    "CallContext",
    "Network",
    "NodeRuntime",
    "RemoteError",
    "RetryPolicy",
    "RpcTimeout",
    "ServiceNotFound",
]
