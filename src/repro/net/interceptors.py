"""Composable RPC pipeline: call contexts, interceptors, retry policies.

Every remote call in the reproduction flows through one chain of
*interceptors* composed by :class:`~repro.net.network.Network`.  Each
layer owns exactly one cross-cutting concern:

* :class:`TraceInterceptor` — wraps the call in an ``rpc:`` span;
* :class:`MetricsInterceptor` — per-endpoint call/error counters and
  latency histograms;
* :class:`FaultInterceptor` — link loss and partition windows from the
  VO's :class:`~repro.faults.FaultPlane`;
* the network's terminal transport stage — marshalling, security
  costs, wire transfer and server dispatch.

Retry is layered *around* the chain rather than inside it: a
:class:`RetryPolicy` passed to ``Network.call`` re-runs the whole
pipeline per attempt (fresh envelope, fresh fault draws), exactly as a
client stack re-issues a failed request.

Layers are only installed when their subsystem is on, so the default
(observability off, no fault plane, no retry policy) is byte-identical
to the pre-pipeline transport — pinned by the determinism fingerprints
in :mod:`repro.perf`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.simkernel.errors import OfflineError, SimulationError


class RpcTimeout(SimulationError):
    """A remote call did not complete within its deadline."""


class Overloaded(SimulationError):
    """A service shed the request at admission (inflight bound hit).

    Transient by definition: the caller may retry after backing off.
    """

    transient = True


class RemoteError(Exception):
    """Wraps an application-level exception raised by a remote handler.

    The original exception travels as :attr:`cause`; its type name is
    preserved end-to-end via :attr:`error_type` (the simulated analogue
    of a SOAP fault carrying the server-side exception class).
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"remote handler failed: {cause!r}")
        self.cause = cause
        #: a transient cause makes the wrapper retryable too
        self.transient = bool(getattr(cause, "transient", False))

    @property
    def error_type(self) -> str:
        """Type name of the original server-side exception."""
        return type(self.cause).__name__


#: transport-level errors every retry policy treats as retryable
TRANSIENT_ERRORS: Tuple[type, ...] = (OfflineError, RpcTimeout, Overloaded)


class CallContext:
    """Mutable per-call state threaded through the interceptor chain."""

    __slots__ = ("src", "dst", "service", "method", "payload", "size",
                 "security", "attempt")

    def __init__(self, src: str, dst: str, service: str, method: str,
                 payload: Any = None, size: int = 0,
                 security: Any = None) -> None:
        self.src = src
        self.dst = dst
        self.service = service
        self.method = method
        self.payload = payload
        self.size = size
        self.security = security
        #: 1-based attempt number (bumped by the retry layer)
        self.attempt = 1

    @property
    def endpoint(self) -> str:
        return f"{self.service}.{self.method}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CallContext {self.src}->{self.dst} {self.endpoint}"
                f" attempt={self.attempt}>")


class Interceptor:
    """One named layer of the RPC pipeline.

    Subclasses override :meth:`intercept`, a sub-generator receiving the
    call context and the next stage; they may act before, after, or
    around ``call_next`` (including suppressing it entirely).
    """

    name = "interceptor"

    def intercept(self, ctx: CallContext, call_next) -> Generator:
        value = yield from call_next(ctx)
        return value


class TraceInterceptor(Interceptor):
    """Wrap the call in an ``rpc:`` client span (observability on only)."""

    name = "trace"

    def __init__(self, network) -> None:
        self.network = network

    def intercept(self, ctx: CallContext, call_next) -> Generator:
        obs = self.network.obs
        outcome = "ok"
        with obs.tracer.span(f"rpc:{ctx.endpoint}", src=ctx.src,
                             dst=ctx.dst) as span:
            try:
                value = yield from call_next(ctx)
            except BaseException as error:
                outcome = type(error).__name__
                raise
            finally:
                span.set_attr("outcome", outcome)
        return value


class MetricsInterceptor(Interceptor):
    """Per-endpoint call/error counters + latency histogram."""

    name = "metrics"

    def __init__(self, network) -> None:
        self.network = network

    def intercept(self, ctx: CallContext, call_next) -> Generator:
        obs = self.network.obs
        sim = self.network.sim
        endpoint = ctx.endpoint
        started = sim.now
        outcome = "ok"
        try:
            value = yield from call_next(ctx)
        except BaseException as error:
            outcome = type(error).__name__
            raise
        finally:
            obs.metrics.counter("rpc.calls", endpoint=endpoint).inc()
            if outcome != "ok":
                obs.metrics.counter("rpc.errors", endpoint=endpoint).inc()
            obs.metrics.histogram("rpc.latency", endpoint=endpoint).observe(
                sim.now - started
            )
        return value


class SLOInterceptor(Interceptor):
    """Feed attempt-level request outcomes into the SLO engine.

    Sits *inside* the retry layer, so every pipeline pass — including
    each retry of a flaky call — is one service-level-indicator event:
    the server-side view of reliability.  The client-side (post-retry)
    view is recorded at the call level by ``Network.call`` itself.
    Installed only when the VO declares SLOs.
    """

    name = "slo"

    def __init__(self, network) -> None:
        self.network = network

    def intercept(self, ctx: CallContext, call_next) -> Generator:
        sim = self.network.sim
        engine = self.network.obs.slo
        started = sim.now
        ok = False
        try:
            value = yield from call_next(ctx)
            ok = True
        finally:
            engine.record(ctx.endpoint, started, sim.now, ok)
        return value


class FaultInterceptor(Interceptor):
    """Inject link-level faults (loss, partitions) from the fault plane.

    A dropped or partitioned link behaves like an unreachable target:
    the caller burns the connection timeout and sees
    :class:`~repro.simkernel.errors.OfflineError`.  Server-side error
    rules are applied by the transport's dispatch step (they model the
    handler failing *after* the request crossed the wire).
    """

    name = "faults"

    def __init__(self, network) -> None:
        self.network = network

    def intercept(self, ctx: CallContext, call_next) -> Generator:
        error = self.network.faults.link_fault(ctx.src, ctx.dst)
        if error is not None:
            yield self.network.sim.timeout(self.network.connect_fail_delay)
            raise error
        value = yield from call_next(ctx)
        return value


def compose(interceptors: Sequence[Interceptor],
            terminal: Callable[[CallContext], Generator]):
    """Fold ``interceptors`` around ``terminal`` (first = outermost)."""
    chain = terminal
    for interceptor in reversed(list(interceptors)):
        def make(layer: Interceptor, call_next):
            def invoke(ctx: CallContext) -> Generator:
                value = yield from layer.intercept(ctx, call_next)
                return value
            invoke.__name__ = f"intercept_{layer.name}"
            return invoke
        chain = make(interceptor, chain)
    return chain


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Shared retry/timeout policy for remote calls.

    One object describes everything a call site used to hand-roll:
    attempt count, per-attempt timeout, backoff shape, deterministic
    jitter and a total deadline budget.  ``RetryPolicy.single(t)`` is
    one attempt abandoned after ``t`` seconds.

    Attributes
    ----------
    attempts:
        Total tries (1 = no retry).
    per_try_timeout:
        Deadline per attempt; ``None`` waits indefinitely (bounded by
        ``deadline`` if set).
    base_delay / multiplier / backoff / max_delay:
        Sleep before retry *n* is ``base_delay * multiplier**(n-1)``
        (exponential) or ``base_delay * n`` (linear), capped at
        ``max_delay``.
    jitter:
        Extra uniform sleep in ``[0, jitter * delay)`` drawn from a
        named RNG stream — deterministic per seed, never perturbing
        other streams.
    deadline:
        Total budget across attempts and backoff sleeps.  Once spent,
        the last error is raised; planned sleeps never overrun it.
    retry_on:
        Extra exception types to retry beyond the transport-transient
        set (:data:`TRANSIENT_ERRORS` plus anything flagged
        ``transient``).
    """

    attempts: int = 1
    per_try_timeout: Optional[float] = None
    base_delay: float = 0.5
    multiplier: float = 2.0
    backoff: str = "exponential"
    max_delay: float = 60.0
    jitter: float = 0.0
    deadline: Optional[float] = None
    retry_on: Tuple[type, ...] = ()

    @classmethod
    def single(cls, timeout: float) -> "RetryPolicy":
        """One attempt abandoned after ``timeout`` (raises ``RpcTimeout``)."""
        return cls(attempts=1, per_try_timeout=timeout)

    @property
    def engaged(self) -> bool:
        """Whether the retry layer needs to run at all."""
        return (self.attempts > 1 or self.per_try_timeout is not None
                or self.deadline is not None)

    def with_per_try(self, timeout: Optional[float]) -> "RetryPolicy":
        """Fill in a per-attempt timeout if the policy lacks one."""
        if timeout is None or self.per_try_timeout is not None:
            return self
        return dataclasses.replace(self, per_try_timeout=timeout)

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth another attempt under this policy."""
        if isinstance(error, TRANSIENT_ERRORS):
            return True
        if getattr(error, "transient", False):
            return True
        return bool(self.retry_on) and isinstance(error, self.retry_on)

    def backoff_delay(self, attempt: int, rng=None, key: str = "retry") -> float:
        """Sleep before the retry following failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        if self.backoff == "linear":
            delay = self.base_delay * attempt
        else:
            delay = self.base_delay * (self.multiplier ** (attempt - 1))
        delay = min(delay, self.max_delay)
        if self.jitter > 0.0 and rng is not None and delay > 0.0:
            delay += rng.uniform(key, 0.0, self.jitter * delay)
        return delay

    def schedule(self, rng=None, key: str = "retry") -> List[float]:
        """Planned backoff sleeps (``attempts - 1`` entries at most).

        Truncated so the cumulative sleep never exceeds the deadline
        budget; deterministic for a given seed (jitter draws come from
        the named stream ``key``).
        """
        delays: List[float] = []
        total = 0.0
        for attempt in range(1, self.attempts):
            delay = self.backoff_delay(attempt, rng=rng, key=key)
            if self.deadline is not None and total + delay > self.deadline:
                break
            total += delay
            delays.append(delay)
        return delays


__all__ = [
    "CallContext",
    "FaultInterceptor",
    "Interceptor",
    "MetricsInterceptor",
    "Overloaded",
    "RemoteError",
    "RetryPolicy",
    "RpcTimeout",
    "SLOInterceptor",
    "TRANSIENT_ERRORS",
    "TraceInterceptor",
    "compose",
]
