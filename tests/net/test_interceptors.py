"""Unit tests for the RPC interceptor pipeline, retry engine and
admission control (the unified RPC stack)."""

import pytest

from repro.net import Network, Topology
from repro.net.interceptors import (
    CallContext,
    Interceptor,
    Overloaded,
    RemoteError,
    RetryPolicy,
    RpcTimeout,
    compose,
)
from repro.net.message import Message, Response
from repro.net.service import EchoService, Service
from repro.simkernel import Simulator
from repro.simkernel.errors import OfflineError


def make_net(sites=("A", "B", "C"), seed=1):
    sim = Simulator(seed=seed)
    topo = Topology.full_mesh(sites, latency=0.005, bandwidth=1e7)
    net = Network(sim, topo)
    for s in sites:
        net.add_node(s, cores=2)
    return sim, net


class FlakyService(Service):
    """Fails the first ``failures`` dispatches, then succeeds."""

    SERVICE_NAME = "flaky"

    def __init__(self, network, node_name, failures=2,
                 error=OfflineError, demand=0.001):
        super().__init__(network, node_name)
        self.failures = failures
        self.error = error
        self.demand = demand
        self.attempts_seen = 0

    def op_work(self, message):
        yield from self.compute(self.demand)
        self.attempts_seen += 1
        if self.attempts_seen <= self.failures:
            raise self.error(f"induced failure #{self.attempts_seen}")
        return Response(value=f"ok after {self.attempts_seen}")


class SlowService(Service):
    SERVICE_NAME = "slow"

    def __init__(self, network, node_name, delay=5.0):
        super().__init__(network, node_name)
        self.delay = delay

    def op_work(self, message):
        yield self.sim.timeout(self.delay)
        return Response(value="slow done")


class TestCompose:
    def test_composition_order_is_outermost_first(self):
        trace = []

        class Tag(Interceptor):
            def __init__(self, label):
                self.label = label

            def intercept(self, ctx, call_next):
                trace.append(f"+{self.label}")
                value = yield from call_next(ctx)
                trace.append(f"-{self.label}")
                return value

        def terminal(ctx):
            trace.append("terminal")
            return ctx.payload
            yield  # pragma: no cover - generator marker

        chain = compose([Tag("outer"), Tag("inner")], terminal)
        ctx = CallContext("A", "B", "svc", "m", "value", 0, None)

        def run():
            result = yield from chain(ctx)
            return result

        sim = Simulator(seed=1)
        proc = sim.process(run())
        sim.run()
        assert proc.value == "value"
        assert trace == ["+outer", "+inner", "terminal", "-inner", "-outer"]

    def test_empty_chain_is_the_terminal(self):
        def terminal(ctx):
            return "t"
            yield  # pragma: no cover - generator marker

        assert compose([], terminal) is terminal

    def test_default_pipeline_has_no_layers(self):
        _, net = make_net()
        assert net.interceptors == []


class TestCallContext:
    def test_endpoint_and_defaults(self):
        ctx = CallContext("A", "B", "echo", "echo", None, 0, None)
        assert ctx.endpoint == "echo.echo"
        assert ctx.attempt == 1


class TestRetryPolicy:
    def test_engaged(self):
        assert not RetryPolicy().engaged
        assert RetryPolicy(attempts=2).engaged
        assert RetryPolicy(per_try_timeout=1.0).engaged
        assert RetryPolicy(deadline=5.0).engaged

    def test_retries_transient_error_until_success(self):
        sim, net = make_net()
        svc = FlakyService(net, "B", failures=2)
        policy = RetryPolicy(attempts=4, base_delay=0.5, multiplier=2.0)

        def client():
            value = yield from net.call("A", "B", "flaky", "work", retry=policy)
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "ok after 3"
        assert svc.attempts_seen == 3
        assert net.retries_total == 2
        # backoff delays 0.5 + 1.0 elapsed between the attempts
        assert sim.now > 1.5

    def test_attempts_exhausted_reraises(self):
        sim, net = make_net()
        FlakyService(net, "B", failures=10)
        policy = RetryPolicy(attempts=3, base_delay=0.1)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work", retry=policy)
            except OfflineError as error:
                return str(error)

        proc = sim.process(client())
        sim.run()
        assert "induced failure #3" in proc.value

    def test_non_transient_error_not_retried(self):
        sim, net = make_net()
        svc = FlakyService(net, "B", failures=10, error=ValueError)
        policy = RetryPolicy(attempts=5, base_delay=0.1)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work", retry=policy)
            except ValueError:
                return "raised"

        proc = sim.process(client())
        sim.run()
        assert proc.value == "raised"
        assert svc.attempts_seen == 1
        assert net.retries_total == 0

    def test_retry_on_extends_the_transient_set(self):
        sim, net = make_net()
        svc = FlakyService(net, "B", failures=1, error=ValueError)
        policy = RetryPolicy(attempts=3, base_delay=0.1, retry_on=(ValueError,))

        def client():
            value = yield from net.call("A", "B", "flaky", "work", retry=policy)
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "ok after 2"
        assert svc.attempts_seen == 2

    def test_deadline_bounds_total_budget(self):
        sim, net = make_net()
        FlakyService(net, "B", failures=100)
        policy = RetryPolicy(attempts=50, base_delay=2.0, multiplier=1.0,
                             backoff="linear", deadline=5.0)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work", retry=policy)
            except OfflineError:
                return sim.now

        proc = sim.process(client())
        sim.run()
        assert proc.value <= 5.0 + 1.0  # deadline plus one attempt's latency

    def test_offline_target_retried_after_recovery(self):
        sim, net = make_net()
        EchoService(net, "B")
        net.set_online("B", False)
        policy = RetryPolicy(attempts=5, base_delay=2.0, multiplier=1.0,
                             backoff="linear")

        def recover():
            yield sim.timeout(3.0)
            net.set_online("B", True)

        def client():
            value = yield from net.call(
                "A", "B", "echo", "echo", payload="hi", retry=policy)
            return value

        sim.process(recover())
        proc = sim.process(client())
        sim.run()
        assert proc.value == "hi"
        assert net.retries_total >= 1


class TestRemoteError:
    def test_wraps_cause_and_preserves_type_name(self):
        error = RemoteError(ValueError("boom"))
        assert error.error_type == "ValueError"
        assert not error.transient

    def test_transient_follows_cause(self):
        error = RemoteError(Overloaded("shed"))
        assert error.transient
        assert RetryPolicy(attempts=2).retryable(error)


class TestAdmissionControl:
    def test_overload_sheds_with_counter(self):
        sim, net = make_net()
        svc = SlowService(net, "B", delay=2.0)
        svc.admission_limit = 2
        outcomes = []

        def client(index):
            try:
                yield from net.call("A", "B", "slow", "work")
                outcomes.append("ok")
            except Overloaded:
                outcomes.append("shed")

        for i in range(4):
            sim.process(client(i))
        sim.run()
        assert outcomes.count("ok") == 2
        assert outcomes.count("shed") == 2
        assert svc.requests_shed == 2
        assert svc.requests_handled == 2
        assert svc.inflight == 0

    def test_shed_tally_is_labelled_per_op(self):
        sim, net = make_net()
        svc = SlowService(net, "B", delay=2.0)
        svc.admission_limit = 1

        def client():
            try:
                yield from net.call("A", "B", "slow", "work")
            except Overloaded:
                pass

        for i in range(5):
            sim.process(client())
        sim.run()
        assert svc.requests_shed == 4
        assert svc.shed_by_op == {"work": 4}
        assert sum(svc.shed_by_op.values()) == svc.requests_shed

    def test_shed_request_is_retryable(self):
        assert Overloaded("x").transient
        assert RetryPolicy(attempts=2).retryable(Overloaded("x"))

    def test_no_limit_by_default(self):
        sim, net = make_net()
        svc = SlowService(net, "B", delay=1.0)
        for i in range(6):
            sim.process(self._client(net))
        sim.run()
        assert svc.requests_handled == 6
        assert svc.requests_shed == 0

    @staticmethod
    def _client(net):
        yield from net.call("A", "B", "slow", "work")


class TestSLOInterceptor:
    @staticmethod
    def make_slo_net(enabled=False):
        from repro.obs import Observability
        from repro.obs.slo import SLOSpec

        sim = Simulator(seed=1)
        topo = Topology.full_mesh(("A", "B"), latency=0.005, bandwidth=1e7)
        obs = Observability(enabled=enabled, slos=(
            SLOSpec(name="attempts", endpoint="flaky.*", target=0.9,
                    level="attempt", alerts=()),
            SLOSpec(name="calls", endpoint="flaky.*", target=0.9,
                    level="call", alerts=()),
        ))
        net = Network(sim, topo, obs=obs)
        for s in ("A", "B"):
            net.add_node(s, cores=2)
        return sim, net

    def test_layer_installed_only_when_slos_configured(self):
        _, plain = make_net()
        assert [i.name for i in plain.interceptors] == []
        _, net = self.make_slo_net()
        assert [i.name for i in net.interceptors] == ["slo"]
        _, full = self.make_slo_net(enabled=True)
        # inside trace/metrics so every SLI sees the full pipeline pass
        assert [i.name for i in full.interceptors] == [
            "trace", "metrics", "slo"]

    def test_every_retry_attempt_is_one_sli_event(self):
        sim, net = self.make_slo_net()
        FlakyService(net, "B", failures=2)
        policy = RetryPolicy(attempts=4, base_delay=0.5)

        def client():
            value = yield from net.call("A", "B", "flaky", "work",
                                        retry=policy)
            return value

        proc = sim.process(client())
        sim.run()
        assert proc.value == "ok after 3"
        engine = net.obs.slo
        # server view: three pipeline passes, two of them bad
        attempts = engine.status("attempts")
        assert (attempts.total, attempts.bad) == (3, 2)
        # client view: the one call succeeded after retries
        calls = engine.status("calls")
        assert (calls.total, calls.bad) == (1, 0)

    def test_failed_call_records_bad_at_both_levels(self):
        sim, net = self.make_slo_net()
        FlakyService(net, "B", failures=10, error=ValueError)

        def client():
            try:
                yield from net.call("A", "B", "flaky", "work")
            except ValueError:
                return "raised"

        proc = sim.process(client())
        sim.run()
        assert proc.value == "raised"
        engine = net.obs.slo
        assert (engine.status("attempts").total,
                engine.status("attempts").bad) == (1, 1)
        assert (engine.status("calls").total,
                engine.status("calls").bad) == (1, 1)

    def test_unmatched_endpoint_records_nothing(self):
        sim, net = self.make_slo_net()
        EchoService(net, "B")

        def client():
            yield from net.call("A", "B", "echo", "echo", payload="x")

        sim.process(client())
        sim.run()
        engine = net.obs.slo
        assert engine.status("attempts").total == 0
        assert engine.status("calls").total == 0


class TestDispatchCounters:
    def test_success_and_failure_counted_separately(self):
        sim, net = make_net()
        svc = EchoService(net, "B")

        def client():
            yield from net.call("A", "B", "echo", "echo", payload="x")
            try:
                yield from net.call("A", "B", "echo", "fail")
            except RuntimeError:
                pass

        sim.process(client())
        sim.run()
        assert svc.requests_handled == 1
        assert svc.requests_failed == 1

    def test_inflight_gauge_tracked_without_observability(self):
        sim, net = make_net()
        SlowService(net, "B", delay=2.0)
        seen = []

        def watcher():
            yield sim.timeout(1.0)
            seen.append(net.node("B").inflight_rpcs)

        def client():
            yield from net.call("A", "B", "slow", "work")

        sim.process(client())
        sim.process(watcher())
        sim.run()
        assert seen == [1]
        assert net.node("B").inflight_rpcs == 0
