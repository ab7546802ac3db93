"""Unit tests for topology, RPC transport, and the security model."""

import pytest

from repro.net import Network, SecurityPolicy, Topology
from repro.net.network import RetryPolicy, RpcTimeout, ServiceNotFound
from repro.net.service import EchoService, UnknownOperation
from repro.simkernel import Simulator
from repro.simkernel.errors import OfflineError


def make_net(security=None, sites=("A", "B", "C")):
    sim = Simulator(seed=1)
    topo = Topology.full_mesh(sites, latency=0.005, bandwidth=1e7)
    net = Network(sim, topo, security=security)
    for s in sites:
        net.add_node(s, cores=2)
    return sim, net


class TestTopology:
    def test_path_metrics_direct(self):
        topo = Topology()
        topo.add_link("A", "B", latency=0.01, bandwidth=1e6)
        lat, bw = topo.path_metrics("A", "B")
        assert lat == pytest.approx(0.01)
        assert bw == pytest.approx(1e6)

    def test_path_metrics_multihop_bottleneck(self):
        topo = Topology()
        topo.add_link("A", "B", latency=0.01, bandwidth=1e6)
        topo.add_link("B", "C", latency=0.02, bandwidth=5e5)
        lat, bw = topo.path_metrics("A", "C")
        assert lat == pytest.approx(0.03)
        assert bw == pytest.approx(5e5)

    def test_loopback(self):
        topo = Topology()
        topo.add_site("A")
        lat, bw = topo.path_metrics("A", "A")
        assert lat < 1e-3
        assert bw > 1e8

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_site("A")
        topo.add_site("B")
        with pytest.raises(ValueError):
            topo.path_metrics("A", "B")

    def test_star_builder(self):
        topo = Topology.star("hub", ["a", "b", "c"])
        assert topo.has_path("a", "c")
        lat_direct, _ = topo.path_metrics("a", "hub")
        lat_via, _ = topo.path_metrics("a", "b")
        assert lat_via == pytest.approx(2 * lat_direct)

    def test_invalid_link_params(self):
        with pytest.raises(ValueError):
            Topology().add_link("A", "B", latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            Topology().add_link("A", "B", latency=0, bandwidth=0)


class TestRpc:
    def test_echo_roundtrip(self):
        sim, net = make_net()
        EchoService(net, "B")
        out = {}

        def client():
            out["v"] = yield from net.call("A", "B", "echo", "echo", payload="hi")

        sim.process(client())
        sim.run()
        assert out["v"] == "hi"
        assert sim.now > 0.01  # at least one RTT
        assert net.total_messages == 2

    def test_local_call_is_fast(self):
        sim, net = make_net()
        EchoService(net, "A", demand=0.0)

        def client():
            yield from net.call("A", "A", "echo", "echo", payload="x")

        sim.process(client())
        sim.run()
        assert sim.now < 0.005

    def test_remote_exception_propagates(self):
        sim, net = make_net()
        EchoService(net, "B")
        caught = []

        def client():
            try:
                yield from net.call("A", "B", "echo", "fail")
            except RuntimeError as e:
                caught.append(str(e))

        sim.process(client())
        sim.run()
        assert caught and "failure" in caught[0]

    def test_unknown_service_and_method(self):
        sim, net = make_net()
        EchoService(net, "B")
        errors = []

        def client():
            try:
                yield from net.call("A", "B", "nope", "echo")
            except ServiceNotFound:
                errors.append("svc")
            try:
                yield from net.call("A", "B", "echo", "nope")
            except UnknownOperation:
                errors.append("op")

        sim.process(client())
        sim.run()
        assert errors == ["svc", "op"]

    def test_offline_target_raises(self):
        sim, net = make_net()
        EchoService(net, "B")
        net.set_online("B", False)
        errors = []

        def client():
            try:
                yield from net.call("A", "B", "echo", "echo")
            except OfflineError:
                errors.append(sim.now)

        sim.process(client())
        sim.run()
        assert errors and errors[0] >= net.connect_fail_delay

    def test_call_with_timeout_fires(self):
        sim, net = make_net()
        EchoService(net, "B", demand=50.0)  # extremely slow handler
        errors = []

        def client():
            try:
                yield from net.call(
                    "A", "B", "echo", "echo", retry=RetryPolicy.single(0.5)
                )
            except RpcTimeout:
                errors.append(sim.now)

        sim.process(client())
        sim.run()
        assert errors and errors[0] == pytest.approx(0.5, abs=0.01)

    def test_call_with_timeout_success(self):
        sim, net = make_net()
        EchoService(net, "B")
        out = {}

        def client():
            out["v"] = yield from net.call(
                "A", "B", "echo", "echo", payload=123,
                retry=RetryPolicy.single(5.0),
            )

        sim.process(client())
        sim.run()
        assert out["v"] == 123


class TestSecurity:
    def test_https_slower_than_http(self):
        durations = {}
        for label, policy in [("http", SecurityPolicy.http()), ("https", SecurityPolicy.https())]:
            sim, net = make_net(security=policy)
            EchoService(net, "B")

            def client():
                yield from net.call("A", "B", "echo", "echo", payload="x" * 500)

            sim.process(client())
            sim.run()
            durations[label] = sim.now
        assert durations["https"] > durations["http"]

    def test_https_halves_saturation_throughput(self):
        """Closed-loop saturation throughput should drop ~2x with TLS."""
        results = {}
        for label, policy in [("http", SecurityPolicy.http()), ("https", SecurityPolicy.https())]:
            sim, net = make_net(security=policy)
            svc = EchoService(net, "B", demand=0.004)
            horizon = 30.0

            def client():
                while True:
                    yield from net.call("A", "B", "echo", "echo", payload="y" * 400)

            for _ in range(8):
                sim.process(client())
            sim.run(until=horizon)
            results[label] = svc.requests_handled / horizon
        ratio = results["http"] / results["https"]
        assert 1.5 < ratio < 3.0

    def test_policy_disabled_costs_zero(self):
        p = SecurityPolicy.http()
        assert p.server_cpu_demand(10_000) == 0.0
        assert p.client_cpu_demand(10_000) == 0.0
        assert p.handshake_latency(0.01) == 0.0
