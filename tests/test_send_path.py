"""The one send path, end to end.

A connection holds the directed link ``open_connection`` resolved, and
prices a message from its schema.  These worlds hold every send to the
two definitions it must agree with: the size ``approx_size_reference``
gives the payload, and the timing of the network's *current* link for
the pair (partitioned, degraded, healed or restored).
"""

import pytest

from repro.chaos import ChaosHarness, FaultSchedule, LinkDegrade, Partition
from repro.des import Environment
from repro.errors import NetworkError
from repro.fleet import FleetDriver
from repro.fleet.spec import ScenarioSpec, fleet_of
from repro.load import AdmissionController, PoissonArrivals
from repro.net import Network, channel, multicast
from repro.ogsa.soap import Envelope
from repro.steering import control
from repro.wire.codec import approx_size_reference


class _SendAudit:
    """Wraps the send path: every charge is checked against the reference
    size, every send against the network's link for its pair."""

    def __init__(self, monkeypatch) -> None:
        self.sizes: dict[type, int] = {}
        #: (src, dst) -> [(now, delivered, latency, bandwidth, link)]
        self.sends: dict[tuple, list] = {}
        real_size = channel.wire_size
        real_deliver = channel.Connection._deliver

        def wire_size(payload, size=None):
            charged = real_size(payload, size)
            if size is None and not isinstance(payload, (bytes, bytearray, memoryview)):
                assert charged == approx_size_reference(payload), payload
                kind = type(payload)
                self.sizes[kind] = self.sizes.get(kind, 0) + 1
            return charged

        def deliver(conn, item, size):
            net, link = conn.network, conn.link
            src, dst = conn.host.name, conn.peer_host.name
            assert link is net.link(src, dst)
            reachable = net.reachable(src, dst)
            now, dropped = conn.env.now, net.dropped_messages
            free, latency, bandwidth = link._free_at, link.latency, link.bandwidth
            at = real_deliver(conn, item, size)
            if reachable:
                assert at == max(now, free) + size / bandwidth + latency
            else:
                assert at is None and net.dropped_messages == dropped + 1
            self.sends.setdefault((src, dst), []).append(
                (now, reachable, latency, bandwidth, link)
            )
            return at

        monkeypatch.setattr(channel, "wire_size", wire_size)
        monkeypatch.setattr(multicast, "wire_size", wire_size)
        monkeypatch.setattr(channel.Connection, "_deliver", deliver)

    def schema_priced(self) -> set:
        """The schema-sized message types this world sent."""
        schema = {Envelope, *control._STEERING.values()}
        return {kind for kind in self.sizes if kind in schema}


def test_fleet_of_4_charges_every_send_its_reference_size(monkeypatch):
    audit = _SendAudit(monkeypatch)
    report = FleetDriver(fleet_of(4), n_sites=2).run()
    assert report.completed == 4
    assert {Envelope, control.Ack, control.SetParam, control.StatusReport} <= (
        audit.schema_priced()
    )
    assert sum(audit.sizes.values()) > 100


def test_steering_storm_charges_every_send_its_reference_size(monkeypatch):
    audit = _SendAudit(monkeypatch)
    suite = [
        ScenarioSpec(name=f"storm-{profile}", sim="building", profile=profile,
                     cadence=0.05, compute_time=0.1)
        for profile in ("campus", "superjanet", "conference-floor")
    ]
    report = FleetDriver(fleet_of(6, suite=suite), n_sites=2).run()
    assert report.completed == 6 and report.ops > 0
    assert audit.sizes[Envelope] >= 2 * report.ops


def test_chaos_cell_drops_into_a_partition_and_sends_over_the_healed_link(monkeypatch):
    audit = _SendAudit(monkeypatch)
    driver = FleetDriver(n_sites=2, queue_slots=2)
    pair = ("svc-0", "hpc-0")
    ctl = AdmissionController(driver, queue_limit=12)
    world = ChaosHarness(driver, ctl)
    world.install(FaultSchedule([
        Partition(at=3.0, a=pair[0], b=pair[1], duration=1.5),
        LinkDegrade(at=6.0, a=pair[0], b=pair[1], latency_factor=4.0,
                    bandwidth_factor=0.5, duration=3.0),
    ]))
    arrivals = PoissonArrivals(rate=1.5, horizon=10.0, seed=3, duration=3.0,
                               cadence=0.25, participants=1)
    report = ctl.run(arrivals, until=120.0)
    assert world.verdict(report)["invariant_violations"] == 0
    assert driver.net.dropped_messages > 0

    for src, dst in (pair, pair[::-1]):
        sends = audit.sends[src, dst]
        link = driver.net.link(src, dst)
        assert {id(row[4]) for row in sends} == {id(link)}  # one Link, never replaced
        dark = [row for row in sends if not row[1]]
        assert all(3.0 <= now < 4.5 for now, *_ in dark)
        degraded = [row for row in sends if 6.0 <= row[0] < 9.0]
        assert all(row[2:4] == (4.0 * link.base_latency, 0.5 * link.base_bandwidth)
                   for row in degraded)
        healthy = [row for row in sends
                   if not (3.0 <= row[0] < 4.5 or 6.0 <= row[0] < 9.0)]
        assert all(row[1] and row[2:4] == (link.base_latency, link.base_bandwidth)
                   for row in healthy)
    # the app's samples cross the pair before, into, and after both faults
    samples = audit.sends["hpc-0", "svc-0"]
    assert min(now for now, *_ in samples) < 3.0 <= 9.0 <= max(now for now, *_ in samples)
    assert any(not delivered for _now, delivered, *_ in samples)
    assert any(6.0 <= now < 9.0 for now, *_ in samples)


def _pair_world():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.010, bandwidth=1e6)
    net.host("b").listen(9000)
    conns = {}

    def client():
        conns["a"] = yield from net.host("a").connect("b", 9000)

    env.process(client())
    env.run()
    return env, net, conns["a"]


def test_a_connection_sends_over_the_networks_link_for_its_pair():
    env, net, conn = _pair_world()
    link = net.link("a", "b")
    assert conn.link is link and conn.peer.link is net.link("b", "a")

    net.partition("a", "b")
    assert conn.send(b"x" * 1000) == env.now
    assert net.dropped_messages == 1 and conn.messages_sent == 0

    net.heal("a", "b")
    link.degrade(latency_factor=3.0, bandwidth_factor=0.5)
    sent_at = env.now
    assert conn.send(b"x" * 1000) == pytest.approx(sent_at + 1000 / 0.5e6 + 0.030)
    env.run()

    link.restore()
    sent_at = env.now
    assert conn.send(b"x" * 1000) == pytest.approx(sent_at + 1000 / 1e6 + 0.010)
    assert conn.messages_sent == 2 and link.transfers == 3  # the SYN, then two


def test_add_link_refuses_a_pair_that_already_has_a_link():
    # A replaced Link would leave an open connection sending over the old one.
    env, net, conn = _pair_world()
    for a, b in (("a", "b"), ("b", "a")):
        with pytest.raises(NetworkError, match="already has a link"):
            net.add_link(a, b, latency=1.0, bandwidth=1.0)
    assert conn.link is net.link("a", "b") and conn.link.latency == 0.010
    net.add_host("c")
    net.link("a", "c")  # an implicit default link is a link too
    with pytest.raises(NetworkError, match="already has a link"):
        net.add_link("c", "a", latency=1.0, bandwidth=1.0)
