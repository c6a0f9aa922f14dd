"""Simulated-network tests: latency/bandwidth model, firewalls, multicast."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.errors import (
    ChannelClosed,
    ConnectionRefused,
    FirewallBlocked,
    HostUnreachable,
    NetworkError,
    TimeoutExpired,
)
from repro.net import Firewall, MulticastGroup, Network, SyncPipe, UnicastBridge
from repro.net.channel import wire_size


def make_net(env, latency=0.010, bandwidth=1e6):
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=latency, bandwidth=bandwidth)
    return net


def test_connect_and_message_latency():
    env = Environment()
    net = make_net(env)
    times = {}

    def server():
        lst = net.host("b").listen(4000)
        conn = yield from lst.accept()
        msg = yield from conn.recv()
        times["recv"] = (env.now, msg)

    def client():
        conn = yield from net.host("a").connect("b", 4000)
        times["connected"] = env.now
        conn.send(b"x" * 1000)

    env.process(server())
    env.process(client())
    env.run()
    # handshake = one RTT (2 * latency) + 2 control serializations
    assert times["connected"] == pytest.approx(0.020, rel=0.02)
    # message: 1000 B / 1e6 B/s = 1 ms serialize + 10 ms latency after connect
    t_recv, msg = times["recv"]
    assert msg == b"x" * 1000
    assert t_recv == pytest.approx(times["connected"] + 0.011, rel=0.02)


def test_bandwidth_serialization_queues_transfers():
    env = Environment()
    net = make_net(env, latency=0.0, bandwidth=1000.0)  # 1000 B/s
    arrivals = []

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        for _ in range(3):
            yield from conn.recv()
            arrivals.append(env.now)

    def client():
        conn = yield from net.host("a").connect("b", 1)
        for _ in range(3):
            conn.send(b"y" * 1000)  # 1 s serialization each

    env.process(server())
    env.process(client())
    env.run()
    # Transfers serialize: deliveries ~1 s apart.
    assert arrivals[1] - arrivals[0] == pytest.approx(1.0, rel=0.01)
    assert arrivals[2] - arrivals[1] == pytest.approx(1.0, rel=0.01)


def test_connection_refused_when_not_listening():
    env = Environment()
    net = make_net(env)
    result = {}

    def client():
        try:
            yield from net.host("a").connect("b", 9999)
        except ConnectionRefused:
            result["refused_at"] = env.now

    env.process(client())
    env.run()
    assert result["refused_at"] == pytest.approx(0.020, rel=0.02)


def test_firewall_blocks_non_gateway_port():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("hpc", firewall=Firewall.single_port(4433))
    outcomes = {}

    def setup():
        net.host("hpc").listen(4433)
        net.host("hpc").listen(5555)
        if False:
            yield

    def client():
        conn = yield from net.host("a").connect("hpc", 4433)
        outcomes["gateway"] = conn is not None
        try:
            yield from net.host("a").connect("hpc", 5555)
        except FirewallBlocked:
            outcomes["blocked"] = True

    net.host("hpc").listen(4433)
    net.host("hpc").listen(5555)
    env.process(client())
    env.run()
    assert outcomes == {"gateway": True, "blocked": True}


def test_nat_host_cannot_accept_but_can_connect():
    env = Environment()
    net = Network(env)
    net.add_host("pub")
    net.add_host("natbox", nat=True)
    net.host("natbox").listen(80)
    net.host("pub").listen(80)
    outcomes = {}

    def client():
        try:
            yield from net.host("pub").connect("natbox", 80)
        except FirewallBlocked:
            outcomes["inbound_blocked"] = True
        conn = yield from net.host("natbox").connect("pub", 80)
        outcomes["outbound_ok"] = conn is not None

    env.process(client())
    env.run()
    assert outcomes == {"inbound_blocked": True, "outbound_ok": True}


def test_unknown_host_unreachable():
    env = Environment()
    net = make_net(env)

    def client():
        yield from net.host("a").connect("nowhere", 1)

    env.process(client())
    with pytest.raises(HostUnreachable):
        env.run()


def test_recv_timeout():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        try:
            yield from conn.recv(timeout=0.5)
        except TimeoutExpired:
            result["timed_out_at"] = env.now

    def client():
        yield from net.host("a").connect("b", 1)

    env.process(server())
    env.process(client())
    env.run()
    assert result["timed_out_at"] == pytest.approx(0.020 + 0.5, rel=0.05)


def test_close_propagates_to_peer():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        try:
            yield from conn.recv()
        except ChannelClosed:
            result["closed"] = True

    def client():
        conn = yield from net.host("a").connect("b", 1)
        conn.close()
        with pytest.raises(ChannelClosed):
            conn.send(b"after close")

    env.process(server())
    env.process(client())
    env.run()
    assert result.get("closed")


def test_poll_nonblocking():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        ok, _ = conn.poll()
        result["early"] = ok
        yield env.timeout(1.0)
        ok, msg = conn.poll()
        result["late"] = (ok, msg)

    def client():
        conn = yield from net.host("a").connect("b", 1)
        conn.send(b"m")

    env.process(server())
    env.process(client())
    env.run()
    assert result["early"] is False
    assert result["late"] == (True, b"m")


def test_arrival_consumes_the_head_and_requeue_restores_send_order():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        head = yield conn.arrival()
        result["head"] = head
        result["after_arrival"] = conn.poll()
        yield env.timeout(1.0)
        conn.requeue(head)
        result["drained"] = [conn.poll() for _ in range(4)]

    def client():
        conn = yield from net.host("a").connect("b", 1)
        for payload in (b"one", b"two", b"three"):
            conn.send(payload)
            yield env.timeout(0.1)

    env.process(server())
    env.process(client())
    env.run()
    assert result["head"] == b"one"
    assert result["after_arrival"] == (False, None)
    assert result["drained"] == [(True, b"one"), (True, b"two"), (True, b"three"), (False, None)]


def test_traffic_accounting():
    env = Environment()
    net = make_net(env)

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        yield from conn.recv()

    def client():
        conn = yield from net.host("a").connect("b", 1)
        conn.send(b"z" * 5000)

    env.process(server())
    env.process(client())
    env.run()
    assert net.bytes_between("a", "b") >= 5000


def test_duplicate_host_rejected():
    env = Environment()
    net = Network(env)
    net.add_host("x")
    with pytest.raises(NetworkError):
        net.add_host("x")


def test_duplicate_listen_rejected():
    env = Environment()
    net = make_net(env)
    net.host("a").listen(7)
    with pytest.raises(NetworkError):
        net.host("a").listen(7)


def test_serve_runs_one_handler_per_connection():
    env = Environment()
    net = make_net(env)
    served = []

    def handler(conn):
        msg = yield from conn.recv(timeout=1.0)
        served.append((conn.peer_host.name, msg))

    listener = net.host("b").serve(9, handler)

    def client(tag):
        conn = yield from net.host("a").connect("b", 9)
        conn.send(tag)

    for tag in ("one", "two", "three"):
        env.process(client(tag))
    env.run()
    assert sorted(msg for _, msg in served) == ["one", "three", "two"]
    assert listener.accepted == 3


def _hang_up(conn):
    """A connection handler that closes what it is given."""
    conn.close()
    yield from ()


def test_serve_on_a_bound_port_rejected():
    env = Environment()
    net = make_net(env)
    net.host("b").listen(9)
    with pytest.raises(NetworkError):
        net.host("b").serve(9, _hang_up)


def test_closed_listener_is_not_open_and_frees_its_port():
    env = Environment()
    net = make_net(env)
    listener = net.host("b").serve(9, _hang_up)
    assert listener.open
    listener.close()
    assert not listener.open
    again = net.host("b").serve(9, _hang_up)
    assert again.open and not listener.open


def test_wire_size_sizes_every_send_one_way():
    from repro.wire.codec import approx_size

    assert wire_size(b"abc", size=1000.7) == 1000
    assert wire_size({"k": 1}, size=12) == 12
    assert wire_size(b"abcd") == 4
    assert wire_size(bytearray(7)) == 7
    assert wire_size(memoryview(b"xyz")) == 3
    msg = {"op": "set_parameter", "value": 3.5, "tags": [1, 2]}
    assert wire_size(msg) == approx_size(msg)


def test_multicast_fanout_single_send():
    env = Environment()
    net = Network(env)
    for name in ("src", "r1", "r2", "r3"):
        net.add_host(name)
        if name != "src":
            net.add_link("src", name, latency=0.005 * (1 + "r1 r2 r3".split().index(name)), bandwidth=1e7)
    group = MulticastGroup(net, "233.0.0.1")
    boxes = {n: group.join(net.host(n)) for n in ("r1", "r2", "r3")}
    group.join(net.host("src"))
    arrivals = {}

    def receiver(name):
        payload = yield boxes[name].get()
        arrivals[name] = (env.now, payload)

    for n in boxes:
        env.process(receiver(n))

    def sender():
        yield env.timeout(0.001)
        group.send(net.host("src"), b"frame", size=1000)

    env.process(sender())
    env.run()
    assert set(arrivals) == {"r1", "r2", "r3"}
    # Arrival order follows per-receiver latency.
    assert arrivals["r1"][0] < arrivals["r2"][0] < arrivals["r3"][0]
    assert group.packets_sent == 1


def test_multicast_requires_native_support():
    env = Environment()
    net = Network(env)
    net.add_host("nomcast", multicast=False)
    group = MulticastGroup(net, "233.0.0.2")
    with pytest.raises(NetworkError):
        group.join(net.host("nomcast"))


def test_unicast_bridge_relays_to_firewalled_site():
    env = Environment()
    net = Network(env)
    net.add_host("src")
    net.add_host("bridge")
    net.add_host("cave", multicast=False, firewall=Firewall.closed())
    group = MulticastGroup(net, "233.0.0.3")
    group.join(net.host("src"))
    bridge = UnicastBridge(group, net.host("bridge"))
    cave_box = bridge.attach(net.host("cave"))
    got = {}

    def receiver():
        payload = yield cave_box.get()
        got["payload"] = (env.now, payload)

    def sender():
        yield env.timeout(0.01)
        group.send(net.host("src"), b"video", size=2000)

    env.process(receiver())
    env.process(sender())
    env.run()
    assert got["payload"][1] == b"video"
    assert bridge.relayed_packets == 1


def test_unicast_bridge_relays_back_to_back_frames_in_order():
    env = Environment()
    net = Network(env)
    net.add_host("src")
    net.add_host("bridge")
    net.add_host("cave", multicast=False, firewall=Firewall.closed())
    group = MulticastGroup(net, "233.0.0.4")
    group.join(net.host("src"))
    bridge = UnicastBridge(group, net.host("bridge"))
    cave_box = bridge.attach(net.host("cave"))
    got = []

    def receiver():
        for _ in range(2):
            got.append((yield cave_box.get()))

    def sender():
        yield env.timeout(0.01)
        group.send(net.host("src"), b"frame-1", size=2000)
        group.send(net.host("src"), b"frame-2", size=2000)

    env.process(receiver())
    env.process(sender())
    env.run()
    # Each relay delivers its own frame, even though the next group
    # packet reaches the bridge before the first delivery fires.
    assert got == [b"frame-1", b"frame-2"]
    assert bridge.relayed_packets == 2


def _bridged_group():
    """A bridge, a native member ``m1`` and bridged ``nat1``..``nat3``,
    each listening on its mailbox; returns what each one received."""
    env = Environment()
    net = Network(env)
    for name in ("bridge", "m1"):
        net.add_host(name)
    for name in ("nat1", "nat2", "nat3"):
        net.add_host(name, multicast=False, firewall=Firewall.closed())
    group = MulticastGroup(net, "233.0.0.5")
    bridge = UnicastBridge(group, net.host("bridge"))
    boxes = {"m1": group.join(net.host("m1"))}
    for name in ("nat1", "nat2", "nat3"):
        boxes[name] = bridge.attach(net.host(name))
    got = {name: [] for name in boxes}

    def listen(name):
        while True:
            got[name].append((yield boxes[name].get()))

    for name in boxes:
        env.process(listen(name))
    return env, net, group, bridge, got


def test_a_native_packet_reaches_every_bridged_host_once():
    env, net, group, _bridge, got = _bridged_group()
    env.timeout(0.01).callbacks.append(
        lambda _ev: group.send(net.host("m1"), b"frame", size=800)
    )
    env.run()
    assert got == {"m1": [], "nat1": [b"frame"], "nat2": [b"frame"], "nat3": [b"frame"]}


def test_the_bridge_relays_a_packet_at_the_size_its_sender_gave():
    env = Environment()
    net = Network(env)
    net.add_host("src")
    net.add_host("bridge")
    net.add_host("cave", multicast=False, firewall=Firewall.closed())
    group = MulticastGroup(net, "233.0.0.6")
    group.join(net.host("src"))
    bridge = UnicastBridge(group, net.host("bridge"))
    bridge.attach(net.host("cave"))
    group.send(net.host("src"), b"video", size=2000)
    env.run()
    assert net.link("src", "bridge").bytes_carried == 2000
    assert net.link("bridge", "cave").bytes_carried == 2000


def test_a_bridge_host_is_not_also_a_plain_member():
    env = Environment()
    net = Network(env)
    net.add_host("bridge")
    group = MulticastGroup(net, "233.0.0.7")
    UnicastBridge(group, net.host("bridge"))
    with pytest.raises(NetworkError):
        group.join(net.host("bridge"))
    with pytest.raises(NetworkError):
        UnicastBridge(group, net.host("bridge"))


NATIVE, BRIDGED = ("m0", "m1", "m2"), ("n0", "n1", "n2")

#: one step of a group's life: a member joins natively or is bridged in,
#: or a native member or the bridge host sends (``i`` picks one of the
#: current native members; ``size`` is what the sender gives)
group_ops = st.one_of(
    st.tuples(st.just("join"), st.sampled_from(NATIVE)),
    st.tuples(st.just("attach"), st.sampled_from(BRIDGED)),
    st.tuples(st.sampled_from(["native", "bridge"]), st.integers(0, 2), st.integers(1, 5000)),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(group_ops, max_size=14))
# the bridge host's own packet: before, it reached m1 but never n1
@example(ops=[("join", "m1"), ("attach", "n1"), ("bridge", 0, 100)])
def test_every_packet_reaches_every_other_current_member_exactly_once(ops):
    env = Environment()
    net = Network(env)
    for name in ("bridge", *NATIVE):
        net.add_host(name)
    for name in BRIDGED:
        net.add_host(name, multicast=False, firewall=Firewall.closed())
    for k, name in enumerate(NATIVE + BRIDGED):
        net.add_link("bridge", name, latency=0.002 * (k + 1), bandwidth=1e6 * (k + 1))
    group = MulticastGroup(net, "233.0.0.9")
    bridge = UnicastBridge(group, net.host("bridge"))
    natives, bridged = {}, {}  # current member -> its mailbox
    expected = {}  # id(link) -> bytes it must have carried

    def carry(src, dst, size):
        link = net.link(src, dst)
        expected[id(link)] = expected.get(id(link), 0) + size

    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "join":
            natives[op[1]] = group.join(net.host(op[1]))
        elif kind == "attach":
            bridged[op[1]] = bridge.attach(net.host(op[1]))
        else:
            _, i, size = op
            if kind == "bridge":
                sender = "bridge"
            else:
                pool = sorted(natives)
                if not pool:
                    continue
                sender = pool[i % len(pool)]
            group.send(net.host(sender), n, size=size)
            env.run()
            # the native multicast leaves the sender, and the bridge
            # relays to each bridged host by unicast
            for name in ["bridge", *natives]:
                if name != sender:
                    carry(sender, name, size)
            for name in bridged:
                carry("bridge", name, size)
            for name, box in {**natives, **bridged}.items():
                assert list(box.items) == ([] if name == sender else [n]), (name, n)
                box.items.clear()
    links = net._links.values()
    carried = {id(link): link.bytes_carried for link in links if link.bytes_carried}
    assert carried == expected


def test_sync_pipe():
    pipe = SyncPipe()
    a, b = pipe.a, pipe.b
    a.send(b"ping")
    assert b.poll() == (True, b"ping")
    assert b.poll() == (False, None)
    b.send(b"pong")
    assert a.poll() == (True, b"pong")
