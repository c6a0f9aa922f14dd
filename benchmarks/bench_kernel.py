"""KERNEL — raw DES engine throughput (events/sec) per hot pattern.

The fleet bench and tier-1's behaviour table measure scenarios; this
one measures the kernel itself, so a regression in event dispatch,
timeout construction, store handoff or interrupt tombstoning is visible
in isolation — and the committed ``BENCH_kernel.json`` records the
trajectory across PRs.

Patterns:

* ``timer-churn`` — one process yielding bare timeouts: the
  delay-then-resume path every compute step and poll loop rides.
* ``timer-fanout`` — 1000 concurrently ticking processes: heap pressure
  at fleet-like depth.
* ``store-pingpong`` — two processes handing items through two stores:
  the mailbox path under every simulated connection.
* ``connection-pingpong`` — request/reply between two hosts over one
  :class:`~repro.net.Connection` pair: the send path every fabric
  message takes (schema pricing, link reservation, the delivery
  timeout, the inbox hand-off and a bounded ``recv``).
* ``interrupt-storm`` — parked processes interrupted and resumed: the
  tombstone path fault recovery leans on.
* ``deep-horizon`` — hundreds of thousands of pre-scheduled timeouts
  spread over a wide horizon: the deep-schedule shape where the binary
  heap pays its O(log n) cache-hostile sift per event.  No workload in
  the repo comes within 100x of this depth; the number is what to beat
  if one ever does (DESIGN.md "Event queue").

The two ping-pong patterns also report messages/sec: a delivery that
finds its receiver parked resumes it in the delivery's own event, so
events per message differ by path (one per ``Connection`` message, two
per ``put``/``get`` hand-off), and messages/sec is the rate to compare
across kernel changes.
"""

import time

from benchmarks.conftest import run_once, write_json
from repro.des import Environment, Interrupt, Store, Timeout
from repro.net import Network
from repro.steering.control import Ack, SetParam

N_CHURN = 200_000
N_FANOUT_PROCS = 1_000
N_FANOUT_TICKS = 100
N_PINGPONG = 50_000
N_CONN_PINGPONG = 20_000
N_INTERRUPTS = 20_000
N_DEEP = 400_000
DEEP_SPREAD_MS = 1_000_000


def _timed(env: Environment, horizon=None):
    t0 = time.perf_counter()
    env.run(until=horizon)
    wall = time.perf_counter() - t0
    return env.events_processed, wall


def bench_timer_churn():
    env = Environment()

    def ticker():
        for _ in range(N_CHURN):
            yield env.timeout(0.001)

    env.process(ticker())
    return _timed(env)


def bench_timer_fanout():
    env = Environment()

    def ticker(phase):
        for _ in range(N_FANOUT_TICKS):
            yield env.timeout(0.01 + phase * 1e-6)

    for p in range(N_FANOUT_PROCS):
        env.process(ticker(p))
    return _timed(env)


def bench_store_pingpong():
    env = Environment()
    ping, pong = Store(env), Store(env)

    def left():
        for i in range(N_PINGPONG):
            yield ping.put(i)
            yield pong.get()

    def right():
        for _ in range(N_PINGPONG):
            item = yield ping.get()
            yield pong.put(item)

    env.process(left())
    env.process(right())
    return _timed(env)


def bench_connection_pingpong():
    env = Environment()
    net = Network(env)
    net.add_host("client")
    net.add_host("server")
    net.add_link("client", "server", latency=0.002, bandwidth=10e6 / 8)
    listener = net.host("server").listen(9000)

    def server():
        conn = yield from listener.accept()
        for _ in range(N_CONN_PINGPONG):
            cmd = yield from conn.recv(timeout=5.0)
            conn.send(Ack(cmd.seq, True, "SetParam", result=cmd.value))

    def client():
        conn = yield from net.host("client").connect("server", 9000)
        for i in range(N_CONN_PINGPONG):
            conn.send(SetParam("miscibility", 0.5, seq=i, sender="client"))
            yield from conn.recv(timeout=5.0)

    env.process(server())
    env.process(client())
    return _timed(env)


def bench_interrupt_storm():
    env = Environment()

    def sleeper():
        woken = 0
        while True:
            try:
                yield env.timeout(1e9)
            except Interrupt:
                woken += 1
                if woken >= N_INTERRUPTS // 10:
                    return

    def waker(procs):
        for _ in range(N_INTERRUPTS // 10):
            for p in procs:
                if p.is_alive:
                    p.interrupt("tick")
            yield env.timeout(0.001)

    procs = [env.process(sleeper()) for _ in range(10)]
    env.process(waker(procs))
    return _timed(env, horizon=1e8)


def bench_deep_horizon():
    env = Environment()
    # Knuth-hash the index so insertion order is uncorrelated with event
    # time — the adversarial shape for a binary heap's sift path.
    for i in range(N_DEEP):
        Timeout(env, ((i * 2654435761) % DEEP_SPREAD_MS) * 1e-3)
    return _timed(env)


SCENARIOS = {
    "timer-churn": bench_timer_churn,
    "timer-fanout": bench_timer_fanout,
    "store-pingpong": bench_store_pingpong,
    "connection-pingpong": bench_connection_pingpong,
    "interrupt-storm": bench_interrupt_storm,
    "deep-horizon": bench_deep_horizon,
}

#: items handed over per run, for the patterns that pass messages
MESSAGES = {
    "store-pingpong": 2 * N_PINGPONG,
    "connection-pingpong": 2 * N_CONN_PINGPONG,
}

#: conservative events/sec floors — a CI box is allowed to be ~10x
#: slower than a dev laptop, but an accidental O(n) in the kernel is not
FLOORS = {
    "timer-churn": 100_000,
    "timer-fanout": 100_000,
    "store-pingpong": 80_000,
    "connection-pingpong": 20_000,
    "interrupt-storm": 50_000,
    "deep-horizon": 25_000,
}


def test_kernel_throughput(benchmark, reporter):
    results = run_once(benchmark, lambda: {name: fn() for name, fn in SCENARIOS.items()})
    reporter.table(
        "KERNEL: DES engine throughput per hot pattern",
        ["pattern", "events", "wall (ms)", "events/s", "messages/s"],
        [
            [name, events, f"{wall * 1e3:.1f}", f"{events / wall:,.0f}",
             f"{MESSAGES[name] / wall:,.0f}" if name in MESSAGES else "-"]
            for name, (events, wall) in results.items()
        ],
    )
    for name, (events, wall) in results.items():
        rate = events / wall
        assert rate > FLOORS[name], f"{name}: {rate:,.0f} events/s below floor {FLOORS[name]:,}"
    write_json(
        "BENCH_kernel.json",
        {
            name: {
                "events": events,
                "wall_seconds": wall,
                "events_per_sec": events / wall,
                **(
                    {"messages": MESSAGES[name], "messages_per_sec": MESSAGES[name] / wall}
                    if name in MESSAGES
                    else {}
                ),
            }
            for name, (events, wall) in results.items()
        },
        wall_seconds=sum(wall for _e, wall in results.values()),
        events=sum(events for events, _w in results.values()),
    )
