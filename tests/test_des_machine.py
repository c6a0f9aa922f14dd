"""The DES kernel as a stateful property, checked against a naive reference.

Hypothesis drives one :class:`~repro.des.Environment` and one
:class:`RefKernel` -- a second kernel written for this test, as plainly
as it can be -- through the same program: bare timers (``timeout`` and
``timeout_until``), processes running scripts of waits (timeouts,
``all_of``, store gets and puts, ``put_nowait``, posts, ``Mailbox.recv``
with or without a timeout, plain events the test fires or fails, and
``first`` races of a timer or such an event against a deadline),
interrupts, ``put_nowait`` from outside any process, deliveries, single
steps and bounded runs.  A delivery or a post is a message in flight as
``Connection._deliver`` makes one: a timeout that carries an item, with
a box's ``deliver`` as its one callback.  After every
rule both worlds must agree on the clock, the count of processed events,
the schedule's length and head, every store's items and waiters, and
the log of everything observed so far.

The reference keeps its schedule as a plain list and picks the least
``(time, priority, sequence)`` entry by a linear scan; an interrupt
leaves the waiter's callback on the event it abandoned, which then
ignores it; a receiver that leaves withdraws its get; a store serves
queued gets with one loop, and a delivery that finds a parked getter
runs that getter's callbacks itself, inside the delivery's step; a
deadline beaten in a ``first`` race goes on an explicit cancelled list,
and its pop runs nothing and is not counted.  Delays come from a small grid so that
same-instant ties, where order is decided by priority and sequence
alone, are common.
"""

import math
from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.des import TIMED_OUT, Environment, Interrupt, Mailbox

URGENT, NORMAL = 0, 1
_PENDING = object()


class Boom(Exception):
    pass


# -- the reference kernel ------------------------------------------------------


class REvent:
    def __init__(self, k):
        self.k = k
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False

    @property
    def triggered(self):
        return self._value is not _PENDING

    def succeed(self, value=None):
        return self.k.trigger(self, True, value)

    def fail(self, exc):
        return self.k.trigger(self, False, exc)


class RProcess(REvent):
    def __init__(self, k, generator):
        super().__init__(k)
        self.generator = generator
        self.target = REvent(k)
        self.target._ok, self.target._value = True, None
        self.target.callbacks.append(self._on_target)
        k.schedule(self.target, URGENT, k.now)

    @property
    def is_alive(self):
        return not self.triggered

    def interrupt(self, cause=None):
        self.target = None
        ev = REvent(self.k)
        ev._ok, ev._value, ev.defused = False, Interrupt(cause), True
        ev.callbacks.append(self._on_interrupt)
        self.k.schedule(ev, URGENT, self.k.now)

    def _on_interrupt(self, ev):
        self.target = None
        self._drive(ev)

    def _on_target(self, ev):
        # an abandoned target keeps this callback and is ignored here,
        # unless the process has since come back to wait on it again
        if ev is self.target:
            self.target = None
            self._drive(ev)

    def _drive(self, ev):
        while True:
            try:
                if ev._ok:
                    nxt = self.generator.send(ev._value)
                else:
                    ev.defused = True
                    nxt = self.generator.throw(ev._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if nxt.callbacks is None:
                ev = nxt
                continue
            nxt.callbacks.append(self._on_target)
            self.target = nxt
            return


class RefKernel:
    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []  # (time, priority, seq, event), in no order
        self.cancelled = set()  # seqs of deadlines whose race was decided
        self.events_processed = 0

    def schedule(self, ev, priority, at):
        self.seq += 1
        self.entries.append((at, priority, self.seq, ev))

    def trigger(self, ev, ok, value):
        assert ev._value is _PENDING
        ev._ok, ev._value = ok, value
        self.schedule(ev, NORMAL, self.now)
        return ev

    def event(self):
        return REvent(self)

    def timeout(self, delay, value=None):
        return self.timeout_until(self.now + delay, value)

    def timeout_until(self, at, value=None):
        ev = REvent(self)
        ev._ok, ev._value = True, value
        self.schedule(ev, NORMAL, at)
        return ev

    def process(self, generator):
        return RProcess(self, generator)

    def first(self, event, timeout):
        return RFirst(self, event, timeout)

    def all_of(self, events):
        cond = REvent(self)
        count = 0

        def check(_ev):
            nonlocal count
            count += 1
            if count == len(events):
                cond.succeed({e: e._value for e in events})

        if not events:
            cond.succeed({})
        for ev in events:
            if ev.callbacks is None:
                check(ev)
            else:
                ev.callbacks.append(check)
        return cond

    @property
    def pending(self):
        return len(self.entries)

    def peek(self):
        return min((e[0] for e in self.entries), default=math.inf)

    def step(self):
        entry = min(self.entries, key=lambda e: e[:3])
        self.entries.remove(entry)
        self.now, _prio, seq, ev = entry
        if seq in self.cancelled:  # a beaten deadline: popped, never run
            self.cancelled.remove(seq)
            return
        callbacks, ev.callbacks = ev.callbacks, None
        for cb in callbacks:
            cb(ev)
        self.events_processed += 1
        if not ev._ok and not ev.defused:
            raise ev._value

    def run(self, until):
        while self.entries and self.peek() <= until:
            self.step()
        self.now = until


class RFirst(REvent):
    """A race decided by whichever of its event and deadline runs first."""

    def __init__(self, k, event, timeout):
        super().__init__(k)
        self.decided = False
        self.deadline = None  # (event, seq) while queued and still in the race
        if event.callbacks is None:
            self._decide(event)
            return
        timer = k.timeout(timeout, TIMED_OUT)
        timer.callbacks.append(self._decide)
        self.deadline = (timer, k.seq)
        event.callbacks.append(self._decide)

    def cancel(self):
        self.decided = True
        self._leave_deadline(None)

    def _leave_deadline(self, popped):
        if self.deadline is not None and self.deadline[0] is not popped:
            self.k.cancelled.add(self.deadline[1])
        self.deadline = None

    def _decide(self, ev):
        if self.decided:
            return
        self.decided = True
        self._leave_deadline(ev)
        self._ok, self._value = ev._ok, ev._value
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)
        if not self._ok and self.defused:
            ev.defused = True


class RStore:
    def __init__(self, k):
        self.k = k
        self.items = deque()
        self._get_waiters = []

    def get(self):
        ev = REvent(self.k)
        self._get_waiters.append(ev)
        self._settle()
        return ev

    def put(self, item):
        ev = REvent(self.k).succeed()
        self.put_nowait(item)
        return ev

    def put_nowait(self, item):
        self.items.append(item)
        self._settle()

    def deliver(self, ev):
        """A message arriving: a parked getter resumes in this very step."""
        if not self._get_waiters:
            self.items.append(ev._value)
            return
        get = self._get_waiters.pop(0)
        get._ok, get._value = True, ev._value
        callbacks, get.callbacks = get.callbacks, None
        for cb in callbacks:
            cb(get)

    def _settle(self):
        while self._get_waiters and self.items:
            self._get_waiters.pop(0).succeed(self.items.popleft())

    def _leave(self, get):
        """A receiver left: an item already served goes back to the head,
        a get still waiting is withdrawn."""
        if get.triggered:
            self.items.appendleft(get._value)
            self._settle()
        else:
            self._get_waiters.remove(get)

    def recv(self, timeout=None):
        get = self.get()
        if timeout is None:
            try:
                item = yield get
            except BaseException:
                self._leave(get)
                raise
            return True, item
        race = self.k.first(get, timeout)
        try:
            item = yield race
        except BaseException:
            race.cancel()
            self._leave(get)
            raise
        if item is not TIMED_OUT:
            return True, item
        if get.triggered:
            return True, get._value
        self._get_waiters.remove(get)
        return False, None


# -- one program, run on both kernels ------------------------------------------


def _do(env, boxes, gates, op):
    """Generator: one scripted wait; returns what the script logs."""
    kind = op[0]
    if kind == "sleep":
        yield env.timeout(op[1])
        return "t"
    if kind == "until":
        yield env.timeout_until(math.floor(env.now) + op[1])
        return "u"
    if kind == "all":
        got = yield env.all_of([env.timeout(d, value=d) for d in op[1]])
        return sorted(got.values())
    if kind == "get":
        return (yield boxes[op[1]].get())
    if kind == "put":
        yield boxes[op[1]].put(op[2])
        return "put"
    if kind == "send":
        boxes[op[1]].put_nowait(op[2])
        return "sent"
    if kind == "post":
        env.timeout(op[2], op[3]).callbacks.append(boxes[op[1]].deliver)
        return "posted"
    if kind == "recv":
        return (yield from boxes[op[1]].recv(op[2]))
    if kind == "gate":
        return (yield gates[op[1] % len(gates)])
    if kind == "first":
        event = env.timeout(op[1], value=op[1])
    else:
        assert kind == "first_gate"
        event = gates[op[1] % len(gates)]
    out = yield env.first(event, op[2])
    return "timeout" if out is TIMED_OUT else out


def _script(env, boxes, gates, pid, ops, log):
    log.append((env.now, pid, "start"))
    for k, op in enumerate(ops * 4):  # repeated, so that worlds get busy
        if op[0] in ("put", "send", "post"):
            op = (*op, (pid, k))  # every item sent is unique
        try:
            out = yield from _do(env, boxes, gates, op)
        except Interrupt as intr:
            out = ("intr", intr.cause)
        except Boom as exc:
            out = ("boom", exc.args)
        log.append((env.now, pid, k, out))
    while True:  # park for good: a finished process cannot be interrupted
        try:
            yield env.event()
        except Interrupt as intr:
            log.append((env.now, pid, "parked", intr.cause))


class _World:
    def __init__(self, env, store):
        self.env = env
        self.boxes = [store(env), store(env)]
        self.gates = [env.event()]
        self.procs = []
        self.log = []

    def view(self):
        """Everything the two kernels must agree on."""
        env = self.env
        boxes = [(list(b.items), len(b._get_waiters)) for b in self.boxes]
        return (env.now, env.events_processed, env.pending, env.peek(), boxes, self.log)


def _outcome(call):
    try:
        call()
    except Exception as exc:  # a failure must surface identically in both
        return type(exc).__name__, exc.args
    return None


DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
BOX = st.integers(0, 1)
OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("until"), st.sampled_from([1.0, 1.5, 2.0, 2.5])),
    st.tuples(st.just("all"), st.lists(DELAYS, max_size=3)),
    st.tuples(st.just("get"), BOX),
    st.tuples(st.sampled_from(["put", "send"]), BOX),
    st.tuples(st.just("post"), BOX, DELAYS),
    st.tuples(st.just("recv"), BOX, st.none() | DELAYS),
    st.tuples(st.just("gate"), st.integers(0, 7)),
    st.tuples(st.just("first"), DELAYS, DELAYS),
    st.tuples(st.just("first_gate"), st.integers(0, 7), DELAYS),
)


class KernelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.worlds = [_World(Environment(), Mailbox), _World(RefKernel(), RStore)]
        self.tags = 0

    def _tag(self):
        self.tags += 1
        return self.tags

    def _watch(self, w, ev, tag):
        ev.callbacks.append(lambda _ev: w.log.append((w.env.now, tag)))

    @rule(delay=DELAYS)
    def timer(self, delay):
        tag = ("timer", self._tag())
        for w in self.worlds:
            self._watch(w, w.env.timeout(delay), tag)

    @rule(offset=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def timer_until(self, offset):
        tag = ("until", self._tag())
        for w in self.worlds:
            self._watch(w, w.env.timeout_until(w.env.now + offset), tag)

    @rule(ops=st.lists(OPS, max_size=6))
    def spawn(self, ops):
        pid = len(self.worlds[0].procs)
        for w in self.worlds:
            w.procs.append(w.env.process(_script(w.env, w.boxes, w.gates, pid, ops, w.log)))

    def _started(self):
        return sorted({e[1] for e in self.worlds[0].log if e[2:] == ("start",)})

    @precondition(lambda self: self._started())
    @rule(data=st.data())
    def interrupt(self, data):
        pid = data.draw(st.sampled_from(self._started()))
        cause = ("poke", self._tag())
        for w in self.worlds:
            w.procs[pid].interrupt(cause)

    @rule(box=BOX)
    def put_nowait(self, box):
        item = ("n", self._tag())
        for w in self.worlds:
            w.boxes[box].put_nowait(item)

    @rule(box=BOX, delay=DELAYS)
    def deliver(self, box, delay):
        item = ("d", self._tag())
        for w in self.worlds:
            w.env.timeout(delay, item).callbacks.append(w.boxes[box].deliver)

    @rule()
    def new_gate(self):
        for w in self.worlds:
            w.gates.append(w.env.event())

    @rule(index=st.integers(0, 7), ok=st.booleans())
    def fire_gate(self, index, ok):
        gate = self.worlds[0].gates[index % len(self.worlds[0].gates)]
        if gate.triggered:
            return
        for w in self.worlds:
            gate = w.gates[index % len(w.gates)]
            gate.succeed(("g", index)) if ok else gate.fail(Boom(index))

    @precondition(lambda self: self.worlds[0].env.pending)
    @rule()
    def step(self):
        outs = {_outcome(w.env.step) for w in self.worlds}
        assert len(outs) == 1, outs

    @rule(span=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    def run_for(self, span):
        until = self.worlds[0].env.now + span
        outs = {_outcome(lambda w=w: w.env.run(until=until)) for w in self.worlds}
        assert len(outs) == 1, outs

    @invariant()
    def kernels_agree(self):
        real, ref = (w.view() for w in self.worlds)
        assert real == ref


KernelMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None
)
test_kernel_matches_the_reference = KernelMachine.TestCase
