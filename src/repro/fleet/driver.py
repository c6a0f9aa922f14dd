"""The FleetDriver: N concurrent steering sessions on one simulated grid.

The driver is the worker-fleet half of the job/worker split: it takes a
list of declarative :class:`~repro.fleet.spec.ScenarioSpec`s and runs
every one as a full paper-faithful session — UNICORE consignment through
a firewalled gateway, outbound control/sample links, OGSA service
deployment, registry publication, then a registry-find -> bind -> steer
loop — all inside a single DES :class:`~repro.des.Environment`, with
staggered admission so the fleet ramps up like real traffic.

Topology: the :func:`~repro.workloads.scenarios.sc03_showfloor` venue
fabric supplies the participant (AG) sites; the driver adds per-site HPC
hosts (single-port gateways, like the UCL Onyx) and service hosts (the
Manchester-style OGSI::Lite containers), and wires service<->participant
links so that every network profile a spec can ask for is available at
every site.  Registry traffic goes through per-site
:class:`~repro.fleet.registry_fed.FederatedRegistry` front-ends sharing
one shard set, so a session admitted at site 2 is discoverable from a
client at site 0.

Two admission modes share the same fabric and one launch path,
:meth:`FleetDriver.admit`:

* **closed batch** — construct with a spec list; :meth:`FleetDriver.run`
  admits every spec in order (round-robin over sites), each starting at
  its ``admission_offset``.  A batch fleet registers its sessions when
  it runs, not when it is built;
* **open loop** — construct with no specs and feed sessions one at a time
  through :meth:`FleetDriver.admit`; :mod:`repro.load` drives this mode
  from stochastic arrival streams through an admission controller, and
  may grow the fabric mid-run via :meth:`FleetDriver.add_site` /
  :meth:`FleetDriver.add_registry_shard`.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.des import Interrupt
from repro.des.core import Process
from repro.errors import OgsaTimeout, ReproError
from repro.fleet.registry_fed import FederatedRegistry, grow_shards, make_shards
from repro.fleet.report import FleetReport
from repro.fleet.spec import ScenarioSpec
from repro.fleet.telemetry import FleetTelemetry
from repro.net import Firewall
from repro.obs import Observability
from repro.ogsa import HandleResolver, OgsaSteeringClient, OgsiLiteContainer
from repro.ogsa.registry import REGISTRY_ID, RegistryService
from repro.steering.orchestrator import (
    RealityGridOrchestrator,
    make_outbound_app_factory,
)
from repro.unicore import (
    Certificate,
    Gateway,
    NetworkJobSupervisor,
    TargetSystemInterface,
    UnicoreClient,
    UserIdentity,
)
from repro.unicore.security import TrustStore
from repro.workloads.netprofiles import (
    CAMPUS,
    CONFERENCE_FLOOR,
    PROFILES,
    SUPERJANET,
    TRANSATLANTIC,
    link_with_profile,
)
from repro.workloads.scenarios import sc03_showfloor

GATEWAY_PORT = 4433
NJS_PORT = 9000
CONTAINER_PORT = 8000
SESSION_PORT_BASE = 20000
#: status polls each extra collaborator makes after binding
OBSERVER_OPS = 2
#: virtual seconds :meth:`FleetDriver.deadline` adds for launch/teardown
DEADLINE_GRACE = 45.0

#: profiles wired between every service site and the AG sites
_SITE_PROFILE_CYCLE = (CAMPUS, SUPERJANET, TRANSATLANTIC, CONFERENCE_FLOOR)


@dataclass
class FleetSite:
    """One site's middleware stack: HPC side + service side."""

    index: int
    hpc_name: str
    svc_name: str
    vsite: str
    gateway: Gateway
    njs: NetworkJobSupervisor
    tsi: TargetSystemInterface
    container: OgsiLiteContainer
    registry: FederatedRegistry


class FleetDriver:
    """Run a fleet of scenario specs to completion and report."""

    def __init__(
        self,
        specs: Optional[list[ScenarioSpec]] = None,
        n_sites: int = 4,
        registry_shards: int = 4,
        queue_slots: Optional[int] = None,
        obs=None,
    ) -> None:
        if specs is not None and not specs:
            raise ReproError("a fleet needs at least one scenario spec")
        specs = list(specs) if specs else []
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ReproError("scenario spec names must be unique")
        self.specs = specs
        self.telemetry = FleetTelemetry()
        #: never None: an unobserved fleet binds an all-off one, whose
        #: null twins record nothing (same events and bytes as no obs)
        self.obs = obs or Observability(metrics=False)
        self.resolver = HandleResolver()
        self.shards = make_shards(registry_shards)

        # A finished world is a web of reference cycles (environment <->
        # processes <-> services and their frame buffers) that only the
        # cycle collector frees.  Whether it happens to run before the next
        # world reaches its peak decides if a process running fleets back to
        # back (campaign cells, bench repetitions) holds one world or two,
        # so release the previous one here, before building.
        gc.collect()
        env, net, ag_sites = sc03_showfloor(n_sites)
        self.env = env
        self.net = net
        self.ag_sites = ag_sites
        self.sites: list[FleetSite] = []
        #: (site index, profile name) -> participant host carrying it
        self._client_for: dict[tuple[int, str], str] = {}
        #: every spec ever admitted (by run() or directly)
        self._specs_by_name: dict[str, ScenarioSpec] = {}
        #: monotone counter: unique control/sample port pair per session
        self._session_seq = 0
        #: running session processes by name (started, not yet finished)
        self.active: dict[str, Process] = {}
        #: session name -> site index, for every session ever registered
        self.site_of: dict[str, int] = {}
        #: sessions told to shed their remaining steering ops (the
        #: "degrade" recovery policy); the steer loop checks membership
        self.degraded: set[str] = set()
        #: lifecycle subscribers ``cb(kind, name, site_index)`` with kind
        #: in {"start", "complete", "fail", "cancel"}
        self.session_observers: list[Callable] = []
        #: live steering overrides: session name -> FIFO of values the
        #: session's next ``set_parameter`` ops consume instead of the
        #: scripted schedule.  Batch runs never touch this, so the dict
        #: stays empty and the scripted path is byte-identical.
        self.steer_requests: dict[str, list] = {}
        #: set by the first :meth:`run`; a driver runs its world once
        self._ran = False

        if queue_slots is None:
            sessions_per_site = -(-len(specs) // n_sites) if specs else 8
            queue_slots = max(2, sessions_per_site)
        self.queue_slots = queue_slots
        for i in range(n_sites):
            self.sites.append(self._build_site(i, queue_slots=queue_slots))
        self.obs.bind_driver(self)

    # -- fabric ------------------------------------------------------------

    def _build_site(self, i: int, queue_slots: int) -> FleetSite:
        net = self.net
        hpc_name, svc_name = f"hpc-{i}", f"svc-{i}"
        hpc = net.add_host(hpc_name, firewall=Firewall.single_port(GATEWAY_PORT))
        svc = net.add_host(svc_name)
        # The compute -> viz path (UCL Onyx -> Manchester Bezier).
        link_with_profile(net, hpc_name, svc_name, SUPERJANET)
        # Every AG site reaches this service host over a rotating link
        # class, so each site offers every profile on some participant.
        for j, ag in enumerate(self.ag_sites):
            profile = _SITE_PROFILE_CYCLE[(i + j) % len(_SITE_PROFILE_CYCLE)]
            link_with_profile(net, svc_name, ag, profile)
            self._client_for.setdefault((i, profile.name), ag)

        trust = TrustStore({"CA"})
        gateway = Gateway(hpc, GATEWAY_PORT, trust=trust)
        tsi = TargetSystemInterface(hpc, queue_slots=queue_slots)
        njs = NetworkJobSupervisor(hpc, NJS_PORT, f"SITE-{i}", tsi)
        gateway.register_vsite(f"SITE-{i}", hpc_name, NJS_PORT)
        gateway.start()
        njs.start()

        container = OgsiLiteContainer(svc, CONTAINER_PORT)
        registry = FederatedRegistry(REGISTRY_ID, shards=self.shards)
        container.deploy(registry)
        container.start()
        return FleetSite(
            index=i,
            hpc_name=hpc_name,
            svc_name=svc_name,
            vsite=f"SITE-{i}",
            gateway=gateway,
            njs=njs,
            tsi=tsi,
            container=container,
            registry=registry,
        )

    def _client_host(self, site: FleetSite, spec: ScenarioSpec) -> str:
        """A participant host whose uplink to the site's service host has
        the spec's profile; odd profiles (lan/dsl) get a dedicated host."""
        key = (site.index, spec.profile)
        name = self._client_for.get(key)
        if name is None:
            name = f"obs-{spec.profile}-{site.index}"
            self.net.add_host(name)
            link_with_profile(self.net, site.svc_name, name, PROFILES[spec.profile])
            self._client_for[key] = name
        return name

    def _register_session(self, spec: ScenarioSpec, site: FleetSite) -> tuple[str, int]:
        """Register one session's application on a site; returns the
        participant host name and the session's control port."""
        if spec.name in self._specs_by_name:
            raise ReproError(f"session {spec.name!r} already admitted to this fleet")
        self._specs_by_name[spec.name] = spec
        self.site_of[spec.name] = site.index
        client = self._client_host(site, spec)
        control_port = SESSION_PORT_BASE + 2 * self._session_seq
        self._session_seq += 1
        factory = make_outbound_app_factory(
            spec.make_sim,
            service_host_name=site.svc_name,
            control_port=control_port,
            sample_port=control_port + 1,
            compute_time=spec.compute_time,
            sample_interval=spec.sample_interval,
            max_steps=spec.steps,
        )
        site.tsi.register_application(spec.name, factory)
        site.njs.register_application(spec.name, spec.name)
        return client, control_port

    # -- admission ---------------------------------------------------------

    def admit(self, spec: ScenarioSpec, site: Optional[Union[int, FleetSite]] = None):
        """Admit one session; returns its DES process.

        The one launch path: the open-loop entry point, and how
        :meth:`run` launches a batch.  The session is registered now and
        starts ``spec.admission_offset`` later on the given site — an
        index, a :class:`FleetSite`, or ``None`` for round-robin in
        admission order (so a batch lands spec ``i`` on site
        ``i % n_sites``).  The returned
        :class:`~repro.des.core.Process` triggers when the session ends,
        so an admission controller can hold capacity until completion.
        """
        if site is None:
            site = self.sites[self._session_seq % len(self.sites)]
        elif isinstance(site, int):
            site = self.sites[site]
        client, control_port = self._register_session(spec, site)
        proc = self.env.process(self._session(spec, site, client, control_port))
        self.active[spec.name] = proc
        self._notify_session("start", spec.name, site.index)
        return proc

    def _notify_session(self, kind: str, name: str, site_index: int) -> None:
        for cb in self.session_observers:
            cb(kind, name, site_index)

    def _end_session(self, spec: ScenarioSpec, site: FleetSite, outcome: str) -> None:
        """Drop a finished session's live state, however it ended, and
        tell the lifecycle subscribers how."""
        self.active.pop(spec.name, None)
        self.degraded.discard(spec.name)
        self.steer_requests.pop(spec.name, None)
        self._notify_session(outcome, spec.name, site.index)

    # -- chaos / recovery hooks --------------------------------------------

    def spec_of(self, name: str) -> ScenarioSpec:
        try:
            return self._specs_by_name[name]
        except KeyError:
            raise ReproError(f"no session {name!r} in this fleet") from None

    def sessions_at(self, site_index: int) -> list[str]:
        """Names of *running* sessions placed on a site."""
        return sorted(name for name in self.active if self.site_of.get(name) == site_index)

    def site_of_host(self, host_name: str) -> Optional[int]:
        """The site index owning a host (HPC or service side), if any."""
        for site in self.sites:
            if host_name in (site.hpc_name, site.svc_name):
                return site.index
        return None

    def cancel_session(self, name: str, reason: str = "cancelled") -> bool:
        """Interrupt a running session (fault recovery's first move).

        The session's process unwinds at its current yield point, marks
        its telemetry failed with the reason, and releases whatever it
        held; an admission controller waiting on the process sees it
        finish normally and frees the capacity slot.  Returns False when
        the session is not running (already finished or never started).
        """
        proc = self.active.get(name)
        if proc is None or proc.triggered:
            return False
        proc.interrupt(reason)
        return True

    def request_steer(self, name: str, value=None) -> bool:
        """Queue a live steering override for a running session.

        The session's next scripted ``set_parameter`` op sends ``value``
        instead of its scheduled one (``None`` keeps the scheduled value,
        acting as a steer *nudge* that still counts as externally
        driven).  Overrides queue FIFO — one per steering op — so a
        burst of client requests is applied in arrival order.  Returns
        False when the session is not running.
        """
        proc = self.active.get(name)
        if proc is None or proc.triggered:
            return False
        self.steer_requests.setdefault(name, []).append(value)
        return True

    def degrade_session(self, name: str) -> None:
        """Tell a session to shed its remaining steering ops and wind
        down (the "degrade" recovery policy for limp-mode faults)."""
        self.degraded.add(name)

    def add_site(self, queue_slots: Optional[int] = None) -> FleetSite:
        """Grow the fabric by one service site (elastic capacity).

        The new site shares the existing registry shard set, so sessions
        already published elsewhere are immediately findable through its
        front-end.  Used by :class:`repro.load.autoscale.ReactiveAutoscaler`.
        """
        site = self._build_site(len(self.sites), queue_slots=queue_slots or self.queue_slots)
        self.sites.append(site)
        return site

    def add_registry_shard(self) -> RegistryService:
        """Grow the shared registry shard set by one and rebalance
        (:func:`~repro.fleet.registry_fed.grow_shards`)."""
        return grow_shards(self.shards)

    # -- session processes -------------------------------------------------

    def _session(self, spec: ScenarioSpec, site: FleetSite, client_name: str,
                 control_port: int):
        env = self.env
        tel = self.telemetry.session(spec.name)
        try:
            yield env.timeout(spec.admission_offset)
        except Interrupt as intr:
            # Cancelled before it started: fail it as a mid-run one is.
            tel.mark_failed(f"cancelled: {intr.cause}", env.now)
            self._end_session(spec, site, "cancel")
            return
        started = env.now
        client_host = self.net.host(client_name)
        uc = UnicoreClient(
            client_host,
            UserIdentity(Certificate(f"CN={spec.name}", "CA"), spec.name),
            site.hpc_name,
            GATEWAY_PORT,
        )
        orch = RealityGridOrchestrator(
            uc,
            site.container,
            self.resolver,
            control_port=control_port,
            sample_port=control_port + 1,
        )
        obs = self.obs
        orch.on_viz_frame = obs.viz_frame_hook(spec.name)
        client = OgsaSteeringClient(client_host, self.resolver, site.svc_name, CONTAINER_PORT)
        tracer, breaker = obs.tracer, obs.breaker("registry")
        parent = tracer.admit_span(spec.name) or tracer.open_session(spec.name)
        span_connect = tracer.begin("connect", cat="lifecycle", parent=parent, site=site.index)
        outcome = "fail"
        try:
            yield from uc.connect()
            yield from orch.launch(
                spec.name,
                site.vsite,
                arguments={"steps": spec.steps},
                job_name=spec.name,
            )
            tel.record_admission(started, env.now)
            tracer.end(span_connect, job=orch.job_id)

            t0 = env.now
            breaker.guard(f"registry find for {spec.name!r}")
            span_find = tracer.begin("find", cat="lifecycle", parent=span_connect)
            try:
                found = yield from client.find_services(application=spec.name)
            except ReproError:
                breaker.record_failure()
                raise
            breaker.record_success()
            tel.record_find(env.now - t0)
            tracer.end(span_find, results=len(found))
            steer = next(e["handle"] for e in found if e["metadata"]["type"] == "steering")
            yield from client.bind(steer)
            if spec.participants > 1:
                for p in range(1, spec.participants):
                    env.process(self._observer(spec, site, steer, p))

            for k in range(spec.n_ops):
                if spec.name in self.degraded:
                    # Recovery said degrade: shed the remaining steering
                    # ops, keep the session alive through a clean stop.
                    break
                op_span = tracer.begin(
                    "steer-op",
                    cat="steer",
                    parent=span_connect,
                    op=k,
                    kind="set_parameter" if k % 2 == 0 else "get_status",
                )
                if k % 2 == 0:
                    overrides = self.steer_requests.get(spec.name)
                    value = overrides.pop(0) if overrides else None
                    if value is None:
                        value = spec.steer_value(k // 2)
                    op = client.invoke(steer, "set_parameter", name=spec.steer_param, value=value)
                else:
                    op = client.invoke(steer, "get_status")
                op_outcome = yield from self._op(tel, op)
                if op_outcome != "ok":
                    # The service may have migrated out from under the
                    # stale binding — the GSH/GSR indirection makes a
                    # fresh resolve the cure, so try one before the next
                    # op.  If the fabric is simply dark, this fails
                    # quietly and the loop keeps recording timeouts.
                    try:
                        yield from client.rebind(steer)
                    except ReproError:
                        pass
                tracer.end(op_span, outcome=op_outcome)
                yield env.timeout(spec.cadence)
            try:
                yield from client.invoke(steer, "stop")
            except ReproError:
                # The service may have moved since the last op: stop it
                # through a fresh binding rather than fail a session
                # whose steering work is already done.
                yield from client.rebind(steer)
                yield from client.invoke(steer, "stop")
            tel.mark_completed(env.now)
            outcome = "complete"
        except Interrupt as intr:
            tel.mark_failed(f"cancelled: {intr.cause}", env.now)
            outcome = "cancel"
        except ReproError as exc:
            tel.mark_failed(f"{type(exc).__name__}: {exc}", env.now)
        finally:
            client.close()
            uc.close()
            self._end_session(spec, site, outcome)

    def _observer(self, spec: ScenarioSpec, site: FleetSite, steer: str, p: int):
        """An extra collaborator: binds the same steering service and
        watches status (the non-master participants of section 2.4)."""
        env = self.env
        tel = self.telemetry.session(spec.name)
        client_name = self._client_for.get(
            (site.index, spec.profile), self.ag_sites[p % len(self.ag_sites)]
        )
        client = OgsaSteeringClient(
            self.net.host(client_name),
            self.resolver,
            site.svc_name,
            CONTAINER_PORT,
        )
        try:
            yield from client.bind(steer)
            for _ in range(OBSERVER_OPS):
                yield from self._op(tel, client.invoke(steer, "get_status"))
                yield env.timeout(spec.cadence * 2)
        except ReproError:
            tel.record_op("error")
        finally:
            client.close()

    def _op(self, tel, invoke):
        """Generator: run one steering op and record it in the session's
        ledger; returns its outcome, ``"ok"``, ``"timeout"`` or ``"error"``."""
        t0 = self.env.now
        try:
            yield from invoke
        except OgsaTimeout:
            outcome = "timeout"
        except ReproError:
            outcome = "error"
        else:
            outcome = "ok"
        tel.record_op(outcome, self.env.now - t0)
        return outcome

    # -- execution ---------------------------------------------------------

    def deadline(self) -> float:
        """When every session should long be done: last admission offset
        plus the longest duration plus launch/teardown slack."""
        specs = self.specs or list(self._specs_by_name.values())
        if not specs:
            raise ReproError("deadline() needs at least one spec (batch or admitted)")
        last = max(s.admission_offset for s in specs)
        longest = max(s.duration + s.cadence * 2 for s in specs)
        return last + longest + DEADLINE_GRACE

    def run(
        self, until: Optional[float] = None, wall_seconds: Optional[float] = None
    ) -> FleetReport:
        """Admit every session and run the world; returns the report.

        Single-shot: a second call raises rather than relaunch every
        batch session into the finished world."""
        if self._ran:
            raise ReproError("FleetDriver.run() already ran this fleet; build a new driver")
        until = self.deadline() if until is None else until
        self._ran = True
        for spec in self.specs:
            self.admit(spec)
        self.env.run(until=until)
        return self.report(wall_seconds=wall_seconds)

    def report(self, wall_seconds: Optional[float] = None) -> FleetReport:
        finished = [
            t.finished_at for t in self.telemetry.sessions.values() if t.finished_at is not None
        ]
        makespan = max(finished) if finished else self.env.now
        if math.isnan(makespan):
            makespan = self.env.now
        return FleetReport.from_telemetry(
            self.telemetry,
            makespan=makespan,
            wall_seconds=wall_seconds,
            specs=dict(self._specs_by_name),
        )
