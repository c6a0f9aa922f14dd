"""Cell execution: one fully-isolated fleet world per grid cell.

:func:`run_cell` is the unit of work — a **pure function** from a
:class:`~repro.campaign.spec.CellSpec` to a JSON-able record.  Each call
builds a fresh DES world (fabric, broker pool, admission controller,
chaos harness, arrival stream) from the cell's declarative coordinates
and salted sub-seeds, runs it to completion, and freezes the outcome.
Nothing escapes the call: two executions of the same cell — in the same
process, in different worker processes, on different days — produce the
same record byte for byte (wall-clock vitals live under ``perf`` and are
the one deliberate exception).

:class:`CampaignRunner` drives the incomplete cells either inline
(``workers=1``, the byte-identical reference execution) or through the
:class:`~repro.campaign.supervise.Supervisor` — individually supervised
worker processes that survive worker crashes, kill hung cells at a
wall-clock deadline, retry transient failures with seeded backoff, and
quarantine poison cells so resume never loops on them.  Either way every
completed record streams into the
:class:`~repro.campaign.store.ResultStore` the moment it lands, so an
interrupted campaign loses at most the cells in flight.  On restart the
settled (completed or quarantined) cells are skipped; per-cell seeding
makes the union identical to an uninterrupted run.

The module also hosts the **fault point** the supervisor's self-chaos
tests use (:data:`FAULT_ENV`): a JSON file naming cells to kill, hang or
fail mid-cell, with an attempt budget tracked through marker files so a
fault can be transient (fires on the first N attempts, then the retry
succeeds) or poison (fires forever).  Unset, the hook is a single
``os.environ.get`` per cell.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal as _signal
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.campaign.axes import (
    build_arrivals,
    build_policy,
    build_schedule,
    build_suite,
)
from repro.campaign.matrix import MatrixReport
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.store import ResultStore
from repro.campaign.supervise import Supervisor, zero_stats
from repro.chaos import ChaosHarness
from repro.errors import CampaignError, ChaosError
from repro.fleet import BrokerPool, FleetDriver
from repro.load import AdmissionController, ReactiveAutoscaler
from repro.obs.metrics import NULL_REGISTRY
from repro.perf.bench import bench_envelope
from repro.wire.fields import decode_fields

#: the fabric a cell is built on.  The live server's defaults and the
#: trace -> campaign lowering are built from this dict, so a recorded
#: trace replays on the fabric it was captured on
FABRIC_DEFAULTS = {
    "n_sites": 3,
    "queue_slots": 2,
    "queue_limit": 12,
    "registry_shards": 4,
    "broker_port": 7100,
}

#: fabric/run knobs every cell inherits unless its campaign or axis
#: points override them (CampaignSpec.base / AxisPoint params["base"])
DEFAULT_BASE = {
    **FABRIC_DEFAULTS,
    "horizon": 10.0,
    #: drain budget after the last arrival; None = run to quiescence cap
    "grace": 60.0,
    #: hard virtual-time cap; None derives horizon + grace
    "until": None,
    "monitor_interval": 1.0,
}

#: environment variable naming the fault-injection spec (tests only):
#: ``{"cells": {cell_id: {"action": "kill"|"hang"|"raise",
#: "times": N, "seconds": S}}, "state_dir": dir}`` — ``times`` is how
#: many attempts the fault fires on (-1 = every attempt, i.e. poison);
#: fired attempts are claimed via O_EXCL marker files in ``state_dir``
#: so the count survives the SIGKILL it causes.
FAULT_ENV = "REPRO_CAMPAIGN_FAULTS"


@dataclass(frozen=True)
class _FaultFile:
    """The :data:`FAULT_ENV` file; ``state_dir`` defaults to its directory."""

    cells: Optional[dict] = None
    state_dir: Optional[str] = None


@dataclass(frozen=True)
class _CellFault:
    """One cell's entry in the :data:`FAULT_ENV` file."""

    action: str
    times: int = -1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in ("kill", "hang", "raise"):
            raise CampaignError(f"{FAULT_ENV}: unknown fault action {self.action!r}")
        if self.seconds < 0:
            raise CampaignError(f"{FAULT_ENV}: fault seconds {self.seconds!r} < 0")


def _read_faults(path: str) -> tuple[_FaultFile, dict]:
    """The fault file and its decoded entries by cell id, or CampaignError."""
    what = f"{FAULT_ENV} file {path}"
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except ValueError as exc:
        raise CampaignError(f"{what}: not a JSON document ({exc})") from None
    spec = decode_fields(_FaultFile, doc, CampaignError, what)
    faults = {
        cell_id: decode_fields(_CellFault, entry, CampaignError, f"{what}: cell {cell_id!r}")
        for cell_id, entry in (spec.cells or {}).items()
    }
    return spec, faults


def _maybe_inject_fault(cell: CellSpec) -> None:
    """Self-chaos fault point: crash/hang/fail this cell on purpose.

    Called mid-cell (world built, arrivals installed, run imminent) so
    an injected SIGKILL genuinely interrupts work in flight.  The whole
    file is decoded before anything fires, so a malformed one is a
    :class:`CampaignError` that claims no marker.  The marker file is
    claimed *before* the fault fires — a kill must still consume one of
    its ``times`` budget, or the retry would loop.
    """
    path = os.environ.get(FAULT_ENV)
    if not path:
        return
    spec, faults = _read_faults(path)
    fault = faults.get(cell.cell_id)
    if fault is None or fault.times == 0:
        return
    if fault.times > 0:
        state_dir = pathlib.Path(spec.state_dir or pathlib.Path(path).parent)
        # Markers key on the cell id, not the index: every cell a search
        # lowers carries index 0, so indices are not unique there.
        slug = re.sub(r"[^A-Za-z0-9._-]", "_", cell.cell_id)
        fired = 0
        while True:
            marker = state_dir / f"fault-{slug}-{fired}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                fired += 1
                if fired >= fault.times:
                    return  # budget spent: this attempt runs clean
                continue
            os.close(fd)
            break
    if fault.action == "raise":
        raise RuntimeError(f"injected fault in cell {cell.cell_id!r}")
    if fault.action == "hang":
        time.sleep(fault.seconds)
        return
    os.kill(os.getpid(), _signal.SIGKILL)


def cell_config(cell: CellSpec) -> dict:
    """The cell's effective base configuration (defaults + overrides)."""
    config = dict(DEFAULT_BASE)
    unknown = set(cell.base) - set(config)
    if unknown:
        raise CampaignError(
            f"cell {cell.cell_id!r}: unknown base config keys "
            f"{sorted(unknown)} (allowed: {sorted(config)})"
        )
    config.update(cell.base)
    return config


def build_world(
    cell: CellSpec, obs=None
) -> tuple[FleetDriver, AdmissionController, Optional[dict]]:
    """The one builder of a cell's fabric: driver, placement policy on
    the cell's placement sub-seed, and admission controller, in that
    order.  Returns ``(driver, controller, autoscale)``, ``autoscale``
    being the cell's ReactiveAutoscaler kwargs or None.

    :func:`run_cell` and the live server both build through here, so a
    live run and its replay cell stand on the same fabric.  The
    autoscaler is left to the caller, which builds it where its own
    event order puts it; so is the broker pool, which only the chaos
    harness of :func:`run_cell` uses.
    """
    config = cell_config(cell)
    driver = FleetDriver(
        n_sites=int(config["n_sites"]),
        queue_slots=int(config["queue_slots"]),
        registry_shards=int(config["registry_shards"]),
        obs=obs,
    )
    placement, autoscale = build_policy(cell.policy, seed=cell.subseed("placement"))
    controller = AdmissionController(
        driver,
        placement=placement,
        queue_limit=int(config["queue_limit"]),
    )
    return driver, controller, autoscale


def run_cell(cell: CellSpec) -> dict:
    """Execute one cell in a fresh world; returns its store record."""
    t0 = time.perf_counter()
    config = cell_config(cell)
    driver, controller, autoscale_kwargs = build_world(cell)
    pool = BrokerPool.build(
        driver.net, [site.svc_name for site in driver.sites], port=int(config["broker_port"])
    )
    harness = ChaosHarness(
        driver, controller, pool=pool,
        monitor_interval=float(config["monitor_interval"]),
    )

    suite, overrides = build_suite(cell.scenario)
    arrivals = build_arrivals(
        cell.arrival, suite, overrides,
        seed=cell.subseed("arrival"),
        horizon=float(config["horizon"]),
    )
    try:
        harness.install(build_schedule(cell.faults, cell, config, arrivals.horizon))
    except ChaosError as exc:  # a fault this spec declares is malformed or off the fabric
        raise CampaignError(f"fault point {cell.faults.name!r}: {exc}") from None
    if autoscale_kwargs is not None:
        ReactiveAutoscaler(controller, **autoscale_kwargs)

    _maybe_inject_fault(cell)

    until = config["until"]
    report = controller.run(
        arrivals,
        until=None if until is None else float(until),
        grace=float(config["grace"]),
    )
    verdict = harness.verdict(report)
    wall = time.perf_counter() - t0

    # perf vitals ride in the uniform bench envelope (wall, events,
    # events/sec, peak RSS) — deliberately the only nondeterministic
    # part of the record; MatrixReport never reads it.
    envelope = bench_envelope(
        cell.cell_id, None,
        wall_seconds=wall, events=driver.env.events_processed,
    )
    return cell.record(
        "cell",
        report=report.to_dict(),
        verdict=verdict,
        mergeable=driver.telemetry.export_mergeable(),
        perf=envelope["perf"],
    )


class CellExecutor:
    """Settle an explicit list of cells into the store.

    The execution engine under :class:`CampaignRunner` (which feeds it a
    grid's pending cells once) and
    :class:`~repro.campaign.search.SearchRunner` (which feeds it one
    generation of proposed cells at a time) — both *are* executors, so
    this signature is the one place the execution keywords and their
    defaults are declared.  ``workers=1`` (unsupervised) runs cells
    inline — no processes, no pickling — the byte-identical reference
    execution every other mode must match.  ``workers>1``, a
    ``max_cell_seconds`` deadline, or ``supervise=True`` routes
    execution through the :class:`~repro.campaign.supervise.Supervisor`.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        max_cell_seconds: Optional[float] = None,
        max_cell_retries: int = 2,
        retry_backoff: float = 0.05,
        supervise: Optional[bool] = None,
        metrics=NULL_REGISTRY,
    ) -> None:
        if workers < 1:
            raise CampaignError("campaign needs >= 1 worker")
        self.store = store
        self.workers = workers
        if supervise is None:
            supervise = workers > 1 or max_cell_seconds is not None
        self.supervise = supervise
        self.metrics = metrics
        #: what every Supervisor this executor builds is given
        self._supervision = {
            "workers": workers,
            "max_cell_seconds": max_cell_seconds,
            "max_cell_retries": max_cell_retries,
            "retry_backoff": retry_backoff,
            "metrics": metrics,
        }
        #: the Supervisor of the last execute() call (None when inline)
        self.supervisor: Optional[Supervisor] = None
        #: outcome counters of the owning runner's last run() call
        self.stats = zero_stats()
        #: cell ids that run() attempted (not resumed over or replayed)
        self.executed: list[str] = []

    def execute(
        self,
        todo: Sequence[CellSpec],
        progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Run every cell in ``todo``; returns the outcome counters.

        Raises :class:`KeyboardInterrupt` after a signal-initiated
        drain — by then every record that finished in time is flushed
        and the store is consistent, so the caller can simply resume.
        """
        stats = zero_stats()
        if not todo:
            return stats
        if self.supervise:
            self.supervisor = Supervisor(self.store, **self._supervision)
            stats = self.supervisor.run(todo, progress=progress)
            if self.supervisor.interrupted is not None:
                raise KeyboardInterrupt(self.supervisor.interrupted)
        else:
            for cell in todo:
                record = run_cell(cell)
                self.store.append(record)
                stats["completed"] += 1
                if progress is not None:
                    progress(record)
        return stats


class CampaignRunner(CellExecutor):
    """Drive a campaign grid's unsettled cells to completion.

    A :class:`CellExecutor` bound to one grid: compute the pending
    cells, execute them, aggregate the full grid.  All execution
    semantics (inline reference mode, supervision, retry, quarantine)
    and every execution keyword are the executor's.
    """

    def __init__(
        self, spec: CampaignSpec, store: ResultStore, **execution
    ) -> None:
        super().__init__(store, **execution)
        self.spec = spec

    def pending(self) -> list[CellSpec]:
        """Cells neither completed nor quarantined yet."""
        settled = self.store.settled_ids()
        return [
            c for c in self.spec.iter_cells() if c.cell_id not in settled
        ]

    def run(
        self, progress: Optional[Callable[[dict], None]] = None
    ) -> MatrixReport:
        """Settle every incomplete cell, then aggregate the full grid.

        Raises :class:`KeyboardInterrupt` after a signal-initiated
        drain, as :meth:`execute` does.
        """
        self.store.ensure_header(self.spec)
        todo = self.pending()
        self.executed = [c.cell_id for c in todo]
        self.stats = self.execute(todo, progress=progress)
        return MatrixReport.from_records(
            self.store.cell_records(),
            spec=self.spec,
            quarantined=self.store.quarantine_records(),
        )
