"""Supervised campaign execution: crash-, hang- and poison-tolerant.

The bare ``multiprocessing.Pool`` the runner used through PR 8 had no
failure model of its own: one worker SIGKILLed mid-cell (OOM killer,
segfault in a native extension, an operator's ``kill -9``) aborted the
whole campaign with a ``BrokenProcessPool``-style hang, a cell that
never terminated stalled the grid forever, and a cell that determinist-
ically crashed its worker was re-attempted on every resume.  This
module replaces the pool with **individually supervised workers**:

* each worker is a spawn-context process joined to the parent by its
  own duplex pipe, so a dying worker can corrupt at most its own
  channel — death is detected via the process *sentinel* (no polling
  race) and the worker is respawned;
* every dispatched cell carries a wall-clock **deadline**
  (``max_cell_seconds``); a cell still running past it has its worker
  SIGKILLed and respawned — a hung cell costs one timeout, not the
  nightly;
* a failed attempt (worker crash, timeout kill, or an exception raised
  inside :func:`~repro.campaign.runner.run_cell`) is **retried** with
  bounded, seeded exponential backoff (`derive_seed(cell.seed,
  "retry-backoff", attempt)` — deterministic per cell and attempt, so
  two supervisors racing the same flaky fabric stay de-synchronised
  the same way every run);
* a cell that is still failing after ``max_cell_retries`` retries is
  **quarantined**: a first-class ``"kind": "quarantine"`` record (the
  full failure history rides along) lands in the
  :class:`~repro.campaign.store.ResultStore`, resume skips the cell,
  and :class:`~repro.campaign.matrix.MatrixReport` reports the hole
  explicitly instead of silently aggregating a partial grid.

The supervisor never changes *what* a cell computes — `run_cell` stays
a pure function of the CellSpec — only *whether the campaign survives
computing it*: an unfaulted supervised run produces byte-identical
records and MatrixReport to the serial inline reference.

Graceful drain: SIGTERM/SIGINT (or :meth:`Supervisor.request_drain`)
stops dispatching, harvests every completed record already sitting in
a worker pipe, shuts the workers down, and leaves the store consistent
— the interrupted campaign resumes with ``python -m repro.campaign
resume`` and no manual cleanup.
"""

from __future__ import annotations

import random
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Optional

from repro.campaign.spec import CellSpec, derive_seed
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.obs.metrics import NULL_REGISTRY

#: workers are spawn-context processes, so a worker's state is a function
#: of the CellSpec alone, never of what the parent imported or mutated
_MP = get_context("spawn")

#: ceiling on the wait before any one retry, seconds
BACKOFF_CAP = 5.0

#: longest the supervision loop blocks with nothing due, seconds — how
#: late a drain requested from another thread can be noticed
POLL_INTERVAL = 0.05

#: the obs metric mirroring each outcome counter, plus the in-flight
#: gauge: key -> (registry factory, metric name, help text)
_METRICS = {
    "worker_restarts": (
        "counter", "campaign_worker_restarts_total",
        "supervised workers respawned after a crash or timeout kill",
    ),
    "cell_retries": (
        "counter", "campaign_cell_retries_total",
        "cell attempts retried after a transient failure",
    ),
    "quarantined": (
        "counter", "campaign_cells_quarantined_total",
        "cells quarantined after exhausting the retry budget",
    ),
    "inflight": (
        "gauge", "campaign_cells_inflight",
        "cells currently dispatched to supervised workers",
    ),
}


def zero_stats() -> dict:
    """The outcome counters every execution reports, all at zero."""
    return {
        "completed": 0, "worker_restarts": 0,
        "cell_retries": 0, "quarantined": 0,
    }


def _worker_main(conn) -> None:
    """Worker process: receive CellSpecs, send back outcome tuples.

    Lives until it receives ``None`` (graceful shutdown), its pipe hits
    EOF (parent died), or the supervisor kills it.  Any exception a cell
    raises is frozen into an ``("error", ...)`` message rather than
    killing the worker — the supervisor owns the retry policy.  SIGINT
    is ignored: a terminal Ctrl-C must drain through the *parent's*
    handler, not kill workers mid-send.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.campaign.runner import run_cell

    while True:
        try:
            cell = conn.recv()
        except (EOFError, OSError):
            return
        if cell is None:
            conn.close()
            return
        try:
            record = run_cell(cell)
            payload = ("ok", record)
        except BaseException as exc:  # noqa: BLE001 — frozen, not fatal
            payload = ("error", {
                "error": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            })
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return


class _Task:
    """One cell's journey through the supervisor."""

    __slots__ = ("cell", "attempts", "failures", "not_before")

    def __init__(self, cell: CellSpec) -> None:
        self.cell = cell
        #: failed attempts so far (a success ends the journey)
        self.attempts = 0
        #: one dict per failure: {"attempt", "reason", "detail"}
        self.failures: list[dict] = []
        #: monotonic instant before which this task must not redispatch
        self.not_before = 0.0

    def quarantine_record(self) -> dict:
        return self.cell.record(
            "quarantine",
            reason=self.failures[-1]["reason"],
            attempts=self.attempts,
            failures=list(self.failures),
        )


class _Slot:
    """One supervised worker: process + private pipe + current task."""

    __slots__ = ("proc", "conn", "task", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None


class Supervisor:
    """Drive cells through individually supervised worker processes.

    Parameters
    ----------
    store:
        the campaign's :class:`ResultStore`; every completed cell and
        every quarantine verdict is appended (atomically) the moment it
        settles.
    workers:
        supervised worker processes (>= 1).
    max_cell_seconds:
        per-cell wall-clock budget; ``None`` disables the timeout.
    max_cell_retries:
        retries granted after the first failed attempt — a cell is
        quarantined on failure ``max_cell_retries + 1``.
    retry_backoff:
        seeded exponential backoff between attempts:
        ``min(BACKOFF_CAP, backoff * 2**(attempt-1) * jitter)`` with
        jitter drawn from ``derive_seed(cell.seed, "retry-backoff",
        attempt)``.
    metrics:
        the :class:`repro.obs.MetricsRegistry` the supervisor exports
        ``campaign_worker_restarts_total``,
        ``campaign_cell_retries_total``,
        ``campaign_cells_quarantined_total`` and the
        ``campaign_cells_inflight`` gauge to; the default null registry
        drops them.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        max_cell_seconds: Optional[float] = None,
        max_cell_retries: int = 2,
        retry_backoff: float = 0.05,
        metrics=NULL_REGISTRY,
    ) -> None:
        if workers < 1:
            raise CampaignError("supervisor needs >= 1 worker")
        if max_cell_seconds is not None and max_cell_seconds <= 0:
            raise CampaignError("max_cell_seconds must be > 0 (or None)")
        if max_cell_retries < 0:
            raise CampaignError("max_cell_retries must be >= 0")
        self.store = store
        self.workers = workers
        self.max_cell_seconds = max_cell_seconds
        self.max_cell_retries = max_cell_retries
        self.retry_backoff = retry_backoff
        self._slots: list[_Slot] = []
        self._progress: Optional[Callable[[dict], None]] = None
        #: drain reason once set ("SIGTERM", "SIGINT", "request"), else None
        self.draining: Optional[str] = None
        #: set when the drain came from a signal (CLI exits 130)
        self.interrupted: Optional[str] = None
        self.stats = zero_stats()
        #: :data:`_METRICS` registered with the caller's registry, by key
        self._metrics = {
            key: getattr(metrics, factory)(name, text)
            for key, (factory, name, text) in _METRICS.items()
        }

    # -- public entry points -------------------------------------------------

    def request_drain(self, reason: str = "request") -> None:
        """Stop dispatching; flush completed work; shut workers down.

        Safe to call from a progress callback or another thread — the
        supervision loop notices at its next tick.
        """
        if self.draining is None:
            self.draining = reason

    def run(
        self,
        cells: list[CellSpec],
        progress: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Supervise every cell to a settled state; returns ``stats``.

        On return every cell in ``cells`` is either completed or
        quarantined in the store — unless a drain cut the run short, in
        which case the store holds every record that finished in time
        and the rest simply rerun on resume.
        """
        self._progress = progress
        pending = deque(_Task(cell) for cell in cells)
        if not pending:
            return dict(self.stats)
        self._install_signal_handlers()
        try:
            self._slots = [
                self._spawn() for _ in range(min(self.workers, len(pending)))
            ]
            self._loop(pending)
            if self.draining is not None:
                self._flush_inflight()
        finally:
            self._shutdown()
            self._restore_signal_handlers()
        return dict(self.stats)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self) -> _Slot:
        parent_conn, child_conn = _MP.Pipe()
        proc = _MP.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return _Slot(proc, parent_conn)

    def _respawn(self, slot: _Slot) -> None:
        """Replace a dead/killed worker with a fresh one, in place."""
        try:
            slot.conn.close()
        except OSError:
            pass
        slot.proc.join(timeout=5.0)
        fresh = self._spawn()
        slot.proc, slot.conn = fresh.proc, fresh.conn
        slot.task, slot.deadline = None, None
        self._count("worker_restarts")

    def _shutdown(self) -> None:
        """Stop every worker: politely when idle, firmly otherwise."""
        for slot in self._slots:
            if slot.task is None and slot.proc.is_alive():
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=5.0)
            try:
                slot.conn.close()
            except OSError:
                pass
        self._slots = []

    # -- signals -------------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to the drain (main thread only: nobody
        else may set handlers, and nobody else receives signals)."""
        self._old_handlers = {}
        if threading.current_thread() is not threading.main_thread():
            return
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._old_handlers[sig] = signal.signal(
                    sig, self._on_signal
                )
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _restore_signal_handlers(self) -> None:
        for sig, old in self._old_handlers.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _on_signal(self, signum, frame) -> None:
        name = signal.Signals(signum).name
        self.interrupted = name
        self.request_drain(name)

    # -- the supervision loop ------------------------------------------------

    def _loop(self, pending: deque) -> None:
        while (pending or self._busy()) and self.draining is None:
            now = time.monotonic()
            self._dispatch(pending, now)
            timeout = self._wait_timeout(pending, now)
            waitables = []
            for slot in self._busy():
                waitables.append(slot.conn)
                waitables.append(slot.proc.sentinel)
            if waitables:
                _conn_wait(waitables, timeout)
            elif pending:
                # Everything is backing off; sleep to the nearest
                # not_before (bounded by POLL_INTERVAL).
                time.sleep(timeout)
            self._harvest(pending)

    def _busy(self) -> list[_Slot]:
        return [s for s in self._slots if s.task is not None]

    def _dispatch(self, pending: deque, now: float) -> None:
        idle = [s for s in self._slots if s.task is None]
        for slot in idle:
            task = self._next_ready(pending, now)
            if task is None:
                return
            slot.task = task
            slot.deadline = (
                None if self.max_cell_seconds is None
                else now + self.max_cell_seconds
            )
            try:
                slot.conn.send(task.cell)
            except (BrokenPipeError, OSError):
                # Worker died between cells; respawn and retry the
                # dispatch on the next tick (no attempt was consumed —
                # the cell never started).
                pending.appendleft(task)
                self._respawn(slot)
                continue
            self._metrics["inflight"].inc()

    @staticmethod
    def _next_ready(pending: deque, now: float) -> Optional[_Task]:
        """Pop the first task whose backoff window has elapsed."""
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.not_before <= now:
                return task
            pending.append(task)
        return None

    def _wait_timeout(self, pending: deque, now: float) -> float:
        """How long the loop may block: the nearest deadline, backoff
        expiry, or the poll interval — whichever comes first."""
        horizon = POLL_INTERVAL
        for slot in self._busy():
            if slot.deadline is not None:
                horizon = min(horizon, slot.deadline - now)
        for task in pending:
            if task.not_before > now:
                horizon = min(horizon, task.not_before - now)
        return max(0.0, horizon)

    def _harvest(self, pending: deque) -> None:
        now = time.monotonic()
        for slot in self._busy():
            if slot.conn.poll():
                status, payload = self._receive(slot)
                if status == "ok":
                    self._on_ok(slot, payload)
                elif status == "torn":
                    self._on_crash(slot, pending)
                else:
                    self._fail(self._settle_slot(slot), "error", payload, pending)
            elif not slot.proc.is_alive():
                self._on_crash(slot, pending)
            elif slot.deadline is not None and now >= slot.deadline:
                self._on_timeout(slot, pending)

    # -- outcome handling ----------------------------------------------------

    def _count(self, key: str) -> None:
        """Bump one outcome counter: in ``stats`` and in its obs mirror."""
        self.stats[key] += 1
        self._metrics[key].inc()

    @staticmethod
    def _receive(slot: _Slot) -> tuple:
        """The ``(status, payload)`` waiting in a worker's pipe."""
        try:
            return slot.conn.recv()
        except Exception:
            # A torn message: the worker died mid-send.  Its pipe is
            # poisoned; the loop treats it as a crash.
            return "torn", None

    def _settle_slot(self, slot: _Slot) -> _Task:
        task = slot.task
        slot.task, slot.deadline = None, None
        self._metrics["inflight"].inc(-1)
        return task

    def _on_ok(self, slot: _Slot, record: dict) -> None:
        self._settle_slot(slot)
        self.store.append(record)
        self.stats["completed"] += 1
        if self._progress is not None:
            self._progress(record)

    def _on_crash(self, slot: _Slot, pending: deque) -> None:
        task = self._settle_slot(slot)
        exitcode = slot.proc.exitcode
        self._respawn(slot)
        self._fail(task, "crash", {"exitcode": exitcode}, pending)

    def _on_timeout(self, slot: _Slot, pending: deque) -> None:
        task = self._settle_slot(slot)
        slot.proc.kill()
        self._respawn(slot)
        self._fail(
            task, "timeout",
            {"max_cell_seconds": self.max_cell_seconds}, pending,
        )

    def _fail(
        self, task: _Task, reason: str, detail: dict, pending: deque
    ) -> None:
        task.attempts += 1
        task.failures.append(
            {"attempt": task.attempts, "reason": reason, "detail": detail}
        )
        if task.attempts > self.max_cell_retries:
            record = task.quarantine_record()
            self.store.append_quarantine(record)
            self._count("quarantined")
            if self._progress is not None:
                self._progress(record)
        else:
            self._count("cell_retries")
            task.not_before = time.monotonic() + self._backoff(task)
            pending.append(task)

    def _backoff(self, task: _Task) -> float:
        """Bounded seeded exponential backoff before the next attempt."""
        rng = random.Random(
            derive_seed(task.cell.seed, "retry-backoff", task.attempts)
        )
        base = self.retry_backoff * (2 ** (task.attempts - 1))
        return min(BACKOFF_CAP, base * rng.uniform(1.0, 1.5))

    # -- drain ---------------------------------------------------------------

    def _flush_inflight(self, grace: float = 0.25) -> None:
        """Harvest results already sitting in worker pipes before exit.

        The drain contract: every record a worker *finished* must reach
        the store; cells still running are abandoned (they rerun on
        resume).  A short grace window lets sends racing the drain land.
        """
        deadline = time.monotonic() + grace
        while self._busy() and time.monotonic() < deadline:
            conns = [s.conn for s in self._busy()]
            _conn_wait(conns, max(0.0, deadline - time.monotonic()))
            for slot in self._busy():
                if not slot.conn.poll():
                    continue
                status, payload = self._receive(slot)
                if status == "ok":
                    self._on_ok(slot, payload)
                else:
                    # A failure mid-drain is not retried (we are
                    # exiting); the cell stays unsettled and reruns.
                    self._settle_slot(slot)
