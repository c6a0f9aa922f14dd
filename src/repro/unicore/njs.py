"""The Network Job Supervisor: incarnation and job lifecycle.

Section 2.2: "the AJOs are translated into Perl scripts for a target
machine.  This process is known as incarnation in the UNICORE model; it
allows the details of the scripts used to run the workflow to be hidden
from the application."

The NJS owns the job table of its vsite: it accepts consigned AJOs from
the gateway, *incarnates* each abstract task against the site's
incarnation database, runs the DAG through the TSI, and serves status /
outcome-retrieval requests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ChannelClosed, IncarnationError, UnicoreError
from repro.unicore.ajo import AbstractJobObject, ExecuteTask, StageIn, StageOut
from repro.unicore.tsi import IncarnatedTask, TargetSystemInterface
from repro.unicore.uspace import USpace
from repro.util.ids import IdAllocator
from repro.wire.fields import decode_tagged


class JobStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUCCESSFUL = "successful"
    FAILED = "failed"


@dataclass
class _Job:
    job_id: str
    owner: str
    ajo: AbstractJobObject
    uspace: USpace
    status: JobStatus = JobStatus.QUEUED
    task_states: dict = field(default_factory=dict)
    error: str = ""
    outcome: dict = field(default_factory=dict)


# The requests the NJS serves, as the gateway relays them: the client's
# fields plus the ``subject`` the gateway authenticated.


@dataclass
class _Request:
    vsite: str
    subject: str


@dataclass
class _Consign(_Request):
    ajo: dict


@dataclass
class _Status(_Request):
    job_id: str


@dataclass
class _Retrieve(_Request):
    job_id: str
    filename: str


@dataclass
class _ProxyPoll(_Request):
    #: the polling participant; the subject when absent
    client: str | None = None
    responses: list = field(default_factory=list)


#: ``op`` -> request class
_OPS = {"consign": _Consign, "status": _Status, "retrieve": _Retrieve, "proxy_poll": _ProxyPoll}


class NetworkJobSupervisor:
    """One vsite's job manager, fronted by the gateway."""

    def __init__(
        self,
        host,
        port: int,
        vsite: str,
        tsi: TargetSystemInterface,
    ) -> None:
        self.host = host
        self.port = port
        self.vsite = vsite
        self.tsi = tsi
        #: abstract application name -> (handler, script template)
        self.idb: dict[str, tuple[str, str]] = {}
        self.jobs: dict[str, _Job] = {}
        self._job_ids = IdAllocator(f"{vsite}-job")
        self.consigned = 0

    # -- incarnation database ---------------------------------------------------

    def register_application(self, application: str, handler: str) -> None:
        """Map an abstract application name to a TSI handler."""
        if not self.tsi.knows(handler):
            raise IncarnationError(
                f"TSI at {self.host.name} has no handler {handler!r}"
            )
        self.idb[application] = (
            handler,
            f"#!/usr/bin/perl\n# incarnated for {self.vsite}\nexec('{handler}');\n",
        )

    def incarnate(self, task: ExecuteTask, owner: str) -> IncarnatedTask:
        entry = self.idb.get(task.application)
        if entry is None:
            raise IncarnationError(
                f"vsite {self.vsite!r} cannot incarnate application "
                f"{task.application!r}"
            )
        handler, script = entry
        return IncarnatedTask(
            task_name=task.name,
            handler=handler,
            script=script + f"# xlogin={owner}\n",
            arguments=dict(task.arguments),
            wall_time=task.wall_time,
            steered=task.steered,
        )

    # -- service process -------------------------------------------------------

    def start(self) -> None:
        self.host.serve(self.port, self._serve)

    def _serve(self, conn):
        while True:
            try:
                msg = yield from conn.recv(timeout=None)
            except ChannelClosed:
                return
            conn.send(self._handle(msg))

    def _handle(self, msg) -> dict:
        try:
            request = decode_tagged(_OPS, msg, "op", UnicoreError, "malformed NJS request")
            return self._HANDLERS[type(request)](self, request)
        except UnicoreError as exc:
            return {"ok": False, "error": str(exc)}

    def _job_for(self, request) -> _Job:
        job = self.jobs.get(request.job_id)
        if job is None:
            raise UnicoreError(f"unknown job {request.job_id!r}")
        if job.owner != request.subject:
            raise UnicoreError(f"job belongs to {job.owner!r}, not {request.subject!r}")
        return job

    def _consign(self, request: _Consign) -> dict:
        try:
            ajo = AbstractJobObject.from_wire(request.ajo)
        except UnicoreError as exc:
            return {"ok": False, "error": f"bad AJO: {exc}"}
        if ajo.vsite != self.vsite:
            return {"ok": False, "error": f"AJO addressed to {ajo.vsite!r}"}
        # Incarnation check up front: reject jobs this site cannot run.
        for task in ajo.tasks.values():
            if isinstance(task, ExecuteTask) and task.application not in self.idb:
                return {
                    "ok": False,
                    "error": f"cannot incarnate {task.application!r} at {self.vsite}",
                }
        job_id = self._job_ids.next()
        job = _Job(job_id, request.subject, ajo, USpace(job_id))
        job.task_states = {name: "pending" for name in ajo.tasks}
        self.jobs[job_id] = job
        self.consigned += 1
        self.host.env.process(self._execute(job))
        return {"ok": True, "job_id": job_id}

    def _execute(self, job: _Job):
        job.status = JobStatus.RUNNING
        try:
            for name in job.ajo.execution_order():
                task = job.ajo.tasks[name]
                job.task_states[name] = "running"
                if isinstance(task, StageIn):
                    job.uspace.write(task.filename, task.data)
                elif isinstance(task, StageOut):
                    job.outcome[task.filename] = job.uspace.read(task.filename)
                elif isinstance(task, ExecuteTask):
                    incarnated = self.incarnate(task, job.owner)
                    ok, error = yield from self.tsi.run_task(incarnated, job.uspace)
                    if not ok:
                        raise UnicoreError(f"task {name!r} failed: {error}")
                else:
                    raise UnicoreError(f"unknown task type {type(task).__name__}")
                job.task_states[name] = "done"
        except (UnicoreError, IncarnationError) as exc:
            job.status = JobStatus.FAILED
            job.error = str(exc)
            return
        job.status = JobStatus.SUCCESSFUL

    def _status(self, request: _Status) -> dict:
        job = self._job_for(request)
        return {
            "ok": True,
            "status": job.status.value,
            "tasks": dict(job.task_states),
            "error": job.error,
        }

    def _retrieve(self, request: _Retrieve) -> dict:
        job = self._job_for(request)
        data = job.outcome.get(request.filename)
        if data is None:
            return {"ok": False, "error": f"no outcome file {request.filename!r}"}
        return {"ok": True, "filename": request.filename, "data": data, "_size": len(data)}

    def _proxy_poll(self, request: _ProxyPoll) -> dict:
        """Relay a VISIT-proxy poll to the TSI's proxy (section 3.3)."""
        proxy = self.tsi.visit_proxy
        if proxy is None:
            return {"ok": False, "error": "no VISIT proxy at this vsite"}
        client = request.subject if request.client is None else request.client
        return proxy.handle_poll(request.subject, client, request.responses)

    #: request class -> the method that answers it
    _HANDLERS = {
        _Consign: _consign,
        _Status: _status,
        _Retrieve: _retrieve,
        _ProxyPoll: _proxy_poll,
    }
