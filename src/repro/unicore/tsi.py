"""The Target System Interface: runs incarnated tasks under a batch queue.

Section 3.1: "UNICORE target systems that schedule and run the jobs on the
HPC platforms.  On these systems a Target System Interface (TSI) ...
performs the communication with the NJS."  Section 3.3: the TSI is "the
only component of the UNICORE system that needs to be modified" for the
steering extension — which here means the TSI can host a VISIT proxy
server and launch *steered* applications that talk to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.des import Resource
from repro.errors import IncarnationError, UnicoreError
from repro.unicore.uspace import USpace


@dataclass
class IncarnatedTask:
    """What incarnation produces: a concrete, site-specific script.

    ``script`` is the human-readable artifact (the Perl the real TSI would
    run); ``handler`` names the registered application implementation the
    simulated TSI invokes.
    """

    task_name: str
    handler: str
    script: str
    arguments: dict = field(default_factory=dict)
    wall_time: float = 1.0
    steered: bool = False


class TargetSystemInterface:
    """Batch-queue executor on the target host."""

    def __init__(self, host, queue_slots: int = 2) -> None:
        if queue_slots < 1:
            raise UnicoreError("queue needs at least one slot")
        self.host = host
        self.queue = Resource(host.env, capacity=queue_slots)
        #: handler name -> factory(env, host, arguments, uspace) -> generator
        self._applications: dict[str, Optional[Callable]] = {"sleep": None}
        self.tasks_run = 0
        self.tasks_failed = 0
        #: set by the VISIT extension (section 3.3): a proxy the steered
        #: applications and the NJS poll path can reach.
        self.visit_proxy = None

    def register_application(
        self, name: str, factory: Optional[Callable] = None
    ) -> None:
        """Register an executable.  ``factory=None`` means a plain batch
        task that just consumes its wall time."""
        if name in self._applications:
            raise UnicoreError(f"application {name!r} already registered")
        self._applications[name] = factory

    def knows(self, handler: str) -> bool:
        return handler in self._applications

    def run_task(self, task: IncarnatedTask, uspace: USpace):
        """Generator: queue, run, return (ok, error) when the task ends."""
        if task.handler not in self._applications:
            raise IncarnationError(
                f"target system has no application {task.handler!r}"
            )
        env = self.host.env
        req = self.queue.request()
        yield req
        try:
            factory = self._applications[task.handler]
            if factory is None:
                yield env.timeout(task.wall_time)
            else:
                proc = env.process(
                    factory(env, self.host, dict(task.arguments), uspace)
                )
                try:
                    yield proc
                except Exception as exc:
                    self.tasks_failed += 1
                    return False, f"{type(exc).__name__}: {exc}"
            self.tasks_run += 1
            return True, ""
        finally:
            req.release()
