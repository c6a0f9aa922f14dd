"""Abstract Job Objects: UNICORE's serialized workflow unit.

"The workflows being instantiated are known in UNICORE as Abstract Job
Objects (AJOs) and are sent via ssl as serialised Java objects" (section
2.2).  An AJO is a DAG of tasks — stage-in, execute, stage-out — kept
deliberately *abstract*: nothing in it names site-specific paths or
submission commands; that knowledge is added later by the NJS during
incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import UnicoreError
from repro.wire.fields import decode_fields, decode_tagged


@dataclass
class ExecuteTask:
    """Run an application on the target system.

    ``application`` is an abstract name ("LB3D", "PEPC") resolved by the
    target's incarnation database; ``wall_time`` is the virtual compute
    duration for plain batch tasks (steered applications run until
    stopped); ``steered`` marks tasks that attach to the VISIT proxy.
    """

    name: str
    application: str
    arguments: dict = field(default_factory=dict)
    wall_time: float = 1.0
    steered: bool = False

    def __post_init__(self) -> None:
        if self.wall_time < 0:
            raise UnicoreError(f"task {self.name!r}: wall_time must be >= 0")


@dataclass
class StageIn:
    """Place a named file into the job's USpace before execution."""

    name: str
    filename: str
    data: bytes


@dataclass
class StageOut:
    """Retrieve a named file from the USpace after execution."""

    name: str
    filename: str


#: an AJO task's ``_task`` tag -> its class
_TASKS = {cls.__name__: cls for cls in (ExecuteTask, StageIn, StageOut)}


@dataclass
class _Consigned:
    """An AJO's wire form, as :meth:`AbstractJobObject.from_wire` decodes it."""

    job_name: str
    vsite: str
    tasks: dict
    dependencies: dict


class AbstractJobObject:
    """A DAG of tasks plus the target vsite it should run on."""

    def __init__(self, job_name: str, vsite: str) -> None:
        self.job_name = job_name
        self.vsite = vsite
        self.tasks: dict[str, Any] = {}
        self.dependencies: dict[str, set[str]] = {}

    def add_task(self, task, after: Optional[list[str]] = None) -> str:
        """Add a task; ``after`` lists task names that must finish first."""
        if task.name in self.tasks:
            raise UnicoreError(f"duplicate task name {task.name!r}")
        for dep in after or []:
            if dep not in self.tasks:
                raise UnicoreError(f"dependency {dep!r} not yet defined")
        self.tasks[task.name] = task
        self.dependencies[task.name] = set(after or [])
        return task.name

    def execution_order(self) -> list[str]:
        """Topological order; raises on cycles (add_task's defined-before
        rule prevents them; a consigned AJO may still carry one)."""
        order: list[str] = []
        done: set[str] = set()
        remaining = dict(self.dependencies)
        while remaining:
            ready = sorted(n for n, deps in remaining.items() if deps <= done)
            if not ready:
                raise UnicoreError(f"dependency cycle among {sorted(remaining)}")
            for name in ready:
                order.append(name)
                done.add(name)
                del remaining[name]
        return order

    # -- serialization (the "serialised Java objects" of the UPL) ------------

    def to_wire(self) -> dict:
        out_tasks = {}
        for name, task in self.tasks.items():
            d = {"_task": type(task).__name__}
            d.update(task.__dict__)
            out_tasks[name] = d
        return {
            "job_name": self.job_name,
            "vsite": self.vsite,
            "tasks": out_tasks,
            "dependencies": {k: sorted(v) for k, v in self.dependencies.items()},
        }

    @classmethod
    def from_wire(cls, payload) -> "AbstractJobObject":
        """The consigned AJO, or :class:`UnicoreError`: each task decodes
        under its ``_task`` tag, and ``dependencies`` maps exactly those
        tasks to lists of them."""
        wire = decode_fields(_Consigned, payload, UnicoreError, "AJO")
        if wire.tasks.keys() != wire.dependencies.keys():
            raise UnicoreError("AJO tasks and dependencies name different tasks")
        ajo = cls(wire.job_name, wire.vsite)
        for name, after in wire.dependencies.items():
            what = f"AJO task {name!r}"
            known = isinstance(after, list) and all(
                isinstance(dep, str) and dep in wire.tasks for dep in after
            )
            if not known:
                raise UnicoreError(f"{what}: dependencies must name tasks of the AJO")
            ajo.tasks[name] = decode_tagged(_TASKS, wire.tasks[name], "_task", UnicoreError, what)
            ajo.dependencies[name] = set(after)
        return ajo
