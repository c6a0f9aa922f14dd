"""The simulation protocol every steerable code implements.

UNICORE's selling point — "it does not require any modifications of the
applications" (section 3.1) — and VISIT's — instrument with a lean API —
both rely on the application exposing a uniform surface: step forward,
report observables, expose named steerable parameters, emit samples for
the visualization, and a checkpoint of the full state.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.errors import SteeringError


class Simulation(abc.ABC):
    """Abstract steerable simulation."""

    #: simulation time advanced per :meth:`step` call
    dt: float = 1.0

    def __init__(self) -> None:
        self.time = 0.0
        self.step_count = 0

    # -- evolution --------------------------------------------------------

    @abc.abstractmethod
    def advance(self) -> None:
        """Advance the physics by one step (subclass hook)."""

    def step(self) -> None:
        """Advance one step and update clocks."""
        self.advance()
        self.step_count += 1
        self.time += self.dt

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- steering surface ---------------------------------------------------

    def steerable_parameters(self) -> dict[str, Any]:
        """Names -> current values of parameters a steerer may change."""
        return {}

    def set_parameter(self, name: str, value: Any) -> None:
        """Apply a steered parameter change; unknown names are errors."""
        raise SteeringError(f"{type(self).__name__} has no steerable parameter {name!r}")

    def observables(self) -> dict[str, float]:
        """Cheap scalar monitored quantities (shown in steering clients)."""
        return {"time": self.time, "step": float(self.step_count)}

    @abc.abstractmethod
    def sample(self) -> dict[str, Any]:
        """The data-space emitted for visualization ("samples", section 2.1)."""

    # -- checkpoint -------------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """The full state as plain values: what a state digest hashes."""
        raise SteeringError(f"{type(self).__name__} does not support checkpointing")
