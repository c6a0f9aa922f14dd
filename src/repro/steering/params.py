"""Steerable / monitored parameter definitions.

The RealityGrid project "has defined APIs for the steering calls which can
be used to link from the application to the services" (section 2.3).
Parameters are the core of that API: each has a name, a kind (steered
parameters can be changed by the client; monitored are read-only
diagnostics), an optional numeric range, and a current value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import SteeringError


@dataclass
class ParameterDef:
    """Declaration of one steerable or monitored parameter."""

    name: str
    kind: str = "steered"  # "steered" | "monitored"
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("steered", "monitored"):
            raise SteeringError(f"parameter kind must be steered/monitored, got {self.kind!r}")
        if self.minimum is not None and self.maximum is not None:
            if self.minimum > self.maximum:
                raise SteeringError(f"{self.name}: minimum exceeds maximum")

    def validate(self, value: Any) -> None:
        """A steered value is a finite real number or an array of them
        (not a bool, string, ``None`` or mapping); scalars are also
        range-checked.

        Control messages arrive off the wire, and every range check a
        simulation makes is false for a NaN — it would be acknowledged
        and then poison the run.
        """
        if type(value) is float:  # what the wire codec delivers
            finite, scalar = isfinite(value), True
        else:
            try:
                arr = np.asarray(value)
                finite = arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())
            except ValueError:  # ragged nesting
                finite = False
            scalar = finite and arr.ndim == 0
        if not finite:
            raise SteeringError(
                f"{self.name}={value!r:.80} is not a finite real number or an array of them"
            )
        if scalar:
            if self.minimum is not None and value < self.minimum:
                raise SteeringError(
                    f"{self.name}={value} below minimum {self.minimum}"
                )
            if self.maximum is not None and value > self.maximum:
                raise SteeringError(
                    f"{self.name}={value} above maximum {self.maximum}"
                )


class ParameterRegistry:
    """The set of parameters an application has published."""

    def __init__(self) -> None:
        self._defs: dict[str, ParameterDef] = {}
        self._getters: dict[str, Callable[[], Any]] = {}
        self._setters: dict[str, Callable[[Any], None]] = {}

    def register(
        self,
        definition: ParameterDef,
        getter: Callable[[], Any],
        setter: Optional[Callable[[Any], None]] = None,
    ) -> None:
        name = definition.name
        if name in self._defs:
            raise SteeringError(f"parameter {name!r} already registered")
        if definition.kind == "steered" and setter is None:
            raise SteeringError(f"steered parameter {name!r} needs a setter")
        self._defs[name] = definition
        self._getters[name] = getter
        if setter is not None:
            self._setters[name] = setter

    def names(self, kind: Optional[str] = None) -> list[str]:
        return sorted(
            n for n, d in self._defs.items() if kind is None or d.kind == kind
        )

    def definition(self, name: str) -> ParameterDef:
        try:
            return self._defs[name]
        except KeyError:
            raise SteeringError(f"unknown parameter {name!r}") from None

    def get(self, name: str) -> Any:
        self.definition(name)
        return self._getters[name]()

    def set(self, name: str, value: Any) -> None:
        d = self.definition(name)
        if d.kind != "steered":
            raise SteeringError(f"parameter {name!r} is monitored (read-only)")
        d.validate(value)
        try:
            self._setters[name](value)
        except (TypeError, ValueError) as exc:
            # e.g. a list for a scalar: the application's own conversion
            # refused the value before assigning anything
            raise SteeringError(f"{name}: cannot apply {value!r:.80}: {exc}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._defs
