"""Typed continuous parameter spaces: the search half of the grid API.

A :class:`~repro.campaign.spec.CampaignSpec` enumerates *named points*;
a :class:`ParamSpace` declares the **continuum between them**: one
template :class:`~repro.campaign.spec.AxisPoint` per axis plus a set of
:class:`ParamRange` dimensions addressing individual knobs by dotted
path (``arrival.rate``, ``faults.random.window``, ``base.queue_limit``
...).  Both spec kinds lower to the exact same :class:`CellSpec`
machinery: an *assignment* (path -> value) is stamped into copies of the
template points, every point name gains a ``@<digest>`` suffix derived
from the canonical JSON of the assignment, and the result is a
single-cell :class:`CampaignSpec` whose one cell gets its seed from
``derive_seed(seed, cell_id)`` exactly like a grid cell would.

That digest suffix is the load-bearing trick: the cell id — and hence
the cell seed — is a pure function of the assignment, so

* the same assignment always lowers to the same cell with the same
  seed, no matter which search run (or machine) proposed it;
* a discovered cliff cell exports as a frozen single-cell
  ``CampaignSpec`` fragment that replays **byte-identically** through
  the ordinary grid runner, because nothing about the cell remembers it
  was ever searched for;
* two assignments differing in any value — including ``base.*`` knobs
  that change the fabric without touching axis params — can never
  collide on a cell id and silently share a seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.campaign.spec import (
    AXES,
    AXIS_FIELDS,
    AxisPoint,
    CampaignSpec,
    CellSpec,
    from_fields,
    to_fields,
)
from repro.errors import CampaignError
from repro.wire.fields import check_fields, finite_real

SPACE_SCHEMA = "repro.campaign/space-v1"

#: dotted-path roots an assignment may address, and where each lands:
#: ``scenario.<p>`` / ``arrival.<p>`` -> that template point's params,
#: ``faults.random.<p>`` -> the faults point's ``random`` kwargs,
#: ``base.<key>`` -> a fabric/run base-config override
PATH_ROOTS = ("scenario", "arrival", "faults", "base")


def validate_path(path: str) -> tuple[str, ...]:
    """Split and validate a dotted parameter path; returns its parts."""
    parts = tuple(path.split(".")) if isinstance(path, str) else ()
    if len(parts) < 2 or not all(parts):
        raise CampaignError(
            f"parameter path {path!r} must look like '<root>.<param>' "
            f"(roots: {', '.join(PATH_ROOTS)})"
        )
    root = parts[0]
    if root not in PATH_ROOTS:
        raise CampaignError(
            f"parameter path {path!r}: unknown root {root!r} "
            f"(expected one of {', '.join(PATH_ROOTS)})"
        )
    if root == "faults":
        if len(parts) != 3 or parts[1] != "random":
            raise CampaignError(
                f"parameter path {path!r}: fault paths address the seeded "
                "random schedule as 'faults.random.<param>'"
            )
    elif len(parts) != 2:
        raise CampaignError(
            f"parameter path {path!r}: {root} paths take exactly one "
            f"param ('{root}.<param>')"
        )
    return parts


def assignment_digest(assignment: dict) -> str:
    """A short stable digest of an assignment's canonical JSON form."""
    canon = json.dumps(assignment, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:10]


@dataclass(frozen=True)
class ParamRange:
    """One search dimension: a dotted path plus its closed interval.

    ``kind`` is ``"float"`` or ``"int"`` (integer dimensions round and
    stay integers all the way into the lowered cell, so e.g.
    ``faults.random.n_faults`` never reaches the chaos layer as 3.7);
    ``log`` samples and mutates on a log scale — the right geometry for
    rates spanning orders of magnitude.
    """

    path: str
    lo: float
    hi: float
    kind: str = "float"
    log: bool = False

    def __post_init__(self) -> None:
        check_fields(self, CampaignError, f"range {self.path!r}")
        validate_path(self.path)
        # normalise bounds so to_dict() is byte-stable however the
        # range was constructed (ints from code, floats from JSON)
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.kind not in ("float", "int"):
            raise CampaignError(
                f"range {self.path!r}: kind must be 'float' or 'int', "
                f"got {self.kind!r}"
            )
        if self.lo >= self.hi:
            raise CampaignError(
                f"range {self.path!r}: need lo < hi, got [{self.lo}, {self.hi}]"
            )
        if self.log and self.lo <= 0:
            raise CampaignError(
                f"range {self.path!r}: log-scale ranges need lo > 0"
            )

    def coerce(self, value: float) -> float | int:
        """Clamp into the interval and round integer dimensions."""
        value = min(max(float(value), self.lo), self.hi)
        if self.kind == "int":
            return int(round(value))
        return value

    def sample(self, rng) -> float | int:
        if self.log:
            return self.coerce(
                math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
            )
        return self.coerce(rng.uniform(self.lo, self.hi))

    def mutate(self, value: float, rng, scale: float) -> float | int:
        """A gaussian step sized to the range's span (or log-span)."""
        if self.log:
            span = math.log(self.hi / self.lo)
            return self.coerce(
                math.exp(math.log(max(float(value), self.lo)) + rng.gauss(0.0, scale * span))
            )
        return self.coerce(float(value) + rng.gauss(0.0, scale * (self.hi - self.lo)))

    to_dict = to_fields
    from_dict = classmethod(from_fields)


@dataclass
class ParamSpace:
    """A continuous scenario space: four template points + the ranges.

    The templates fix everything an assignment does not sweep (the
    arrival kind, the fault-schedule shape, the placement policy ...);
    ``ranges`` declare the swept dimensions.  ``base`` plays the same
    role as :attr:`CampaignSpec.base` — fabric/run knobs every lowered
    cell shares.
    """

    name: str
    scenario: AxisPoint
    arrival: AxisPoint
    faults: AxisPoint
    policy: AxisPoint
    ranges: Sequence[ParamRange]
    base: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, CampaignError, "parameter space")
        if not self.name:
            raise CampaignError("parameter space needs a name")
        self.base = dict(self.base)
        for axis in AXES:
            point = getattr(self, axis)
            if not isinstance(point, AxisPoint):
                setattr(self, axis, AxisPoint.from_dict(point))
        if not isinstance(self.ranges, (list, tuple)):
            raise CampaignError(
                f"parameter space {self.name!r}: ranges must be a list, "
                f"got {self.ranges!r}"
            )
        self.ranges = [
            r if isinstance(r, ParamRange) else ParamRange.from_dict(r)
            for r in self.ranges
        ]
        if not self.ranges:
            raise CampaignError(
                f"parameter space {self.name!r} needs at least one range"
            )
        paths = [r.path for r in self.ranges]
        if len(set(paths)) != len(paths):
            raise CampaignError(
                f"parameter space {self.name!r} has duplicate range "
                f"paths: {paths}"
            )

    def range_of(self, path: str) -> ParamRange | None:
        for r in self.ranges:
            if r.path == path:
                return r
        return None

    # -- assignments ---------------------------------------------------------

    def sample(self, rng) -> dict:
        """One uniform random assignment, in declared range order."""
        return {r.path: r.sample(rng) for r in self.ranges}

    def clamp(self, assignment: dict) -> dict:
        """Coerce every declared dimension back into its range; paths
        beyond the declared ranges (e.g. a successive-halving budget)
        pass through untouched after syntax validation."""
        out = {}
        for path, value in assignment.items():
            validate_path(path)
            if not finite_real(value):
                raise CampaignError(
                    f"assignment {path!r}: values must be finite numbers, "
                    f"got {value!r}"
                )
            r = self.range_of(path)
            out[path] = r.coerce(value) if r is not None else value
        return out

    # -- lowering ------------------------------------------------------------

    def lower_spec(
        self, assignment: dict, seed: int, name: str | None = None
    ) -> CampaignSpec:
        """Lower one assignment to a frozen single-cell CampaignSpec.

        Every template point is copied, the assignment's values are
        stamped into the matching params, and every point name gains
        the assignment's ``@<digest>`` suffix — so the cell id (and
        therefore the cell seed) is a pure function of the assignment
        and the fragment replays byte-identically through the ordinary
        grid runner.
        """
        assignment = self.clamp(assignment)
        digest = assignment_digest(assignment)
        params = {axis: dict(getattr(self, axis).params) for axis in AXES}
        # copy the nested dicts an assignment may write into
        params["faults"]["random"] = dict(params["faults"].get("random", {}))
        base_over: dict = {}
        for path, value in assignment.items():
            parts = validate_path(path)
            if parts[0] == "base":
                base_over[parts[1]] = value
            elif parts[0] == "faults":
                params["faults"]["random"][parts[2]] = value
            else:
                params[parts[0]][parts[1]] = value
        if base_over:
            # base overrides ride the policy point — the last axis in
            # AXES order, so they win over any template-level overrides
            policy_base = dict(params["policy"].get("base", {}))
            policy_base.update(base_over)
            params["policy"]["base"] = policy_base
        return CampaignSpec(
            name=name or self.name,
            seed=seed,
            base=dict(self.base),
            **{
                attr: [AxisPoint(f"{getattr(self, axis).name}@{digest}", params[axis])]
                for axis, attr in AXIS_FIELDS.items()
            },
        )

    def lower(
        self, assignment: dict, seed: int, name: str | None = None
    ) -> CellSpec:
        """The assignment's one concrete cell (index 0, derived seed)."""
        return self.lower_spec(assignment, seed, name=name).cells()[0]

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return to_fields(self, SPACE_SCHEMA)

    @classmethod
    def from_dict(cls, doc: dict) -> "ParamSpace":
        return from_fields(cls, doc, "parameter space", SPACE_SCHEMA)
