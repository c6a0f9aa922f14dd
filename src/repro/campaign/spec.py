"""Declarative scenario-matrix campaigns: the grid, not the point.

The ROADMAP's north star demands "as many scenarios as you can imagine"
explored *systematically*.  The testbed already has four orthogonal
scenario axes — workload suites (:mod:`repro.workloads` /
:mod:`repro.fleet.spec`), arrival processes (:mod:`repro.load.arrivals`),
fault schedules (:mod:`repro.chaos.faults`) and placement/autoscale
policies (:mod:`repro.load.placement` / :mod:`repro.load.autoscale`) —
but until now every bench hand-picked a handful of combinations.  A
:class:`CampaignSpec` declares the **cross product**: one
:class:`AxisPoint` list per axis, and every combination becomes a
:class:`CellSpec` with a deterministic identity and seed.

Determinism is the load-bearing property.  A cell's seed is a stable
hash (SHA-256, not Python's randomized ``hash``) of the campaign seed
and the cell's coordinates, so

* the same campaign always enumerates the same cells with the same
  seeds, in the same order;
* any single cell can be re-run **in isolation** — on another machine,
  in another process, weeks later — and reproduce its original run
  byte for byte;
* adding a point to one axis changes only the new cells' seeds, never
  the existing ones (the seed depends on coordinates, not position).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

from repro.errors import CampaignError
from repro.wire.fields import check_fields, decode_fields

#: axis order — also the order of coordinates inside a cell id
AXES = ("scenario", "arrival", "faults", "policy")

#: axis -> the CampaignSpec field (and wire key) holding its points
AXIS_FIELDS = dict(zip(AXES, ("scenarios", "arrivals", "faults", "policies")))

SPEC_SCHEMA = "repro.campaign/spec-v1"

#: wire-format version carried by every serialised spec.  Bump when a
#: to_dict/from_dict change would make old readers misinterpret new
#: documents; from_dict refuses versions it does not know.
SPEC_VERSION = 1


def read_document(path, what: str):
    """The JSON document in the file at ``path``; :class:`CampaignError`
    for a file that cannot be read, is not UTF-8 JSON, or nests deeper
    than the parser's stack."""
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise CampaignError(f"cannot read {what} {path}: {exc}") from None


def check_document(doc, schema: str, what: str) -> None:
    """What every loader checks first: ``doc`` is a JSON object, of this
    schema (when it names one), written by a known wire-format version.

    Documents predating the version field (PR 5–9 store headers) carry
    no ``"version"`` key and are read as version 1 — the formats are
    identical.
    """
    if not isinstance(doc, dict):
        raise CampaignError(f"{what} must be a JSON object, got {doc!r}")
    if doc.get("schema", schema) != schema:
        raise CampaignError(
            f"unsupported {what} schema {doc['schema']!r} (expected {schema})"
        )
    version = doc.get("version", 1)
    if version != SPEC_VERSION:
        raise CampaignError(
            f"unsupported {what} version {version!r} (this build reads "
            f"version {SPEC_VERSION}; upgrade to read newer documents)"
        )


# Every wire form in this package is its dataclass's fields — the specs
# behind a schema/version envelope, the strategies beside their registry
# ``kind`` — so one writer and one validating reader serve them all: a
# field added to a class is on the wire without a second edit.


def _wire(value):
    """A field value as JSON-able data: nested wire forms through their
    own ``to_dict``, sequences as lists, dicts copied."""
    if value is None or isinstance(value, (str, int, float)):
        return value  # most fields; an archive writes thousands of them
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return dict(value) if isinstance(value, dict) else value


def to_fields(self, schema: str | None = None) -> dict:
    """``to_dict``: the fields, inside the ``schema`` envelope when one
    is given, beside ``kind`` when the class carries one as a ClassVar."""
    doc = {} if schema is None else {"schema": schema, "version": SPEC_VERSION}
    doc.update((f.name, _wire(getattr(self, f.name))) for f in fields(self))
    if hasattr(self, "kind"):
        doc.setdefault("kind", self.kind)
    return doc


def from_fields(cls, doc, what: str | None = None, schema: str | None = None):
    """``from_dict``: ``cls`` decoded from ``doc`` by the shared field
    decoder (:func:`~repro.wire.fields.decode_fields`), behind the
    ``schema`` envelope and its version check when one is given."""
    what = what or cls.__name__.lower()
    if schema is not None:
        check_document(doc, schema, what)
        doc = {k: v for k, v in doc.items() if k not in ("schema", "version")}
    return decode_fields(cls, doc, CampaignError, what)


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 63-bit seed from a root seed and a coordinate path.

    SHA-256 over the textual path, so the value is identical across
    processes, platforms and Python versions (``hash()`` is neither).
    Used twice: campaign seed + cell id -> cell seed, and cell seed +
    salt ("arrival", "faults", "placement") -> per-component sub-seeds,
    so the axes draw from independent streams.
    """
    text = ":".join([str(seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class AxisPoint:
    """One named point on one axis: a label plus builder parameters.

    The label is the cell-coordinate component (so it must be unique on
    its axis and must not contain the ``/`` that joins coordinates into
    cell ids); ``params`` are interpreted by the axis builders in
    :mod:`repro.campaign.axes`.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, CampaignError, f"axis point {self.name!r}")
        if not self.name or "/" in self.name:
            raise CampaignError(
                f"axis point name {self.name!r} must be a non-empty string "
                "and must not contain '/'"
            )
        # a private copy: the document it came from cannot edit the point
        object.__setattr__(self, "params", dict(self.params))

    to_dict = to_fields

    @classmethod
    def from_dict(cls, doc) -> "AxisPoint":
        """A point from its wire form, or from just its name."""
        return cls(doc) if isinstance(doc, str) else from_fields(cls, doc, "axis point")


@dataclass(frozen=True)
class CellSpec:
    """One cell of the grid: four coordinates, a derived seed, and the
    campaign-wide base configuration.  Fully picklable and JSON-able —
    worker processes receive exactly this."""

    campaign: str
    cell_id: str
    index: int
    seed: int
    scenario: AxisPoint
    arrival: AxisPoint
    faults: AxisPoint
    policy: AxisPoint
    base: dict = field(default_factory=dict)

    @property
    def coords(self) -> dict:
        return {axis: getattr(self, axis).name for axis in AXES}

    def record(self, kind: str, **body) -> dict:
        """A store record about this cell: the identifying head every
        record kind shares, then the kind's own ``body``."""
        return {
            "kind": kind,
            "cell_id": self.cell_id,
            "index": self.index,
            "seed": self.seed,
            "coords": self.coords,
            **body,
        }

    def subseed(self, salt: str) -> int:
        """An independent stream for one component of this cell."""
        return derive_seed(self.seed, salt)


@dataclass
class CampaignSpec:
    """The declarative campaign: four axes, a seed, shared base config.

    ``base`` holds the fabric/run knobs every cell shares (``n_sites``,
    ``queue_slots``, ``queue_limit``, ``until`` ...); any axis point may
    override entries via a ``base`` key in its params (per-axis
    overrides, applied in :data:`AXES` order so later axes win).
    """

    name: str
    scenarios: Sequence[AxisPoint]
    arrivals: Sequence[AxisPoint]
    faults: Sequence[AxisPoint]
    policies: Sequence[AxisPoint]
    seed: int = 0
    base: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, CampaignError, "campaign spec")
        if not self.name:
            raise CampaignError("campaign needs a name")
        self.base = dict(self.base)
        for axis, attr in AXIS_FIELDS.items():
            points = getattr(self, attr)
            # a string would otherwise iterate into one point per letter
            if not isinstance(points, (list, tuple)) or not points:
                raise CampaignError(
                    f"axis {axis!r} needs a list of at least one point, got {points!r}"
                )
            points = [
                p if isinstance(p, AxisPoint) else AxisPoint.from_dict(p)
                for p in points
            ]
            names = [p.name for p in points]
            if len(set(names)) != len(names):
                raise CampaignError(
                    f"axis {axis!r} has duplicate point names: {names}"
                )
            setattr(self, attr, points)

    # -- the grid ------------------------------------------------------------

    def axis_points(self) -> dict:
        return {
            axis: list(getattr(self, attr)) for axis, attr in AXIS_FIELDS.items()
        }

    @property
    def n_cells(self) -> int:
        n = 1
        for points in self.axis_points().values():
            n *= len(points)
        return n

    def cells(self) -> list[CellSpec]:
        """Enumerate the grid, deterministically: itertools.product in
        declared axis-point order, seeds derived from coordinates."""
        return list(self.iter_cells())

    def iter_cells(self) -> Iterator[CellSpec]:
        for index, points in enumerate(
            itertools.product(*self.axis_points().values())
        ):
            cell_id = "/".join(p.name for p in points)
            base = dict(self.base)
            # Per-axis base overrides, later axes win.
            for point in points:
                base.update(point.params.get("base", {}))
            yield CellSpec(
                campaign=self.name,
                cell_id=cell_id,
                index=index,
                seed=derive_seed(self.seed, cell_id),
                base=base,
                **dict(zip(AXES, points)),
            )

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return to_fields(self, SPEC_SCHEMA)

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignSpec":
        return from_fields(cls, doc, "campaign spec", SPEC_SCHEMA)
