"""Named campaigns: the grids CI and the nightly sweep actually run.

* ``smoke`` — 12 cells (2 scenario x 2 arrival x 3 fault x 1 policy),
  sized so a CI job finishes the whole grid in well under a minute while
  still crossing every subsystem: both workload suites, two traffic
  shapes, a no-fault baseline against a compound outage and a seeded
  random schedule.
* ``nightly`` — 36 cells (2 x 3 x 3 x 2) at a longer horizon with
  autoscaling in the policy axis; the scheduled workflow fails on any
  invariant violation anywhere in the grid.

Search presets (:data:`SEARCH_PRESETS`) are the adaptive counterparts:
instead of a grid they declare a :class:`~repro.campaign.search
.SearchSpec` over a continuous :class:`~repro.campaign.space.ParamSpace`
— ``cliff-smoke``, sized for CI.

Presets are functions so every call returns a fresh, independently
mutable spec (callers may override the seed).
"""

from __future__ import annotations

from repro.campaign.search import (
    EvolutionaryStrategy,
    Constraint,
    Objective,
    SearchSpec,
)
from repro.campaign.space import ParamRange, ParamSpace
from repro.campaign.spec import AxisPoint, CampaignSpec
from repro.errors import CampaignError

_SESSION_SHAPE = {"duration": 2.0, "cadence": 0.5, "participants": 1}

_COMPOUND_FAULTS = [
    {"kind": "site-outage", "at": 4.0, "site": 0, "duration": 20.0},
    {"kind": "vbroker-crash", "at": 5.0, "broker": 0},
]


def smoke(seed: int = 11) -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        seed=seed,
        base={"n_sites": 3, "queue_slots": 2, "queue_limit": 12,
              "horizon": 8.0},
        scenarios=[
            AxisPoint("paper-mix", {"suite": "paper", **_SESSION_SHAPE}),
            AxisPoint("lb3d-pepc", {
                "suite": "sweep",
                "sims": ["lb3d", "pepc"],
                "profiles": ["campus", "transatlantic"],
                **_SESSION_SHAPE,
            }),
        ],
        arrivals=[
            AxisPoint("poisson-2x", {"kind": "poisson", "rate": 3.4}),
            AxisPoint("flash-crowd", {
                "kind": "flash", "base_rate": 1.0, "burst_rate": 6.0,
                "burst_at": 2.0, "burst_duration": 2.0,
            }),
        ],
        faults=[
            AxisPoint("baseline"),
            AxisPoint("outage+vbroker", {"faults": _COMPOUND_FAULTS}),
            AxisPoint("random-3", {"random": {"n_faults": 3}}),
        ],
        policies=[
            AxisPoint("least-loaded", {"placement": "least-loaded"}),
        ],
    )


def nightly(seed: int = 2003) -> CampaignSpec:
    return CampaignSpec(
        name="nightly",
        seed=seed,
        base={"n_sites": 3, "queue_slots": 2, "queue_limit": 16,
              "horizon": 15.0},
        scenarios=[
            AxisPoint("paper-mix", {"suite": "paper", **_SESSION_SHAPE}),
            AxisPoint("full-sweep", {"suite": "sweep", **_SESSION_SHAPE}),
        ],
        arrivals=[
            AxisPoint("poisson-2x", {"kind": "poisson", "rate": 3.4}),
            AxisPoint("diurnal", {
                "kind": "diurnal", "base_rate": 0.8, "amplitude": 4.0,
                "period": 10.0,
            }),
            AxisPoint("flash-crowd", {
                "kind": "flash", "base_rate": 1.0, "burst_rate": 8.0,
                "burst_at": 4.0, "burst_duration": 3.0,
            }),
        ],
        faults=[
            AxisPoint("baseline"),
            AxisPoint("outage+vbroker", {"faults": _COMPOUND_FAULTS}),
            AxisPoint("random-4", {"random": {"n_faults": 4}}),
        ],
        policies=[
            AxisPoint("least-loaded", {"placement": "least-loaded"}),
            AxisPoint("p2c+autoscale", {
                "placement": "p2c",
                "autoscale": {"max_sites": 5},
            }),
        ],
    )


PRESETS = {"smoke": smoke, "nightly": nightly}


def _build(table: dict, noun: str, name: str, seed: int | None):
    """A fresh spec from a preset table, at its own seed or the caller's."""
    try:
        build = table[name]
    except KeyError:
        raise CampaignError(
            f"unknown {noun} preset {name!r}; expected one of {sorted(table)}"
        ) from None
    return build() if seed is None else build(seed=seed)


def preset(name: str, seed: int | None = None) -> CampaignSpec:
    return _build(PRESETS, "campaign", name, seed)


# -- adaptive searches --------------------------------------------------------


def cliff_smoke(seed: int = 23) -> SearchSpec:
    """A CI-sized goodput-cliff hunt: 6 evaluations over rate + faults."""
    space = ParamSpace(
        name="cliff-smoke",
        scenario=AxisPoint("paper-mix", {"suite": "paper", **_SESSION_SHAPE}),
        arrival=AxisPoint("poisson", {"kind": "poisson", "rate": 1.0}),
        faults=AxisPoint("random", {"random": {}}),
        policy=AxisPoint("least-loaded", {"placement": "least-loaded"}),
        ranges=[
            ParamRange("arrival.rate", 0.5, 6.0),
            ParamRange("faults.random.n_faults", 1, 5, kind="int"),
            ParamRange("faults.random.window", 0.3, 1.0),
            ParamRange("faults.random.duration_scale", 0.5, 2.5),
        ],
        base={"n_sites": 2, "queue_slots": 2, "queue_limit": 8,
              "horizon": 4.0},
    )
    return SearchSpec(
        name="cliff-smoke",
        seed=seed,
        space=space,
        strategy=EvolutionaryStrategy(elites=2),
        objective=Objective(
            metric="goodput", goal="min",
            # a cliff with no traffic is a trivial one — demand that the
            # search keeps at least a few sessions arriving
            constraints=(Constraint("sessions", lo=3.0, weight=0.2),),
        ),
        generations=2,
        population=3,
    )


SEARCH_PRESETS = {"cliff-smoke": cliff_smoke}


def search_preset(name: str, seed: int | None = None) -> SearchSpec:
    return _build(SEARCH_PRESETS, "search", name, seed)
