"""Axis-point builders: from declarative params to live subsystems.

Each builder turns one :class:`~repro.campaign.spec.AxisPoint` into the
object the cell runner wires up, drawing any randomness from the cell's
salted sub-seed so the four axes consume **independent** seeded streams:

* ``scenario`` -> a base suite of :class:`~repro.fleet.spec.ScenarioSpec`
  prototypes plus per-session overrides (duration, cadence ...);
* ``arrival``  -> an :class:`~repro.load.arrivals.ArrivalProcess` minting
  sessions from that suite over virtual time;
* ``faults``   -> a :class:`~repro.chaos.faults.FaultSchedule`, either an
  explicit fault list (kind name + kwargs) or a seeded random draw over
  the cell's declared fabric populations;
* ``policy``   -> a placement policy instance plus optional
  :class:`~repro.load.autoscale.ReactiveAutoscaler` parameters.
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.spec import AxisPoint, CellSpec
from repro.chaos.faults import FAULT_KINDS, FaultSchedule
from repro.errors import CampaignError, LiveError
from repro.fleet.spec import ScenarioSpec, paper_suite, sweep_scenarios
from repro.load.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.load.placement import PlacementPolicy, make_policy
from repro.wire.fields import decode_tagged

#: fault kind name ("site-outage" ...) -> fault dataclass
FAULTS_BY_KIND = {kind.kind: kind for kind in FAULT_KINDS}

#: params every scenario point may override on its ScenarioSpec prototypes
_SPEC_OVERRIDES = (
    "duration", "cadence", "participants", "compute_time",
    "sample_interval",
)


def _unexpected(point: AxisPoint, allowed: set) -> None:
    extra = set(point.params) - allowed - {"base"}
    if extra:
        raise CampaignError(
            f"axis point {point.name!r}: unexpected params {sorted(extra)} "
            f"(allowed: {sorted(allowed)})"
        )


# -- scenario ----------------------------------------------------------------


def build_suite(point: AxisPoint) -> tuple[list[ScenarioSpec], dict]:
    """Returns ``(suite, overrides)``: the prototype suite the arrival
    process cycles, plus per-session ScenarioSpec overrides to mint with.

    params: ``suite`` ("paper" | "sweep"), ``sims``/``profiles`` (sweep
    subsets), plus any of the per-session overrides (``duration``,
    ``cadence``, ``participants``, ``compute_time``, ``sample_interval``).
    """
    _unexpected(point, {"suite", "sims", "profiles", *_SPEC_OVERRIDES})
    params = point.params
    overrides = {k: params[k] for k in _SPEC_OVERRIDES if k in params}
    kind = params.get("suite", "paper")
    if kind == "paper":
        suite = paper_suite()
    elif kind == "sweep":
        kwargs = {}
        if "sims" in params:
            kwargs["sims"] = tuple(params["sims"])
        if "profiles" in params:
            kwargs["profiles"] = tuple(params["profiles"])
        suite = sweep_scenarios(**kwargs)
    else:
        raise CampaignError(
            f"scenario point {point.name!r}: unknown suite kind {kind!r} "
            "(expected 'paper' or 'sweep')"
        )
    return suite, overrides


# -- arrival -----------------------------------------------------------------


def build_arrivals(
    point: AxisPoint,
    suite: list[ScenarioSpec],
    overrides: dict,
    seed: int,
    horizon: float,
) -> ArrivalProcess:
    """params: ``kind`` ("poisson" | "diurnal" | "flash" | "trace") plus
    that process's rate parameters; ``horizon`` may be overridden per
    point, otherwise the cell's base horizon applies.  The process seed
    is the cell's salted "arrival" sub-seed — never declared by hand.
    """
    params = dict(point.params)
    params.pop("base", None)
    kind = params.pop("kind", "poisson")
    horizon = float(params.pop("horizon", horizon))
    common = {"suite": suite, **overrides}
    if kind == "poisson":
        return PoissonArrivals(
            rate=float(params.pop("rate", 1.0)),
            horizon=horizon, seed=seed, **common, **params,
        )
    if kind == "diurnal":
        return DiurnalArrivals(
            base_rate=float(params.pop("base_rate", 0.5)),
            amplitude=float(params.pop("amplitude", 1.5)),
            period=float(params.pop("period", horizon)),
            horizon=horizon, seed=seed, **common, **params,
        )
    if kind == "flash":
        return FlashCrowdArrivals(
            base_rate=float(params.pop("base_rate", 0.5)),
            burst_rate=float(params.pop("burst_rate", 4.0)),
            burst_at=float(params.pop("burst_at", horizon / 3.0)),
            burst_duration=float(params.pop("burst_duration", horizon / 6.0)),
            horizon=horizon, seed=seed, **common, **params,
        )
    if kind == "trace":
        try:
            instants = params.pop("instants")
        except KeyError:
            raise CampaignError(
                f"arrival point {point.name!r}: trace needs 'instants'"
            ) from None
        return TraceArrivals(instants, horizon=horizon, **common, **params)
    if kind == "trace-file":
        # A live-captured trace replays the exact recorded sessions; the
        # import is deferred because repro.live sits above this layer.
        from repro.live.trace import load_trace

        try:
            path = params.pop("path")
        except KeyError:
            raise CampaignError(
                f"arrival point {point.name!r}: trace-file needs 'path'"
            ) from None
        if params:
            raise CampaignError(
                f"arrival point {point.name!r}: unexpected trace-file "
                f"params {sorted(params)}"
            )
        try:
            return load_trace(path).arrival_process()
        except LiveError as exc:
            raise CampaignError(
                f"arrival point {point.name!r}: {exc}"
            ) from None
    raise CampaignError(
        f"arrival point {point.name!r}: unknown kind {kind!r} "
        "(expected poisson, diurnal, flash, trace or trace-file)"
    )


# -- faults ------------------------------------------------------------------


def build_schedule(point: AxisPoint, cell: CellSpec, config: dict,
                   horizon: float) -> FaultSchedule:
    """params: either ``faults`` (a list of ``{"kind": ..., **kwargs}``
    declarations) or ``random`` (kwargs for :meth:`FaultSchedule.random`,
    populations defaulted from ``config``, the cell's effective base
    configuration); an empty point is the no-fault baseline.
    """
    _unexpected(point, {"faults", "random"})
    params = point.params
    if "faults" in params and "random" in params:
        raise CampaignError(
            f"fault point {point.name!r}: declare 'faults' or 'random', "
            "not both"
        )
    if not isinstance(params.get("faults", []), list):
        raise CampaignError(f"fault point {point.name!r}: 'faults' must be a list")
    if not isinstance(params.get("random", {}), dict):
        raise CampaignError(f"fault point {point.name!r}: 'random' must be a JSON object")
    if "random" in params:
        kwargs = dict(params["random"])
        n_sites = int(config["n_sites"])
        kwargs.setdefault("sites", n_sites)
        kwargs.setdefault("shards", int(config["registry_shards"]))
        kwargs.setdefault("brokers", n_sites)
        # Network-fault populations, from the FleetDriver fabric's
        # naming scheme: every site i is an hpc-i gateway host linked
        # to its svc-i service host — so the random pool can draw all
        # eight fault kinds (link degrade, partition and firewall
        # lockdown included), not just the site/broker/shard ones.
        kwargs.setdefault("hosts", [f"hpc-{i}" for i in range(n_sites)])
        kwargs.setdefault(
            "host_pairs",
            [(f"hpc-{i}", f"svc-{i}") for i in range(n_sites)],
        )
        kwargs.setdefault("horizon", horizon)
        kwargs.setdefault("n_faults", 3)
        try:
            return FaultSchedule.random(seed=cell.subseed("faults"), **kwargs)
        except TypeError as exc:  # an unknown or ill-typed random param
            raise CampaignError(f"fault point {point.name!r}: {exc}") from None
    what = f"fault point {point.name!r}: fault"
    return FaultSchedule(
        decode_tagged(FAULTS_BY_KIND, decl, "kind", CampaignError, what)
        for decl in params.get("faults", ())
    )


# -- policy ------------------------------------------------------------------


def build_policy(
    point: AxisPoint, seed: int
) -> tuple[PlacementPolicy, Optional[dict]]:
    """params: ``placement`` (a :data:`repro.load.placement.POLICIES`
    name) and optionally ``autoscale`` (ReactiveAutoscaler kwargs, or
    ``true`` for defaults).  Returns ``(policy, autoscale_kwargs|None)``.
    """
    _unexpected(point, {"placement", "autoscale"})
    params = point.params
    policy = make_policy(params.get("placement", "least-loaded"), seed=seed)
    autoscale = params.get("autoscale")
    if autoscale in (None, False):
        return policy, None
    return policy, dict(autoscale) if isinstance(autoscale, dict) else {}
