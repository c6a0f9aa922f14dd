"""Declarative scenario specs for the session fleet.

The paper demonstrates *one* collaborative steering session; a 2026-scale
reproduction must answer "what happens when hundreds share the testbed?".
A :class:`ScenarioSpec` is the declarative unit of that question — which
simulation, over which link class, how many participants, what steering
cadence, for how long — in the spirit of brozzler-style job specs that a
worker fleet consumes.  Generators below sweep the paper's four
applications (LB3D, PEPC, building climatization, crowd flow) across the
2003-era network profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.errors import SteeringError
from repro.wire.fields import check_fields
from repro.workloads.netprofiles import PROFILES

#: sim kind -> (factory kwargs used at fleet scale, steered parameter,
#: cycle of values the steerer applies)
SIM_KINDS = ("lb3d", "pepc", "building", "crowd")

_STEER_PLANS: dict[str, tuple[str, tuple]] = {
    "lb3d": ("g", (1.0, 2.0, 3.0, 1.5)),
    "pepc": ("beam_charge_scale", (1.5, 0.5, 2.0, 1.0)),
    "building": ("vent_temperature", (16.0, 20.0, 14.0, 18.0)),
    "crowd": (
        "attractiveness",
        ([2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]),
    ),
}


def make_sim(kind: str, seed: int = 0, sim_args: Optional[dict] = None):
    """Instantiate a fleet-sized simulation of the given kind.

    Sizes are deliberately small: a fleet multiplies every per-step cost
    by hundreds of sessions, and the steering *fabric* — not the physics
    resolution — is what the fleet measures.
    """
    args = dict(sim_args or {})
    if kind == "lb3d":
        from repro.sims import LatticeBoltzmann3D

        args.setdefault("shape", (6, 6, 6))
        args.setdefault("g", 0.5)
        args.setdefault("seed", 7 + seed)
        return LatticeBoltzmann3D(**args)
    if kind == "pepc":
        from repro.sims.pepc import PlasmaSim, beam_on_sphere_setup

        setup = beam_on_sphere_setup(
            n_plasma=args.pop("n_plasma", 48),
            n_beam=args.pop("n_beam", 8),
            seed=args.pop("seed", 7 + seed),
        )
        args.setdefault("use_tree", False)
        return PlasmaSim(setup, **args)
    if kind == "building":
        from repro.sims import BuildingClimate

        args.setdefault("shape", (8, 6, 4))
        args.setdefault("seed", 11 + seed)
        return BuildingClimate(**args)
    if kind == "crowd":
        from repro.sims import CrowdSim

        args.setdefault("n_agents", 40)
        args.setdefault("seed", 23 + seed)
        return CrowdSim(**args)
    raise SteeringError(f"unknown sim kind {kind!r}; expected one of {SIM_KINDS}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One steering session, declaratively.

    ``profile`` names a :mod:`repro.workloads.netprofiles` link class for
    the participant <-> service path; the driver places the session's
    participants on a site whose uplink has that profile.
    """

    name: str
    sim: str = "lb3d"
    profile: str = "campus"
    participants: int = 2
    cadence: float = 0.75
    duration: float = 6.0
    #: safety bound on simulation steps; None -> computed so the app
    #: comfortably outlives the steering loop and is stopped by Stop
    steps: Optional[int] = None
    sample_interval: int = 4
    compute_time: float = 0.05
    admission_offset: float = 0.0
    seed: int = 0
    sim_args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Specs arrive from JSON (``POST /sessions``, campaign files, traces),
        # which hands over NaN, 1.5 and true just as readily: refuse wrong
        # types before a range check is false for a NaN or range() meets 1.5.
        check_fields(self, SteeringError, f"spec {self.name!r}")
        if self.sim not in SIM_KINDS:
            raise SteeringError(f"spec {self.name!r}: unknown sim kind {self.sim!r}")
        if self.profile not in PROFILES:
            raise SteeringError(
                f"spec {self.name!r}: unknown net profile {self.profile!r}; "
                f"expected one of {sorted(PROFILES)}"
            )
        if self.participants < 1:
            raise SteeringError(f"spec {self.name!r}: need >= 1 participant")
        if self.cadence <= 0 or self.duration <= 0 or self.compute_time <= 0:
            raise SteeringError(
                f"spec {self.name!r}: cadence, duration and compute_time must be > 0"
            )
        try:
            n_ops = self.n_ops
            if self.steps is None:
                # The app must outlive the steering loop, which ends it with
                # Stop.  An op costs at most its cadence, a round trip of the
                # link and one step of the app's compute; a loop that needs
                # longer than the usual 10 s of slack gets that slack on top.
                per_op = self.cadence + 2 * PROFILES[self.profile].latency + self.compute_time
                horizon = self.duration + 10.0
                if n_ops * per_op > horizon:
                    horizon = n_ops * per_op + 10.0
                object.__setattr__(self, "steps", max(1, int(horizon / self.compute_time)))
        except OverflowError:
            # ``10**400`` cannot become a float; ``1e308`` steps past inf.
            raise SteeringError(
                f"spec {self.name!r}: duration {self.duration!r:.40} has no finite step budget"
            ) from None
        if self.steps < 1:
            raise SteeringError(f"spec {self.name!r}: steps must be >= 1")

    # -- derived -----------------------------------------------------------

    @property
    def steer_param(self) -> str:
        return _STEER_PLANS[self.sim][0]

    def steer_value(self, k: int) -> Any:
        values = _STEER_PLANS[self.sim][1]
        return values[k % len(values)]

    @property
    def n_ops(self) -> int:
        """Steering operations issued over the session's lifetime."""
        return max(1, int(self.duration / self.cadence))

    def make_sim(self):
        return make_sim(self.sim, seed=self.seed, sim_args=dict(self.sim_args))


# -- generators -------------------------------------------------------------


def rederive_steps(overrides: dict) -> dict:
    """A prototype's derived step budget must not survive an override of
    the inputs it was computed from; ``steps=None`` re-derives it in
    ``__post_init__``.  Mutates and returns ``overrides``."""
    if "steps" not in overrides and ("duration" in overrides or "compute_time" in overrides):
        overrides["steps"] = None
    return overrides


def mint_spec(
    proto: ScenarioSpec,
    i: int,
    prefix: str,
    admission_offset: float = 0.0,
    digits: int = 4,
    **overrides,
) -> ScenarioSpec:
    """The i-th session stamped from a prototype: unique name (the
    driver registers one application per session), per-session seed.
    Shared by :func:`fleet_of` and :mod:`repro.load.arrivals`."""
    return replace(
        proto,
        name=f"{prefix}{i:0{digits}d}-{proto.sim}",
        admission_offset=admission_offset,
        seed=i,
        **overrides,
    )


def paper_suite(**overrides) -> list[ScenarioSpec]:
    """The paper's four demonstrations as one spec each, on the link class
    each actually used: LB3D over SuperJanet (section 2), PEPC across the
    transatlantic AG path (section 3), the HLRS building + crowd pair on
    campus/CAVE-class links (section 4)."""
    pairs = [
        ("lb3d", "superjanet"),
        ("pepc", "transatlantic"),
        ("building", "campus"),
        ("crowd", "conference-floor"),
    ]
    return [
        ScenarioSpec(name=f"{sim}-{profile}", sim=sim, profile=profile,
                     seed=i, **overrides)
        for i, (sim, profile) in enumerate(pairs)
    ]


def sweep_scenarios(
    sims=SIM_KINDS,
    profiles=("campus", "superjanet", "transatlantic", "conference-floor"),
    **overrides,
) -> list[ScenarioSpec]:
    """The full cross product: every sim kind over every link class."""
    out = []
    for i, sim in enumerate(sims):
        for j, profile in enumerate(profiles):
            out.append(
                ScenarioSpec(
                    name=f"{sim}-{profile}",
                    sim=sim,
                    profile=profile,
                    seed=i * len(profiles) + j,
                    **overrides,
                )
            )
    return out


def fleet_of(
    n: int,
    suite: Optional[list[ScenarioSpec]] = None,
    stagger: float = 0.2,
    prefix: str = "s",
    **overrides,
) -> list[ScenarioSpec]:
    """N sessions cycling a base suite, with staggered admission.

    Each spec gets a unique name (the driver registers one application
    per session) and an ``admission_offset`` of ``i * stagger`` so the
    fleet ramps up instead of thundering in at t=0.
    """
    if n < 1:
        raise SteeringError("a fleet needs at least one session")
    base = suite or paper_suite()
    rederive_steps(overrides)
    return [
        mint_spec(base[i % len(base)], i, prefix,
                  admission_offset=i * stagger, **overrides)
        for i in range(n)
    ]
