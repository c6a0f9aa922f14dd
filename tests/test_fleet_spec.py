"""ScenarioSpec validation and the fleet generators."""

import pytest

from repro.errors import SteeringError
from repro.fleet import (
    SIM_KINDS,
    ScenarioSpec,
    fleet_of,
    make_sim,
    paper_suite,
    sweep_scenarios,
)
from repro.sims.base import Simulation


def test_defaults_are_valid_and_steps_computed():
    spec = ScenarioSpec(name="one")
    assert spec.sim == "lb3d"
    # Step budget outlives the steering loop by a comfortable margin.
    assert spec.steps * spec.compute_time > spec.duration + 5.0
    assert spec.n_ops == int(spec.duration / spec.cadence)


@pytest.mark.parametrize(
    "kwargs, steps",
    [
        # a loop that fits in duration + 10 s keeps that budget
        ({}, 320),
        ({"profile": "transatlantic"}, 320),
        ({"cadence": 0.5, "duration": 4.0}, 280),
        ({"profile": "transatlantic", "cadence": 0.2, "compute_time": 0.1}, 160),
        # one that does not gets its own worst-case length plus the slack:
        # n_ops x (cadence + link round trip + one step) + 10 s
        ({"profile": "transatlantic", "cadence": 0.05, "compute_time": 0.1}, 387),
        ({"profile": "transatlantic", "cadence": 0.1, "compute_time": 0.1}, 274),
        ({"profile": "campus", "cadence": 0.05, "compute_time": 0.1}, 282),
    ],
)
def test_step_budget_outlives_the_steering_loop(kwargs, steps):
    assert ScenarioSpec(name="b", **kwargs).steps == steps


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sim": "weather"},
        {"profile": "carrier-pigeon"},
        {"participants": 0},
        {"cadence": 0.0},
        {"duration": -1.0},
        {"steps": 0},
        # json.loads accepts these, and every `<= 0` check is false for NaN
        {"cadence": float("nan")},
        {"duration": float("nan")},
        {"compute_time": float("nan")},
        {"duration": float("inf")},
        {"admission_offset": float("-inf")},
        {"participants": float("nan")},
        {"compute_time": 0},  # used to escape as ZeroDivisionError
        {"compute_time": -0.05},
        # whole-number fields are exact ints: JSON hands over 1.5 and true
        {"participants": 1.5},
        {"participants": 2.0},
        {"participants": True},
        {"steps": 10.5},
        {"sample_interval": 2.5},
        {"sample_interval": False},
        {"seed": 1.5},
        {"seed": "7"},
        # a step budget past float range used to escape as OverflowError
        {"duration": 1e308},
        {"duration": 10**400},
        {"duration": 10**400, "steps": 100},
        {"duration": 1e300, "cadence": 1e-10},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(SteeringError):
        ScenarioSpec(name="bad", **kwargs)


@pytest.mark.parametrize("kind", SIM_KINDS)
def test_make_sim_builds_every_kind_with_steer_plan(kind):
    spec = ScenarioSpec(name=f"x-{kind}", sim=kind)
    sim = spec.make_sim()
    assert isinstance(sim, Simulation)
    # The steer plan targets a real steerable parameter and applies clean.
    assert spec.steer_param in sim.steerable_parameters()
    sim.set_parameter(spec.steer_param, spec.steer_value(0))
    sim.step()


def test_make_sim_unknown_kind():
    with pytest.raises(SteeringError):
        make_sim("weather")


def test_paper_suite_covers_all_sims():
    suite = paper_suite()
    assert sorted(s.sim for s in suite) == sorted(SIM_KINDS)
    assert len({s.name for s in suite}) == len(suite)


def test_sweep_is_full_cross_product():
    specs = sweep_scenarios(sims=("lb3d", "crowd"),
                            profiles=("campus", "dsl"))
    assert {(s.sim, s.profile) for s in specs} == {
        ("lb3d", "campus"), ("lb3d", "dsl"),
        ("crowd", "campus"), ("crowd", "dsl"),
    }


def test_fleet_of_names_offsets_and_cycling():
    specs = fleet_of(10, stagger=0.5)
    assert len(specs) == 10
    assert len({s.name for s in specs}) == 10
    assert [s.admission_offset for s in specs] == [i * 0.5 for i in range(10)]
    # Cycles the paper suite: all four sims appear.
    assert {s.sim for s in specs} == set(SIM_KINDS)
    with pytest.raises(SteeringError):
        fleet_of(0)


def test_fleet_of_overrides_propagate():
    specs = fleet_of(3, duration=2.0, cadence=0.5, participants=1)
    assert all(s.duration == 2.0 and s.n_ops == 4 for s in specs)


def test_fleet_of_rederives_steps_for_duration_overrides():
    # A longer duration must not inherit the prototype's shorter step
    # budget: the app would exit mid-session.
    specs = fleet_of(2, duration=60.0)
    for s in specs:
        assert s.steps * s.compute_time > s.duration + 5.0
    # An explicit steps override still wins.
    explicit = fleet_of(2, duration=60.0, steps=7)
    assert all(s.steps == 7 for s in explicit)
    # A custom suite's hand-set steps survive when nothing it depends
    # on is overridden.
    suite = [ScenarioSpec(name="proto", steps=42)]
    assert all(s.steps == 42 for s in fleet_of(2, suite=suite))
