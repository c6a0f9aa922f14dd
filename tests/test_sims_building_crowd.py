"""Building climatization and crowd simulation tests."""

import numpy as np
import pytest

from repro.errors import SteeringError
from repro.sims import BuildingClimate, CrowdSim


# -- building ----------------------------------------------------------------


def test_building_temperature_stays_finite_and_bounded():
    sim = BuildingClimate(shape=(16, 10, 6))
    sim.run(100)
    T = sim.temperature
    assert np.all(np.isfinite(T))
    assert T.min() > 0.0 and T.max() < 60.0


def test_cooling_vent_lowers_mean_temperature():
    sim = BuildingClimate(shape=(16, 10, 6), vent_temperature=16.0, ambient=28.0)
    t0 = sim.mean_temperature()
    sim.run(200)
    assert sim.mean_temperature() < t0


def test_steering_vent_temperature_changes_outcome():
    cold = BuildingClimate(shape=(12, 8, 6), vent_temperature=14.0)
    warm = BuildingClimate(shape=(12, 8, 6), vent_temperature=30.0)
    cold.run(150)
    warm.run(150)
    assert cold.mean_temperature() < warm.mean_temperature() - 1.0


def test_heat_load_warms_building():
    low = BuildingClimate(shape=(12, 8, 6), heat_load=0.0)
    high = BuildingClimate(shape=(12, 8, 6), heat_load=2.0)
    low.run(120)
    high.run(120)
    assert high.mean_temperature() > low.mean_temperature()


def test_comfort_fraction_in_unit_interval():
    sim = BuildingClimate(shape=(12, 8, 6))
    sim.run(50)
    assert 0.0 <= sim.comfort_fraction() <= 1.0


def test_building_parameter_validation():
    sim = BuildingClimate(shape=(12, 8, 6), dt=0.5)
    with pytest.raises(SteeringError):
        sim.set_parameter("vent_speed", -1.0)
    with pytest.raises(SteeringError):
        sim.set_parameter("vent_speed", 10.0)  # CFL violation, rolled back
    assert sim.vent_speed == 0.3
    with pytest.raises(SteeringError):
        sim.set_parameter("nope", 1)
    with pytest.raises(SteeringError):
        BuildingClimate(shape=(2, 2, 2))


def test_building_sample_and_observables():
    sim = BuildingClimate(shape=(12, 8, 6))
    sim.run(3)
    s = sim.sample()
    assert s["temperature"].shape == (12, 8, 6)
    obs = sim.observables()
    assert "mean_temperature" in obs and "comfort_fraction" in obs


# -- crowd -----------------------------------------------------------------


def test_agents_stay_on_floor():
    sim = CrowdSim(n_agents=100, seed=1)
    sim.run(60)
    w, h = sim.floor
    assert np.all(sim.positions[:, 0] >= 0) and np.all(sim.positions[:, 0] <= w)
    assert np.all(sim.positions[:, 1] >= 0) and np.all(sim.positions[:, 1] <= h)


def test_agents_gather_at_exhibits():
    sim = CrowdSim(n_agents=150, seed=2)
    sim.run(120)
    assert sim.occupancy().sum() > 0.3  # a good share near some exhibit


def test_steering_attractiveness_shifts_occupancy():
    """Section 4.7: steer visitors into certain regions of the building."""
    sim = CrowdSim(n_agents=200, seed=3, dwell_steps=5)
    sim.run(100)
    base = sim.occupancy()
    # Make exhibit 2 overwhelmingly attractive.
    sim.set_parameter("attractiveness", np.array([0.05, 0.05, 10.0]))
    sim.run(300)
    steered = sim.occupancy()
    assert steered[2] > base[2] + 0.15
    assert steered[2] > steered[0] and steered[2] > steered[1]


def test_crowd_parameter_validation():
    sim = CrowdSim(n_agents=10)
    with pytest.raises(SteeringError):
        sim.set_parameter("attractiveness", np.array([1.0, 2.0]))  # wrong shape
    with pytest.raises(SteeringError):
        sim.set_parameter("attractiveness", np.array([-1.0, 1.0, 1.0]))
    with pytest.raises(SteeringError):
        sim.set_parameter("speed", 2.0)
    with pytest.raises(SteeringError):
        CrowdSim(n_agents=0)


def test_crowd_sample_and_observables():
    sim = CrowdSim(n_agents=30)
    sim.run(5)
    s = sim.sample()
    assert s["positions"].shape == (30, 2)
    assert s["goal"].shape == (30,)
    obs = sim.observables()
    assert "occupancy_0" in obs and "occupancy_2" in obs
