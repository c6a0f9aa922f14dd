"""LB3D physics tests: conservation, miscibility steering, checkpointing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SteeringError
from repro.fleet.spec import paper_suite
from repro.sims import LatticeBoltzmann3D


def test_mass_conserved_over_steps():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=2.0, seed=3)
    m0 = sim.total_mass()
    sim.run(30)
    assert sim.total_mass() == pytest.approx(m0, rel=1e-12)


def test_miscible_at_zero_coupling():
    sim = LatticeBoltzmann3D(shape=(10, 10, 10), g=0.0, seed=5)
    sim.run(40)
    assert sim.demix_measure() < 0.02


def test_demixes_above_critical_coupling():
    """The steered structure change of section 2.2: high g -> separation."""
    mixed = LatticeBoltzmann3D(shape=(10, 10, 10), g=1.0, seed=5)
    demixed = LatticeBoltzmann3D(shape=(10, 10, 10), g=3.0, seed=5)
    mixed.run(50)
    demixed.run(50)
    assert demixed.demix_measure() > 10 * max(mixed.demix_measure(), 1e-6)
    assert demixed.demix_measure() > 0.3


def test_steering_g_mid_run_changes_behaviour():
    sim = LatticeBoltzmann3D(shape=(10, 10, 10), g=0.0, seed=9)
    sim.run(20)
    before = sim.demix_measure()
    sim.set_parameter("g", 3.0)
    sim.run(50)
    assert sim.demix_measure() > 10 * max(before, 1e-6)


def test_order_parameter_bounded():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=3.0, seed=2)
    sim.run(40)
    phi = sim.order_parameter()
    assert np.all(phi >= -1.0 - 1e-9) and np.all(phi <= 1.0 + 1e-9)


def test_sample_contains_field():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8))
    sim.run(2)
    s = sim.sample()
    assert s["step"] == 2
    assert s["order_parameter"].shape == (8, 8, 8)
    assert s["order_parameter"].dtype == np.float32


@pytest.mark.parametrize("g, first_bad_step", [(3.5, 297), (4.0, 117), (4.5, 36)])
def test_a_diverged_lattice_refuses_its_sample(g, first_bad_step):
    # The paper suite's LB3D session (6³) at an accepted g that overflows.
    sim = paper_suite()[0].make_sim()
    sim.set_parameter("g", g)
    with np.errstate(over="ignore", invalid="ignore"):
        sim.run(first_bad_step - 1)
        assert np.isfinite(sim.sample()["order_parameter"]).all()
        sim.step()
        with pytest.raises(ReproError, match=f"step {first_bad_step} at g={g}"):
            sim.sample()


def test_observables_keys():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=1.0)
    obs = sim.observables()
    for key in ("time", "step", "demix", "mass", "g"):
        assert key in obs


def test_checkpoint_restore_bit_exact():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=2.0, seed=4)
    sim.run(10)
    state = sim.checkpoint()
    sim.run(5)
    after_direct = sim.order_parameter()

    sim2 = LatticeBoltzmann3D(shape=(8, 8, 8), g=2.0, seed=999)  # different init
    sim2.restore(state)
    sim2.run(5)
    np.testing.assert_array_equal(sim2.order_parameter(), after_direct)
    assert sim2.step_count == 15


def test_restore_shape_mismatch_rejected():
    a = LatticeBoltzmann3D(shape=(8, 8, 8))
    b = LatticeBoltzmann3D(shape=(10, 8, 8))
    with pytest.raises(SteeringError):
        b.restore(a.checkpoint())


def test_parameter_validation():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8))
    with pytest.raises(SteeringError):
        sim.set_parameter("g", 99.0)
    with pytest.raises(SteeringError):
        sim.set_parameter("tau", 0.4)
    with pytest.raises(SteeringError):
        sim.set_parameter("viscosity", 1.0)
    with pytest.raises(SteeringError):
        LatticeBoltzmann3D(shape=(8, 8))
    with pytest.raises(SteeringError):
        LatticeBoltzmann3D(shape=(8, 8, 8), g=-1.0)


def test_steerable_parameters_view():
    sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=1.25, tau=0.9)
    assert sim.steerable_parameters() == {"g": 1.25, "tau": 0.9}


@settings(max_examples=8, deadline=None)
@given(
    g=st.floats(0.0, 3.5),
    steps=st.integers(1, 15),
    seed=st.integers(0, 100),
)
def test_property_mass_conservation(g, steps, seed):
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), g=g, seed=seed)
    m0 = sim.total_mass()
    sim.run(steps)
    assert sim.total_mass() == pytest.approx(m0, rel=1e-10)
