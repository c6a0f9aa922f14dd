"""PEPC tests: octree invariants, tree-vs-direct accuracy, scaling, steering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, SteeringError
from repro.sims.pepc import (
    PlasmaSim,
    assign_domains,
    beam_on_sphere_setup,
    build_octree,
    direct_field,
    kinetic_energy,
    tree_field,
)


def random_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 3))
    q = rng.choice([-1.0, 1.0], size=n)
    return pos, q


# -- octree -------------------------------------------------------------------


def test_octree_every_particle_in_exactly_one_leaf():
    pos, q = random_cloud(500)
    tree = build_octree(pos, q, leaf_size=8)
    seen = np.zeros(len(pos), dtype=int)
    for node in tree.walk():
        if node.is_leaf:
            seen[node.indices] += 1
    assert np.all(seen == 1)


def test_octree_node_charge_consistency():
    pos, q = random_cloud(300, seed=2)
    tree = build_octree(pos, q, leaf_size=8)
    for node in tree.walk():
        if not node.is_leaf:
            child_q = sum(c.charge for c in node.children)
            assert node.charge == pytest.approx(child_q, abs=1e-9)
            assert node.count == sum(c.count for c in node.children)


def test_octree_leaf_size_respected():
    pos, q = random_cloud(400, seed=3)
    tree = build_octree(pos, q, leaf_size=10)
    for node in tree.walk():
        if node.is_leaf:
            assert node.count <= 10 or node.depth >= 40


def test_octree_com_inside_node_region():
    pos, q = random_cloud(200, seed=4)
    tree = build_octree(pos, q)
    for node in tree.walk():
        assert np.all(node.com >= node.center - node.half - 1e-9)
        assert np.all(node.com <= node.center + node.half + 1e-9)


def test_octree_validation():
    with pytest.raises(SimulationError):
        build_octree(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(SimulationError):
        build_octree(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(SimulationError):
        build_octree(np.zeros((5, 3)), np.zeros(4))


def test_octree_identical_positions_terminates():
    pos = np.zeros((50, 3))
    q = np.ones(50)
    tree = build_octree(pos, q, leaf_size=4)
    assert tree.node_count >= 1  # depth cap stops the recursion


def test_tree_stats():
    pos, q = random_cloud(300, seed=5)
    tree = build_octree(pos, q, leaf_size=8)
    assert tree.leaf_count > 0 and tree.node_count >= tree.leaf_count
    counts = [node.count for node in tree.walk() if node.is_leaf]
    assert 0 < np.mean(counts) <= 8


# -- forces -------------------------------------------------------------------


def test_tree_matches_direct_at_small_theta():
    pos, q = random_cloud(512, seed=7)
    tree = build_octree(pos, q)
    Et, pt, _ = tree_field(tree, theta=0.25)
    Ed, pd = direct_field(pos, q)
    rel = np.linalg.norm(Et - Ed, axis=1) / np.maximum(np.linalg.norm(Ed, axis=1), 1e-9)
    assert np.median(rel) < 0.02
    # electrostatic energy U = 1/2 sum_i q_i phi_i, by tree and by direct sum
    assert 0.5 * np.sum(q * pt) == pytest.approx(0.5 * np.sum(q * pd), rel=0.02)


def test_tree_theta_zero_limit_equals_direct():
    """theta -> 0 means nothing is ever accepted: pure direct summation."""
    pos, q = random_cloud(128, seed=8)
    tree = build_octree(pos, q, leaf_size=4)
    Et, pt, stats = tree_field(tree, theta=1e-9)
    Ed, pd = direct_field(pos, q)
    np.testing.assert_allclose(Et, Ed, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(pt, pd, rtol=1e-9)
    assert stats["monopole_interactions"] == 0


def test_tree_interactions_subquadratic():
    """The O(N log N) claim (FIG3): interactions per particle must grow
    far slower than N."""
    counts = {}
    for n in (512, 4096):
        pos, q = random_cloud(n, seed=9)
        tree = build_octree(pos, q)
        _, _, stats = tree_field(tree, theta=0.7)
        counts[n] = stats["monopole_interactions"] + stats["direct_interactions"]
    # 8x more particles -> direct would cost 64x; require < 20x.
    assert counts[4096] < 20 * counts[512]


def test_direct_field_symmetry_two_charges():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    q = np.array([1.0, 1.0])
    E, phi = direct_field(pos, q, eps=1e-6)
    np.testing.assert_allclose(E[0], -E[1], atol=1e-12)
    assert E[1][0] == pytest.approx(1.0, rel=1e-4)  # repulsion along +x
    assert phi[0] == pytest.approx(1.0, rel=1e-4)


def test_direct_field_validation():
    with pytest.raises(SimulationError):
        direct_field(np.zeros((2, 3)), np.zeros(2), eps=0.0)
    with pytest.raises(SimulationError):
        tree_field(build_octree(*random_cloud(10)), theta=2.5)


def test_direct_field_external_targets():
    pos, q = random_cloud(64, seed=10)
    targets = np.array([[2.0, 2.0, 2.0]])
    E, phi = direct_field(pos, q, targets=targets)
    assert E.shape == (1, 3) and phi.shape == (1,)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(8, 128), seed=st.integers(0, 50), leaf=st.integers(1, 32))
def test_property_octree_partition(n, seed, leaf):
    pos, q = random_cloud(n, seed=seed)
    tree = build_octree(pos, q, leaf_size=leaf)
    seen = np.zeros(n, dtype=int)
    total_q = 0.0
    for node in tree.walk():
        if node.is_leaf:
            seen[node.indices] += 1
            total_q += node.charge
    assert np.all(seen == 1)
    assert total_q == pytest.approx(q.sum(), abs=1e-9)
    assert tree.root.count == n


# -- domains ------------------------------------------------------------------


def test_assign_domains_balance():
    pos, _ = random_cloud(1000, seed=11)
    proc, boxes = assign_domains(pos, 8)
    counts = np.bincount(proc, minlength=8)
    assert counts.max() - counts.min() <= 1
    assert boxes.shape == (8, 2, 3)
    for r in range(8):
        mine = pos[proc == r]
        assert np.all(mine >= boxes[r, 0] - 1e-12)
        assert np.all(mine <= boxes[r, 1] + 1e-12)


def test_assign_domains_validation():
    with pytest.raises(SimulationError):
        assign_domains(np.zeros((5, 2)), 2)
    with pytest.raises(SimulationError):
        assign_domains(np.zeros((5, 3)), 0)


# -- integrator / steering ------------------------------------------------------


def make_sim(**kw):
    setup = beam_on_sphere_setup(n_plasma=96, n_beam=16, seed=1)
    defaults = dict(setup=setup, dt=0.01, theta=0.6, nranks=4)
    defaults.update(kw)
    return PlasmaSim(**defaults)


def test_beam_setup_shapes_and_neutrality():
    s = beam_on_sphere_setup(n_plasma=100, n_beam=20)
    assert s["positions"].shape == (120, 3)
    assert s["is_beam"].sum() == 20
    plasma_q = s["charges"][~s["is_beam"]]
    assert plasma_q.sum() == 0.0  # neutral target
    assert np.all(s["charges"][s["is_beam"]] == -1.0)


def test_beam_moves_toward_target():
    sim = make_sim()
    x0 = sim.positions[sim.is_beam, 0].mean()
    sim.run(20)
    assert sim.positions[sim.is_beam, 0].mean() > x0


def test_energy_sane_without_drivers():
    sim = make_sim()
    sim.run(10)
    ke = kinetic_energy(sim.velocities, sim.masses)
    assert np.isfinite(ke) and ke > 0


def test_steer_beam_direction_preserves_speed():
    sim = make_sim()
    speeds_before = np.linalg.norm(sim.velocities[sim.is_beam], axis=1)
    sim.set_parameter("beam_direction", [0.0, 1.0, 0.0])
    speeds_after = np.linalg.norm(sim.velocities[sim.is_beam], axis=1)
    np.testing.assert_allclose(speeds_after, speeds_before, rtol=1e-12)
    vel = sim.velocities[sim.is_beam]
    assert np.all(np.abs(vel[:, 0]) < 1e-9)  # now moving along +y


def test_steer_beam_charge_scale():
    sim = make_sim()
    sim.set_parameter("beam_charge_scale", 2.5)
    q = sim.charges
    assert np.all(q[sim.is_beam] == -2.5)
    assert np.all(q[~sim.is_beam] == sim.base_charges[~sim.is_beam])


def test_damping_cools_plasma():
    """Section 3.4's assist toward a 'cold, ordered state': with damping
    the plasma ends far colder than the free-running system (which heats
    itself by virialization from the random initial condition)."""
    from repro.sims.pepc.diagnostics import temperature_proxy

    damped = make_sim()
    damped.set_parameter("damping", 5.0)
    free = make_sim()
    damped.run(40)
    free.run(40)
    t_damped = temperature_proxy(damped.velocities, damped.masses)
    t_free = temperature_proxy(free.velocities, free.masses)
    assert t_damped < 0.5 * t_free


def test_laser_heats_plasma():
    from repro.sims.pepc.diagnostics import temperature_proxy

    quiet = make_sim()
    driven = make_sim()
    driven.set_parameter("laser_intensity", 20.0)
    quiet.run(30)
    driven.run(30)
    assert temperature_proxy(driven.velocities, driven.masses) > 1.5 * temperature_proxy(
        quiet.velocities, quiet.masses
    )


def test_parameter_validation():
    sim = make_sim()
    with pytest.raises(SteeringError):
        sim.set_parameter("beam_direction", [0, 0, 0])
    with pytest.raises(SteeringError):
        sim.set_parameter("damping", -1)
    with pytest.raises(SteeringError):
        sim.set_parameter("unknown", 1)


def test_sample_is_the_full_pepc_dataspace():
    sim = make_sim(nranks=4)
    sim.run(2)
    s = sim.sample()
    n = len(sim.positions)
    assert s["coordinates"].shape == (n, 3)
    assert s["velocities"].shape == (n, 3)
    assert s["charge"].shape == (n,)
    assert s["processor"].shape == (n,)
    assert s["label"].shape == (n,)
    assert s["domain_boxes"].shape == (4, 2, 3)
    assert s["processor"].max() < 4


def test_direct_mode_flag():
    sim = make_sim(use_tree=False)
    sim.run(1)
    assert "direct_interactions" in sim.last_force_stats
    assert "monopole_interactions" not in sim.last_force_stats
