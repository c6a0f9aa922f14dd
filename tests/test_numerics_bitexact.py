"""The plan-once kernels reproduce the reference kernels byte for byte.

``reference_numerics`` holds the straightforward implementations
(slice-roll LB3D, per-bit Morton loop, rank-loop domain boxes, full
``(E, phi)`` direct sum, dense crowd separation).  Equality here is
``tobytes()``, never ``allclose``: the optimized code may move index
arithmetic and Python dispatch, not a single floating-point operation.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_numerics as ref
from repro.errors import SimulationError, SteeringError
from repro.fleet.spec import ScenarioSpec, make_sim
from repro.parallel import interleave_bits3, morton_key
from repro.sims import BuildingClimate, CrowdSim, LatticeBoltzmann3D
from repro.sims.pepc import assign_domains, direct_field, direct_force


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- LB3D ----------------------------------------------------------------------


def lb3d_pair(shape, seed, g=0.5, tau=1.0):
    sim = LatticeBoltzmann3D(shape=shape, g=g, tau=tau, seed=seed)
    oracle = ref.ReferenceLB3D(shape, g=g, tau=tau, seed=seed)
    return sim, oracle


def assert_lb3d_equal(sim, oracle, where):
    assert same_bytes(sim.f_r, oracle.f_r), where
    assert same_bytes(sim.f_b, oracle.f_b), where


def run_lb3d_schedule(sim, oracle, steps, schedule):
    """Step both; ``schedule`` maps step -> (parameter, value)."""
    assert_lb3d_equal(sim, oracle, "initial state")
    for step in range(steps):
        if step in schedule:
            name, value = schedule[step]
            sim.set_parameter(name, value)
            setattr(oracle, name, float(value))
        sim.step()
        oracle.advance()
        assert_lb3d_equal(sim, oracle, f"step {step}")


side = st.integers(min_value=4, max_value=12)
steer = st.one_of(
    st.tuples(st.just("g"), st.floats(min_value=0.0, max_value=3.5)),
    st.tuples(st.just("tau"), st.floats(min_value=0.7, max_value=1.5)),
)


@settings(max_examples=10, deadline=None)
@given(
    shape=st.tuples(side, side, side),
    seed=st.integers(min_value=0, max_value=2**31),
    steers=st.lists(steer, min_size=10, max_size=10),
)
def test_lb3d_matches_reference_over_shapes_seeds_and_steers(shape, seed, steers):
    sim, oracle = lb3d_pair(shape, seed)
    run_lb3d_schedule(sim, oracle, 200, {20 * k: s for k, s in enumerate(steers)})


@pytest.mark.parametrize("shape", [(4, 4, 4), (6, 6, 6), (8, 6, 5), (5, 12, 7), (16, 16, 16)])
def test_lb3d_matches_reference_with_the_fleet_steer_plan(shape):
    spec = ScenarioSpec(name="lb", sim="lb3d")
    sim, oracle = lb3d_pair(shape, seed=7)
    schedule = {8 * k: ("g", spec.steer_value(k)) for k in range(16)}
    schedule[60] = ("tau", 0.8)
    run_lb3d_schedule(sim, oracle, 130, schedule)
    assert same_bytes(sim.order_parameter(), oracle.order_parameter())


def test_lb3d_checkpoint_has_the_parent_layout():
    sim = LatticeBoltzmann3D(shape=(6, 5, 4), g=1.0, seed=3)
    sim.run(5)
    state = sim.checkpoint()
    assert set(state) == {"shape", "g", "tau", "rho0", "time", "step_count", "f_r", "f_b"}
    assert state["shape"] == (6, 5, 4) and state["step_count"] == 5
    for key in ("f_r", "f_b"):
        arr = state[key]
        assert arr.shape == (19, 6, 5, 4) and arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.owndata
    # a checkpoint is a copy, not a window onto the live populations
    before = state["f_r"].copy()
    sim.run(2)
    assert same_bytes(state["f_r"], before)


def test_lb3d_checkpoint_mid_run_restores_and_continues_identically():
    sim, oracle = lb3d_pair((6, 6, 6), seed=11, g=2.0)
    for _ in range(37):  # odd: the ping-pong buffers are swapped
        sim.step()
        oracle.advance()
    fresh = LatticeBoltzmann3D(shape=(6, 6, 6), g=0.1, tau=1.3, seed=99)
    fresh.run(3)  # has step buffers of its own already
    fresh.restore(sim.checkpoint())
    assert fresh.g == 2.0 and fresh.tau == 1.0 and fresh.step_count == 37
    for step in range(60):
        fresh.step()
        sim.step()
        oracle.advance()
        assert_lb3d_equal(fresh, oracle, f"restored, step {step}")
        assert_lb3d_equal(sim, oracle, f"uninterrupted, step {step}")


def test_lb3d_restores_a_checkpoint_written_by_the_parent_kernel():
    oracle = ref.ReferenceLB3D((5, 6, 7), g=1.5, seed=4)
    for _ in range(20):
        oracle.advance()
    parent_checkpoint = {
        "shape": oracle.shape, "g": oracle.g, "tau": oracle.tau, "rho0": 1.0,
        "time": 20.0, "step_count": 20, "f_r": oracle.f_r.copy(), "f_b": oracle.f_b.copy(),
    }  # fmt: skip
    sim = LatticeBoltzmann3D(shape=(5, 6, 7))
    sim.restore(parent_checkpoint)
    for step in range(40):
        sim.step()
        oracle.advance()
        assert_lb3d_equal(sim, oracle, f"step {step}")


def test_lb3d_restore_refuses_wrong_shaped_populations_at_restore():
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), g=1.0, seed=1)
    sim.run(3)
    good = sim.checkpoint()
    for key, bad in (("f_r", good["f_r"][:18]), ("f_b", good["f_b"].reshape(19, 36, 6))):
        with pytest.raises(SteeringError, match="populations must have shape"):
            sim.restore({**good, key: bad, "g": 3.0, "step_count": 999})
        # refused before anything was applied, and the next step is sound
        assert sim.g == 1.0 and sim.step_count == 3
        assert same_bytes(sim.f_r, good["f_r"]) and same_bytes(sim.f_b, good["f_b"])
    sim.step()
    assert np.isfinite(sim.total_mass())


def test_lb3d_populations_stay_assignable_and_writable_in_place():
    sim, oracle = lb3d_pair((4, 5, 6), seed=2, g=1.0)
    sim.f_r[3] *= 1.01  # in place, through the view
    oracle.f_r[3] *= 1.01
    swapped = oracle.f_b[::-1].copy()
    sim.f_b = swapped  # assignment, as restore used to do it
    oracle.f_b = swapped.copy()
    run_lb3d_schedule(sim, oracle, 10, {})
    with pytest.raises(SteeringError):
        sim.f_r = np.zeros((19, 4, 5, 5))


def test_lb3d_copy_mid_run_steps_on_its_own_buffers():
    sim, oracle = lb3d_pair((6, 6, 6), seed=5, g=2.5)
    sim.run(9)
    for _ in range(9):
        oracle.advance()
    clone = copy.deepcopy(sim)
    for step in range(20):
        clone.step()
        oracle.advance()
        assert_lb3d_equal(clone, oracle, f"step {step}")
    assert sim.step_count == 9  # the original did not move


def test_lb3d_sims_of_one_shape_share_one_plan_while_they_live():
    import gc

    from repro.sims import lb3d

    shape = (4, 6, 5)
    a = LatticeBoltzmann3D(shape=shape, seed=1)
    b = LatticeBoltzmann3D(shape=shape, seed=2)
    assert a._plan is None and shape not in lb3d._PLANS  # nothing planned until a step
    a.step()
    b.step()
    assert a._plan is b._plan is lb3d._PLANS[shape]
    assert a._plan.stream.size + a._plan.force.size == 74 * 4 * 6 * 5
    # interleaved stepping on the shared scratch changes nothing
    alone = LatticeBoltzmann3D(shape=shape, seed=1)
    alone.run(6)
    for _ in range(5):
        a.step()
        b.step()
    assert same_bytes(a.f_r, alone.f_r) and same_bytes(a.f_b, alone.f_b)
    del a, b, alone
    gc.collect()
    assert shape not in lb3d._PLANS  # the cache holds no shape no simulation uses


# -- building ------------------------------------------------------------------


def building_pair(shape, seed=11, **kwargs):
    sim = BuildingClimate(shape=shape, seed=seed, **kwargs)
    oracle = BuildingClimate(shape=shape, seed=seed, **kwargs)
    return sim, oracle


def oracle_step(oracle):
    ref.building_advance(oracle)
    oracle.step_count += 1
    oracle.time += oracle.dt


def oracle_observables(oracle):
    return {
        "time": oracle.time,
        "step": float(oracle.step_count),
        "mean_temperature": ref.building_mean_temperature(oracle),
        "comfort_fraction": ref.building_comfort_fraction(oracle),
        "vent_temperature": oracle.vent_temperature,
    }


def assert_building_equal(sim, oracle, where):
    assert same_bytes(sim.temperature, oracle.temperature), where
    assert sim.observables() == oracle_observables(oracle), where


def run_building_schedule(sim, oracle, steps, schedule):
    """Step both; ``schedule`` maps step -> (parameter, value)."""
    assert_building_equal(sim, oracle, "initial state")
    for step in range(steps):
        if step in schedule:
            name, value = schedule[step]
            sim.set_parameter(name, value)
            oracle.set_parameter(name, value)
        sim.step()
        oracle_step(oracle)
        assert_building_equal(sim, oracle, f"step {step}")


#: a vent speed is drawn as a fraction of the CFL limit 1 / dt, up to just under it
cfl_fraction = st.floats(min_value=0.0, max_value=0.999)
building_steer = st.one_of(
    st.tuples(st.just("vent_speed"), cfl_fraction),
    st.tuples(st.just("vent_temperature"), st.floats(min_value=-5.0, max_value=40.0)),
    st.tuples(st.just("heat_load"), st.floats(min_value=0.0, max_value=5.0)),
)


@settings(max_examples=12, deadline=None)
@given(
    shape=st.one_of(st.tuples(side, side, side), st.just((24, 16, 8))),
    dt=st.sampled_from([0.5, 0.3, 0.7]),  # 0.5 is a power of two, the others are not
    speed=cfl_fraction,
    seed=st.integers(min_value=0, max_value=2**31),
    steers=st.lists(building_steer, min_size=10, max_size=10),
)
def test_building_matches_reference_over_shapes_speeds_and_steers(shape, dt, speed, seed, steers):
    sim, oracle = building_pair(shape, seed=seed, dt=dt, vent_speed=speed / dt)
    schedule = {
        20 * k + 3: (name, value / dt if name == "vent_speed" else value)
        for k, (name, value) in enumerate(steers)
    }
    run_building_schedule(sim, oracle, 200, schedule)


@pytest.mark.parametrize("dt", [0.5, 0.3])
@pytest.mark.parametrize("vent_speed", [0.0, 0.3, 1.9])
@pytest.mark.parametrize("shape", [(4, 4, 4), (8, 6, 4), (5, 12, 7), (24, 16, 8)])
def test_building_matches_reference_with_the_fleet_steer_plan(shape, vent_speed, dt):
    spec = ScenarioSpec(name="b", sim="building")
    sim, oracle = building_pair(shape, vent_speed=vent_speed, dt=dt)
    schedule = {8 * k: ("vent_temperature", spec.steer_value(k)) for k in range(16)}
    schedule[60] = ("vent_speed", 0.0)  # still air: every upwind cell flips to fwd
    schedule[90] = ("vent_speed", 0.7)
    schedule[100] = ("vent_temperature", 0.0)  # an exact zero on the inlet wall
    run_building_schedule(sim, oracle, 130, schedule)


def test_building_checkpoint_mid_run_restores_and_continues_identically():
    sim, oracle = building_pair((8, 6, 5), vent_speed=1.2)
    for _ in range(37):
        sim.step()
        oracle_step(oracle)
    fresh = BuildingClimate(shape=(8, 6, 5), vent_speed=0.0, heat_load=2.0, seed=99)
    fresh.run(3)  # has a flow memo of its own already
    fresh.restore(sim.checkpoint())
    assert fresh.vent_speed == 1.2 and fresh.heat_load == 0.5 and fresh.step_count == 37
    for step in range(60):
        fresh.step()
        sim.step()
        oracle_step(oracle)
        assert_building_equal(fresh, oracle, f"restored, step {step}")
        assert_building_equal(sim, oracle, f"uninterrupted, step {step}")


def test_building_restore_refuses_a_wrong_shaped_temperature():
    sim = BuildingClimate(shape=(6, 5, 4), seed=1)
    sim.run(3)
    good = sim.checkpoint()
    for bad in (good["temperature"][:5], good["temperature"].reshape(5, 6, 4), np.zeros(120)):
        with pytest.raises(SteeringError, match="temperature must have shape"):
            sim.restore({**good, "temperature": bad, "vent_speed": 1.0, "step_count": 999})
        # refused before anything was applied, and the next step is sound
        assert sim.vent_speed == 0.3 and sim.step_count == 3
        assert same_bytes(sim.temperature, good["temperature"])
    sim.step()
    assert np.isfinite(sim.mean_temperature())


@pytest.mark.parametrize(
    "name, value",
    [
        ("vent_speed", float("nan")),
        ("vent_temperature", float("nan")),
        ("vent_temperature", float("inf")),
        ("vent_temperature", float("-inf")),
        ("heat_load", float("nan")),
        ("heat_load", float("inf")),
    ],
)
def test_building_refuses_non_finite_steers(name, value):
    sim = BuildingClimate(shape=(6, 5, 4), seed=1)
    sim.run(2)
    before = sim.steerable_parameters()
    with pytest.raises(SteeringError, match="finite"):
        sim.set_parameter(name, value)
    assert sim.steerable_parameters() == before
    sim.step()
    assert np.isfinite(sim.temperature).all()


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_building_copies_carry_no_plan_and_step_identically(clone):
    sim, oracle = building_pair((6, 7, 5), vent_speed=0.9)
    sim.run(9)
    for _ in range(9):
        oracle_step(oracle)
    twin = clone(sim)
    assert twin._plan is None and twin._flow_cache is None
    for step in range(20):
        twin.step()
        oracle_step(oracle)
        assert_building_equal(twin, oracle, f"step {step}")
    assert twin._plan is sim._plan  # the copy bound the shared plan itself
    assert sim.step_count == 9  # the original did not move


def test_building_sims_of_one_shape_share_one_plan_and_step_alternately():
    import gc

    from repro.sims import building

    shape = (7, 5, 6)
    a, oracle_a = building_pair(shape, seed=1, vent_speed=1.5)
    b, oracle_b = building_pair(shape, seed=2, vent_speed=0.0)
    assert a._plan is None and shape not in building._PLANS  # nothing planned until used
    for step in range(40):
        a.step()
        oracle_step(oracle_a)
        b.step()
        oracle_step(oracle_b)
        assert_building_equal(a, oracle_a, f"a, step {step}")
        assert_building_equal(b, oracle_b, f"b, step {step}")
        if step == 20:
            a.set_parameter("vent_speed", 0.0)
            oracle_a.set_parameter("vent_speed", 0.0)
    assert a._plan is b._plan is building._PLANS[shape]
    # one gather index per upwind pattern: still air and a positive speed
    assert len(a._plan.indices) == 2
    del a, b, oracle_a, oracle_b
    gc.collect()
    assert shape not in building._PLANS  # the cache holds no shape no simulation uses


def test_building_flow_field_is_read_only():
    sim = BuildingClimate(shape=(6, 5, 4))
    u = sim.flow_field()
    assert same_bytes(u, ref.building_flow_field(sim))
    with pytest.raises(ValueError, match="read-only"):
        u[0, 1, 1, 1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        u *= 2.0
    sim.set_parameter("vent_speed", 0.6)
    assert same_bytes(sim.flow_field(), ref.building_flow_field(sim))
    assert not sim.flow_field().flags.writeable


# -- Morton keys ---------------------------------------------------------------


@pytest.mark.parametrize("bits", range(1, 22))
def test_morton_keys_match_the_bit_loop_for_every_width(bits):
    rng = np.random.default_rng(bits)
    top = 2**bits - 1
    coords = rng.integers(0, top, size=(3, 400), endpoint=True, dtype=np.uint64)
    edge = np.array([0, 1, top, top - 1, top // 2, top // 2 + 1], dtype=np.uint64)
    gx, gy, gz = np.meshgrid(edge, edge, edge)
    coords = np.concatenate([coords, np.stack([gx.ravel(), gy.ravel(), gz.ravel()])], axis=1)
    assert same_bytes(interleave_bits3(*coords, bits), ref.interleave_bits3(*coords, bits))


def test_morton_keys_keep_broadcast_shapes_and_scalars():
    x = np.arange(4, dtype=np.int64)[:, None]
    y = np.arange(3)[None, :]
    for args in ((x, y, 2), (1, 2, 3), (x, 7, y)):
        assert same_bytes(interleave_bits3(*args, 3), ref.interleave_bits3(*args, 3))


def test_morton_refuses_coordinates_that_do_not_fit():
    # the bit loop dropped the high bit: (4, 0, 0) and (0, 0, 0) shared key 0
    assert ref.interleave_bits3(4, 0, 0, 2) == ref.interleave_bits3(0, 0, 0, 2)
    for args in ((4, 0, 0), (0, np.array([1, 4]), 0), (0, 0, 2**40)):
        with pytest.raises(SimulationError, match=r"below 2\*\*2"):
            interleave_bits3(*args, 2)
    with pytest.raises(SimulationError):
        interleave_bits3(2**21, 0, 0, 21)
    assert interleave_bits3(3, 3, 3, 2) == 63
    # morton_key clips into the grid, so its callers never see the refusal
    outside = np.array([[-5.0, 0.5, 9.0], [0.2, 0.2, 0.2]])
    assert morton_key(outside, np.zeros(3), np.ones(3), bits=4).shape == (2,)


# -- PEPC ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=90),
    nranks=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_assign_domains_matches_the_rank_loop(n, nranks, seed):
    positions = np.random.default_rng(seed).standard_normal((n, 3))
    owner, boxes = assign_domains(positions, nranks)
    ref_owner, ref_boxes = ref.assign_domains(positions, nranks)
    assert same_bytes(owner, ref_owner) and same_bytes(boxes, ref_boxes)


@pytest.mark.parametrize("n", [1, 2, 56, 300])
def test_direct_field_matches_the_full_sum(n):
    rng = np.random.default_rng(n)
    positions, charges = rng.standard_normal((n, 3)), rng.standard_normal(n)
    probes = rng.standard_normal((11, 3))
    for kwargs in (
        {}, {"chunk": 7}, {"chunk": 1}, {"exclude_self": False}, {"eps": 0.2},
        {"targets": probes}, {"targets": probes, "chunk": 4},
    ):  # fmt: skip
        E, phi = direct_field(positions, charges, **kwargs)
        ref_E, ref_phi = ref.direct_field(positions, charges, **kwargs)
        assert same_bytes(E, ref_E) and same_bytes(phi, ref_phi), kwargs
    for chunk in (256, 5):
        assert same_bytes(
            direct_force(positions, charges, chunk=chunk),
            ref.direct_field(positions, charges, chunk=chunk)[0],
        )


def test_direct_sum_refuses_a_non_positive_chunk():
    positions, charges = np.zeros((3, 3)), np.ones(3)
    for chunk in (0, -4):
        with pytest.raises(SimulationError, match="chunk"):
            direct_field(positions, charges, chunk=chunk)
        with pytest.raises(SimulationError, match="chunk"):
            direct_force(positions, charges, chunk=chunk)


def test_pepc_trajectory_matches_the_parent_integrator():
    spec = ScenarioSpec(name="p", sim="pepc")
    sim, oracle = make_sim("pepc", seed=3), make_sim("pepc", seed=3)
    steers = {8 * k: [("beam_charge_scale", spec.steer_value(k))] for k in range(17)}
    steers[40].append(("laser_intensity", 0.7))
    steers[56].append(("laser_direction", [0.0, 1.0, 1.0]))
    steers[72].append(("damping", 2.5))
    steers[96].append(("beam_direction", [1.0, 0.5, 0.0]))
    for step in range(130):
        for name, value in steers.get(step, ()):
            sim.set_parameter(name, value)
            oracle.set_parameter(name, value)
        sim.step()
        ref.plasma_advance(oracle)
        oracle.step_count += 1
        oracle.time += oracle.dt
        assert same_bytes(sim.positions, oracle.positions), step
        assert same_bytes(sim.velocities, oracle.velocities), step
        if sim.step_count % 4 == 0:
            sample = sim.sample()
            owner, boxes = ref.assign_domains(oracle.positions, oracle.nranks)
            assert same_bytes(sample["processor"], owner.astype(np.int32))
            assert same_bytes(sample["domain_boxes"], boxes.astype(np.float32))


# -- crowd ---------------------------------------------------------------------


@pytest.mark.parametrize("n_agents, seed", [(40, 23), (40, 24), (200, 1), (3, 2), (1, 3)])
def test_crowd_state_and_rng_stream_match_the_parent_advance(n_agents, seed):
    spec = ScenarioSpec(name="c", sim="crowd")
    sim, oracle = CrowdSim(n_agents=n_agents, seed=seed), CrowdSim(n_agents=n_agents, seed=seed)
    for step in range(130):
        if step % 8 == 0:
            sim.set_parameter("attractiveness", spec.steer_value(step // 8))
            oracle.set_parameter("attractiveness", spec.steer_value(step // 8))
        sim.step()
        ref.crowd_advance(oracle)
        assert same_bytes(sim.positions, oracle.positions), step
        assert same_bytes(sim.goal, oracle.goal) and same_bytes(sim.dwell, oracle.dwell), step
        assert sim.rng.bit_generator.state == oracle.rng.bit_generator.state, step


@pytest.mark.parametrize(
    "attractiveness",
    [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [0.05, 0.05, 10.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0],
     [1e-300, 1.0, 1e300], [3.0, 0.0, 2.0, 1.0, 0.5]],
)  # fmt: skip
def test_crowd_goal_draw_is_generator_choice(attractiveness):
    k = len(attractiveness)
    exhibits = np.stack([np.linspace(2.0, 30.0, k), np.full(k, 10.0)], axis=1)
    sim = CrowdSim(n_agents=4, exhibits=exhibits, seed=k)
    oracle = CrowdSim(n_agents=4, exhibits=exhibits, seed=k)
    sim.set_parameter("attractiveness", attractiveness)
    oracle.set_parameter("attractiveness", attractiveness)
    for n in (0, 1, 5, 40, 40, 1, 0, 5):  # the CDF is reused across draws
        goals = sim._choose_goals(n)
        assert same_bytes(goals, ref.crowd_choose_goals(oracle, n)), n
        assert sim.rng.bit_generator.state == oracle.rng.bit_generator.state, n


def test_crowd_goal_cdf_is_never_stale():
    sim, oracle = CrowdSim(n_agents=6, seed=9), CrowdSim(n_agents=6, seed=9)

    def agree():
        assert same_bytes(sim._choose_goals(40), ref.crowd_choose_goals(oracle, 40))
        assert sim.rng.bit_generator.state == oracle.rng.bit_generator.state

    agree()
    sim.attractiveness[2] = 50.0  # in place, behind set_parameter's back
    oracle.attractiveness[2] = 50.0
    agree()
    sim.attractiveness = np.array([0.0, 7.0, 1.0])  # assigned
    oracle.attractiveness = np.array([0.0, 7.0, 1.0])
    agree()
    state = sim.checkpoint()
    sim.set_parameter("attractiveness", [1.0, 1.0, 4.0])
    oracle.set_parameter("attractiveness", [1.0, 1.0, 4.0])
    agree()
    sim.restore(state)  # restored, with the attractiveness of the checkpoint
    oracle.restore(state)
    agree()
    # garbage written in place is refused at the next draw, never indexed
    sim.attractiveness[0] = np.nan
    with pytest.raises(SteeringError, match="not finite"):
        sim._choose_goals(3)


@pytest.mark.parametrize(
    "value", [[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [1.0, -np.inf, 1.0], [np.nan] * 3]
)
def test_crowd_refuses_non_finite_attractiveness(value):
    sim = CrowdSim(n_agents=10, seed=4)
    sim.set_parameter("attractiveness", [1.0, 2.0, 3.0])
    with pytest.raises(SteeringError, match="finite"):
        sim.set_parameter("attractiveness", value)
    assert same_bytes(sim.attractiveness, np.array([1.0, 2.0, 3.0]))
    sim.run(30)  # the draws still see the last accepted value


def _generator_drawing(uniforms):
    """An MT19937 generator whose next ``random()`` values are ``uniforms``
    (multiples of 2**-53): each double is built from two 32-bit outputs,
    and an output is the tempering of a state word, which inverts."""

    def untemper(y):
        y ^= y >> 18
        y ^= (y << 15) & 0xEFC60000
        x = y
        for _ in range(5):
            x = y ^ ((x << 7) & 0x9D2C5680)
        x2 = x
        for _ in range(3):
            x2 = x ^ (x2 >> 11)
        return x2

    key = np.zeros(624, dtype=np.uint32)
    for i, u in enumerate(uniforms):
        k = int(u * 2**53)
        assert k == u * 2**53
        key[2 * i] = untemper((k >> 26) << 5)
        key[2 * i + 1] = untemper((k & (2**26 - 1)) << 6)
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


def test_crowd_goal_draw_matches_choice_on_the_cdf_boundaries():
    # seven equal weights: p.cumsum() ends at 1 - 2**-52, so choice's
    # renormalisation moves the CDF, and a draw can land exactly on it
    k = 7
    exhibits = np.stack([np.linspace(2.0, 30.0, k), np.full(k, 10.0)], axis=1)
    p = np.ones(k) / k
    raw = p.cumsum()
    cdf = raw / raw[-1]
    assert raw[-1] < 1.0
    uniforms = [0.0, float(raw[-1]), 1.0 - 2**-53]
    uniforms += [float(c) for c in cdf[:-1] if (c * 2**53).is_integer()]
    assert len(uniforms) > 5
    assert same_bytes(_generator_drawing(uniforms).random(len(uniforms)), np.array(uniforms))
    sim, oracle = (CrowdSim(n_agents=2, exhibits=exhibits, seed=1) for _ in range(2))
    sim.rng, oracle.rng = _generator_drawing(uniforms), _generator_drawing(uniforms)
    goals = sim._choose_goals(len(uniforms))
    assert same_bytes(goals, ref.crowd_choose_goals(oracle, len(uniforms)))
    assert sim.rng.bit_generator.state["state"]["pos"] == 2 * len(uniforms)
