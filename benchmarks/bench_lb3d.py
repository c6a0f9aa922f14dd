"""LB3D — the steered Lattice-Boltzmann workload (paper section 2.2).

Regenerated series: (a) wall-time step cost vs lattice size (the compute
budget the Grid has to supply to keep the session interactive), from the
fleet's 6^3 up, written with the per-step cost of all four fleet-sized
simulations to ``BENCH_sims.json``; (b) the physics response that made
the demo worth watching — steering the miscibility flips the mixture
between mixed and demixed states.
"""

import statistics
import time

import pytest

from benchmarks.conftest import run_once, write_json
from repro.fleet.spec import SIM_KINDS, make_sim
from repro.sims import LatticeBoltzmann3D


def test_lb3d_step_kernel(benchmark):
    """Wall-time per LB step on a 24^3 lattice."""
    sim = LatticeBoltzmann3D(shape=(24, 24, 24), g=2.0, seed=1)
    benchmark(sim.step)
    # Mass equals the initialized total (n^3 up to the seeded perturbation).
    assert sim.total_mass() == pytest.approx(24**3, rel=1e-3)


def _median_seconds(fn, calls: int) -> float:
    """Median of ``calls`` individually timed ``fn()`` calls, after one warm-up."""
    fn()
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _scaling(sizes=(6, 12, 16, 24, 32)):
    rows = []
    for n in sizes:
        sim = LatticeBoltzmann3D(shape=(n, n, n), g=2.0, seed=1)
        per_step = _median_seconds(sim.step, 25)
        rows.append((n, per_step, per_step / n**3))
    return rows


def _fleet_sim_costs(calls=300):
    """advance()/sample() cost of each simulation at the size a fleet runs."""
    costs = {}
    for kind in SIM_KINDS:
        sim = make_sim(kind)
        sim.run(3)
        costs[kind] = {
            "advance_us": _median_seconds(sim.advance, calls) * 1e6,
            "sample_us": _median_seconds(sim.sample, calls) * 1e6,
        }
    return costs


def test_lb3d_scaling(benchmark, reporter):
    t0 = time.perf_counter()
    costs = _fleet_sim_costs()  # first: the sweep leaves a fragmented heap behind
    rows = run_once(benchmark, _scaling)
    wall = time.perf_counter() - t0
    table = [
        [f"{n}^3", f"{t * 1e3:.2f}", f"{per_site * 1e9:.1f}"]
        for n, t, per_site in rows
    ]
    reporter.table(
        "LB3D-a: step cost vs lattice size (wall time)",
        ["lattice", "ms/step", "ns/site/step"], table,
    )
    reporter.table(
        "SIMS: per-call cost at fleet size (median)",
        ["sim", "advance (us)", "sample (us)"],
        [[k, f"{c['advance_us']:.1f}", f"{c['sample_us']:.1f}"] for k, c in costs.items()],
    )
    write_json(
        "BENCH_sims.json",
        {
            "fleet_sims": costs,
            "lb3d_scaling": {
                f"{n}^3": {"step_ms": t * 1e3, "ns_per_site": per_site * 1e9}
                for n, t, per_site in rows
            },
        },
        wall_seconds=wall,
    )
    # Cost per site roughly constant: the kernel is O(sites).
    per_site = [r[2] for r in rows]
    assert max(per_site) < 6 * min(per_site)


def _steering_response():
    sim = LatticeBoltzmann3D(shape=(12, 12, 12), g=0.5, seed=2)
    series = []
    for step in range(40):
        sim.step()
        series.append((step, sim.g, sim.demix_measure()))
    sim.set_parameter("g", 3.0)  # the demo moment: slide the miscibility
    response_step = None
    for step in range(40, 160):
        sim.step()
        series.append((step, sim.g, sim.demix_measure()))
        if response_step is None and sim.demix_measure() > 0.2:
            response_step = step
    return series, response_step


def test_lb3d_miscibility_steering_response(benchmark, reporter):
    series, response_step = run_once(benchmark, _steering_response)
    picks = [s for s in series if s[0] % 20 == 0 or s[0] == response_step]
    reporter.table(
        "LB3D-b: order-parameter response to steering g: 0.5 -> 3.0 at "
        "step 40",
        ["step", "g", "demix measure"],
        [[s, g, f"{d:.4f}"] for s, g, d in picks],
    )
    reporter.note(
        f"structures become clearly demixed at step {response_step} "
        f"({response_step - 40} steps after the steer)"
    )
    before = max(d for s, _, d in series if s < 40)
    after = series[-1][2]
    assert before < 0.05 and after > 0.3
    assert response_step is not None and response_step < 150
