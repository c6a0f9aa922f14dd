"""The four fleet-sized simulations must keep producing the same numbers.

The fleet goldens (``tests/test_perf_determinism.py``) only see the
numerics through message sizes and timing.  This pins the numbers
themselves: ``tests/golden/sims_trajectory.json`` holds, per sim kind,
the sha256 of the checkpointed state after 130 steps steered like a fleet
session (``ScenarioSpec.steer_value`` every 8th step) and of every
``sample()`` array shipped on the way (every 4th step, the fleet's
``sample_interval``).  It was recorded on the parent of the plan-once
numerics rewrite (PR 20) and applies on the python/numpy it names, like
``bench/expected.json``; elsewhere the test is skipped, not failed.

Re-record (only when a change is *meant* to move the numbers):
``PYTHONPATH=src python tests/test_sims_trajectory.py``
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from pinned import golden_or_skip, write_golden
from repro.fleet.spec import SIM_KINDS, ScenarioSpec

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sims_trajectory.json"

STEPS = 130
STEER_EVERY = 8
SAMPLE_EVERY = 4


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value, sort_keys=True).encode())


def trajectory_digests(kind: str) -> dict:
    spec = ScenarioSpec(name=f"golden-{kind}", sim=kind)
    sim = spec.make_sim()
    samples = {}
    for step in range(STEPS):
        if step % STEER_EVERY == 0:
            sim.set_parameter(spec.steer_param, spec.steer_value(step // STEER_EVERY))
        sim.step()
        if sim.step_count % SAMPLE_EVERY == 0:
            for key, value in sim.sample().items():
                _feed(samples.setdefault(key, hashlib.sha256()), value)
    state = hashlib.sha256()
    for key, value in sorted(sim.checkpoint().items()):
        state.update(key.encode())
        _feed(state, value)
    return {
        "state": state.hexdigest(),
        "samples": {key: h.hexdigest() for key, h in sorted(samples.items())},
    }


@pytest.mark.parametrize("kind", SIM_KINDS)
def test_trajectory_matches_parent_golden(kind):
    golden = golden_or_skip(GOLDEN, "trajectories")
    assert trajectory_digests(kind) == golden["digests"][kind]


if __name__ == "__main__":
    write_golden(
        GOLDEN,
        f"sha256 of checkpoint state after {STEPS} steps (steer every "
        f"{STEER_EVERY}th) and of each sample() array (every {SAMPLE_EVERY}th "
        "step) per fleet-sized sim; applies on the python and numpy below",
        "digests",
        {kind: trajectory_digests(kind) for kind in SIM_KINDS},
    )
    print(GOLDEN.read_text())
