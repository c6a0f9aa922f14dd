"""The obs streams, pinned: spans, exposition and snapshot, byte for byte.

``tests/test_obs.py`` checks that two same-seed traced runs agree with
each other; nothing there says what they agree *on*.  This pins it:
``tests/golden/obs_streams.json`` holds, per world, the sha256 of the
span JSONL (:meth:`Tracer.write_jsonl`), of ``metrics.render()`` and of
``json.dumps(obs.snapshot(), sort_keys=True)``.  Two worlds cover every
span the fabric emits:

* ``open_loop`` — Poisson arrivals through an :class:`AdmissionController`
  with a tenant quota, shadow broker and enforcing registry breakers, a
  :class:`BrokerPool` that fails sessions over when vbrokers crash, and a
  :class:`ChaosHarness` injector whose faults land as fabric-lane spans;
* ``batch`` — a closed staggered fleet (synthetic ``admit`` instants)
  with a site outage cancelling sessions mid-run.

The span-name coverage is asserted everywhere; the digests apply on the
python/numpy the golden names (sim numerics move message sizes, hence
timing), like ``tests/golden/paper_table.json``, and are skipped
elsewhere.

Re-record (only when a change is *meant* to move a stream):
``PYTHONPATH=src python tests/test_obs_streams.py``
"""

import hashlib
import json
import pathlib

import pytest

from pinned import golden_or_skip, write_golden
from repro.chaos import (
    ChaosHarness,
    ContainerCrash,
    FaultSchedule,
    SiteOutage,
    VBrokerCrash,
)
from repro.fleet import BrokerPool, FleetDriver, fleet_of
from repro.load import AdmissionController, PoissonArrivals
from repro.obs import Observability

GOLDEN = pathlib.Path(__file__).parent / "golden" / "obs_streams.json"

#: low thresholds so both worlds walk the breaker state machine; the
#: broker breaker shadows (its observer path must never raise)
BREAKERS = {
    "broker": {"failure_threshold": 2, "recovery_time": 1.5, "enforcing": False},
    "registry": {"failure_threshold": 1, "recovery_time": 2.0},
}

#: every span (or span event) name the instrumented fabric emits
SPAN_NAMES = {
    "session", "admit", "reject", "place", "connect", "find", "steer-op",
    "viz-frame", "circuit-open", "circuit-half-open",
}


def _open_loop() -> Observability:
    obs = Observability(tracing=True, metrics=True, breakers=BREAKERS, quota=2)
    driver = FleetDriver(n_sites=3, queue_slots=2, obs=obs)
    pool = BrokerPool.build(driver.net, [s.svc_name for s in driver.sites], port=7100)
    ctl = AdmissionController(driver, queue_limit=6)
    world = ChaosHarness(driver, ctl, pool=pool)
    world.install(FaultSchedule([
        ContainerCrash(at=1.3, duration=0.8, site=0),
        VBrokerCrash(at=2.0, broker=0),
        SiteOutage(at=4.0, duration=0.6, site=2),
        VBrokerCrash(at=5.0, duration=3.0, broker=1),
        VBrokerCrash(at=5.0, duration=3.0, broker=2),
    ]))
    report = ctl.run(
        PoissonArrivals(rate=1.2, horizon=10.0, seed=7, duration=2.0, cadence=0.5)
    )
    assert world.verdict(report)["invariant_violations"] == 0
    return obs


def _batch() -> Observability:
    obs = Observability(tracing=True, metrics=True, breakers=BREAKERS)
    driver = FleetDriver(fleet_of(6, stagger=0.2), n_sites=2, obs=obs)
    world = ChaosHarness(driver)
    world.install(FaultSchedule([SiteOutage(at=3.0, duration=2.0, site=1)]))
    report = driver.run(wall_seconds=None)
    assert world.verdict(report)["invariant_violations"] == 0
    return obs


WORLDS = {"open_loop": _open_loop, "batch": _batch}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def streams(obs: Observability, tmp: pathlib.Path) -> dict:
    path = tmp / "spans.jsonl"
    obs.write_trace(path)
    return {
        "spans": _sha(path.read_bytes()),
        "metrics": _sha(obs.metrics.render().encode()),
        "snapshot": _sha(json.dumps(obs.snapshot(), sort_keys=True).encode()),
    }


@pytest.fixture(scope="module")
def observed() -> dict:
    return {name: build() for name, build in WORLDS.items()}


def _names(obs: Observability) -> set:
    names = set()
    for span in obs.tracer.spans:
        names.add(span.name)
        names.update(name for name, _, _ in span.events)
    return names


def test_worlds_emit_every_span_name(observed):
    names = set().union(*(_names(obs) for obs in observed.values()))
    missing = SPAN_NAMES - names
    assert not missing, missing
    assert any(n.startswith("fault:") for n in names)
    modes = {
        span.attrs.get("mode", "queued")
        for obs in observed.values()
        for span in obs.tracer.find("admit")
    }
    assert modes == {"queued", "batch"}


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_streams_match_golden(observed, world, tmp_path):
    golden = golden_or_skip(GOLDEN, "streams")
    assert streams(observed[world], tmp_path) == golden["digests"][world]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            name: streams(build(), pathlib.Path(tmp))
            for name, build in sorted(WORLDS.items())
        }
    write_golden(
        GOLDEN,
        "sha256 of the span JSONL, metrics.render() and the sorted-key "
        "snapshot JSON of each world in tests/test_obs_streams.py; "
        "applies on the python and numpy below",
        "digests",
        digests,
    )
    print(GOLDEN.read_text())
