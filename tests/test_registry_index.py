"""Regression tests: the indexed registry matches the naive linear scan."""

import random

import pytest

from repro.chaos import FaultInjector, FaultSchedule, RegistryShardLoss
from repro.errors import OgsaError
from repro.fleet import FleetDriver
from repro.ogsa import RegistryService

APPS = ["LB3D", "PEPC", "building", "crowd"]
SITES = ["ucl", "man", "anl", "hlrs", "juelich"]
TYPES = ["steering", "viz-steering"]


def _populate(reg, n, seed=0):
    rng = random.Random(seed)
    for i in range(n):
        reg.publish(
            f"gsh://site:8000/svc-{i}",
            {
                "type": rng.choice(TYPES),
                "application": rng.choice(APPS),
                "site": rng.choice(SITES),
                "job": f"job-{i % 17}",
            },
        )


QUERIES = [
    {},
    {"application": "LB3D"},
    {"application": "PEPC", "type": "steering"},
    {"site": "hlrs", "type": "viz-steering", "application": "crowd"},
    {"application": "no-such-app"},
    {"unknown-key": 1},
    {"job": "job-3"},
]


@pytest.mark.parametrize("query", QUERIES)
def test_indexed_find_matches_naive(query):
    reg = RegistryService()
    _populate(reg, 300, seed=9)
    assert reg.find(query) == reg._find_naive(query)


def test_index_survives_republish_and_unpublish():
    reg = RegistryService()
    _populate(reg, 50, seed=2)
    # Refresh with different metadata: old index entries must not linger.
    reg.publish("gsh://site:8000/svc-7", {"application": "LB3D", "type": "steering"})
    reg.publish("gsh://site:8000/svc-7", {"application": "PEPC", "type": "steering"})
    hits = reg.find({"application": "LB3D", "type": "steering"})
    assert all(e["handle"] != "gsh://site:8000/svc-7" for e in hits)
    found = reg.find({"application": "PEPC", "type": "steering"})
    assert any(e["handle"] == "gsh://site:8000/svc-7" for e in found)
    for q in QUERIES:
        assert reg.find(q) == reg._find_naive(q)
    # Unpublish a batch and re-compare.
    for i in range(0, 50, 3):
        reg.unpublish(f"gsh://site:8000/svc-{i}")
    for q in QUERIES:
        assert reg.find(q) == reg._find_naive(q)
    assert reg.service_data["entry_count"] == len(reg._entries)


def test_unhashable_metadata_values_still_found():
    reg = RegistryService()
    reg.publish(
        "gsh://a:1/s1",
        {"application": "PEPC", "view": [0.0, -3.0, 0.0]},
    )
    reg.publish("gsh://a:1/s2", {"application": "PEPC"})
    # Query on the hashable key finds both (unindexed handle folded in).
    assert [e["handle"] for e in reg.find({"application": "PEPC"})] == [
        "gsh://a:1/s1",
        "gsh://a:1/s2",
    ]
    # Query on the unhashable value falls back to the scan path.
    assert [e["handle"] for e in reg.find({"view": [0.0, -3.0, 0.0]})] == [
        "gsh://a:1/s1"
    ]
    assert reg.find({"view": [9.9]}) == []
    for q in ({}, {"application": "PEPC"}, {"view": [0.0, -3.0, 0.0]}):
        assert reg.find(q) == reg._find_naive(q)
    reg.unpublish("gsh://a:1/s1")
    assert reg.find({"application": "PEPC"}) == reg._find_naive(
        {"application": "PEPC"}
    )


def test_numeric_equivalence_matches_naive():
    # 1, 1.0 and True are equal and hash alike: both paths must agree.
    reg = RegistryService()
    reg.publish("gsh://a:1/int", {"flag": 1})
    reg.publish("gsh://a:1/float", {"flag": 1.0})
    reg.publish("gsh://a:1/bool", {"flag": True})
    for probe in (1, 1.0, True):
        assert reg.find({"flag": probe}) == reg._find_naive({"flag": probe})
        assert len(reg.find({"flag": probe})) == 3


def test_nan_values_match_naive():
    nan = float("nan")
    reg = RegistryService()
    reg.publish("gsh://a:1/nan", {"x": nan})
    # Even probing with the *same* nan object must behave like `==`.
    assert reg.find({"x": nan}) == reg._find_naive({"x": nan}) == []


def _assert_index_consistent(reg):
    """The inverted index holds exactly the live (key, value) -> handle
    facts: no stale buckets, no empty buckets, nothing missing."""
    for (k, v), bucket in reg._index.items():
        assert bucket, f"empty bucket left behind for {(k, v)!r}"
        for handle in bucket:
            assert handle in reg._entries, f"stale handle {handle!r}"
            stored = reg._entries[handle].get(k, _MISSING)
            # Hash-equal values (1, 1.0, True) share a bucket key; the
            # entry must hold an == value under that key.
            assert stored is not _MISSING and stored == v
    for handle, meta in reg._entries.items():
        if handle in reg._unindexed:
            continue
        for k, v in meta.items():
            assert handle in reg._index.get((k, v), ()), (
                f"{handle!r} missing from bucket {(k, v)!r}"
            )
    assert reg._unindexed <= set(reg._entries)


_MISSING = object()


def test_index_consistency_under_randomized_churn():
    rng = random.Random(42)
    reg = RegistryService()
    alive = set()
    for step in range(600):
        op = rng.random()
        if op < 0.45 or not alive:
            # publish a fresh handle
            h = f"gsh://site:8000/churn-{step}"
            reg.publish(h, {
                "type": rng.choice(TYPES),
                "application": rng.choice(APPS),
                "site": rng.choice(SITES),
            })
            alive.add(h)
        elif op < 0.80:
            # update-metadata: republish an existing handle with fresh
            # (possibly fewer/different) keys — old facts must vanish
            h = rng.choice(sorted(alive))
            meta = {"application": rng.choice(APPS)}
            if rng.random() < 0.5:
                meta["site"] = rng.choice(SITES)
            if rng.random() < 0.3:
                meta["view"] = [rng.random()]  # unhashable branch
            reg.publish(h, meta)
        else:
            h = rng.choice(sorted(alive))
            reg.unpublish(h)
            alive.remove(h)
        if step % 50 == 0:
            _assert_index_consistent(reg)
    _assert_index_consistent(reg)
    assert set(reg._entries) == alive
    # And the indexed find still matches the naive scan on every query.
    probes = QUERIES + [{"site": s} for s in SITES]
    for q in probes:
        assert reg.find(q) == reg._find_naive(q)


def test_publish_validation_unchanged():
    reg = RegistryService()
    with pytest.raises(OgsaError):
        reg.publish("not-a-gsh", {})
    with pytest.raises(OgsaError):
        reg.publish("gsh://a:1/x", metadata=["not", "a", "dict"])
    with pytest.raises(OgsaError):
        reg.unpublish("gsh://a:1/never")


def test_clear_leaves_table_and_index_consistent():
    reg = RegistryService()
    _populate(reg, 120, seed=5)
    reg.publish("gsh://a:1/unhashable", {"view": [1.0]})
    assert len(reg) == 121 and list(reg) == list(reg._entries)
    assert reg.clear() == 121
    _assert_index_consistent(reg)
    assert len(reg) == 0 and list(reg) == []
    assert reg.service_data["entry_count"] == 0
    assert reg.clear() == 0
    # A cleared registry is a fresh one: publish, find and unpublish work.
    _populate(reg, 40, seed=6)
    reg.unpublish("gsh://site:8000/svc-3")
    _assert_index_consistent(reg)
    for q in QUERIES:
        assert reg.find(q) == reg._find_naive(q)


def test_shard_loss_through_the_injector_keeps_every_shard_consistent():
    driver = FleetDriver(n_sites=2, registry_shards=3)
    _populate(driver.sites[0].registry, 90, seed=3)
    sizes = [len(shard) for shard in driver.shards]
    injector = FaultInjector(driver)
    injector.install(FaultSchedule([RegistryShardLoss(at=1.0, shard=1)]))
    driver.env.run(until=2.0)
    assert [len(shard) for shard in driver.shards] == [sizes[0], 0, sizes[2]]
    assert (1.0, "note", f"shard 1 lost {sizes[1]} entries") in injector.log
    # Republish through the other site's front-end after the loss.
    _populate(driver.sites[1].registry, 30, seed=4)
    for shard in driver.shards:
        _assert_index_consistent(shard)
        for q in QUERIES + [{"site": s} for s in SITES]:
            assert shard.find(q) == shard._find_naive(q)
