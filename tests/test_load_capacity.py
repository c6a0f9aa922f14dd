"""Capacity models and the in-flight session ledger."""

import pytest

from repro.errors import LoadError
from repro.fleet import FleetDriver
from repro.load import CapacityLedger, SiteCapacity, capacity_of


def test_site_capacity_min_of_layers():
    cap = SiteCapacity(gateway_slots=4, container_slots=8, vbroker_slots=6)
    assert cap.slots == 4
    with pytest.raises(LoadError):
        SiteCapacity(gateway_slots=0, container_slots=1, vbroker_slots=1)


def test_ledger_acquire_release_and_errors():
    led = CapacityLedger()
    led.register_site(0, 2)
    with pytest.raises(LoadError):
        led.register_site(0, 2)  # duplicate
    with pytest.raises(LoadError):
        led.acquire(99)  # unknown site
    led.acquire(0)
    led.acquire(0)
    assert led.free(0) == 0 and led.inflight(0) == 2
    with pytest.raises(LoadError):
        led.acquire(0)  # full
    led.release(0)
    assert led.free(0) == 1
    led.release(0)
    with pytest.raises(LoadError):
        led.release(0)  # below zero


def test_drain_and_reopen_semantics():
    led = CapacityLedger()
    led.register_site(0, 2)
    led.register_site(1, 2)
    led.acquire(1)
    led.drain(1)
    assert led.is_drained(1)
    assert led.free(1) == 0  # drained sites never have room
    assert led.sites_with_room() == [0]
    assert led.active_sites() == [0] and led.snapshot()[1] == (1, 2, True)
    with pytest.raises(LoadError):
        led.acquire(1)
    # The running session still releases cleanly after the drain.
    led.release(1)
    assert led.inflight(1) == 0
    led.reopen(1)
    assert led.free(1) == 2


def test_totals_and_snapshot():
    led = CapacityLedger()
    led.register_site(0, 2)
    led.register_site(1, 4)
    led.acquire(0)
    led.acquire(1)
    led.acquire(1)
    assert led.total_inflight == 3
    led.drain(1)
    # A drained site's sessions still count.
    assert led.total_inflight == 3
    assert led.snapshot() == {0: (1, 2, False), 1: (2, 4, True)}


def test_capacity_of_reads_the_fabric():
    driver = FleetDriver(n_sites=1, queue_slots=5)
    cap = capacity_of(driver.sites[0], container_slots=3, vbroker_slots=9)
    assert cap.gateway_slots == 5
    assert cap.slots == 3  # the container is the tightest layer here
    led = CapacityLedger.for_driver(driver, container_slots=3)
    assert led.sites() == [0]
    assert led.snapshot()[0] == (0, 3, False)
