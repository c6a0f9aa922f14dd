"""Placement policies: least-loaded and power-of-two."""

import pytest

from repro.errors import LoadError
from repro.fleet.spec import ScenarioSpec
from repro.load import (
    CapacityLedger,
    LeastLoaded,
    PowerOfTwoChoices,
    make_policy,
)

SPEC = ScenarioSpec(name="s", profile="campus", participants=1)


def _ledger(slots=(2, 2, 2)):
    led = CapacityLedger()
    for i, n in enumerate(slots):
        led.register_site(i, n)
    return led


def test_least_loaded_picks_most_free_slots():
    led = _ledger((2, 4, 2))
    pol = LeastLoaded()
    assert pol.choose(SPEC, led) == 1
    led.acquire(1)
    led.acquire(1)
    led.acquire(1)
    # Site 1 now has 1 free vs 2 on sites 0/2; lowest index wins ties.
    assert pol.choose(SPEC, led) == 0
    for i in (0, 0, 1, 2, 2):
        led.acquire(i)
    assert pol.choose(SPEC, led) is None  # everything full


def test_least_loaded_skips_drained_sites():
    led = _ledger((2, 2))
    led.drain(0)
    assert LeastLoaded().choose(SPEC, led) == 1


def test_power_of_two_is_seeded_and_respects_room():
    led = _ledger((3, 3, 3))
    led.acquire(0)
    picks_a = [PowerOfTwoChoices(seed=5).choose(SPEC, _copy(led))
               for _ in range(1)]
    picks_b = [PowerOfTwoChoices(seed=5).choose(SPEC, _copy(led))
               for _ in range(1)]
    assert picks_a == picks_b  # deterministic under the seed
    pol = PowerOfTwoChoices(seed=1)
    seen = set()
    for _ in range(20):
        choice = pol.choose(SPEC, led)
        assert choice in (0, 1, 2)
        seen.add(choice)
    assert len(seen) > 1  # actually samples, not a constant
    # Single site with room: that one, no sampling needed.
    led2 = _ledger((1, 1))
    led2.acquire(0)
    assert PowerOfTwoChoices(seed=3).choose(SPEC, led2) == 1
    led2.acquire(1)
    assert PowerOfTwoChoices(seed=3).choose(SPEC, led2) is None


def _copy(led):
    out = CapacityLedger()
    for i in led.sites():
        out.register_site(i, led.snapshot()[i][1])
        for _ in range(led.inflight(i)):
            out.acquire(i)
    return out


def test_power_of_two_prefers_less_loaded_of_the_pair():
    led = _ledger((4, 4))
    led.acquire(0)
    led.acquire(0)
    led.acquire(0)
    pol = PowerOfTwoChoices(seed=0)
    # Only two sites: every sample is {0, 1}; 1 is always less loaded.
    for _ in range(10):
        assert pol.choose(SPEC, led) == 1


def test_make_policy_registry():
    assert isinstance(make_policy("least-loaded"), LeastLoaded)
    assert isinstance(make_policy("p2c", seed=9), PowerOfTwoChoices)
    for retired in ("locality", "random-forest"):
        with pytest.raises(LoadError):
            make_policy(retired)
