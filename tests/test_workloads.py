"""Workload/profile/cost-model tests."""

import pytest

from repro.workloads import (
    CONFERENCE_FLOOR,
    DESKTOP_BUDGET,
    LAN,
    SUPERJANET,
    TRANSATLANTIC,
    VR_BUDGET,
    FeedbackLoopModel,
    realitygrid_testbed,
    sc03_showfloor,
)


def test_profile_one_way_and_rtt():
    assert SUPERJANET.one_way(0) == pytest.approx(0.008)
    # 1 MB at 155 Mbit/s ~ 51.6 ms + 8 ms
    assert SUPERJANET.one_way(1_000_000) == pytest.approx(0.0596, rel=0.02)
    assert LAN.one_way(64) + LAN.one_way(64) < 0.001


def test_remote_loop_breaks_vr_budget_on_wan_even_without_render():
    """The section 4.2 argument, quantitatively: communication +
    (de)compression alone exceed the 10-15 fps budget on WAN links."""
    model = FeedbackLoopModel()
    # A CAVE redraws stereo pairs: 1024x768 RGB x 2 eyes ~ 4.7 MB raw.
    frame = 1024 * 768 * 3 * 2
    for profile in (SUPERJANET, TRANSATLANTIC):
        t = model.remote_loop_time(profile, frame, include_render=False)
        assert t > VR_BUDGET, profile.name
    assert model.remote_loop_time(TRANSATLANTIC, frame) > VR_BUDGET


def test_local_loop_holds_vr_budget():
    model = FeedbackLoopModel()
    assert model.local_loop_time() < VR_BUDGET


def test_remote_loop_can_hold_desktop_budget_on_lan():
    model = FeedbackLoopModel()
    frame = 320 * 240 * 3
    assert model.remote_loop_time(LAN, frame) < DESKTOP_BUDGET


def test_breakdown_sums_to_total():
    model = FeedbackLoopModel()
    b = model.remote_loop_breakdown(CONFERENCE_FLOOR, 230_400)
    assert b["total"] == pytest.approx(
        sum(v for k, v in b.items() if k != "total")
    )
    assert b["transmit"] > 0 and b["compress"] > 0


def test_realitygrid_testbed_topology():
    env, net = realitygrid_testbed()
    assert set(net.hosts) == {"ucl-onyx", "man-bezier", "floor-laptop", "anl-ag"}
    # compute site is firewalled to the gateway port only
    assert not net.host("ucl-onyx").accepts_inbound(9999)
    assert net.host("ucl-onyx").accepts_inbound(4433)
    link = net.link("ucl-onyx", "man-bezier")
    assert link.latency == pytest.approx(0.008)


def test_sc03_showfloor_with_cave():
    env, net, names = sc03_showfloor(n_sites=3, cave=True)
    assert len(names) == 4 and "hlrs-cave" in names
    cave = net.host("hlrs-cave")
    assert not cave.multicast and not cave.firewall.allow_multicast
