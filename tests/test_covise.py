"""COVISE tests: data objects, SDS, CRB, pipelines, collaboration."""

import numpy as np
import pytest

from repro.des import Environment
from repro.errors import CoviseError
from repro.covise import (
    CollaborativeCovise,
    CuttingPlaneModule,
    MapEditor,
    PipelineError,
    PolygonData,
    RequestBroker,
    ScalarField2D,
    SharedDataSpace,
    UniformScalarField,
)
from repro.covise.dataobj import ImageData
from repro.net import Network


def make_field(n=12):
    ax = np.linspace(-1, 1, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return (x**2 + y**2 + z**2).astype(np.float64)


def fresh_net(hosts=("a", "b")):
    env = Environment()
    net = Network(env)
    for h in hosts:
        net.add_host(h)
    if len(hosts) >= 2:
        for h in hosts[1:]:
            net.add_link(hosts[0], h, latency=0.01, bandwidth=1e6)
    return env, net


# -- data objects / SDS / CRB -----------------------------------------------------


def test_data_object_validation():
    with pytest.raises(CoviseError):
        UniformScalarField("x", np.zeros((3, 3)))
    with pytest.raises(CoviseError):
        ScalarField2D("x", np.zeros(5))
    with pytest.raises(CoviseError):
        PolygonData("x", np.zeros((3, 2)), np.zeros((1, 3), dtype=np.intp))
    with pytest.raises(CoviseError):
        ImageData("x", np.zeros((4, 4)))
    with pytest.raises(CoviseError):
        UniformScalarField("", np.zeros((2, 2, 2)))


def test_sds_unique_names_and_lifecycle():
    sds = SharedDataSpace("hostA")
    n1 = sds.unique_name("field")
    n2 = sds.unique_name("field")
    assert n1 != n2
    obj = UniformScalarField(n1, np.zeros((4, 4, 4)))
    sds.put(obj, creator="test")
    assert sds.get(n1) is obj
    assert sds.bytes_stored == obj.nbytes
    with pytest.raises(CoviseError):
        sds.put(UniformScalarField(n1, np.zeros((2, 2, 2))))
    with pytest.raises(CoviseError):
        sds.get(n2)


def test_crb_transfer_costs_time():
    env, net = fresh_net()
    spaces = {"a": SharedDataSpace("a"), "b": SharedDataSpace("b")}
    crb = RequestBroker(net, spaces)
    field = UniformScalarField("obj-1", make_field(16))  # 16^3*8 = 32768 B
    spaces["a"].put(field)
    result = {}

    def proc():
        t0 = env.now
        replica = yield from crb.transfer("obj-1", "a", "b")
        result["elapsed"] = env.now - t0
        result["replica"] = replica

    env.process(proc())
    env.run()
    # 32768 B over 1e6 B/s + 10 ms latency ~ 42.8 ms
    assert result["elapsed"] == pytest.approx(0.0428, rel=0.05)
    assert result["replica"] is not field
    assert np.array_equal(result["replica"].field, field.field)
    assert spaces["b"].get("obj-1") is result["replica"]
    assert crb.bytes_transferred == field.nbytes


def test_crb_same_host_transfer_is_free():
    env, net = fresh_net()
    spaces = {"a": SharedDataSpace("a")}
    crb = RequestBroker(net, spaces)
    spaces["a"].put(UniformScalarField("o", make_field(8)))
    result = {}

    def proc():
        t0 = env.now
        obj = yield from crb.transfer("o", "a", "a")
        result["elapsed"] = env.now - t0
        result["same"] = obj is spaces["a"].get("o")

    env.process(proc())
    env.run()
    assert result == {"elapsed": 0.0, "same": True}


# -- pipeline ------------------------------------------------------------------


def build_map(net, host_src="a", host_render="a"):
    editor = MapEditor(net)
    editor.add_source("read", host_src, lambda: make_field(12))
    editor.add("CuttingPlane", "cut", host_src, resolution=24)
    editor.add("IsoSurface", "iso", host_src, level=0.5)
    editor.add("Renderer", "render", host_render)
    editor.connect("read", "field", "cut", "field")
    editor.connect("read", "field", "iso", "field")
    editor.connect("iso", "surface", "render", "surface")
    return editor


def test_pipeline_executes_in_topology_order():
    env, net = fresh_net()
    editor = build_map(net)
    ctl = editor.controller
    order = ctl.topology_order()
    assert order.index("read") < order.index("cut")
    assert order.index("iso") < order.index("render")
    result = {}

    def proc():
        outputs = yield from ctl.execute()
        result["outputs"] = outputs

    env.process(proc())
    env.run()
    plane = ctl.output_object("cut", "plane")
    assert isinstance(plane, ScalarField2D)
    surface = ctl.output_object("iso", "surface")
    assert isinstance(surface, PolygonData) and len(surface.faces) > 0
    frame = ctl.output_object("render", "frame")
    assert frame.pixels.shape == (120, 160, 3)


def test_distributed_pipeline_ships_objects_through_crb():
    env, net = fresh_net()
    editor = build_map(net, host_src="a", host_render="b")
    ctl = editor.controller

    def proc():
        yield from ctl.execute()

    env.process(proc())
    env.run()
    assert ctl.crb.transfers >= 1
    assert ctl.crb.bytes_transferred > 0
    # The renderer host has its replica of the surface.
    assert any("iso" in n for n in ctl.spaces["b"]._objects)


def test_pipeline_wiring_validation():
    env, net = fresh_net()
    editor = MapEditor(net)
    editor.add_source("read", "a", lambda: make_field(8))
    editor.add("CuttingPlane", "cut", "a")
    with pytest.raises(PipelineError):
        editor.connect("read", "nope", "cut", "field")
    with pytest.raises(PipelineError):
        editor.connect("read", "field", "cut", "nope")
    editor.connect("read", "field", "cut", "field")
    with pytest.raises(PipelineError):
        editor.connect("read", "field", "cut", "field")  # port taken
    with pytest.raises(PipelineError):
        editor.add("Mystery", "m", "a")
    with pytest.raises(PipelineError):
        editor.controller.add_module(CuttingPlaneModule("cut"), "a")


def test_module_param_validation():
    m = CuttingPlaneModule("cut")
    m.set_param("resolution", 32)
    with pytest.raises(PipelineError):
        m.set_param("bogus", 1)


def test_unconnected_input_detected_at_execute():
    env, net = fresh_net()
    editor = MapEditor(net)
    editor.add("CuttingPlane", "cut", "a")  # field input never connected

    def proc():
        yield from editor.controller.execute()

    env.process(proc())
    with pytest.raises(PipelineError, match="missing input"):
        env.run()


def test_map_spec_replication_produces_identical_content():
    env, net = fresh_net(hosts=("a", "b"))
    editor = build_map(net)
    spec = editor.spec()
    replica = MapEditor.replicate(net, spec, "b", {"read": lambda: make_field(12)})
    result = {}

    def proc():
        yield from editor.controller.execute()
        yield from replica.controller.execute()
        a = editor.controller.output_object("cut", "plane")
        b = replica.controller.output_object("cut", "plane")
        result["equal"] = np.array_equal(a.values, b.values)

    env.process(proc())
    env.run()
    assert result["equal"]


def test_replicate_requires_sources():
    env, net = fresh_net()
    editor = build_map(net)
    with pytest.raises(PipelineError, match="source"):
        MapEditor.replicate(net, editor.spec(), "b", {})


# -- collaborative sessions -----------------------------------------------------


def collab_session(n_sites=3, bandwidth=1e6, latency=0.02):
    env = Environment()
    net = Network(env)
    hosts = [f"site{i}" for i in range(n_sites)]
    for h in hosts:
        net.add_host(h)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            net.add_link(hosts[i], hosts[j], latency=latency, bandwidth=bandwidth)
    # Build the map spec on a scratch network; replication re-places every
    # module on each participating site's own host.
    _, scratch = fresh_net()
    spec = build_map(scratch).spec()
    sources = {h: {"read": lambda: make_field(12)} for h in hosts}
    session = CollaborativeCovise(
        net, spec, {h: h for h in hosts}, sources, watch=("cut", "plane")
    )
    return env, net, session


def test_all_sites_converge_to_identical_content():
    env, net, session = collab_session(3)
    result = {}

    def proc():
        yield from session.execute_all()
        report = yield from session.change_parameter(
            "cut", "point", (0.3, 0.0, 0.0), mode="parameter"
        )
        result["report"] = report

    env.process(proc())
    env.run()
    report = result["report"]
    assert report["digests_agree"] is True
    assert report["mode"] == "parameter"
    assert report["wan_bytes"] == 2 * 256  # two remote sites, tiny messages


def test_content_mode_ships_data_volume():
    env, net, session = collab_session(3)
    result = {}

    def proc():
        yield from session.execute_all()
        report = yield from session.change_parameter(
            "cut", "point", (0.3, 0.0, 0.0), mode="content"
        )
        result["report"] = report

    env.process(proc())
    env.run()
    report = result["report"]
    assert report["digests_agree"] is True
    # Content mode ships the actual plane (values + coords): 24x24 floats
    # plus coords per remote site — over 30x the parameter messages.
    assert report["wan_bytes"] > 30 * 2 * 256


def test_parameter_mode_skew_smaller_than_content_mode_on_slow_wan():
    """The section 4.3 claim: parameter sync keeps sites synchronous;
    streaming content over a slow WAN spreads them out."""
    skews = {}
    for mode in ("parameter", "content"):
        env, net, session = collab_session(3, bandwidth=2e5)  # slow WAN
        result = {}

        def proc():
            yield from session.execute_all()
            report = yield from session.change_parameter(
                "cut", "point", (0.2, 0.1, 0.0), mode=mode
            )
            result["report"] = report

        env.process(proc())
        env.run()
        skews[mode] = result["report"]["skew"]
    assert skews["content"] > 2 * skews["parameter"]


def test_collab_validation():
    env = Environment()
    net = Network(env)
    net.add_host("x")
    with pytest.raises(CoviseError):
        CollaborativeCovise(net, [], {}, {})
    with pytest.raises(CoviseError):
        CollaborativeCovise(net, [], {"x": "x"}, {"x": {}}, master="nope")
