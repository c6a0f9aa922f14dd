"""Campaign grid enumeration, seed derivation and spec round-trips."""

import pytest

from repro.campaign import AxisPoint, CampaignSpec, SPEC_VERSION, derive_seed
from repro.errors import CampaignError


def grid(**overrides):
    kwargs = dict(
        name="g",
        seed=7,
        scenarios=[AxisPoint("paper", {"suite": "paper"}),
                   AxisPoint("sweep", {"suite": "sweep"})],
        arrivals=[AxisPoint("poisson", {"kind": "poisson", "rate": 2.0}),
                  AxisPoint("flash", {"kind": "flash"})],
        faults=[AxisPoint("baseline"),
                AxisPoint("rand", {"random": {"n_faults": 2}})],
        policies=[AxisPoint("ll", {"placement": "least-loaded"})],
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def test_grid_enumeration_order_and_ids():
    spec = grid()
    cells = spec.cells()
    assert spec.n_cells == len(cells) == 2 * 2 * 2 * 1
    # itertools.product order over declared axes, indices consecutive.
    assert [c.index for c in cells] == list(range(8))
    assert cells[0].cell_id == "paper/poisson/baseline/ll"
    assert cells[-1].cell_id == "sweep/flash/rand/ll"
    ids = [c.cell_id for c in cells]
    assert len(set(ids)) == len(ids)
    assert all(c.coords["scenario"] == c.scenario.name for c in cells)


def test_seed_derivation_is_stable_and_coordinate_addressed():
    # SHA-derived: a fixed literal guards against any drift in the
    # derivation (hash() randomization, ordering changes...).
    assert derive_seed(7, "paper/poisson/baseline/ll") == \
        derive_seed(7, "paper/poisson/baseline/ll")
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    spec = grid()
    by_id = {c.cell_id: c.seed for c in spec.cells()}
    # Seeds depend on coordinates, not grid position: growing an axis
    # leaves every pre-existing cell's seed untouched.
    bigger = grid(policies=[AxisPoint("ll", {"placement": "least-loaded"}),
                            AxisPoint("p2c", {"placement": "p2c"})])
    for cell in bigger.cells():
        if cell.cell_id in by_id:
            assert cell.seed == by_id[cell.cell_id]
    # Sub-seeds are independent streams off the cell seed.
    cell = spec.cells()[0]
    assert cell.subseed("arrival") != cell.subseed("faults")
    assert cell.subseed("arrival") == derive_seed(cell.seed, "arrival")


def test_per_axis_base_overrides_later_axes_win():
    spec = grid(
        base={"n_sites": 3, "horizon": 8.0},
        scenarios=[AxisPoint("s", {"base": {"n_sites": 4, "horizon": 5.0}})],
        faults=[AxisPoint("f", {"base": {"horizon": 9.0}})],
    )
    cell = spec.cells()[0]
    assert cell.base["n_sites"] == 4        # scenario override
    assert cell.base["horizon"] == 9.0      # faults axis wins over scenario


def test_validation_errors():
    with pytest.raises(CampaignError):
        grid(arrivals=[])                               # empty axis
    with pytest.raises(CampaignError):
        grid(faults=[AxisPoint("x"), AxisPoint("x")])   # duplicate names
    with pytest.raises(CampaignError):
        AxisPoint("a/b")                                # '/' joins ids
    with pytest.raises(CampaignError):
        AxisPoint("")
    with pytest.raises(CampaignError):
        CampaignSpec(name="", scenarios=[AxisPoint("s")],
                     arrivals=[AxisPoint("a")], faults=[AxisPoint("f")],
                     policies=[AxisPoint("p")])


def test_spec_round_trip_preserves_grid_and_seeds():
    spec = grid()
    clone = CampaignSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    assert [(c.cell_id, c.seed, c.base) for c in clone.cells()] == \
        [(c.cell_id, c.seed, c.base) for c in spec.cells()]


def test_from_dict_rejects_bad_documents():
    from repro.campaign import ParamSpace, SearchSpec, search_preset
    from repro.campaign.search import Evaluation

    good = grid().to_dict()
    search = search_preset("cliff-smoke").to_dict()
    space = search["space"]
    rate = {"path": "arrival.rate", "lo": 0.5, "hi": 3.0}
    floor = {"metric": "sessions", "lo": 1.0}
    # every case used to load silently wrong (a string axis became one
    # point per letter, seed 1.7 became 1, true became 1) or died with
    # an AttributeError / TypeError instead of a CampaignError
    cases = [
        (CampaignSpec, {"schema": "nope", "name": "x"}),
        (CampaignSpec, {"name": "x"}),  # missing axes
        (CampaignSpec, [good]),
        (CampaignSpec, "spec.json"),
        (CampaignSpec, {**good, "scenarios": "abc"}),
        (CampaignSpec, {**good, "faults": {"name": "baseline"}}),
        (CampaignSpec, {**good, "arrivals": [3]}),
        (CampaignSpec, {**good, "arrivals": [{"name": 3}]}),
        (CampaignSpec, {**good, "arrivals": [{"nane": "a", "params": {}}]}),
        (CampaignSpec, {**good, "base": 3}),
        (CampaignSpec, {**good, "sed": 5}),  # a typo is not a default
        (CampaignSpec, {**good, "policies": [{"name": "p", "params": "x"}]}),
        (CampaignSpec, {**good, "seed": 1.7}),
        (CampaignSpec, {**good, "seed": True}),
        (CampaignSpec, {**good, "seed": "7"}),
        (AxisPoint, 3),
        (AxisPoint, None),
        (SearchSpec, None),
        (SearchSpec, {**search, "seed": 2.5}),
        (SearchSpec, {**search, "generations": True}),
        (SearchSpec, {**search, "population": 3.0}),
        (SearchSpec, {**search, "space": "cliff-smoke"}),
        (SearchSpec, {**search, "strategy": "random"}),
        (SearchSpec, {**search, "objective": ["goodput"]}),
        (ParamSpace, 7),
        (ParamSpace, {**space, "arrival": 3}),
        (ParamSpace, {**space, "ranges": "arrival.rate"}),
        (ParamSpace, {**space, "ranges": [3]}),
        (ParamSpace, {**space, "ranges": [{"path": "arrival.rate"}]}),
        # wrong-typed fields: the first four raised a bare ValueError or
        # TypeError, the rest loaded silently
        (ParamSpace, {**space, "ranges": [{**rate, "lo": "x"}]}),
        (SearchSpec, {**search, "objective": {"constraints": [{**floor, "weight": "x"}]}}),
        (SearchSpec, {**search, "strategy": {"kind": "evolutionary", "elites": "x"}}),
        (SearchSpec, {**search, "strategy": {"kind": "halving", "eta": "x"}}),
        (SearchSpec, {**search, "strategy": {"kind": "evolutionary", "elites": 2.5}}),
        (ParamSpace, {**space, "ranges": [{**rate, "log": "yes"}]}),
        (SearchSpec, {**search, "objective": {"constraints": [{**floor, "lo": "x"}]}}),
        (Evaluation, {"generation": 0, "assignment": {}, "cell_id": "c", "seed": 1, "score": "x"}),
        (CampaignSpec, {**good, "name": 7}),
        (CampaignSpec, {**good, "name": ["c"]}),
    ]
    for loader, doc in cases:
        with pytest.raises(CampaignError):
            loader.from_dict(doc)
            pytest.fail(f"{loader.__name__}.from_dict accepted {doc!r}")
    # the documents the bad ones were cut from do load
    assert CampaignSpec.from_dict(good).to_dict() == good
    assert SearchSpec.from_dict(search).to_dict() == search


def test_wire_format_is_versioned():
    doc = grid().to_dict()
    assert doc["version"] == SPEC_VERSION == 1
    # a future version is refused loudly, not misread
    doc["version"] = 99
    with pytest.raises(CampaignError, match="version 99"):
        CampaignSpec.from_dict(doc)
    # documents predating the version field read as version 1
    doc = grid().to_dict()
    del doc["version"]
    assert CampaignSpec.from_dict(doc).to_dict() == grid().to_dict()
