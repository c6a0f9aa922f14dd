"""The campaign loaders outside the journal, fuzzed: a search archive and
the grid and search ``--spec`` files.

Each is one JSON document read whole.  Torn, doubled, reordered,
oversized, wrong-version or value-swapped, it loads or raises a typed
:class:`~repro.errors.ReproError`; ``python -m repro.campaign search
report --archive`` exits 0 or 2, never 1 with a traceback.
"""

import argparse
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_decode_entry_points import hostile

from repro.campaign import CampaignSpec, preset, search_preset
from repro.campaign.cli import _load_spec
from repro.campaign.cli import main as cli_main
from repro.campaign.search import Evaluation, SearchArchive, SearchSpec
from repro.errors import ReproError

_SEARCH = search_preset("cliff-smoke")


def _archive() -> dict:
    rng = random.Random(5)
    evaluations = [
        Evaluation(
            generation,
            _SEARCH.space.clamp({r.path: rng.uniform(r.lo, r.hi) for r in _SEARCH.space.ranges}),
            f"cell-{generation}-{i}",
            rng.randrange(2**32),
            rng.random(),
            quarantined=i == 2,
        )
        for generation in range(_SEARCH.generations)
        for i in range(_SEARCH.population)
    ]
    return SearchArchive(_SEARCH, evaluations).to_dict()


#: loader -> (its writer's document, a call that loads a file of it)
LOADERS = {
    "search-archive": (_archive(), lambda path: SearchArchive.load(path).render(top=3)),
    "grid-spec": (
        preset("smoke").to_dict(),
        lambda path: _load_spec(argparse.Namespace(spec=path, seed=None), CampaignSpec, None),
    ),
    "search-spec": (
        _SEARCH.to_dict(),
        lambda path: _load_spec(argparse.Namespace(spec=path, seed=None), SearchSpec, None),
    ),
}


def _reordered(doc, rng):
    """Every object's keys and every list's items shuffled."""
    if isinstance(doc, dict):
        items = list(doc.items())
        rng.shuffle(items)
        return {key: _reordered(value, rng) for key, value in items}
    if isinstance(doc, list):
        items = [_reordered(value, rng) for value in doc]
        rng.shuffle(items)
        return items
    return doc


def _text(doc) -> str:
    return json.dumps(doc, indent=1, default=lambda b: b.decode("latin-1"))


@st.composite
def damaged(draw, good):
    """The text of ``good``, damaged one way."""
    text = _text(good)
    kind = draw(st.sampled_from(
        ["torn", "doubled", "doubled-key", "reordered", "oversized", "version", "value"]
    ))
    if kind == "torn":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "doubled":
        return text + text
    if kind == "doubled-key":  # JSON keeps the last of two equal keys
        key = draw(st.sampled_from(sorted(good)))
        return text.replace("{", "{" + json.dumps(key) + ": " + draw(st.sampled_from(
            ["null", "7", '"x"', "[]", "{}"])) + ",", 1)
    if kind == "reordered":
        return _text(_reordered(good, random.Random(draw(st.integers(0, 2**16)))))
    if kind == "oversized":
        return draw(st.sampled_from([
            text.replace('"', '"' + "x" * 100_000, 1),
            "[" * 100_000 + "]" * 100_000,
            text.replace("{", '{"n": ' + "9" * 5000 + ",", 1),
            text.replace("{", '{"n": 1e400,', 1),
            text + "\udcff",  # written as the byte 0xff: not UTF-8
        ]))
    if kind == "version":
        doc = dict(good)
        doc[draw(st.sampled_from(["version", "schema"]))] = draw(
            st.sampled_from([0, 2, "1", None, "repro.campaign/other-v1"])
        )
        return _text(doc)
    return _text(draw(hostile(good)))


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_writers_file_loads(loader, tmp_path):
    good, load = LOADERS[loader]
    path = tmp_path / "doc.json"
    path.write_text(_text(good))
    load(str(path))


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_damaged_file_loads_or_raises_a_typed_error(loader, data, tmp_path_factory):
    good, load = LOADERS[loader]
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(data.draw(damaged(good), label="text").encode("utf-8", "surrogateescape"))
    try:
        load(str(path))
    except ReproError:
        pass


#: archive damage ``search report`` used to meet with a traceback and exit
#: 1: a bare KeyError, an IndexError past the last generation, a ValueError
#: formatting a value that is not a number
ARCHIVE_DAMAGE = {
    "no-search": (lambda doc: doc.pop("search"), "missing required field 'search'"),
    "generations-reversed": (
        lambda doc: doc["evaluations"].reverse(), "not in generation order"
    ),
    "assignment-a-string": (
        lambda doc: doc["evaluations"][0]["assignment"].update({"arrival.rate": "x"}),
        "values must be finite numbers",
    ),
}


@pytest.mark.parametrize("damage", ARCHIVE_DAMAGE.values(), ids=ARCHIVE_DAMAGE.keys())
def test_report_on_a_damaged_archive_exits_2(damage, tmp_path, capsys):
    damage_doc, error = damage
    doc = _archive()
    damage_doc(doc)
    path = tmp_path / "archive.json"
    path.write_text(_text(doc))
    assert cli_main(["search", "report", "--archive", str(path)]) == 2
    assert error in capsys.readouterr().err
