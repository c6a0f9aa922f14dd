"""Every decode entry point, as one property: no document ends the caller.

Each entry point below turns a document from outside the process into
objects through the shared field decoder (:mod:`repro.wire.fields`).
Fed anything — any JSON value, or one of its own writers' documents
with one value somewhere inside it replaced, one key dropped or one
added — it returns, or raises its own typed errors, and nothing else.
The per-site hostile tests (``test_visit_hostile``,
``test_unicore_failures``, ``test_campaign_*``, ``test_live_*``) stay:
they check what the serving world does afterwards.
"""

import copy
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wire_codec import json_like

from repro.campaign import AxisPoint, CampaignSpec, preset, search_preset
from repro.campaign.axes import build_schedule
from repro.campaign.search import (
    STRATEGIES,
    Constraint,
    Evaluation,
    Objective,
    SearchSpec,
    make_strategy,
)
from repro.campaign.space import ParamRange, ParamSpace
from repro.errors import (
    CampaignError,
    ChaosError,
    LiveError,
    ProtocolError,
    SteeringError,
    UnicoreError,
)
from repro.fleet.spec import ScenarioSpec
from repro.live.trace import Trace
from repro.steering import StatusReport, decode_message, encode_message
from repro.unicore import AbstractJobObject, ExecuteTask, StageIn
from repro.visit import DataSend, decode_visit, encode_visit
from repro.wire import decode, encode


def _ajo() -> dict:
    ajo = AbstractJobObject("j", "SITE")
    ajo.add_task(StageIn("in", "input.dat", b"data"))
    ajo.add_task(ExecuteTask("run", "APP", arguments={"n": 1}, wall_time=2.0), after=["in"])
    return ajo.to_wire()


def _faults(decls):
    return build_schedule(AxisPoint("f", {"faults": decls}), None, {}, 10.0)


def _trace_entries(spec_doc):
    return Trace(pathlib.Path("t.jsonl"), {}, arrivals=[{"sim": 0.0, "spec": spec_doc}]).entries()


_SEARCH = search_preset("cliff-smoke").to_dict()
_FAULTS = [
    {"kind": "link-degrade", "at": 1.0, "duration": 2.0, "a": "x", "b": "y", "latency_factor": 4.0},
    {"kind": "site-outage", "at": 1.0, "site": 0},
]

#: entry point -> (decode, one of its writers' documents, its typed errors).
#: Fault declarations and trace spec records also raise the error of the
#: class they build for its own range rules (a fault at t < 0, an
#: unknown sim kind); the campaign runner reports the former as a
#: CampaignError.
ENTRY_POINTS = {
    "visit-frame": (
        lambda doc: decode_visit(encode(doc)),
        decode(encode_visit(DataSend(3, [1.0, 2.0], seq=4))),
        ProtocolError,
    ),
    "steering-message": (
        decode_message,
        encode_message(StatusReport(5, 1.5, {"e": 1.0}, {"g": 2.0})),
        ProtocolError,
    ),
    "ajo": (AbstractJobObject.from_wire, _ajo(), UnicoreError),
    "campaign-spec": (CampaignSpec.from_dict, preset("smoke").to_dict(), CampaignError),
    "parameter-space": (ParamSpace.from_dict, _SEARCH["space"], CampaignError),
    "search-spec": (SearchSpec.from_dict, _SEARCH, CampaignError),
    "param-range": (ParamRange.from_dict, _SEARCH["space"]["ranges"][0], CampaignError),
    **{
        f"strategy-{kind}": (make_strategy, cls().to_dict(), CampaignError)
        for kind, cls in STRATEGIES.items()
    },
    "objective": (
        Objective.from_dict,
        Objective(constraints=(Constraint("sessions", lo=1.0),)).to_dict(),
        CampaignError,
    ),
    "constraint": (Constraint.from_dict, Constraint("m", lo=0.0, hi=2.0).to_dict(), CampaignError),
    "fault-declarations": (_faults, _FAULTS, (CampaignError, ChaosError)),
    "trace-spec-record": (
        _trace_entries,
        vars(ScenarioSpec(name="s", sim="building", participants=1, sim_args={"n": 1})),
        (LiveError, SteeringError),
    ),
    "evaluation": (
        Evaluation.from_dict,
        Evaluation(1, {"arrival.rate": 2.0}, "c@1", 7, 0.25).to_dict(),
        CampaignError,
    ),
}


@st.composite
def hostile(draw, good):
    """``good`` with one value somewhere inside it replaced by any JSON
    value, one key or item dropped, or one added; or any JSON value."""
    if draw(st.integers(0, 7)) == 0:
        return draw(json_like)
    doc = copy.deepcopy(good)
    holder, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node, key=str) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        holder, node = node, node[key]
        if draw(st.booleans()):
            break
    change = draw(st.sampled_from(["replace", "drop", "add"]))
    if holder is None:
        return draw(json_like)
    if change == "replace":
        holder[key] = draw(json_like)
    elif change == "drop":
        del holder[key]
    elif isinstance(holder, dict):
        holder[draw(st.text(max_size=8))] = draw(json_like)
    else:
        holder.append(draw(json_like))
    return doc


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_writers_documents_decode(entry):
    decode_doc, good, _ = ENTRY_POINTS[entry]
    decode_doc(copy.deepcopy(good))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_document_decodes_or_raises_the_entry_points_error(entry, data):
    decode_doc, good, errors = ENTRY_POINTS[entry]
    doc = data.draw(hostile(good), label="doc")
    try:
        decode_doc(doc)
    except errors:
        pass
