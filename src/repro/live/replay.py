"""Deterministic replay: a recorded live trace as a campaign cell.

:func:`replay_trace` is the bridge's last span — it lifts a trace file
into the one-cell campaign :func:`repro.live.trace.trace_campaign`
describes and executes it through the standard
:class:`~repro.campaign.runner.CampaignRunner`, so the replay gets the
full campaign treatment for free: resumable result store, worker-pool
execution, :class:`~repro.campaign.matrix.MatrixReport` aggregation,
``python -m repro.campaign diff`` comparability.

Byte-identity is the contract: :func:`matrix_bytes` canonicalises a
report (the nondeterministic ``perf`` envelope is excluded by
``MatrixReport`` itself), and replaying the same trace twice — or with
one worker versus two — must produce equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile
from typing import Optional

from repro.campaign.matrix import MatrixReport
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.live.trace import trace_campaign


def matrix_bytes(matrix: MatrixReport) -> bytes:
    """The canonical byte form replay determinism is judged on."""
    return json.dumps(matrix.to_dict(), sort_keys=True, separators=(",", ":")).encode("utf-8")


def matrix_digest(matrix: MatrixReport) -> str:
    return hashlib.sha256(matrix_bytes(matrix)).hexdigest()


def replay_trace(
    trace_path: pathlib.Path | str,
    store_path: Optional[pathlib.Path | str] = None,
    workers: int = 1,
) -> MatrixReport:
    """Run a recorded trace as a fresh campaign cell.

    With ``store_path=None`` the cell record lands in a throwaway store
    (pure replay); give a path to keep the record for diffing against a
    later replay or a sibling configuration.
    """
    spec = trace_campaign(trace_path)
    if store_path is not None:
        runner = CampaignRunner(spec, ResultStore(store_path), workers=workers)
        return runner.run()
    with tempfile.TemporaryDirectory(prefix="repro-live-replay-") as tmp:
        store = ResultStore(pathlib.Path(tmp) / "replay.jsonl")
        runner = CampaignRunner(spec, store, workers=workers)
        return runner.run()
