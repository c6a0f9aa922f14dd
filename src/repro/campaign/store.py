"""The resumable campaign results store: one JSONL file per campaign.

Line 1 is a header record carrying the full :class:`CampaignSpec` (and
the store schema), every following line is one settled cell — either a
``"kind": "cell"`` success record or a ``"kind": "quarantine"`` record
written by the supervisor after a cell exhausted its retry budget.  The
invariants a long-running campaign leans on:

* **atomic** — the file is a :mod:`repro.util.journal`: the header is
  created by tmp + ``os.replace``, every record after it is one
  ``O_APPEND`` write of one complete line, so a killed run can never
  leave a half-written record *behind* a committed one;
* **durable** — the header's file and directory and then every appended
  record are fsynced before the call returns, so a *host* crash (power
  loss, kernel panic) cannot lose a record the runner already
  acknowledged.  Tests and benches that churn thousands of throwaway
  stores can opt out with ``fsync=False``;
* **resumable** — on restart the runner asks :meth:`settled_ids` and
  re-executes only the cells that are missing (per-cell seeds make the
  reruns byte-identical, so a resumed campaign equals an uninterrupted
  one).  Quarantined cells count as settled: a cell that deterministic-
  ally crashes the worker must not be re-attempted on every resume;
* **tolerant of its own death** — a truncated *trailing* line (a kill
  mid-``write``, a full disk, a torn copy) is dropped on load, surfaced
  via :attr:`dropped_lines`, cut off by the next append, and the cell
  simply reruns.  A corrupt line *before* intact ones is refused loudly:
  that is damage, not interruption.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError
from repro.util import journal
from repro.wire.fields import decode_fields

STORE_SCHEMA = "repro.campaign/store-v1"

#: record kinds accepted after the header line
RECORD_KINDS = ("cell", "quarantine")


@dataclass
class _Header:
    """Line 1, as :meth:`ResultStore.ensure_header` writes it."""

    kind: str
    schema: str
    campaign: str
    seed: int
    spec: dict


class ResultStore:
    """Append-only JSONL store for one campaign's cell records."""

    def __init__(self, path: pathlib.Path | str, fsync: bool = True) -> None:
        self.path = pathlib.Path(path)
        #: durability switch — leave on everywhere except throwaway
        #: test/bench stores (fsync per append costs ~a few ms on disk)
        self.fsync = bool(fsync)
        self._header: Optional[dict] = None
        #: settled records by kind, each in append order — split as they
        #: arrive so no reader scans the other kind
        self._records: dict[str, list[dict]] = {kind: [] for kind in RECORD_KINDS}
        #: cell ids of :attr:`_records`, kept beside it so the duplicate
        #: check costs the same at any store size
        self._settled: set = set()
        #: unparsable trailing lines discarded on load (0 or 1 normally)
        self.dropped_lines = 0
        if self.path.exists():
            self._load()

    # -- loading -------------------------------------------------------------

    def _load(self) -> None:
        loaded = journal.load(self.path, CampaignError)
        self.dropped_lines = loaded.dropped_lines
        if not loaded.records:
            return
        head, *cells = loaded.records
        header = decode_fields(_Header, head, CampaignError, f"{self.path}: header")
        if header.kind != "header" or header.schema != STORE_SCHEMA:
            raise CampaignError(f"{self.path}: first record is not a {STORE_SCHEMA} header")
        for rec in cells:
            if rec.get("kind") not in RECORD_KINDS:
                raise CampaignError(
                    f"{self.path}: record after the header is neither a cell nor a quarantine"
                )
            self._check(rec, rec["kind"])
            self._settle(rec)
        self._header = head

    # -- writing -------------------------------------------------------------

    def _check(self, record: dict, kind: str) -> None:
        """Refuse a record that is not of this kind or settles a cell twice."""
        if record.get("kind") != kind or not isinstance(record.get("cell_id"), str):
            raise CampaignError(f"{kind} records need kind={kind!r} and a string cell_id")
        if record["cell_id"] in self._settled:
            raise CampaignError(f"{self.path}: duplicate record for cell {record['cell_id']!r}")

    def _settle(self, record: dict) -> None:
        self._records[record["kind"]].append(record)
        self._settled.add(record["cell_id"])

    def ensure_header(self, spec) -> None:
        """Write the header on first use; on resume, verify the stored
        campaign is the one being run (name + seed + full spec).

        Accepts anything spec-shaped (``name`` / ``seed`` /
        ``to_dict()``) — grid :class:`CampaignSpec` and search
        ``SearchSpec`` headers share one store format.
        """
        doc = {
            "kind": "header",
            "schema": STORE_SCHEMA,
            "campaign": spec.name,
            "seed": spec.seed,
            "spec": spec.to_dict(),
        }
        if self._header is None:
            journal.create(self.path, doc, fsync=self.fsync)
            self._header = doc
            return
        if self._header["spec"] != doc["spec"]:
            raise CampaignError(
                f"{self.path} already holds campaign "
                f"{self._header['campaign']!r} (seed "
                f"{self._header['seed']}); refusing to mix results "
                f"with {spec.name!r} (seed {spec.seed}) — use a fresh "
                "store path or matching spec"
            )

    def _append(self, record: dict, kind: str) -> None:
        if self._header is None:
            raise CampaignError(
                f"{self.path}: store has no header; call ensure_header "
                "before appending cells"
            )
        self._check(record, kind)
        journal.append(self.path, record, fsync=self.fsync)
        self._settle(record)

    def append(self, record: dict) -> None:
        """Persist one completed cell (atomically, immediately)."""
        self._append(record, "cell")

    def append_quarantine(self, record: dict) -> None:
        """Persist a quarantine verdict: this cell exhausted its retry
        budget and must not be re-attempted on resume."""
        self._append(record, "quarantine")

    # -- reading -------------------------------------------------------------

    def spec(self):
        """Rebuild the spec a store was recorded under.

        Returns a :class:`CampaignSpec` for grid stores and a
        :class:`~repro.campaign.search.SearchSpec` for search stores
        (dispatched on the embedded document's schema), so ``resume``
        needs nothing but the store path either way.
        """
        if self._header is None:
            raise CampaignError(f"{self.path}: store has no header yet")
        doc = self._header["spec"]
        if doc.get("schema") == "repro.campaign/search-v1":
            # deferred import: search builds on the store, not vice versa
            from repro.campaign.search import SearchSpec

            return SearchSpec.from_dict(doc)
        return CampaignSpec.from_dict(doc)

    def cell_records(self) -> list[dict]:
        return list(self._records["cell"])

    def quarantine_records(self) -> list[dict]:
        return list(self._records["quarantine"])

    def quarantined_ids(self) -> set:
        """Ids of cells the supervisor gave up on (known poison)."""
        return {rec["cell_id"] for rec in self._records["quarantine"]}

    def settled_ids(self) -> set:
        """Everything resume must skip: completed ∪ quarantined."""
        return set(self._settled)

    def __len__(self) -> int:
        return len(self._records["cell"])
