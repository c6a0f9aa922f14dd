"""Pinning: what the byte-pinned tables and goldens under ``tests/golden/`` share.

A pinned golden names the python and numpy it was recorded on, its
*fingerprint*.  There its comparison is exact; on any other environment
the reading test is skipped, the skip naming the recorded fingerprint
(seeded numerics can move with numpy's reductions, and with them
message sizes, timing and every figure downstream).

A *table* is a registry of rows.  A row is a function that builds its
scenario, asserts its thresholds — on every environment — and returns
only deterministic figures.  The figures are compared as canonical JSON
text with the table's golden, and DESIGN.md renders the golden, one
line per row.  ``tests/test_paper_table.py`` pins the paper's claims
this way, ``tests/test_behaviour_table.py`` the fabric's behaviour
under load and faults.

This module is not collected (no ``test_`` prefix); tests import it as
``from pinned import ...``, the way ``reference_runner`` is imported.
"""

import json
import pathlib
import platform
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

DESIGN = pathlib.Path(__file__).parent.parent / "DESIGN.md"


def fingerprint() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def canon(figures) -> str:
    """Canonical JSON text of a row's figures; keys sorted after the JSON
    round trip, so int keys compare as the strings the golden holds."""
    plain = json.loads(json.dumps(figures, default=lambda x: x.item()))
    return json.dumps(plain, sort_keys=True)


def golden_or_skip(path: pathlib.Path, what: str) -> dict:
    """The golden at ``path``; skips the calling test unless this
    environment matches the fingerprint it was recorded on."""
    golden = json.loads(path.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip(f"{what} pinned on {golden['fingerprint']}")
    return golden


def write_golden(path: pathlib.Path, comment: str, key: str, value) -> dict:
    """Re-record: ``{comment, fingerprint, key: value}`` written to ``path``."""
    doc = {"comment": comment, "fingerprint": fingerprint(), key: value}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return doc


class Row(NamedTuple):
    run: Callable[[], dict]
    where: str
    quantity: str
    claim: str
    pinned: tuple


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_fmt, value)) + "]"
    if isinstance(value, dict):
        return ", ".join(f"{key} {_fmt(v)}" for key, v in value.items())
    return str(value)


class Table:
    """Rows pinned in one golden; ``where`` heads DESIGN.md's second column
    (the paper section of a claim, the world of a behaviour)."""

    def __init__(self, golden: pathlib.Path, where: str) -> None:
        self.golden = golden
        self.where = where
        self.rows: dict[str, Row] = {}

    def row(self, name, where, quantity, claim, *pinned):
        """Register a row: where it comes from, the measured quantity, the
        asserted expectation, and which figures DESIGN.md shows."""

        def register(fn):
            self.rows[name] = Row(fn, where, quantity, claim, pinned)
            return fn

        return register

    def check(self, name: str) -> None:
        """Run row ``name`` — its assertions hold on every environment —
        then compare its figures with the golden's, where that applies."""
        figures = self.rows[name].run()
        golden = golden_or_skip(self.golden, "claim holds; figures")
        assert canon(figures) == canon(golden["rows"][name])

    def check_design(self, names: Optional[list] = None) -> None:
        """DESIGN.md carries the golden's table (all rows, or ``names``)."""
        golden = json.loads(self.golden.read_text())
        assert list(golden["rows"]) == list(self.rows)
        assert self.design_section(golden, names) in DESIGN.read_text()

    def design_section(self, golden, names: Optional[list] = None) -> str:
        """DESIGN.md's table: one line per row (all, or ``names``), from
        the golden's figures."""
        lines = [f"| row | {self.where} | quantity | asserted | pinned |",
                 "| --- | --- | --- | --- | --- |"]
        for name in self.rows if names is None else names:
            r, figures = self.rows[name], golden["rows"][name]
            pinned = "; ".join(f"{key} = {_fmt(figures[key])}" for key in r.pinned)
            lines.append(f"| {name} | {r.where} | {r.quantity} | {r.claim} | {pinned} |")
        return "\n".join(lines) + "\n"

    def record(self, comment: str) -> dict:
        """Re-record: run every row and write the figures to the golden."""
        rows = {name: json.loads(canon(r.run())) for name, r in self.rows.items()}
        return write_golden(self.golden, comment, "rows", rows)
