"""Seeded, resumable adaptive search over a continuous scenario space.

The fixed nightly grid samples a cross product; the interesting regime
— collaborative steering surviving hostile grid weather — lives on the
*cliffs between* cells.  This module drives a seeded search loop over a
:class:`~repro.campaign.space.ParamSpace`: each **generation** a
pluggable :class:`SearchStrategy` proposes a population of assignments,
every fresh proposal lowers to a :class:`CellSpec` and executes through
the ordinary :class:`~repro.campaign.runner.CellExecutor` (inline or
supervised — adversarial cells *will* crash and hang workers), and an
:class:`Objective` scores the settled records into the history the next
generation feeds on.

Determinism and resumability are one mechanism:

* the proposal sequence is a **pure function** of the search seed and
  the history — generation *g* draws from
  ``random.Random(derive_seed(seed, "search-gen", g))``, never from RNG
  state carried across generations — so it is independent of worker
  count, completion order, and how many times the process died;
* the :class:`~repro.campaign.store.ResultStore` is the only mutable
  state.  :meth:`SearchRunner.run` *is* the resume path: it replays the
  strategy from generation 0, skips every settled cell, and executes
  only what is missing — a search killed mid-generation converges to
  the byte-identical final archive;
* quarantined cells are scored :data:`WORST_SCORE` (a finite, JSON-safe
  pessimum, so the search steers away from cells that kill workers
  rather than farming them) and are never re-executed *or* re-proposed;
* the :class:`SearchArchive` is the canonical artifact: every proposal
  in order, scores, and the embedded search spec, serialised with
  sorted keys and no wall-clock vitals — two same-seed searches write
  byte-identical archives, and :meth:`SearchArchive.export` freezes the
  top cliff cells as single-cell ``CampaignSpec`` fragments that replay
  byte-identically through ``python -m repro.campaign run``.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Protocol, Sequence, runtime_checkable

from repro.campaign.matrix import cell_row
from repro.campaign.runner import CellExecutor
from repro.campaign.supervise import zero_stats
from repro.campaign.space import ParamSpace, assignment_digest
from repro.campaign.spec import (
    SPEC_VERSION,
    CellSpec,
    derive_seed,
    from_fields,
    read_document,
    to_fields,
)
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.util import journal
from repro.wire.fields import check_fields, decode_tagged

SEARCH_SCHEMA = "repro.campaign/search-v1"
ARCHIVE_SCHEMA = "repro.campaign/search-archive-v1"
CLIFFS_SCHEMA = "repro.campaign/cliffs-v1"

#: the loss assigned to quarantined proposals: finite (JSON round-trips
#: exactly), far worse than any real objective, so the search avoids
#: cells that crash or hang workers instead of farming them
WORST_SCORE = 1.0e9


# -- objective ---------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """A soft bound on one cell metric, folded into the scalar loss.

    Whenever the metric leaves ``[lo, hi]`` the excess (scaled by
    ``weight``) is added to the loss, steering the search away from
    degenerate corners — e.g. ``Constraint("sessions", lo=4)`` stops an
    adversarial goodput hunt from simply proposing arrival rates that
    offer no load at all.
    """

    metric: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    weight: float = 100.0

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise CampaignError(
                f"constraint on {self.metric!r} needs lo and/or hi"
            )
        if self.weight <= 0:
            raise CampaignError(
                f"constraint on {self.metric!r}: weight must be > 0"
            )
        # to_dict() is byte-stable however the weight was spelled
        object.__setattr__(self, "weight", float(self.weight))

    def penalty(self, row: dict) -> float:
        value = row.get(self.metric)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return 0.0
        excess = 0.0
        if self.lo is not None and value < self.lo:
            excess = self.lo - value
        elif self.hi is not None and value > self.hi:
            excess = value - self.hi
        return self.weight * excess

    to_dict = to_fields
    from_dict = classmethod(from_fields)


@dataclass(frozen=True)
class Objective:
    """A scalar loss over one cell summary row; the search *minimizes*.

    ``metric`` names any :func:`~repro.campaign.matrix.cell_row` column
    (``goodput``, ``steer_p90_ms``, ``violations`` ...); ``goal="min"``
    hunts cells where the metric is low (the default — minimizing
    goodput finds the SLO cliffs), ``goal="max"`` hunts high values
    (maximizing ``violations`` hunts invariant near-misses).
    Constraints add soft penalties on top of the scalar.
    """

    metric: str = "goodput"
    goal: str = "min"
    constraints: tuple = ()

    def __post_init__(self) -> None:
        if self.goal not in ("min", "max"):
            raise CampaignError(
                f"objective goal must be 'min' or 'max', got {self.goal!r}"
            )
        if not isinstance(self.constraints, (list, tuple)):
            raise CampaignError(f"objective constraints must be a list, got {self.constraints!r}")
        object.__setattr__(self, "constraints", tuple(
            c if isinstance(c, Constraint) else Constraint.from_dict(c)
            for c in self.constraints
        ))

    def score(self, row: dict) -> float:
        """Loss of one completed cell row (lower = more interesting)."""
        try:
            value = row[self.metric]
        except KeyError:
            raise CampaignError(
                f"objective metric {self.metric!r} is not a cell-row "
                f"metric (have: {sorted(row)})"
            ) from None
        if isinstance(value, float) and math.isnan(value):
            # A NaN metric (e.g. steer p90 of a cell that steered
            # nothing) carries no signal — score it as uninteresting.
            return WORST_SCORE
        loss = float(value) if self.goal == "min" else -float(value)
        for constraint in self.constraints:
            loss += constraint.penalty(row)
        return loss

    to_dict = to_fields
    from_dict = classmethod(from_fields)


# -- evaluations -------------------------------------------------------------


@dataclass(frozen=True)
class Evaluation:
    """One scored proposal: the assignment, its lowered cell, its loss."""

    generation: int
    assignment: dict
    cell_id: str
    seed: int
    score: float
    quarantined: bool = False

    to_dict = to_fields
    from_dict = classmethod(from_fields)


# -- strategies --------------------------------------------------------------


@runtime_checkable
class SearchStrategy(Protocol):
    """A pure proposal function: (space, history, rng, count) -> batch.

    Strategies hold **no mutable state** — everything they know comes
    from the history — which is exactly what makes a killed search
    resumable by replay.  ``rng`` is a fresh per-generation
    ``random.Random``; drawing from anything else breaks determinism.
    """

    kind: ClassVar[str]

    def propose(
        self,
        space: ParamSpace,
        history: Sequence[Evaluation],
        rng: random.Random,
        count: int,
    ) -> list[dict]: ...

    def to_dict(self) -> dict: ...


def _ranked(evaluations) -> list[Evaluation]:
    """The non-quarantined evaluations, lowest loss first (ties broken
    by cell id, so every selection built on this is deterministic)."""
    return sorted(
        (ev for ev in evaluations if not ev.quarantined),
        key=lambda ev: (ev.score, ev.cell_id),
    )


def _avoid_quarantined(
    space: ParamSpace,
    history: Sequence[Evaluation],
    rng: random.Random,
    proposals: list[dict],
) -> list[dict]:
    """Replace any proposal that matches a known-poison assignment.

    Quarantined cells are never re-proposed: a fresh uniform sample
    takes the slot (one redraw virtually always clears a continuous
    space; the retry bound keeps a pathological all-poison space from
    looping forever).
    """
    poison = {
        assignment_digest(ev.assignment) for ev in history if ev.quarantined
    }
    if not poison:
        return proposals
    out = []
    for assignment in proposals:
        for _ in range(16):
            if assignment_digest(assignment) not in poison:
                break
            assignment = space.sample(rng)
        out.append(assignment)
    return out


@dataclass(frozen=True)
class EvolutionaryStrategy:
    """Elite selection + per-dimension crossover + gaussian mutation.

    Parents are the ``elites`` best non-quarantined evaluations so far.
    Each child
    inherits every dimension from one of two parents (crossover) and
    takes a gaussian step sized to the range span (mutation); a
    ``immigrant_rate`` fraction of each generation is fresh uniform
    blood so the population can escape a local cliff.
    """

    kind: ClassVar[str] = "evolutionary"
    elites: int = 4
    mutation_scale: float = 0.15
    crossover_rate: float = 0.5
    immigrant_rate: float = 0.25

    def __post_init__(self) -> None:
        if self.elites < 1:
            raise CampaignError("evolutionary strategy needs >= 1 elite")
        if self.mutation_scale <= 0:
            raise CampaignError("mutation_scale must be > 0")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise CampaignError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.immigrant_rate <= 1.0:
            raise CampaignError("immigrant_rate must be in [0, 1]")

    def propose(self, space, history, rng, count) -> list[dict]:
        parents = _ranked(history)[: self.elites]
        proposals = []
        for _ in range(count):
            if not parents or rng.random() < self.immigrant_rate:
                proposals.append(space.sample(rng))
                continue
            p1 = rng.choice(parents).assignment
            p2 = rng.choice(parents).assignment
            child = {}
            for r in space.ranges:
                donor = p1 if rng.random() >= self.crossover_rate else p2
                value = donor.get(r.path)
                if value is None:
                    child[r.path] = r.sample(rng)
                else:
                    child[r.path] = r.mutate(value, rng, self.mutation_scale)
            proposals.append(child)
        return _avoid_quarantined(space, history, rng, proposals)

    to_dict = to_fields


#: strategy kind -> class, the wire-format registry
STRATEGIES = {EvolutionaryStrategy.kind: EvolutionaryStrategy}


def make_strategy(doc) -> SearchStrategy:
    """Build a strategy from its wire form (``{"kind": ..., **params}``)."""
    if isinstance(doc, SearchStrategy):
        return doc
    return decode_tagged(STRATEGIES, doc, "kind", CampaignError, "search strategy")


# -- the search spec ---------------------------------------------------------


@dataclass
class SearchSpec:
    """The declarative search: space + strategy + objective + budget.

    Fills the same role for a search that :class:`CampaignSpec` fills
    for a grid — and the :class:`~repro.campaign.store.ResultStore`
    header carries it verbatim, so ``search resume`` needs nothing but
    the store path.
    """

    name: str
    space: ParamSpace
    strategy: object
    objective: Objective = field(default_factory=Objective)
    generations: int = 4
    population: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, CampaignError, "search spec")
        if not self.name:
            raise CampaignError("search needs a name")
        if not isinstance(self.space, ParamSpace):
            self.space = ParamSpace.from_dict(self.space)
        self.strategy = make_strategy(self.strategy)
        if not isinstance(self.objective, Objective):
            self.objective = Objective.from_dict(self.objective)
        if self.generations < 1:
            raise CampaignError("search needs >= 1 generation")
        if self.population < 1:
            raise CampaignError("search needs population >= 1")

    def cell_for(self, assignment: dict) -> CellSpec:
        """Lower one assignment to its concrete, seeded cell."""
        return self.space.lower(assignment, seed=self.seed, name=self.name)

    def cliff_spec(self, assignment: dict, name: str):
        """Freeze one assignment as a single-cell grid CampaignSpec."""
        return self.space.lower_spec(assignment, seed=self.seed, name=name)

    def to_dict(self) -> dict:
        return to_fields(self, SEARCH_SCHEMA)

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchSpec":
        return from_fields(cls, doc, "search spec", SEARCH_SCHEMA)


# -- the archive -------------------------------------------------------------


def default_archive_path(store_path) -> pathlib.Path:
    """``foo.jsonl`` -> ``foo.archive.json`` next to the store."""
    store_path = pathlib.Path(store_path)
    return store_path.with_name(store_path.stem + ".archive.json")


@dataclass
class _ArchiveDoc:
    """An archive file, as :meth:`SearchArchive.to_dict` writes it;
    ``generations`` and ``best`` are derived again on load."""

    search: dict
    evaluations: list = field(default_factory=list)
    generations: int = 0
    best: Optional[dict] = None


class SearchArchive:
    """The canonical record of a search: every proposal, in order.

    Layered on the :class:`ResultStore` (which holds the raw cell
    records and quarantine verdicts), the archive is the
    **deterministic view**: proposal order, assignments, scores — no
    wall-clock vitals, sorted keys — so two same-seed runs write
    byte-identical archive files regardless of worker count or how
    often they were killed and resumed.
    """

    def __init__(
        self, spec: SearchSpec, evaluations: Sequence[Evaluation] = ()
    ) -> None:
        self.spec = spec
        self.evaluations = list(evaluations)

    @property
    def generations(self) -> int:
        return (
            self.evaluations[-1].generation + 1 if self.evaluations else 0
        )

    def best(self, top: int = 1) -> list[Evaluation]:
        """The ``top`` lowest-loss non-quarantined evaluations, deduped
        by cell (a re-proposed assignment appears once)."""
        seen = set()
        out = []
        for ev in _ranked(self.evaluations):
            if ev.cell_id in seen:
                continue
            seen.add(ev.cell_id)
            out.append(ev)
            if len(out) >= top:
                break
        return out

    @property
    def quarantined(self) -> int:
        """How many proposals the supervisor gave up on."""
        return sum(1 for ev in self.evaluations if ev.quarantined)

    def by_generation(self) -> list[list[Evaluation]]:
        gens: list[list[Evaluation]] = [[] for _ in range(self.generations)]
        for ev in self.evaluations:
            gens[ev.generation].append(ev)
        return gens

    def to_dict(self) -> dict:
        best = self.best(1)
        return {
            "schema": ARCHIVE_SCHEMA,
            "version": SPEC_VERSION,
            "search": self.spec.to_dict(),
            "generations": self.generations,
            "evaluations": [ev.to_dict() for ev in self.evaluations],
            "best": best[0].to_dict() if best else None,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def write(self, path) -> pathlib.Path:
        """Atomically (:func:`~repro.util.journal.replace`) persist the archive."""
        return journal.replace(path, self.dumps())

    @classmethod
    def load(cls, path) -> "SearchArchive":
        doc = read_document(path, "search archive")
        if not isinstance(doc, dict) or doc.get("schema") != ARCHIVE_SCHEMA:
            raise CampaignError(f"{path}: not a {ARCHIVE_SCHEMA} document")
        doc = from_fields(_ArchiveDoc, doc, f"{path}: search archive", ARCHIVE_SCHEMA)
        evaluations = [Evaluation.from_dict(ev) for ev in doc.evaluations]
        gens = [ev.generation for ev in evaluations]
        if any(later < earlier for earlier, later in zip([0, *gens], gens)):
            raise CampaignError(f"{path}: evaluations are not in generation order from 0")
        spec = SearchSpec.from_dict(doc.search)
        for ev in evaluations:
            spec.space.clamp(ev.assignment)  # finite numbers, as proposals are
        return cls(spec, evaluations)

    # -- cliff export --------------------------------------------------------

    def export(self, top: int = 3) -> dict:
        """Freeze the best cells as replayable grid-spec fragments.

        Each entry carries the assignment *and* a complete single-cell
        :class:`CampaignSpec` document — ``python -m repro.campaign run
        --spec <fragment>`` replays the discovered cell byte-identically
        (same cell id, same derived seed), which is what lets confirmed
        cliffs join the fixed nightly grid as regression scenarios.
        """
        if top < 1:
            raise CampaignError("export needs top >= 1")
        cells = []
        for rank, ev in enumerate(self.best(top), start=1):
            spec = self.spec.cliff_spec(
                ev.assignment, name=f"{self.spec.name}-cliff-{rank}"
            )
            cells.append({
                "rank": rank,
                "cell_id": ev.cell_id,
                "seed": ev.seed,
                "score": ev.score,
                "generation": ev.generation,
                "assignment": dict(ev.assignment),
                "spec": spec.to_dict(),
            })
        return {
            "schema": CLIFFS_SCHEMA,
            "version": SPEC_VERSION,
            "search": self.spec.name,
            "seed": self.spec.seed,
            "objective": self.spec.objective.to_dict(),
            "cells": cells,
        }

    def render(self, top: int = 5) -> str:
        """A text summary for the CLI."""
        lines = [
            f"search {self.spec.name!r} seed {self.spec.seed}: "
            f"{self.generations}/{self.spec.generations} generations, "
            f"{len(self.evaluations)} evaluations "
            f"({self.quarantined} quarantined), strategy {self.spec.strategy.kind}, "
            f"objective {self.spec.objective.goal} "
            f"{self.spec.objective.metric}"
        ]
        for gen in self.by_generation():
            if not gen:
                continue
            best = min(ev.score for ev in gen)
            lines.append(
                f"  gen {gen[0].generation}: {len(gen)} proposals, "
                f"best {best:g}"
            )
        top_evs = self.best(top)
        if top_evs:
            lines.append(f"top {len(top_evs)} cell(s):")
            for ev in top_evs:
                knobs = ", ".join(
                    f"{path.split('.')[-1]}={value:g}"
                    for path, value in sorted(ev.assignment.items())
                )
                lines.append(
                    f"  {ev.score:>10g}  gen {ev.generation}  "
                    f"{ev.cell_id}  [{knobs}]"
                )
        return "\n".join(lines)


# -- the runner --------------------------------------------------------------


class SearchRunner(CellExecutor):
    """Drive a search to its generation budget, resumably.

    The loop per generation: derive the generation RNG, ask the
    strategy for proposals, lower them to cells, execute the not-yet-
    settled ones (it is a :class:`CellExecutor`, inline or supervised
    as its keywords say), score everything in
    **proposal order** from the store, append to the history, rewrite
    the archive.  Because every step is a pure function of (seed,
    store), calling :meth:`run` on a half-finished store *is* resume —
    generations whose cells are all settled replay instantly without
    executing anything.
    """

    def __init__(
        self, spec: SearchSpec, store: ResultStore, archive_path=None, **execution
    ) -> None:
        super().__init__(store, **execution)
        self.spec = spec
        self.archive_path = pathlib.Path(
            archive_path if archive_path is not None
            else default_archive_path(store.path)
        )
        metrics = self.metrics
        self._m_generations = metrics.counter(
            "campaign_search_generations_total",
            "search generations settled",
        )
        self._m_evaluations = metrics.counter(
            "campaign_search_evaluations_total",
            "proposals scored (fresh or replayed)",
        )
        self._m_best = metrics.gauge(
            "campaign_search_best_objective",
            "lowest loss seen so far",
        )

    def run(
        self,
        progress: Optional[Callable[[dict], None]] = None,
        on_generation: Optional[Callable[[dict], None]] = None,
    ) -> SearchArchive:
        """Run (or resume) the search; returns the final archive.

        Raises :class:`KeyboardInterrupt` after a signal-initiated
        drain, exactly like the grid runner — the store is consistent
        and the archive holds every fully-settled generation, so the
        caller simply reruns to resume.
        """
        self.store.ensure_header(self.spec)
        spec = self.spec
        space, strategy, objective = spec.space, spec.strategy, spec.objective
        history: list[Evaluation] = []
        self.stats = zero_stats()
        self.executed = []
        best = math.inf
        for generation in range(spec.generations):
            rng = random.Random(
                derive_seed(spec.seed, "search-gen", generation)
            )
            proposals = strategy.propose(
                space, tuple(history), rng, spec.population
            )
            if not proposals:
                raise CampaignError(
                    f"strategy {strategy.kind!r} proposed nothing for "
                    f"generation {generation}"
                )
            proposals = [space.clamp(a) for a in proposals]
            cells = [spec.cell_for(a) for a in proposals]
            settled = self.store.settled_ids()
            todo, seen = [], set()
            for cell in cells:
                if cell.cell_id in settled or cell.cell_id in seen:
                    continue
                seen.add(cell.cell_id)
                todo.append(cell)
            if todo:
                stats = self.execute(todo, progress=progress)
                for key, value in stats.items():
                    self.stats[key] += value
                self.executed.extend(cell.cell_id for cell in todo)
            by_id = {
                rec["cell_id"]: rec for rec in self.store.cell_records()
            }
            quarantined = self.store.quarantined_ids()
            gen_best = math.inf
            for assignment, cell in zip(proposals, cells):
                if cell.cell_id in quarantined:
                    score, poisoned = WORST_SCORE, True
                else:
                    record = by_id.get(cell.cell_id)
                    if record is None:
                        raise CampaignError(
                            f"cell {cell.cell_id!r} has no record after "
                            "execution — store and search are out of sync"
                        )
                    score, poisoned = objective.score(cell_row(record)), False
                history.append(Evaluation(
                    generation=generation,
                    assignment=assignment,
                    cell_id=cell.cell_id,
                    seed=cell.seed,
                    score=score,
                    quarantined=poisoned,
                ))
                gen_best = min(gen_best, score)
            best = min(best, gen_best)
            self._m_generations.inc()
            self._m_evaluations.inc(len(proposals))
            self._m_best.set(best)
            archive = SearchArchive(spec, history)
            archive.write(self.archive_path)
            if on_generation is not None:
                on_generation({
                    "generation": generation,
                    "proposed": len(proposals),
                    "executed": len(todo),
                    "best": gen_best,
                    "best_so_far": best,
                })
        return SearchArchive(spec, history)
