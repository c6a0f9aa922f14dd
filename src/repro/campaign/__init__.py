"""repro.campaign: scenario-matrix campaigns and adaptive searches.

The experiment engine that turns four independent subsystems into one
systematic sweep.  The testbed accumulated four orthogonal scenario
axes — workload suites (:mod:`repro.workloads` /
:mod:`repro.fleet.spec`), arrival processes (:mod:`repro.load`), fault
schedules (:mod:`repro.chaos`) and placement/autoscale policies — and
this package explores their **cross product** (the grid) and the
**continuum between the grid points** (the adaptive search):

* :mod:`repro.campaign.spec` — the declarative :class:`CampaignSpec`
  grid, with stable SHA-derived per-cell seeds so any cell reruns
  byte-identically in isolation;
* :mod:`repro.campaign.space` — the continuous counterpart: a
  :class:`ParamSpace` of :class:`ParamRange` dimensions over dotted
  parameter paths, lowering any assignment to the same seeded
  :class:`CellSpec` machinery the grid uses;
* :mod:`repro.campaign.search` — the seeded, resumable adaptive search:
  the :class:`SearchStrategy` protocol with one strategy, evolutionary
  (a spec naming another kind is refused), a scalar :class:`Objective`
  with :class:`Constraint` penalties, the :class:`SearchRunner` loop and
  the byte-deterministic :class:`SearchArchive` with frozen cliff-cell
  export;
* :mod:`repro.campaign.axes` — builders turning axis points into live
  suites, arrival processes, fault schedules and policies;
* :mod:`repro.campaign.runner` — :func:`run_cell` (one isolated world
  per cell), the :class:`CellExecutor` both loops share, and
  :class:`CampaignRunner` (inline reference execution, or supervised
  workers streaming completions into the store);
* :mod:`repro.campaign.supervise` — the :class:`Supervisor`: individually
  supervised worker processes with crash detection, per-cell wall-clock
  timeouts, seeded retry backoff, quarantine verdicts for poison cells,
  and graceful SIGTERM/SIGINT drain;
* :mod:`repro.campaign.store` — the resumable, atomically-written,
  fsync-durable JSONL :class:`ResultStore` (completed and quarantined
  cells are skipped on restart; headers carry grid and search specs
  alike);
* :mod:`repro.campaign.matrix` — :class:`MatrixReport`, merging
  per-cell fleet reports through the exact mergeable statistics into
  per-axis marginals and a goodput/latency pareto front;
* :mod:`repro.campaign.cli` — ``python -m repro.campaign``
  (run / resume / report / diff / search).

The quickest ways in::

    from repro.campaign import CampaignRunner, ResultStore, preset

    spec = preset("smoke")
    runner = CampaignRunner(spec, ResultStore("smoke.jsonl"), workers=4)
    matrix = runner.run()
    print(matrix.render())

    from repro.campaign import SearchRunner, search_preset

    spec = search_preset("cliff-smoke")
    runner = SearchRunner(spec, ResultStore("cliffs.jsonl"), workers=4)
    archive = runner.run()
    print(archive.render())
"""

from repro.campaign.matrix import MatrixReport
from repro.campaign.presets import (
    PRESETS,
    SEARCH_PRESETS,
    cliff_smoke,
    nightly,
    preset,
    search_preset,
    smoke,
)
from repro.campaign.runner import CampaignRunner, CellExecutor, run_cell
from repro.campaign.search import (
    Constraint,
    Evaluation,
    EvolutionaryStrategy,
    Objective,
    STRATEGIES,
    SearchArchive,
    SearchRunner,
    SearchSpec,
    SearchStrategy,
    make_strategy,
)
from repro.campaign.space import ParamRange, ParamSpace
from repro.campaign.spec import (
    AXES,
    AxisPoint,
    CampaignSpec,
    CellSpec,
    SPEC_VERSION,
    derive_seed,
)
from repro.campaign.store import ResultStore
from repro.campaign.supervise import Supervisor

__all__ = [
    "AXES",
    "AxisPoint",
    "CampaignSpec",
    "CampaignRunner",
    "CellExecutor",
    "CellSpec",
    "Constraint",
    "Evaluation",
    "EvolutionaryStrategy",
    "MatrixReport",
    "Objective",
    "PRESETS",
    "ParamRange",
    "ParamSpace",
    "ResultStore",
    "SEARCH_PRESETS",
    "SPEC_VERSION",
    "STRATEGIES",
    "SearchArchive",
    "SearchRunner",
    "SearchSpec",
    "SearchStrategy",
    "Supervisor",
    "cliff_smoke",
    "derive_seed",
    "make_strategy",
    "nightly",
    "preset",
    "run_cell",
    "search_preset",
    "smoke",
]
