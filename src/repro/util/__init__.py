"""Small shared utilities: id generation, statistics, and the
append-only JSONL journal (:mod:`repro.util.journal`)."""

from repro.util.ids import IdAllocator
from repro.util.stats import (
    P2Quantile,
    ReservoirSample,
    RunningStats,
    percentile,
)

__all__ = [
    "IdAllocator",
    "RunningStats",
    "P2Quantile",
    "ReservoirSample",
    "percentile",
]
