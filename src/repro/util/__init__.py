"""Small shared utilities: id generation, statistics, and the
append-only JSONL journal (:mod:`repro.util.journal`)."""

from repro.util.ids import IdAllocator, token_hex
from repro.util.stats import (
    P2Quantile,
    ReservoirSample,
    RunningStats,
    percentile,
)

__all__ = [
    "IdAllocator",
    "token_hex",
    "RunningStats",
    "P2Quantile",
    "ReservoirSample",
    "percentile",
]
