"""Running statistics used by fleet telemetry, benches and tests.

Fleet-scale telemetry (``repro.fleet.telemetry``) aggregates hundreds of
per-session accumulators, so the streaming types here are *mergeable*:
:meth:`RunningStats.merge` folds two Welford accumulators exactly, and
:class:`ReservoirSample` supports a weighted union that preserves the
uniform-sample property.  :class:`P2Quantile` estimates one quantile in
O(1) space for the single-stream case.
"""

from __future__ import annotations

import math
import random


class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm).

    Used to summarise per-frame latencies, per-step overheads etc. without
    storing every sample.
    """

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    def state(self) -> dict:
        """JSON-able snapshot of the accumulator.

        Floats survive a JSON round trip exactly (repr-based encoding),
        so ``from_state(json.loads(json.dumps(s.state())))`` merges
        byte-identically to the original accumulator — the property the
        campaign layer leans on to merge per-cell statistics recorded by
        worker *processes* through the JSONL results store.
        """
        return {
            "n": self.n,
            "mean": self._mean,
            "m2": self._m2,
            "min": None if self.n == 0 else self.min,
            "max": None if self.n == 0 else self.max,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunningStats":
        """Rebuild an accumulator from :meth:`state` output."""
        out = cls()
        out.n = int(state["n"])
        out._mean = float(state["mean"])
        out._m2 = float(state["m2"])
        if out.n:
            out.min = float(state["min"])
            out.max = float(state["max"])
        return out

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Fold another accumulator into this one, in place.

        Uses the parallel-variance combination (Chan et al.), so merging
        per-session accumulators gives exactly the statistics of the
        concatenated sample streams.  Returns ``self`` for chaining.
        """
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * (self.n * other.n) / n
        self._mean += delta * (other.n / n)
        self.n = n
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(n={self.n}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g}, min={self.min:.6g}, max={self.max:.6g})"
        )


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile of a sequence (q in [0, 100])."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of empty sequence")
    if len(data) == 1:
        return float(data[0])
    pos = (q / 100.0) * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class P2Quantile:
    """Streaming single-quantile estimator (Jain & Chlamtac's P² algorithm).

    Tracks one quantile ``q`` in O(1) space with five markers whose heights
    are adjusted by a piecewise-parabolic fit as observations arrive.  For
    fewer than five observations the exact sample quantile is returned.
    """

    __slots__ = ("q", "n", "_heights", "_pos", "_desired", "_dn")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q!r}")
        self.q = q
        self.n = 0
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._dn = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, x: float) -> None:
        x = float(x)
        self.n += 1
        if len(self._heights) < 5:
            self._heights.append(x)
            self._heights.sort()
            return
        h, pos = self._heights, self._pos
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = next(i for i in range(4) if h[i] <= x < h[i + 1])
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d > 0 else -1.0
                cand = self._parabolic(i, step)
                if not h[i - 1] < cand < h[i + 1]:
                    cand = self._linear(i, step)
                h[i] = cand
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def value(self) -> float:
        if self.n == 0:
            return math.nan
        if len(self._heights) < 5 or self.n <= 5:
            return percentile(self._heights[: self.n], self.q * 100.0)
        return self._heights[2]


class ReservoirSample:
    """Fixed-size uniform sample of an unbounded stream (algorithm R).

    The reservoir is *mergeable*: :meth:`merge` performs a weighted union
    of two reservoirs so that the result is (approximately) a uniform
    sample of the concatenated streams — the property fleet telemetry
    needs to aggregate per-session latency percentiles without keeping
    every observation.
    """

    __slots__ = ("capacity", "n", "_rng", "_items")

    def __init__(self, capacity: int = 256, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.n = 0
        self._rng = random.Random(seed)
        self._items: list[float] = []

    def add(self, x: float) -> None:
        self.n += 1
        if len(self._items) < self.capacity:
            self._items.append(float(x))
            return
        j = self._rng.randrange(self.n)
        if j < self.capacity:
            self._items[j] = float(x)

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Weighted union with another reservoir, in place; returns self."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._items = list(other._items)
            if len(self._items) > self.capacity:
                self._items = self._rng.sample(self._items, self.capacity)
            return self
        a, b = list(self._items), list(other._items)
        # Each retained item stands for n/len(items) observations of its
        # stream; draw from the two pools proportionally to the weight of
        # what remains in each.
        wa, wb = float(self.n), float(other.n)
        da, db = self.n / len(a), other.n / len(b)
        merged: list[float] = []
        while (a or b) and len(merged) < self.capacity:
            take_a = bool(a) and (
                not b or self._rng.random() < wa / (wa + wb)
            )
            if take_a:
                merged.append(a.pop(self._rng.randrange(len(a))))
                wa -= da
            else:
                merged.append(b.pop(self._rng.randrange(len(b))))
                wb -= db
        self._items = merged
        self.n += other.n
        return self

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]) of the stream."""
        if not self._items:
            raise ValueError("percentile of an empty reservoir")
        return percentile(self._items, q)

    @property
    def items(self) -> tuple:
        """The retained sample, in reservoir order (deterministic for a
        seeded stream) — the exportable half of the reservoir, used to
        re-estimate percentiles after a cross-process merge."""
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

