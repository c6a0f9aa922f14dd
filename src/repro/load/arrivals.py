"""Seeded arrival processes: ScenarioSpecs over virtual time.

An arrival process is an iterable of ``(at, spec)`` pairs with
non-decreasing absolute virtual times — the open-loop half of the
traffic question.  Specs are minted by cycling a base suite (the paper's
four applications by default) exactly like
:func:`repro.fleet.spec.fleet_of`, but with ``admission_offset=0``: *when*
a session starts is the arrival process's job, not the spec's.

Four processes cover the classic traffic shapes:

* :class:`PoissonArrivals` — memoryless arrivals at constant rate λ;
* :class:`DiurnalArrivals` — a nonhomogeneous Poisson process whose rate
  follows a day/night sinusoid (thinning method);
* :class:`FlashCrowdArrivals` — baseline Poisson with a burst window at
  a multiplied rate (the conference-demo effect);
* :class:`TraceArrivals` — replay of explicit arrival instants.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional, Sequence

from repro.errors import LoadError
from repro.fleet.spec import (
    ScenarioSpec,
    mint_spec,
    paper_suite,
    rederive_steps,
)


class ArrivalProcess:
    """Base: turns a stream of arrival instants into ``(at, spec)``."""

    def __init__(
        self,
        horizon: float,
        suite: Optional[list[ScenarioSpec]] = None,
        prefix: str = "o",
        **overrides,
    ) -> None:
        if horizon <= 0:
            raise LoadError("arrival horizon must be > 0")
        self.horizon = float(horizon)
        self.prefix = prefix
        self._suite = list(suite) if suite else paper_suite()
        self._overrides = rederive_steps(overrides)

    def times(self) -> Iterator[float]:  # pragma: no cover - abstract
        raise NotImplementedError

    def spec_at(self, i: int) -> ScenarioSpec:
        # admission_offset stays 0: *when* a session starts is the
        # arrival process's job, not the spec's.
        return mint_spec(self._suite[i % len(self._suite)], i, self.prefix,
                         digits=5, **self._overrides)

    def __iter__(self) -> Iterator[tuple[float, ScenarioSpec]]:
        for i, at in enumerate(self.times()):
            yield at, self.spec_at(i)


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` per virtual second."""

    #: constructor parameters an adaptive campaign search may sweep
    TUNABLE: tuple[str, ...] = ("rate",)

    def __init__(self, rate: float, horizon: float, seed: int = 0, **kwargs) -> None:
        if rate <= 0:
            raise LoadError("arrival rate must be > 0")
        super().__init__(horizon, **kwargs)
        self.rate = rate
        self.seed = seed

    def times(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= self.horizon:
                return
            yield t


class _ThinnedArrivals(ArrivalProcess):
    """Nonhomogeneous Poisson via Lewis–Shedler thinning: generate at the
    peak rate, keep each arrival with probability rate(t)/peak."""

    def __init__(self, horizon: float, seed: int = 0, **kwargs) -> None:
        super().__init__(horizon, **kwargs)
        self.seed = seed

    def rate_at(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def times(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        peak = self.peak_rate
        if peak <= 0:
            raise LoadError("peak arrival rate must be > 0")
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= self.horizon:
                return
            if rng.random() < self.rate_at(t) / peak:
                yield t


class DiurnalArrivals(_ThinnedArrivals):
    """Rate swinging sinusoidally between ``base_rate`` and
    ``base_rate + amplitude`` with the given period (a compressed day):
    quiet at t=0, peaking mid-period."""

    #: constructor parameters an adaptive campaign search may sweep
    TUNABLE: tuple[str, ...] = ("base_rate", "amplitude", "period")

    def __init__(
        self,
        base_rate: float,
        amplitude: float,
        period: float,
        horizon: float,
        seed: int = 0,
        **kwargs,
    ) -> None:
        if base_rate < 0 or amplitude < 0 or base_rate + amplitude <= 0:
            raise LoadError("diurnal rates must be non-negative, peak > 0")
        if period <= 0:
            raise LoadError("diurnal period must be > 0")
        super().__init__(horizon, seed=seed, **kwargs)
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period = period

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.period
        return self.base_rate + self.amplitude * 0.5 * (1.0 - math.cos(phase))

    @property
    def peak_rate(self) -> float:
        return self.base_rate + self.amplitude


class FlashCrowdArrivals(_ThinnedArrivals):
    """Baseline Poisson traffic with a burst window at ``burst_rate``
    (the showfloor demo moment: everyone connects at once)."""

    #: constructor parameters an adaptive campaign search may sweep
    TUNABLE: tuple[str, ...] = ("base_rate", "burst_rate", "burst_at", "burst_duration")

    def __init__(
        self,
        base_rate: float,
        burst_rate: float,
        burst_at: float,
        burst_duration: float,
        horizon: float,
        seed: int = 0,
        **kwargs,
    ) -> None:
        if base_rate <= 0 or burst_rate < base_rate:
            raise LoadError("flash crowd needs base_rate > 0 and burst_rate >= base_rate")
        if burst_at < 0 or burst_duration <= 0:
            raise LoadError("burst window must lie in non-negative time")
        super().__init__(horizon, seed=seed, **kwargs)
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.burst_at = burst_at
        self.burst_duration = burst_duration

    def rate_at(self, t: float) -> float:
        if self.burst_at <= t < self.burst_at + self.burst_duration:
            return self.burst_rate
        return self.base_rate

    @property
    def peak_rate(self) -> float:
        return self.burst_rate


#: per-arrival-kind map of the continuous parameters an adaptive campaign
#: search may sweep (``arrival.<name>`` paths) — keyed by the campaign
#: ``arrival`` axis kind names, seeded kinds only (traces replay verbatim)
ARRIVAL_TUNABLES: dict[str, tuple[str, ...]] = {
    "poisson": PoissonArrivals.TUNABLE,
    "diurnal": DiurnalArrivals.TUNABLE,
    "flash": FlashCrowdArrivals.TUNABLE,
}


def _validate_instants(raw: Sequence[float], what: str = "trace") -> list[float]:
    """Coerce and validate a sequence of arrival instants, pinpointing
    the offending index and value in every error message."""
    instants: list[float] = []
    for i, value in enumerate(raw):
        try:
            t = float(value)
        except (TypeError, ValueError):
            raise LoadError(f"{what} instant [{i}] = {value!r} is not a number") from None
        if math.isnan(t) or math.isinf(t):
            raise LoadError(f"{what} instant [{i}] = {t!r} must be finite")
        if t < 0:
            raise LoadError(f"{what} instant [{i}] = {t!r} must be non-negative")
        if instants and t < instants[-1]:
            raise LoadError(
                f"{what} instant [{i}] = {t!r} goes back in time "
                f"(instant [{i - 1}] = {instants[-1]!r}); instants must "
                "be non-decreasing"
            )
        instants.append(t)
    if not instants:
        raise LoadError(f"a {what} needs at least one arrival instant")
    return instants


class TraceArrivals(ArrivalProcess):
    """Replay explicit arrival instants (e.g. recorded from a real run)."""

    def __init__(
        self, instants: Sequence[float], horizon: Optional[float] = None, **kwargs
    ) -> None:
        instants = _validate_instants(instants)
        if horizon is None:
            horizon = instants[-1] + 1e-9
        super().__init__(horizon, **kwargs)
        self.instants = instants

    def times(self) -> Iterator[float]:
        for t in self.instants:
            if t < self.horizon:
                yield t


class RecordedArrivals(ArrivalProcess):
    """Replay ``(at, spec)`` pairs captured by a live trace, verbatim.

    Where :class:`TraceArrivals` replays *instants* and mints fresh specs
    from a suite, this replays the **exact sessions** a live run offered
    — same names, seeds, durations, op mixes — which is what makes a
    recorded incident a byte-identical campaign cell
    (see :mod:`repro.live.trace`).  Rejected offers are replayed too:
    the admission controller re-decides them, and determinism makes it
    decide the same way.
    """

    def __init__(
        self, entries: Sequence[tuple[float, ScenarioSpec]], horizon: Optional[float] = None
    ) -> None:
        entries = list(entries)
        _validate_instants([at for at, _ in entries], what="recorded arrival")
        for i, (_, spec) in enumerate(entries):
            if not isinstance(spec, ScenarioSpec):
                raise LoadError(
                    f"recorded arrival [{i}] carries {type(spec).__name__}, " "not a ScenarioSpec"
                )
        names = [spec.name for _, spec in entries]
        if len(set(names)) != len(names):
            dupe = next(n for n in names if names.count(n) > 1)
            raise LoadError(
                f"recorded arrivals repeat session name {dupe!r}; a fleet "
                "registers one application per session"
            )
        if horizon is None:
            horizon = entries[-1][0] + 1e-9
        super().__init__(horizon)
        self.entries = entries

    def __iter__(self) -> Iterator[tuple[float, ScenarioSpec]]:
        for at, spec in self.entries:
            if at < self.horizon:
                yield at, spec
