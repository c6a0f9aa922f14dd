"""Visitor-behaviour simulation in the exhibition building (section 4.7).

"Furthermore the behaviour of visitors of such buildings will be
simulated and analyzed ... to steer the visitors and potential customers
into certain regions of the building" (the Sandia collaboration).

Model: point agents on a 2D floor plan with rectangular exhibit regions.
Each agent targets an exhibit chosen with probability proportional to a
steerable *attractiveness* weight, walks toward it with speed noise and
pairwise separation, dwells, then re-chooses.  Steering the
attractiveness vector visibly shifts regional occupancy — the measurable
form of the paper's claim.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SteeringError
from repro.sims.base import Simulation

#: metres from an exhibit within which an agent counts as at it
EXHIBIT_RADIUS = 4.0


class CrowdSim(Simulation):
    """Agents visiting exhibits on a rectangular floor.

    Parameters
    ----------
    n_agents:
        Number of visitors.
    floor:
        (width, height) of the floor plan in metres.
    exhibits:
        ``(K, 2)`` exhibit positions; defaults to three exhibits.
    """

    STEERABLE = ("attractiveness",)

    def __init__(
        self,
        n_agents: int = 200,
        floor: tuple[float, float] = (40.0, 25.0),
        exhibits: np.ndarray | None = None,
        speed: float = 1.2,
        dwell_steps: int = 20,
        dt: float = 0.5,
        seed: int = 23,
    ) -> None:
        super().__init__()
        if n_agents < 1:
            raise SteeringError("need at least one agent")
        self.floor = (float(floor[0]), float(floor[1]))
        if exhibits is None:
            w, h = self.floor
            exhibits = np.array(
                [[w * 0.2, h * 0.5], [w * 0.5, h * 0.75], [w * 0.8, h * 0.3]]
            )
        self.exhibits = np.asarray(exhibits, dtype=np.float64)
        if self.exhibits.ndim != 2 or self.exhibits.shape[1] != 2:
            raise SteeringError("exhibits must be (K, 2)")
        k = len(self.exhibits)
        self.attractiveness = np.ones(k)
        #: the goal CDF and the attractiveness bytes it was built from
        self._cdf: np.ndarray | None = None
        self._cdf_key: bytes | None = None
        self.speed = float(speed)
        self.dwell_steps = int(dwell_steps)
        self.dt = float(dt)
        self.rng = np.random.default_rng(seed)
        w, h = self.floor
        self.positions = self.rng.random((n_agents, 2)) * np.array([w, h])
        self.goal = self._choose_goals(n_agents)
        self.dwell = np.zeros(n_agents, dtype=np.int64)

    def _choose_goals(self, n: int) -> np.ndarray:
        """``n`` exhibit indices drawn with probability proportional to the
        attractiveness (zero weights clamped to 1e-12).

        This is ``Generator.choice(k, size=n, p=p)``'s own algorithm —
        ``random(n)`` looked up in ``p.cumsum()`` renormalised by its
        last entry — without its per-call validation and accumulation:
        the CDF is built once per attractiveness *value* (keyed by its
        bytes, so an in-place write or an assignment is seen by the next
        draw), and the values are validated when steered
        (:meth:`set_parameter`).  Draws and generator state are
        ``choice``'s, bit for bit.
        """
        key = self.attractiveness.tobytes()
        if key != self._cdf_key:
            weights = np.maximum(self.attractiveness, 1e-12)
            cdf = (weights / weights.sum()).cumsum()
            cdf /= cdf[-1]
            if not np.isfinite(cdf).all():
                raise SteeringError(f"attractiveness {self.attractiveness} is not finite")
            self._cdf, self._cdf_key = cdf, key
        return self._cdf.searchsorted(self.rng.random(n), side="right")

    def advance(self) -> None:
        targets = self.exhibits[self.goal]
        delta = targets - self.positions
        dist = np.sqrt(np.add.reduce(delta * delta, axis=1))
        arrived = dist < 1.0

        # Arrived agents dwell; when dwell expires they re-choose a goal.
        self.dwell[arrived] += 1
        expired = self.dwell >= self.dwell_steps
        n_expired = np.count_nonzero(expired)
        if n_expired:
            self.goal[expired] = self._choose_goals(n_expired)
            self.dwell[expired] = 0

        moving = ~arrived
        n_moving = np.count_nonzero(moving)
        if n_moving:
            step_dir = delta[moving] / dist[moving][:, None]
            noise = 0.3 * self.rng.standard_normal((n_moving, 2))
            self.positions[moving] += (
                self.dt * self.speed * (step_dir + noise)
            )
        # Soft separation: agents repel within 0.5 m (grid-bucketed would
        # scale better; N is a few hundred so all-pairs is fine).
        n = len(self.positions)
        d = np.empty((n, n, 2))
        for axis in range(2):
            coord = self.positions[:, axis]
            np.subtract(coord[:, None], coord, out=d[:, :, axis])
        r2 = np.einsum("ijk,ijk->ij", d, d)
        r2.reshape(-1)[:: n + 1] = np.inf  # an agent does not repel itself
        i, j = np.nonzero(r2 < 0.25)
        if len(i):
            # Only the close pairs push.  add.at accumulates them in (i, j)
            # order from 0.0, as the dense sum over j did with its zeros for
            # the far pairs (x + 0.0 is x), so the rounding is the same.
            push = np.zeros((n, 2))
            np.add.at(push, i, d[i, j] / np.maximum(r2[i, j], 1e-6)[:, None])
            self.positions += 0.01 * push
        # Stay indoors.
        np.clip(self.positions, 0.0, self.floor, out=self.positions)

    # -- diagnostics -------------------------------------------------------

    def occupancy(self) -> np.ndarray:
        """Fraction of agents within :data:`EXHIBIT_RADIUS` of each exhibit."""
        d = np.linalg.norm(
            self.positions[:, None, :] - self.exhibits[None, :, :], axis=2
        )
        return (d < EXHIBIT_RADIUS).mean(axis=0)

    # -- steering surface ------------------------------------------------------

    def steerable_parameters(self) -> dict[str, Any]:
        return {"attractiveness": self.attractiveness.copy()}

    def set_parameter(self, name: str, value: Any) -> None:
        if name != "attractiveness":
            raise SteeringError(f"CrowdSim has no steerable parameter {name!r}")
        v = np.asarray(value, dtype=np.float64)
        # NaN passes both the sign and the zero-sum test; the goal draw
        # trusts what is accepted here.
        if (
            v.shape != self.attractiveness.shape
            or not np.isfinite(v).all()
            or np.any(v < 0)
            or v.sum() == 0
        ):
            raise SteeringError(
                f"attractiveness must be {self.attractiveness.shape} finite non-negative"
            )
        self.attractiveness = v

    def observables(self) -> dict[str, float]:
        out = super().observables()
        for i, frac in enumerate(self.occupancy()):
            out[f"occupancy_{i}"] = float(frac)
        return out

    def sample(self) -> dict[str, Any]:
        return {
            "step": self.step_count,
            "positions": self.positions.astype(np.float32),
            "goal": self.goal.astype(np.int32),
            "exhibits": self.exhibits.astype(np.float32),
        }

    def checkpoint(self) -> dict[str, Any]:
        return {
            "positions": self.positions.copy(),
            "goal": self.goal.copy(),
            "dwell": self.dwell.copy(),
            "attractiveness": self.attractiveness.copy(),
            "time": self.time,
            "step_count": self.step_count,
            "rng_state": self.rng.bit_generator.state,
        }
