"""Leapfrog integrator and the beam-on-sphere scenario.

The demonstration scenario (section 3.4): "a particle beam striking a
spherical plasma target", with interactive steering of beam parameters
(charge/intensity, direction), a laser field, and a damping 'assist' that
drives the plasma "towards a cold, ordered state suitable for use as
quiescent initial conditions".
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SteeringError
from repro.sims.base import Simulation
from repro.sims.pepc.domain import assign_domains
from repro.sims.pepc.force import direct_force, tree_field
from repro.sims.pepc.tree import build_octree

#: the plasma sphere's radius, the beam's start distance along -x and its speed
SPHERE_RADIUS = 1.0
BEAM_OFFSET = 3.0
BEAM_SPEED = 1.5


def beam_on_sphere_setup(
    n_plasma: int = 512,
    n_beam: int = 64,
    seed: int = 7,
) -> dict[str, np.ndarray]:
    """Initial conditions: neutral plasma sphere + incoming charged beam.

    The plasma is an equal mix of +1/-1 charges uniform in a sphere at the
    origin; the beam is a thin cylinder of charge -1 particles offset
    along -x, moving in +x toward the target.
    """
    rng = np.random.default_rng(seed)
    # Uniform-in-sphere sampling via normalized Gaussians * r^(1/3).
    g = rng.standard_normal((n_plasma, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = SPHERE_RADIUS * rng.random(n_plasma) ** (1.0 / 3.0)
    plasma_pos = g * r[:, None]
    plasma_q = np.ones(n_plasma)
    plasma_q[: n_plasma // 2] = -1.0
    plasma_v = 0.05 * rng.standard_normal((n_plasma, 3))

    beam_pos = np.empty((n_beam, 3))
    beam_pos[:, 0] = -BEAM_OFFSET - 0.5 * rng.random(n_beam)
    beam_pos[:, 1:] = 0.1 * rng.standard_normal((n_beam, 2))
    beam_q = -np.ones(n_beam)
    beam_v = np.zeros((n_beam, 3))
    beam_v[:, 0] = BEAM_SPEED

    return {
        "positions": np.concatenate([plasma_pos, beam_pos]),
        "velocities": np.concatenate([plasma_v, beam_v]),
        "charges": np.concatenate([plasma_q, beam_q]),
        "masses": np.ones(n_plasma + n_beam),
        "is_beam": np.concatenate(
            [np.zeros(n_plasma, dtype=bool), np.ones(n_beam, dtype=bool)]
        ),
    }


class PlasmaSim(Simulation):
    """PEPC-style plasma simulation with steerable beam/laser/damping.

    Parameters
    ----------
    setup:
        Dict from :func:`beam_on_sphere_setup` (or compatible).
    theta:
        Barnes-Hut acceptance parameter; ``0`` forces direct summation
        (the O(N^2) baseline).
    use_tree:
        If False, use direct summation regardless of theta.
    nranks:
        Virtual processor count for the SFC domain decomposition shipped
        with every sample.
    """

    STEERABLE = (
        "beam_charge_scale",
        "beam_direction",
        "laser_intensity",
        "laser_direction",
        "damping",
    )

    def __init__(
        self,
        setup: dict[str, np.ndarray] | None = None,
        dt: float = 0.01,
        theta: float = 0.5,
        eps: float = 0.05,
        use_tree: bool = True,
        leaf_size: int = 16,
        nranks: int = 4,
    ) -> None:
        super().__init__()
        setup = setup or beam_on_sphere_setup()
        self.positions = np.array(setup["positions"], dtype=np.float64)
        self.velocities = np.array(setup["velocities"], dtype=np.float64)
        self.base_charges = np.array(setup["charges"], dtype=np.float64)
        self.masses = np.array(setup["masses"], dtype=np.float64)
        self.is_beam = np.array(setup["is_beam"], dtype=bool)
        self.labels = np.arange(len(self.positions), dtype=np.int64)
        n = len(self.positions)
        for name, arr in (
            ("velocities", self.velocities),
            ("charges", self.base_charges),
            ("masses", self.masses),
            ("is_beam", self.is_beam),
        ):
            if len(arr) != n:
                raise SteeringError(f"setup field {name} length mismatch")
        self.dt = float(dt)
        self.theta = float(theta)
        self.eps = float(eps)
        self.use_tree = bool(use_tree)
        self.leaf_size = int(leaf_size)
        self.nranks = int(nranks)

        # Steerable state (section 3.4).
        self.beam_charge_scale = 1.0
        self.beam_direction = np.array([1.0, 0.0, 0.0])
        self.laser_intensity = 0.0
        self.laser_direction = np.array([1.0, 0.0, 0.0])
        self.laser_omega = 2.0
        self.damping = 0.0

        self.last_force_stats: dict = {}
        self._half_kicked = False
        self._accel = self._compute_accel()

    @property
    def charges(self) -> np.ndarray:
        """Effective charges: beam charge scaling applied live."""
        q = self.base_charges.copy()
        q[self.is_beam] *= self.beam_charge_scale
        return q

    # -- forces ------------------------------------------------------------

    def _compute_accel(self) -> np.ndarray:
        q = self.charges
        if self.use_tree and self.theta > 0:
            tree = build_octree(self.positions, q, leaf_size=self.leaf_size)
            E, _phi, stats = tree_field(tree, theta=self.theta, eps=self.eps)
            self.last_force_stats = stats
        else:
            E = direct_force(self.positions, q, eps=self.eps)
            self.last_force_stats = {"direct_interactions": len(q) * (len(q) - 1)}
        accel = (q[:, None] * E) / self.masses[:, None]
        if self.laser_intensity != 0.0:
            # Plane-polarized oscillating field, uniform across the plasma.
            e_laser = (
                self.laser_intensity
                * np.cos(self.laser_omega * self.time)
                * self.laser_direction
            )
            accel += (q[:, None] * e_laser[None, :]) / self.masses[:, None]
        return accel

    def advance(self) -> None:
        """Kick-drift-kick leapfrog with optional velocity damping."""
        dt = self.dt
        self.velocities += 0.5 * dt * self._accel
        self.positions += dt * self.velocities
        self._accel = self._compute_accel()
        self.velocities += 0.5 * dt * self._accel
        if self.damping > 0.0:
            # The 'assist toward a cold ordered state' knob.
            self.velocities *= max(0.0, 1.0 - self.damping * dt)

    # -- steering surface ------------------------------------------------------

    def steerable_parameters(self) -> dict[str, Any]:
        return {
            "beam_charge_scale": self.beam_charge_scale,
            "beam_direction": self.beam_direction.copy(),
            "laser_intensity": self.laser_intensity,
            "laser_direction": self.laser_direction.copy(),
            "damping": self.damping,
        }

    def set_parameter(self, name: str, value: Any) -> None:
        if name == "beam_charge_scale":
            self.beam_charge_scale = float(value)
        elif name == "beam_direction":
            v = np.asarray(value, dtype=np.float64)
            norm = np.linalg.norm(v)
            if v.shape != (3,) or norm == 0:
                raise SteeringError("beam_direction must be a non-zero 3-vector")
            direction = v / norm
            # Redirect the beam: rotate beam velocities onto the new axis,
            # preserving speed (the interactive re-aiming of section 3.4).
            speeds = np.linalg.norm(self.velocities[self.is_beam], axis=1)
            self.velocities[self.is_beam] = speeds[:, None] * direction[None, :]
            self.beam_direction = direction
        elif name == "laser_intensity":
            self.laser_intensity = float(value)
        elif name == "laser_direction":
            v = np.asarray(value, dtype=np.float64)
            norm = np.linalg.norm(v)
            if v.shape != (3,) or norm == 0:
                raise SteeringError("laser_direction must be a non-zero 3-vector")
            self.laser_direction = v / norm
        elif name == "damping":
            value = float(value)
            if value < 0:
                raise SteeringError("damping must be >= 0")
            self.damping = value
        else:
            raise SteeringError(f"PlasmaSim has no steerable parameter {name!r}")

    def observables(self) -> dict[str, float]:
        from repro.sims.pepc.diagnostics import kinetic_energy, temperature_proxy

        out = super().observables()
        out["kinetic_energy"] = kinetic_energy(self.velocities, self.masses)
        out["temperature"] = temperature_proxy(self.velocities, self.masses)
        out["beam_charge_scale"] = self.beam_charge_scale
        out["laser_intensity"] = self.laser_intensity
        return out

    def sample(self) -> dict[str, Any]:
        """The full PEPC data-space of section 3.4.

        "regularly shipping both particle data-space comprising
        coordinates, velocities, charge, processor number and
        tracking-label plus information on the tree structure ...
        representing each processor domain."
        """
        proc, boxes = assign_domains(self.positions, self.nranks)
        return {
            "step": self.step_count,
            "coordinates": self.positions.astype(np.float32),
            "velocities": self.velocities.astype(np.float32),
            "charge": self.charges.astype(np.float32),
            "processor": proc.astype(np.int32),
            "label": self.labels.astype(np.int32),
            "domain_boxes": boxes.astype(np.float32),
        }

    # -- checkpoint -----------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        return {
            "positions": self.positions.copy(),
            "velocities": self.velocities.copy(),
            "base_charges": self.base_charges.copy(),
            "masses": self.masses.copy(),
            "is_beam": self.is_beam.copy(),
            "time": self.time,
            "step_count": self.step_count,
            "beam_charge_scale": self.beam_charge_scale,
            "beam_direction": self.beam_direction.copy(),
            "laser_intensity": self.laser_intensity,
            "laser_direction": self.laser_direction.copy(),
            "damping": self.damping,
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.positions = state["positions"].copy()
        self.velocities = state["velocities"].copy()
        self.base_charges = state["base_charges"].copy()
        self.masses = state["masses"].copy()
        self.is_beam = state["is_beam"].copy()
        self.time = state["time"]
        self.step_count = state["step_count"]
        self.beam_charge_scale = state["beam_charge_scale"]
        self.beam_direction = state["beam_direction"].copy()
        self.laser_intensity = state["laser_intensity"]
        self.laser_direction = state["laser_direction"].copy()
        self.damping = state["damping"]
        self._accel = self._compute_accel()
