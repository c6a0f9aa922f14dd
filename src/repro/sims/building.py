"""Building climatization simulation (the HLRS Car-Show demo, section 4.7).

"Simulations allow determining and optimizing the climatization layout of
such a building" — architects and engineers collaboratively steer vents
while watching temperature cut-planes.

Model: temperature advection-diffusion on a 3D room grid with a
prescribed ventilation flow field (inlet jet at one wall, outlet at the
opposite wall), buoyancy-free, explicit upwind/FTCS stepping with a
stability guard.  Steerable: inlet flow speed, inlet temperature, and the
internal heat load (visitors + exhibits).

Implementation notes: what only a steer can change is computed once per
steer.  A step reads the six periodic neighbours and the three upwind
neighbours of every cell with one gather through flat indices planned
per grid shape (:class:`_GridPlan`, shared by every simulation of that
shape, scratch included); which neighbour is upwind, and ``|u|``, are
derived from the flow field and rebuilt exactly when it is, i.e. when
``vent_speed`` is steered.  Every floating-point operation, and the
order of every accumulation, is that of the roll-and-``where`` stepper
kept in ``tests/reference_numerics.py``; the results are byte-identical.
"""

from __future__ import annotations

import math
from typing import Any
from weakref import WeakValueDictionary

import numpy as np

from repro.errors import SteeringError
from repro.sims.base import Simulation


class _GridPlan:
    """What stepping one grid shape needs besides the temperature: gather
    indices and the scratch of a step, shared by every simulation of the
    shape (a fleet runs dozens on one).

    With ``N`` cells, a gather index has ``9*N`` entries read into
    ``gathered`` (``(9, N)``): for axis a, rows ``2a`` and ``2a + 1`` are
    cell ``x - e_a`` (``back``, the periodic ``np.roll`` by +1) and cell
    ``x + e_a`` (``fwd``, the roll by -1); rows 6–8 are the upwind
    neighbour along each axis — ``back`` where the velocity component is
    positive, ``fwd`` elsewhere.  Only those last rows depend on the flow
    field, and only through its sign pattern, so :meth:`gather_index`
    keeps one index per pattern (the ventilation field has two: still
    air, and any positive ``vent_speed``).  ``adv`` holds a ``+0.0`` row
    and the three advection rows, ``lap`` ``−6 T`` and the three
    ``back + fwd`` sums.  The scratch carries nothing from one step to
    the next (``adv[0]`` is never written), so simulations may share it
    as long as they step one at a time — the DES kernel is
    single-threaded.
    """

    __slots__ = (
        "near", "indices", "gathered", "adv", "lap", "dT", "acc", "__weakref__",
    )  # fmt: skip

    def __init__(self, shape: tuple[int, int, int]) -> None:
        n = shape[0] * shape[1] * shape[2]
        cells = np.arange(n, dtype=np.intp).reshape(shape)
        self.near = np.stack(
            [np.roll(cells, s, axis=a).ravel() for a in range(3) for s in (1, -1)]
        ).reshape(3, 2, n)
        self.indices: dict[bytes, np.ndarray] = {}
        self.gathered = np.empty((9, n))
        self.adv = np.zeros((4, n))
        self.lap = np.empty((4, n))
        self.dT = np.empty(n)
        self.acc = np.empty(n)

    def gather_index(self, upwind_back: np.ndarray) -> np.ndarray:
        """The ``9*N`` gather index for a ``(3, N)`` mask of where the
        upwind neighbour is ``back``."""
        key = upwind_back.tobytes()
        index = self.indices.get(key)
        if index is None:
            up = np.where(upwind_back, self.near[:, 0], self.near[:, 1])
            index = self.indices[key] = np.concatenate((self.near, up), axis=None)
        return index


#: shape -> plan, for as long as a simulation of that shape is alive
_PLANS: WeakValueDictionary[tuple[int, int, int], _GridPlan] = WeakValueDictionary()

#: the comfort band (°C) of :meth:`BuildingClimate.comfort_fraction`
COMFORT_LO = 20.0
COMFORT_HI = 24.0


class BuildingClimate(Simulation):
    """Temperature field of an exhibition hall under steerable ventilation.

    Grid indices: x along the hall length (inlet at x=0 wall, outlet at
    x=-1), y across, z vertical.

    A step is one gather of the six periodic neighbours and the three
    upwind ones (through the shape's shared :class:`_GridPlan`, with the
    index chosen when the flow field is built) and a dozen whole-array
    calls on the plan's scratch.  ``u·(T − back)`` where ``u > 0`` and
    ``u·(fwd − T)`` elsewhere are both ``|u|·(T − up)``: IEEE products
    and differences are sign-symmetric, and the accumulation starts at
    ``+0.0``, so not even the sign of a zero can differ.
    """

    STEERABLE = ("vent_speed", "vent_temperature", "heat_load")

    def __init__(
        self,
        shape: tuple[int, int, int] = (24, 16, 8),
        vent_speed: float = 0.3,
        vent_temperature: float = 18.0,
        ambient: float = 26.0,
        heat_load: float = 0.5,
        diffusivity: float = 0.08,
        dt: float = 0.5,
        seed: int = 11,
    ) -> None:
        super().__init__()
        if len(shape) != 3 or min(shape) < 4:
            raise SteeringError("building grid must be 3D with sides >= 4")
        self.shape = tuple(int(s) for s in shape)
        self.vent_speed = float(vent_speed)
        self.vent_temperature = float(vent_temperature)
        self.ambient = float(ambient)
        self.heat_load = float(heat_load)
        self.diffusivity = float(diffusivity)
        self.dt = float(dt)
        #: (vent_speed, field, gather index, |field|) memo, see :meth:`flow_field`
        self._flow_cache = None
        self._plan: _GridPlan | None = None  # bound on first use
        for name in self.STEERABLE:
            self._check_finite(name, getattr(self, name))
        self._check_stability()

        rng = np.random.default_rng(seed)
        self.temperature = ambient + 0.5 * rng.standard_normal(self.shape)
        # Heat sources: a few exhibit "cars" on the floor radiating heat.
        self.sources = np.zeros(self.shape)
        nx, ny, _ = self.shape
        for cx, cy in ((nx // 4, ny // 3), (nx // 2, 2 * ny // 3), (3 * nx // 4, ny // 3)):
            self.sources[cx - 1 : cx + 2, cy - 1 : cy + 2, 0:2] = 1.0

    @staticmethod
    def _check_finite(name: str, value: float) -> None:
        # NaN passes every range check, and no infinite value is a state
        # the stepper can advance.
        if not math.isfinite(value):
            raise SteeringError(f"{name} must be finite, got {value}")

    def _check_stability(self) -> None:
        # Explicit scheme: CFL for advection and r <= 1/6 for 3D diffusion.
        if self.vent_speed * self.dt >= 1.0:
            raise SteeringError(
                f"vent_speed {self.vent_speed} * dt {self.dt} violates CFL"
            )
        if self.diffusivity * self.dt > 1.0 / 6.0:
            raise SteeringError("diffusivity * dt exceeds 3D explicit limit (1/6)")

    def __getstate__(self) -> dict[str, Any]:
        # A copy or pickle must not duplicate the shared plan, and carries
        # no derived flow state: the copy rebuilds both on first use.
        return {**self.__dict__, "_plan": None, "_flow_cache": None}

    # -- flow field -------------------------------------------------------

    def flow_field(self) -> np.ndarray:
        """Prescribed ventilation velocity (3, X, Y, Z): an inlet jet that
        decays across the hall plus a gentle vertical recirculation.

        Depends only on the grid and the steered ``vent_speed``, so the
        field is cached and rebuilt only when the speed changes, together
        with what the stepper reads instead of it: ``|u|`` and the gather
        index whose last rows pick every cell's upwind neighbour
        (``back`` where ``u > 0``, else ``fwd``).  The field is returned
        read-only — an in-place write would never reach those, so it
        raises instead of being silently ignored.
        """
        cached = self._flow_cache
        if cached is not None and cached[0] == self.vent_speed:
            return cached[1]
        nx, ny, nz = self.shape
        x = np.linspace(0.0, 1.0, nx)[:, None, None]
        z = np.linspace(0.0, 1.0, nz)[None, None, :]
        u = np.zeros((3,) + self.shape)
        # Jet strongest near the inlet wall and near the ceiling duct.
        u[0] = self.vent_speed * (1.0 - 0.6 * x) * (0.4 + 0.6 * z)
        u[2] = -0.2 * self.vent_speed * np.sin(np.pi * x) * z
        u.flags.writeable = False
        plan = self._plan
        if plan is None:
            plan = _PLANS.get(self.shape)
            if plan is None:
                plan = _PLANS[self.shape] = _GridPlan(self.shape)
            self._plan = plan
        flat = u.reshape(3, -1)
        index = plan.gather_index(flat > 0)
        self._flow_cache = (self.vent_speed, u, index, np.abs(flat))
        return u

    def advance(self) -> None:
        cached = self._flow_cache
        if cached is None or cached[0] != self.vent_speed:
            self.flow_field()  # binds the plan too
            cached = self._flow_cache
        _, _, index, speed = cached
        w = self._plan
        T = self.temperature
        t = T.reshape(-1)
        dt = self.dt
        gathered, adv, lap, dT, acc = w.gathered, w.adv, w.lap, w.dT, w.acc
        t.take(index, out=gathered.reshape(-1), mode="clip")

        # First-order upwind advection (flow is predominantly +x, -z):
        # dT = ((0 − dt·|u|·(T − up))_x − …_y) − …_z, one row per axis.
        rows = adv[1:]
        np.subtract(t, gathered[6:], out=rows)
        np.multiply(speed, rows, out=rows)
        np.multiply(rows, dt, out=rows)
        np.subtract.reduce(adv, axis=0, out=dT)

        # Diffusion (FTCS 7-point Laplacian), accumulated as
        # ((−6T + (back + fwd)_x) + …_y) + …_z; insulated walls handled by
        # the boundary overwrite below.
        np.multiply(t, -6.0, out=lap[0])
        np.add(gathered[0:6:2], gathered[1:6:2], out=lap[1:])
        np.add.reduce(lap, axis=0, out=acc)
        np.multiply(acc, dt * self.diffusivity, out=acc)
        np.add(dT, acc, out=dT)

        # Internal heat load.
        np.multiply(self.sources.reshape(-1), dt * self.heat_load, out=acc)
        np.add(dT, acc, out=dT)

        temperature = self.temperature = T + dT.reshape(self.shape)
        # Boundary conditions: inlet wall held at vent temperature over the
        # duct area; outlet wall is outflow (zero-gradient); other walls
        # relax slowly toward ambient (imperfect insulation) — the two
        # y walls at once (one strided view), then the ceiling, which
        # shares an edge with each.
        _, ny, nz = self.shape
        temperature[0, :, nz // 2 :] = self.vent_temperature
        temperature[-1] = temperature[-2]
        alpha = 0.02
        walls = temperature[:, :: ny - 1]
        walls += alpha * (self.ambient - walls)
        ceiling = temperature[:, :, -1]
        ceiling += alpha * (self.ambient - ceiling)

    # -- diagnostics -----------------------------------------------------------

    def mean_temperature(self) -> float:
        # ndarray.mean without its Python wrapper: the same reduce, the
        # same division by the count.
        T = self.temperature
        return float(np.add.reduce(T, axis=None) / T.size)

    def comfort_fraction(self) -> float:
        """Fraction of occupied volume (z < half) within the comfort band."""
        occupied = self.temperature[:, :, : self.shape[2] // 2]
        ok = (occupied >= COMFORT_LO) & (occupied <= COMFORT_HI)
        # an exact integer count over a correctly rounded division, as mean
        return np.count_nonzero(ok) / ok.size

    # -- steering surface -----------------------------------------------------

    def steerable_parameters(self) -> dict[str, Any]:
        return {
            "vent_speed": self.vent_speed,
            "vent_temperature": self.vent_temperature,
            "heat_load": self.heat_load,
        }

    def set_parameter(self, name: str, value: Any) -> None:
        if name not in self.STEERABLE:
            raise SteeringError(f"BuildingClimate has no steerable parameter {name!r}")
        value = float(value)
        self._check_finite(name, value)
        if name == "vent_speed":
            if value < 0:
                raise SteeringError("vent_speed must be >= 0")
            old = self.vent_speed
            self.vent_speed = value
            try:
                self._check_stability()
            except SteeringError:
                self.vent_speed = old
                raise
        elif name == "vent_temperature":
            self.vent_temperature = value
        else:
            if value < 0:
                raise SteeringError("heat_load must be >= 0")
            self.heat_load = value

    def observables(self) -> dict[str, float]:
        out = super().observables()
        out["mean_temperature"] = self.mean_temperature()
        out["comfort_fraction"] = self.comfort_fraction()
        out["vent_temperature"] = self.vent_temperature
        return out

    def sample(self) -> dict[str, Any]:
        return {
            "step": self.step_count,
            "temperature": self.temperature.astype(np.float32),
        }

    def checkpoint(self) -> dict[str, Any]:
        return {
            "shape": self.shape,
            "temperature": self.temperature.copy(),
            "vent_speed": self.vent_speed,
            "vent_temperature": self.vent_temperature,
            "heat_load": self.heat_load,
            "time": self.time,
            "step_count": self.step_count,
        }
