"""D3Q19 two-component Shan-Chen lattice Boltzmann (the RealityGrid code).

Paper section 2.2: "The computation was a Lattice Boltzmann 3D code
simulating a mixture of two fluids.  The parameter used for the steering
was the miscibility of the fluids.  The simulation was on a 3D grid with
periodic boundary conditions.  As the miscibility parameter was altered,
the structures formed by the fluids changed."

The Shan-Chen pseudo-potential coupling ``g`` between the two components
*is* that miscibility knob: below the critical coupling the fluids mix;
above it they spontaneously demix and form the structures the
visualization shows as isosurfaces of the order parameter.

Implementation notes: all index arithmetic is done once per lattice
shape (:class:`_LatticePlan`, shared by every simulation of that shape);
a step is then a fixed sequence of whole-array calls on preallocated
buffers.  Both components live in one ``(2, 19, N)`` block: streaming
(periodic BCs exactly as the paper states) is one gather of the
post-collision populations through precomputed flat indices; forcing,
with the original Shan-Chen velocity shift, gathers the 18 shifted
densities of the other component the same way.  Every floating-point
operation, and the order of every order-sensitive accumulation, is that
of the straightforward per-direction kernel kept in
``tests/reference_numerics.py``; the results are byte-identical.
"""

from __future__ import annotations

from typing import Any
from weakref import WeakValueDictionary

import numpy as np

from repro.errors import ReproError, SteeringError
from repro.sims.base import Simulation

# D3Q19 velocity set and weights.
_C = np.array(
    [
        [0, 0, 0],
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
        [1, 1, 0], [-1, -1, 0], [1, -1, 0], [-1, 1, 0],
        [1, 0, 1], [-1, 0, -1], [1, 0, -1], [-1, 0, 1],
        [0, 1, 1], [0, -1, -1], [0, 1, -1], [0, -1, 1],
    ],
    dtype=np.int64,
)
_W = np.array(
    [1 / 3]
    + [1 / 18] * 6
    + [1 / 36] * 12,
    dtype=np.float64,
)
_CS2 = 1.0 / 3.0
_Q = len(_C)

#: ``_C`` as the two float64 matrices the step multiplies by: (3, 19) in
#: Fortran order for the momentum and (19, 3) in C order for ``c_i . u``.
#: ``np.dot`` hands BLAS the operand layouts it is given, and the bits of
#: a product depend on them, so these layouts are part of the contract.
_CF = _C.T.astype(np.float64)
_CU = _C.astype(np.float64)

#: (direction, axis, sign) of the 30 non-zero components of c_1..c_18, in
#: the order the force accumulates them: direction-major, then axis.
_FORCE_TERMS = tuple((i, a, int(_C[i, a])) for i in range(1, _Q) for a in range(3) if _C[i, a])


class _LatticePlan:
    """What stepping one lattice shape needs besides the populations:
    gather indices and scratch buffers, shared by every simulation of
    the shape (a fleet runs dozens on one).

    With ``N`` sites, populations are a raveled ``(2, 19, N)`` block and
    densities a raveled ``(2, N)`` block.  ``stream`` (``2*19*N``) reads,
    for component k and direction i, site ``x - c_i`` of population
    ``(k, i)`` — the periodic ``np.roll`` by ``c_i``.  ``force``
    (``18*2*N``, laid out ``(18, 2, N)``) reads, for direction i >= 1 and
    component k, site ``x + c_i`` of the *other* component's density:
    74 ``intp`` per site in all.  The scratch buffers carry nothing from
    one step to the next, so simulations may share them as long as they
    step one at a time — the DES kernel is single-threaded.
    """

    __slots__ = (
        "stream", "force", "rho", "rho_tot", "mom", "mom_b", "shifted", "acc",
        "force_ops", "u", "usq", "cu", "feq", "__weakref__",
    )  # fmt: skip

    def __init__(self, shape: tuple[int, int, int]) -> None:
        n = shape[0] * shape[1] * shape[2]
        sites = np.arange(n, dtype=np.intp).reshape(shape)
        shifts = [tuple(c) for c in _C.tolist()]
        upstream = np.stack([np.roll(sites, c, axis=(0, 1, 2)).ravel() for c in shifts])
        upstream += np.arange(_Q, dtype=np.intp)[:, None] * n
        self.stream = np.concatenate((upstream, upstream + _Q * n), axis=None)
        downstream = np.stack(
            [np.roll(sites, tuple(-s for s in c), axis=(0, 1, 2)).ravel() for c in shifts[1:]]
        )
        self.force = np.stack((downstream + n, downstream), axis=1).ravel()

        self.rho = np.empty((2, n))
        self.rho_tot = np.empty(n)
        self.mom = np.empty((3, n))
        self.mom_b = np.empty((3, n))
        self.shifted = np.empty((_Q - 1, 2, n))
        self.acc = np.empty((3, 2, n))
        # acc[a] (+|-)= shifted[i - 1], as views bound once
        self.force_ops = tuple(
            (np.add if sign > 0 else np.subtract, self.acc[a], self.shifted[i - 1])
            for i, a, sign in _FORCE_TERMS
        )
        self.u = np.empty((2, 3, n))
        self.usq = np.empty((2, n))
        self.cu = np.empty((2, _Q, n))
        self.feq = np.empty((2, _Q, n))


#: shape -> plan, for as long as a simulation of that shape is alive
_PLANS: WeakValueDictionary[tuple[int, int, int], _LatticePlan] = WeakValueDictionary()


class LatticeBoltzmann3D(Simulation):
    """Two-component Shan-Chen LB mixture with steerable miscibility.

    Parameters
    ----------
    shape:
        Lattice dimensions, e.g. ``(32, 32, 32)``.
    g:
        Inter-component coupling (the steered "miscibility").  Empirically
        on this discretization the mixture stays miscible below g ~ 1.5
        and demixes above g ~ 2.0 (rho0 = 1, tau = 1).  g outside
        [0, 4.5] is rejected; inside it a large g can still diverge (on a
        6³ lattice the populations overflow at step 297 for g = 3.5, 117
        for 4.0 and 36 for 4.5), and :meth:`sample` then raises.
    tau:
        BGK relaxation time (same for both components).
    seed:
        RNG seed for the initial density perturbation.
    """

    #: steerable parameter names (the demo steered ``g``)
    STEERABLE = ("g", "tau")

    def __init__(
        self,
        shape: tuple[int, int, int] = (16, 16, 16),
        g: float = 0.0,
        tau: float = 1.0,
        rho0: float = 1.0,
        perturbation: float = 0.01,
        seed: int = 12345,
    ) -> None:
        super().__init__()
        if len(shape) != 3 or min(shape) < 4:
            raise SteeringError("lattice must be 3D with every side >= 4")
        if tau <= 0.5:
            raise SteeringError("tau must exceed 0.5 for stability")
        self._validate_g(float(g))
        self.shape = tuple(int(s) for s in shape)
        self.g = float(g)
        self.tau = float(tau)
        self.rho0 = float(rho0)
        rng = np.random.default_rng(seed)
        noise = perturbation * rng.standard_normal((2,) + self.shape)
        # Component densities start near rho0/2 each with a random perturbation.
        rho = np.empty((2,) + self.shape)
        rho[0] = 0.5 * rho0 * (1.0 + noise[0])
        rho[1] = 0.5 * rho0 * (1.0 - noise[0] + 0.2 * noise[1])
        # Equilibrium at rest: with u = 0 the velocity bracket is exactly
        # 1.0, so f_i = rho * w_i.  Populations of red (0) and blue (1) are
        # one (2, 19, N) block.
        self._pop = rho.reshape(2, 1, -1) * _W[:, None]
        self._plan: _LatticePlan | None = None  # bound on the first step

    # -- physics ------------------------------------------------------------

    def advance(self) -> None:
        w = self._plan
        if w is None:
            w = _PLANS.get(self.shape)
            if w is None:
                w = _PLANS[self.shape] = _LatticePlan(self.shape)
            self._plan = w
        pop, rho, mom, u, cu, feq = self._pop, w.rho, w.mom, w.u, w.cu, w.feq

        np.add.reduce(pop, axis=1, out=rho)
        np.dot(_CF, pop[0], out=mom)
        np.dot(_CF, pop[1], out=w.mom_b)
        np.add(mom, w.mom_b, out=mom)
        np.add(rho[0], rho[1], out=w.rho_tot)
        np.divide(mom, w.rho_tot, out=mom)  # common velocity u'

        # Shan-Chen inter-component forcing via equilibrium velocity shift:
        # u_eq_sigma = u' + tau * F_sigma / rho_sigma.  With psi = rho the
        # local-density factor of F cancels against 1/rho, so the
        # acceleration is just -g * sum_i w_i rho_other(x + c_i) c_i.  The
        # per-axis term is w_i * shifted * c_ia with c_ia in {-1, 0, 1};
        # multiplying by +-1.0 is exact, so w_i * shifted is computed once
        # and added or subtracted.  Floating-point addition does not
        # associate: the 30 terms are accumulated in _FORCE_TERMS order.
        rho.reshape(-1).take(w.force, out=w.shifted.reshape(-1), mode="clip")
        np.multiply(w.shifted, _W[1:, None, None], out=w.shifted)
        w.acc.fill(0.0)
        for op, acc_axis, weighted in w.force_ops:
            op(acc_axis, weighted, out=acc_axis)
        np.multiply(w.acc.transpose(1, 0, 2), -self.g, out=u)
        np.multiply(u, self.tau, out=u)
        np.add(u, mom, out=u)

        # Second-order BGK equilibrium of both components, then relaxation:
        # feq = rho * w_i * (1 + cu + cu^2 / 2 - usq), cu = c_i.u / cs^2.
        np.dot(_CU, u[0], out=cu[0])
        np.dot(_CU, u[1], out=cu[1])
        np.divide(cu, _CS2, out=cu)
        np.multiply(u, u, out=u)
        np.add.reduce(u, axis=1, out=w.usq)
        np.divide(w.usq, 2.0 * _CS2, out=w.usq)
        np.multiply(cu, cu, out=feq)
        np.multiply(feq, 0.5, out=feq)
        np.add(cu, 1.0, out=cu)
        np.add(cu, feq, out=cu)
        np.subtract(cu, w.usq[:, None, :], out=cu)
        np.multiply(rho[:, None, :], _W[:, None], out=feq)
        np.multiply(feq, cu, out=feq)
        np.subtract(feq, pop, out=feq)
        np.multiply(feq, 1.0 / self.tau, out=feq)
        np.add(pop, feq, out=cu)  # post-collision populations

        # Streaming with periodic boundary conditions, back into the block.
        cu.reshape(-1).take(w.stream, out=pop.reshape(-1), mode="clip")

    def __getstate__(self) -> dict[str, Any]:
        # A copy or pickle must not duplicate the shared plan (and would
        # sever the views inside it): the copy binds the shared one itself.
        return {**self.__dict__, "_plan": None}

    # -- fields and diagnostics ----------------------------------------------

    def densities(self) -> tuple[np.ndarray, np.ndarray]:
        rho = self._pop.sum(axis=1).reshape((2,) + self.shape)
        return rho[0], rho[1]

    def order_parameter(self) -> np.ndarray:
        """phi = (rho_r - rho_b) / (rho_r + rho_b) in [-1, 1]."""
        rho_r, rho_b = self.densities()
        return (rho_r - rho_b) / (rho_r + rho_b)

    def demix_measure(self) -> float:
        """Std-dev of the order parameter: ~0 mixed, -> O(1) demixed.

        This is the scalar whose response to steering ``g`` the S44 bench
        tracks.
        """
        return float(self.order_parameter().std())

    def total_mass(self) -> float:
        rho_r, rho_b = self.densities()
        return float(rho_r.sum() + rho_b.sum())

    # -- steering surface ----------------------------------------------------

    def steerable_parameters(self) -> dict[str, Any]:
        return {"g": self.g, "tau": self.tau}

    @staticmethod
    def _validate_g(value: float) -> None:
        if not 0.0 <= value <= 4.5:
            raise SteeringError(
                f"coupling g={value} outside the accepted range [0, 4.5]"
            )

    def set_parameter(self, name: str, value: Any) -> None:
        if name == "g":
            value = float(value)
            self._validate_g(value)
            self.g = value
        elif name == "tau":
            value = float(value)
            if value <= 0.5:
                raise SteeringError("tau must exceed 0.5 for stability")
            self.tau = value
        else:
            raise SteeringError(f"LB3D has no steerable parameter {name!r}")

    def observables(self) -> dict[str, float]:
        out = super().observables()
        out["demix"] = self.demix_measure()
        out["mass"] = self.total_mass()
        out["g"] = self.g
        return out

    def sample(self) -> dict[str, Any]:
        """Emit the order-parameter field — what the viz isosurfaces.

        A lattice that has diverged raises here, where the session reads
        it, instead of shipping a field of NaNs.
        """
        phi = self.order_parameter()
        if not np.isfinite(phi).all():
            raise ReproError(f"LB3D diverged by step {self.step_count} at g={self.g}")
        return {"step": self.step_count, "order_parameter": phi.astype(np.float32)}

    # -- checkpoint -----------------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        return {
            "shape": self.shape,
            "g": self.g,
            "tau": self.tau,
            "rho0": self.rho0,
            "time": self.time,
            "step_count": self.step_count,
            "f_r": self._pop[0].reshape((_Q,) + self.shape).copy(),
            "f_b": self._pop[1].reshape((_Q,) + self.shape).copy(),
        }
