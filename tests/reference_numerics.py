"""Reference numerics: the straightforward kernels ``src/`` used before
the plan-once rewrites (PR 20 for LB3D, PEPC and the crowd's separation;
later the building stepper, its diagnostics and the crowd's goal draw),
kept verbatim as the test-side oracle.

``tests/test_numerics_bitexact.py`` requires the optimized kernels in
``repro.sims`` / ``repro.parallel`` to reproduce these **byte for byte**
(``tobytes()``, not ``allclose``): the optimizations only move index
arithmetic and Python dispatch, never the floating-point operations or
their order.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

# -- LB3D: slice-roll streaming, per-direction force loop, tensordot -------

C = np.array(
    [
        [0, 0, 0],
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
        [1, 1, 0], [-1, -1, 0], [1, -1, 0], [-1, 1, 0],
        [1, 0, 1], [-1, 0, -1], [1, 0, -1], [-1, 0, 1],
        [0, 1, 1], [0, -1, -1], [0, 1, -1], [0, -1, 1],
    ],
    dtype=np.int64,
)
W = np.array([1 / 3] + [1 / 18] * 6 + [1 / 36] * 12, dtype=np.float64)
CS2 = 1.0 / 3.0
CF = C.T.astype(np.float64)

_FULL = slice(None)


def _roll_plan(shift):
    """Slice plan implementing ``np.roll(a, shift, axis=(0, 1, 2))``: a roll
    by ``s`` along one axis is ``concatenate((a[-s:], a[:-s]))``."""
    plan = []
    for ax, s in enumerate(shift):
        if s:
            head = (_FULL,) * ax + (slice(-s, None),)
            tail = (_FULL,) * ax + (slice(None, -s),)
            plan.append((ax, head, tail))
    return tuple(plan)


_STREAM_PLANS = tuple(_roll_plan(tuple(c)) for c in C.tolist())
_FORCE_PLANS = tuple(_roll_plan(tuple(-x for x in c)) for c in C.tolist())


def _roll(a, plan):
    for ax, head, tail in plan:
        a = np.concatenate((a[head], a[tail]), axis=ax)
    return a


def lb3d_equilibrium(rho, u):
    """Second-order BGK equilibrium; rho (X,Y,Z), u (3,X,Y,Z) -> (19,X,Y,Z)."""
    cu = np.tensordot(C, u, axes=(1, 0)) / CS2
    usq = np.sum(u * u, axis=0) / (2.0 * CS2)
    return rho[None] * W[:, None, None, None] * (1.0 + cu + 0.5 * cu**2 - usq[None])


class ReferenceLB3D:
    """The parent's ``LatticeBoltzmann3D`` physics: init, force, advance."""

    def __init__(self, shape, g=0.0, tau=1.0, rho0=1.0, perturbation=0.01, seed=12345):
        self.shape = tuple(int(s) for s in shape)
        self.g = float(g)
        self.tau = float(tau)
        rng = np.random.default_rng(seed)
        noise = perturbation * rng.standard_normal((2,) + self.shape)
        rho_r = 0.5 * rho0 * (1.0 + noise[0])
        rho_b = 0.5 * rho0 * (1.0 - noise[0] + 0.2 * noise[1])
        zero_u = np.zeros((3,) + self.shape)
        self.f_r = lb3d_equilibrium(rho_r, zero_u)
        self.f_b = lb3d_equilibrium(rho_b, zero_u)

    def _shan_chen_force(self, rho_other):
        acc = np.zeros((3,) + self.shape)
        for i in range(1, len(C)):
            shifted = _roll(rho_other, _FORCE_PLANS[i])
            weighted = W[i] * shifted
            ci = C[i]
            for a in range(3):
                c = ci[a]
                if c > 0:
                    acc[a] += weighted
                elif c < 0:
                    acc[a] -= weighted
        return -self.g * acc

    def advance(self):
        rho_r = self.f_r.sum(axis=0)
        rho_b = self.f_b.sum(axis=0)
        mom = np.tensordot(CF, self.f_r, axes=(1, 0)) + np.tensordot(
            CF, self.f_b, axes=(1, 0)
        )
        rho_tot = rho_r + rho_b
        u_common = mom / rho_tot[None]
        acc_r = self._shan_chen_force(rho_b)
        acc_b = self._shan_chen_force(rho_r)
        u_r = u_common + self.tau * acc_r
        u_b = u_common + self.tau * acc_b
        omega = 1.0 / self.tau
        self.f_r += omega * (lb3d_equilibrium(rho_r, u_r) - self.f_r)
        self.f_b += omega * (lb3d_equilibrium(rho_b, u_b) - self.f_b)
        f_r, f_b = self.f_r, self.f_b
        for i in range(1, len(C)):
            plan = _STREAM_PLANS[i]
            f_r[i] = _roll(f_r[i], plan)
            f_b[i] = _roll(f_b[i], plan)

    def order_parameter(self):
        rho_r, rho_b = self.f_r.sum(axis=0), self.f_b.sum(axis=0)
        return (rho_r - rho_b) / (rho_r + rho_b)


# -- Morton keys: one pass per bit ------------------------------------------


def interleave_bits3(x, y, z, bits):
    key = np.zeros(np.broadcast(x, y, z).shape, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    y = np.asarray(y, dtype=np.uint64)
    z = np.asarray(z, dtype=np.uint64)
    for b in range(bits):
        bit = np.uint64(1) << np.uint64(b)
        key |= ((x & bit) >> np.uint64(b)) << np.uint64(3 * b)
        key |= ((y & bit) >> np.uint64(b)) << np.uint64(3 * b + 1)
        key |= ((z & bit) >> np.uint64(b)) << np.uint64(3 * b + 2)
    return key


def morton_partition(positions, nranks, lo, hi, bits=16):
    span = hi - lo
    scale = (2**bits - 1) / span
    q = np.clip(((positions - lo) * scale), 0, 2**bits - 1).astype(np.uint64)
    keys = interleave_bits3(q[:, 0], q[:, 1], q[:, 2], bits)
    order = np.argsort(keys, kind="stable")
    n = len(order)
    owner = np.empty(n, dtype=np.int64)
    index_lists = []
    base, extra = divmod(n, nranks)
    start = 0
    for r in range(nranks):
        stop = start + base + (1 if r < extra else 0)
        idx = order[start:stop]
        owner[idx] = r
        index_lists.append(idx)
        start = stop
    return owner, index_lists


# -- PEPC: rank-loop domain boxes, full (E, phi) direct sum ------------------


def assign_domains(positions, nranks):
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    owner, lists = morton_partition(positions, nranks, lo, lo + span)
    boxes = np.zeros((nranks, 2, 3))
    centre = 0.5 * (lo + hi)
    for r, idx in enumerate(lists):
        if len(idx) == 0:
            boxes[r, 0] = centre
            boxes[r, 1] = centre
        else:
            boxes[r, 0] = positions[idx].min(axis=0)
            boxes[r, 1] = positions[idx].max(axis=0)
    return owner, boxes


def direct_field(positions, charges, eps=0.05, targets=None, exclude_self=True, chunk=256):
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    self_targets = targets is None
    tgt = positions if self_targets else np.asarray(targets, dtype=np.float64)
    n_t = len(tgt)
    E = np.zeros((n_t, 3))
    phi = np.zeros(n_t)
    eps2 = eps * eps
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        d = tgt[start:stop, None, :] - positions[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        inv_r = 1.0 / np.sqrt(r2)
        inv_r3 = inv_r / r2
        w = charges[None, :] * inv_r3
        if self_targets and exclude_self:
            idx = np.arange(start, stop)
            w[np.arange(stop - start), idx] = 0.0
        E[start:stop] = np.einsum("ij,ijk->ik", w, d)
        pw = charges[None, :] * inv_r
        if self_targets and exclude_self:
            pw[np.arange(stop - start), np.arange(start, stop)] = 0.0
        phi[start:stop] = pw.sum(axis=1)
    return E, phi


def plasma_compute_accel(sim):
    """The parent's ``PlasmaSim._compute_accel`` on the direct-sum path."""
    q = sim.base_charges.copy()
    q[sim.is_beam] *= sim.beam_charge_scale
    E, _phi = direct_field(sim.positions, q, eps=sim.eps)
    accel = (q[:, None] * E) / sim.masses[:, None]
    if sim.laser_intensity != 0.0:
        e_laser = (
            sim.laser_intensity * np.cos(sim.laser_omega * sim.time) * sim.laser_direction
        )
        accel += (q[:, None] * e_laser[None, :]) / sim.masses[:, None]
    return accel


def plasma_advance(sim):
    """The parent's kick-drift-kick ``PlasmaSim.advance``."""
    dt = sim.dt
    sim.velocities += 0.5 * dt * sim._accel
    sim.positions += dt * sim.velocities
    sim._accel = plasma_compute_accel(sim)
    sim.velocities += 0.5 * dt * sim._accel
    if sim.damping > 0.0:
        sim.velocities *= max(0.0, 1.0 - sim.damping * dt)


# -- building: six rolls and an upwind ``where`` per step --------------------


def _roll1(a, s, axis):
    """``np.roll(a, s, axis)`` for 0 < |s| < a.shape[axis], bit-identical.

    A roll is exactly ``concatenate((a[-s:], a[:-s]))`` along the axis;
    skipping np.roll's generic index arithmetic matters because the
    explicit stepper issues a dozen rolls per step on a small grid.
    """
    head = (_FULL,) * axis + (slice(-s, None),)
    tail = (_FULL,) * axis + (slice(None, -s),)
    return np.concatenate((a[head], a[tail]), axis=axis)


def building_flow_field(sim):
    nx, ny, nz = sim.shape
    x = np.linspace(0.0, 1.0, nx)[:, None, None]
    z = np.linspace(0.0, 1.0, nz)[None, None, :]
    u = np.zeros((3,) + sim.shape)
    u[0] = sim.vent_speed * (1.0 - 0.6 * x) * (0.4 + 0.6 * z)
    u[2] = -0.2 * sim.vent_speed * np.sin(np.pi * x) * z
    return u


def building_advance(sim):
    """The parent's ``BuildingClimate.advance``."""
    T = sim.temperature
    u = building_flow_field(sim)
    dt = sim.dt

    # First-order upwind advection (flow is predominantly +x, -z).
    dT = np.zeros_like(T)
    for axis in range(3):
        vel = u[axis]
        fwd = _roll1(T, -1, axis)
        back = _roll1(T, 1, axis)
        dT -= dt * np.where(vel > 0, vel * (T - back), vel * (fwd - T))
        # Diffusion neighbours reuse the advection shifts below; the
        # grouping mirrors the original `lap += back + fwd` loop so
        # the floating-point accumulation stays bit-identical.
        if axis == 0:
            lap = -6.0 * T + (back + fwd)
        else:
            lap += back + fwd

    # Diffusion (FTCS 7-point Laplacian), insulated walls handled by
    # the boundary overwrite below.
    dT += dt * sim.diffusivity * lap

    # Internal heat load.
    dT += dt * sim.heat_load * sim.sources

    sim.temperature = T + dT
    # Boundary conditions: inlet wall held at vent temperature over the
    # duct area; outlet wall is outflow (zero-gradient); other walls
    # relax slowly toward ambient (imperfect insulation).
    nz = sim.shape[2]
    sim.temperature[0, :, nz // 2 :] = sim.vent_temperature
    sim.temperature[-1] = sim.temperature[-2]
    alpha = 0.02
    for sl in (
        (slice(None), 0),
        (slice(None), -1),
    ):
        sim.temperature[sl] += alpha * (sim.ambient - sim.temperature[sl])
    sim.temperature[:, :, -1] += alpha * (sim.ambient - sim.temperature[:, :, -1])


def building_mean_temperature(sim):
    return float(sim.temperature.mean())


def building_comfort_fraction(sim, lo=20.0, hi=24.0):
    occupied = sim.temperature[:, :, : sim.shape[2] // 2]
    ok = (occupied >= lo) & (occupied <= hi)
    return float(ok.mean())


# -- crowd: the parent's ``CrowdSim.advance`` ---------------------------------


def crowd_choose_goals(sim, n):
    weights = np.maximum(sim.attractiveness, 1e-12)
    p = weights / weights.sum()
    return sim.rng.choice(len(sim.exhibits), size=n, p=p)


def crowd_advance(sim):
    targets = sim.exhibits[sim.goal]
    delta = targets - sim.positions
    dist = np.linalg.norm(delta, axis=1)
    arrived = dist < 1.0

    sim.dwell[arrived] += 1
    expired = sim.dwell >= sim.dwell_steps
    if np.any(expired):
        sim.goal[expired] = crowd_choose_goals(sim, int(expired.sum()))
        sim.dwell[expired] = 0

    moving = ~arrived
    if np.any(moving):
        step_dir = delta[moving] / dist[moving][:, None]
        noise = 0.3 * sim.rng.standard_normal((int(moving.sum()), 2))
        sim.positions[moving] += sim.dt * sim.speed * (step_dir + noise)
    d = sim.positions[:, None, :] - sim.positions[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", d, d)
    np.fill_diagonal(r2, np.inf)
    close = r2 < 0.25
    if np.any(close):
        push = np.where(close[..., None], d / np.maximum(r2, 1e-6)[..., None], 0.0)
        sim.positions += 0.01 * push.sum(axis=1)
    w, h = sim.floor
    sim.positions[:, 0] = np.clip(sim.positions[:, 0], 0.0, w)
    sim.positions[:, 1] = np.clip(sim.positions[:, 1], 0.0, h)
