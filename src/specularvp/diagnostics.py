"""Diagnostics: every quantitative identity the scheme is supposed to satisfy.

All diagnostics are pure folds over a run's record (its snapshots with
their fields, and its events); nothing here mutates a run.

Conventions worth pinning down once:

* The energy ledger tracks  total(t) - total(0) - int_0^t K  where
  K = 2 sum_i w_i (1 - rbar^zeta(x_i)) v_i . S_i  and  S_i is the *uncut-
  by-zeta* gradient sum  sum_j w_j grad_x G^delta(x_i, x_j)  (equivalently
  minus the field before the boundary cutoff).  A naive implementation
  using the cut field gives identically zero.
* K jumps when a particle reflects (v flips against a nonzero S), so the
  trapezoid K-integral carries an event correction  J h (1/2 - theta)  per
  event, in the step that made it; without it the ledger loses an order of
  accuracy at bounces.
* The whole-space (Problem B) route replaces (1 - rbar^zeta) S by
  (sgn - sbar)(x_1) times the mollified-kernel sum against the odd density.
* Every diagnostic reads the run itself, a ``RunRecord``: the list of its
  samples (t, snapshot, field, events).  So a ledger cannot be audited
  with another field, sign or kind than the run's.  A stored field may be
  bound to the step's ``Sources``, which carry no velocities, so ``k_tau``
  takes the snapshot beside it.
* ``LedgerObserver`` streams the ledger and the log-log moment from the
  stepper's own pair sweeps; ``energy_audit`` is an independent oracle
  that sums each snapshot's potential and K in passes of its own.  Both
  book a bounce with one helper and add in the same order, so they agree
  bit for bit, as does ``blowup_monitor``'s moment.
"""

from __future__ import annotations

import ctypes
import json
from array import array
from dataclasses import dataclass

import numpy as np

from . import fields
from .ensemble import Ensemble, kinetic_energy
from .fields import c_d, grad_green, green
from .flow import RunRecord, StepperConfig, Trajectory, step
from .geometry import Ball

__all__ = [
    "EnergyLedger",
    "LedgerObserver",
    "SeparationProbe",
    "GridMismatch",
    "PairMismatch",
    "StencilReflected",
    "SupportViolation",
    "k_tau",
    "energy_audit",
    "energy_bound_check",
    "make_separation_probe",
    "phi_series",
    "phi_growth_check",
    "SeparableBump",
    "bump_library",
    "weakform_residual",
    "incompressibility_probe",
    "blowup_monitor",
    "audit_green",
    "float_rows",
    "csv_rows",
    "LEDGER_HEADER",
    "write_ledger_csv",
    "write_phi_csv",
    "write_residual_jsonl",
]


class GridMismatch(ValueError):
    """A diagnostic asked for a time beyond the run."""


class PairMismatch(ValueError):
    """Separation probe families are not aligned."""


class StencilReflected(RuntimeError):
    """A tracer of the incompressibility stencil hit the boundary."""


class SupportViolation(ValueError):
    """Test function fails the grazing/initial-corner support exclusion."""


# -----------------------------------------------------------------------------
# energy ledger
# -----------------------------------------------------------------------------

def _k_power(e: Ensemble, w, gap, s_sum) -> float:
    """K = 2 sum_i w_i gap(x_i) v_i . S_i, w the live weights."""
    return 2.0 * float((w * gap * (e.v * s_sum).sum(axis=1)).sum())


def k_tau(snap: Ensemble, field) -> float:
    """Instantaneous energy-error power K of a snapshot in its ``SnapshotField``.

    Domain route:   K = 2 sum_i w_i (1 - rbar^zeta(x_i)) v_i . S_i with S_i
    = sum_j w_j grad_x G^delta(x_i, x_j), vanishing as soon as every
    particle sits beyond 2 zeta of the boundary (and identically for the
    plain whole-space kind).

    Problem B route: K = 2 sum_i w_i (sgn - sbar)(x_i1) v_i . T_i with T_i
    = [grad H_eps * rho_odd](x_i) the mollified-kernel sum against the odd
    density, vanishing when no particle sits within the smoothed-sign
    strip.  A hard-sign field has no sign mismatch at all: its K is
    identically zero.
    """
    gap = field.model.cutoff_gap(snap.x)
    if not np.any(gap):
        return 0.0
    return _k_power(snap, snap.w * snap.alive, gap, field.pre_cutoff_sum(snap.x))


@dataclass
class EnergyLedger:
    """Kinetic/potential/total series plus the accumulated K-integral.

    drift = total(t) - total(0) - int_0^t K; drift[0] == 0 by construction.
    """

    times: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray
    total: np.ndarray
    k_tau: np.ndarray
    k_integral: np.ndarray
    drift: np.ndarray

    @property
    def max_abs_drift(self) -> float:
        return float(np.max(np.abs(self.drift)))


def _event_correction(ev, field, t0, t1) -> float:
    """A bounce's trapezoid correction J h (1/2 - theta) to the K-integral
    of the step [t0, t1] that made it.

    K jumps by J = 2 w_i (charge - factor)(x*) (v_plus - v_minus) . S_i(x*)
    at a reflection, and theta = (t* - t0) / h, which is 0 for a bounce at
    the step's start and may round just past 1.  The sources are those of
    ``field``, the field of the snapshot entering the step (an O(dt)
    approximation of an O(dt) term).
    """
    gap = float(field.model.cutoff_gap(ev.x)[0])
    if gap == 0.0:
        return 0.0
    s_at = field.pre_cutoff_sum(ev.x)[0]
    jump = 2.0 * field.ens.w[ev.particle] * gap * float(np.dot(ev.v_plus - ev.v_minus, s_at))
    h = t1 - t0
    return float(jump * h * (0.5 - (ev.t - t0) / h))


def energy_audit(run: RunRecord) -> EnergyLedger:
    """Recompute the energy ledger from a run's samples as whole arrays: the
    trapezoid K-integral plus the summed event corrections, and the drift.

    Each snapshot's potential and K are summed in passes of their own in
    the field stored with it (``model.potential``, ``pre_cutoff_sum``), not
    read from the sweep the run stepped with.  A sample's events are booked
    in the step that ends on it, against the field of the sample before, in
    ``LedgerObserver``'s order.
    """
    times = np.array([t for t, *_ in run.samples])
    ke = np.array([kinetic_energy(e) for _, e, _, _ in run.samples])
    pe = np.array([f.model.potential(e) for _, e, f, _ in run.samples])
    kt = np.array([k_tau(e, f) for _, e, f, _ in run.samples])
    corr = np.zeros(len(times))
    for k, ((t0, _, f0, _), (t1, *_, events)) in enumerate(zip(run.samples, run.samples[1:]), 1):
        for ev in events:
            corr[k] += _event_correction(ev, f0, t0, t1)
    total = ke + pe
    k_int = np.concatenate([[0.0], np.cumsum(0.5 * (kt[1:] + kt[:-1]) * np.diff(times))])
    k_int = k_int + np.cumsum(corr)
    return EnergyLedger(times, ke, pe, total, kt, k_int, total - total[0] - k_int)


class LedgerObserver:
    """The energy ledger and the log-log moment, accumulated during a run.

    Call it on each sample of ``flow.samples`` (or replay a record's
    ``samples`` into it): a snapshot's kinetic and potential energy, K
    and moment come from the snapshot and the cached ``sweep`` of the field
    the run stepped with (the cutoff gap from its factor).  A step's events
    are booked in the call that ends the step, against the field of the
    sample before, so a row is final when its step ends: the K-integral and
    the drift are running sums, added in ``np.cumsum``'s order.

    A call returns every ``every``-th sample's row (t, kinetic, potential,
    total, K_integral, drift) as Python floats, the initial one included,
    and None for the others.  The observer keeps those rows with their K
    for ``ledger()``, and every sample's moment for ``total_variation``, as
    packed doubles.  With ``every = 1`` both equal ``energy_audit`` and
    ``blowup_monitor`` on the run's record, bit for bit.
    """

    def __init__(self, every=1):
        self.every = every
        # the kept rows' t, kinetic, potential, total, K_integral, drift and K
        self._columns = tuple(array("d") for _ in range(7))
        self.moment = array("d")
        self._total0 = None
        self._trapezoids = -0.0   # the additive identity, as cumsum's first term
        self._corrections = 0.0
        self._previous = None     # (t, K, field) of the last sample

    def __call__(self, t, snap, field, events):
        model, sweep = field.model, field.sweep
        w, v2, znorm = _phase_terms(snap)
        kinetic = float((w * v2).sum())
        potential = model.energy(snap, sweep.phi)
        gap = model.cutoff_gap(snap.x, sweep.factor)
        kt = _k_power(snap, w, gap, sweep.pre_cutoff) if gap.any() else 0.0
        self.moment.append(_loglog_moment(w, znorm))
        total = kinetic + potential
        if self._previous is None:
            self._total0, k_int = total, 0.0
        else:
            t0, kt0, field0 = self._previous
            self._trapezoids += 0.5 * (kt + kt0) * (t - t0)
            corr = 0.0
            for ev in events:  # made by the step from the previous sample to this one
                corr += _event_correction(ev, field0, t0, t)
            self._corrections += corr
            k_int = self._trapezoids
        k_int += self._corrections
        self._previous = (t, kt, field)
        if (len(self.moment) - 1) % self.every:
            return None
        row = (t, kinetic, potential, total, k_int, total - self._total0 - k_int)
        for column, value in zip(self._columns, (*row, kt)):
            column.append(value)
        return row

    def ledger(self) -> EnergyLedger:
        """The kept rows as an ``EnergyLedger``."""
        t, ke, pe, total, k_int, drift, kt = (np.array(c) for c in self._columns)
        return EnergyLedger(t, ke, pe, total, kt, k_int, drift)

    @property
    def total_variation(self) -> float:
        return _total_variation(np.array(self.moment))


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    min_margin: float
    margins: np.ndarray


def energy_bound_check(ledger: EnergyLedger, tol=1e-4) -> BoundCheck:
    """total(t) <= total(0) (1 + tol) + |int K|(t), for all t."""
    if len(ledger.times) == 0:
        raise ValueError("empty ledger")
    bound = ledger.total[0] * (1.0 + tol) + np.abs(ledger.k_integral)
    margins = bound - ledger.total
    return BoundCheck(bool(np.all(margins >= 0.0)), float(np.min(margins)), margins)


# -----------------------------------------------------------------------------
# trajectory-separation functional (uniqueness monitor)
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationProbe:
    """Paired base/perturbed trajectory families sharing initial pairing.

    delta and zeta are the functional's own parameters (both in (0, 1)),
    unrelated to the field regularization knobs.
    """

    times: np.ndarray
    x_base: np.ndarray
    v_base: np.ndarray
    x_pert: np.ndarray
    v_pert: np.ndarray
    w: np.ndarray
    delta: float
    zeta: float

    def __post_init__(self):
        if not (0 < self.delta < 1 and 0 < self.zeta < 1):
            raise ValueError("delta and zeta must lie in (0, 1)")


def make_separation_probe(run_base: RunRecord, run_pert: RunRecord,
                          delta, zeta) -> SeparationProbe:
    """Pair two runs' snapshots by particle id; PairMismatch on misalignment."""
    (t_b, x_b, v_b), (t_p, x_p, v_p) = (
        (np.array([t for t, _ in run.snapshots]), np.array([s.x for _, s in run.snapshots]),
         np.array([s.v for _, s in run.snapshots])) for run in (run_base, run_pert))
    if x_b.shape != x_p.shape:
        raise PairMismatch("trajectory families differ in shape")
    if not np.allclose(t_b, t_p, rtol=0, atol=1e-12):
        raise PairMismatch("trajectory families differ in time grid")
    w_b = run_base.snapshots[0][1].w
    if not np.array_equal(w_b, run_pert.snapshots[0][1].w):
        raise PairMismatch("trajectory families differ in weights")
    return SeparationProbe(times=t_b, x_base=x_b, v_base=v_b, x_pert=x_p, v_pert=v_p,
                           w=w_b, delta=delta, zeta=zeta)


def phi_series(probe: SeparationProbe):
    """Phi(t) on the probe's whole grid: weighted mean log separation."""
    dx = np.linalg.norm(probe.x_base - probe.x_pert, axis=2)
    dv = np.linalg.norm(probe.v_base - probe.v_pert, axis=2)
    logs = np.log1p(dx / (probe.zeta * probe.delta) + dv / probe.delta)
    return np.sum(probe.w[None, :] * logs, axis=1) / np.sum(probe.w)


@dataclass(frozen=True)
class PhiGrowthReport:
    max_slope: float
    bound_shape: float     # 1/zeta + zeta + zeta log(1/(zeta delta)), C not asserted
    fitted_c: float
    slopes: np.ndarray


def phi_growth_check(probe: SeparationProbe) -> PhiGrowthReport:
    """Max finite-difference dPhi/dt against the theoretical bound shape.

    The constant in front of the bound is fitted, never asserted; callers
    compare fitted constants across refinements.
    """
    times = probe.times
    if len(times) < 2 or np.max(np.diff(times)) > 0.1 + 1e-12:
        raise ValueError("phi series must be sampled with at least 10 points per unit time")
    series = phi_series(probe)
    slopes = np.diff(series) / np.diff(times)
    max_slope = float(np.max(slopes)) if len(slopes) else 0.0
    shape = (
        1.0 / probe.zeta
        + probe.zeta
        + probe.zeta * np.log(1.0 / (probe.zeta * probe.delta))
    )
    return PhiGrowthReport(max_slope, float(shape), max_slope / shape, slopes)


# -----------------------------------------------------------------------------
# weak-form residual
# -----------------------------------------------------------------------------

def _bump(s):
    # C^2 compactly supported profile on [0, 1)
    out = np.where(s < 1.0, (1.0 - np.minimum(s, 1.0) ** 2) ** 3, 0.0)
    return out


def _bump_ratio(s):
    # b'(s)/s, finite at s = 0
    return np.where(s < 1.0, -6.0 * (1.0 - np.minimum(s, 1.0) ** 2) ** 2, 0.0)


class SeparableBump:
    """Test function psi1(t) psi2(x) psi3(v) from C^2 radial bumps.

    psi3 carries an even C^1 factor q(v_1) that vanishes on
    |v_1| <= graze_cut and saturates at 2*graze_cut, honoring the exclusion
    of grazing boundary velocities; psi1 is supported away from t = 0, so
    the initial-corner exclusion holds automatically.

    All evaluators broadcast: t of shape S with x, v of shape (S, d) give
    shape-S values and (S, d) gradients.
    """

    def __init__(self, t_center, t_radius, x_center, x_radius,
                 v_center, v_radius, graze_cut=0.0, amplitude=1.0):
        self.t_center = float(t_center)
        self.t_radius = float(t_radius)
        self.x_center = np.asarray(x_center, dtype=float)
        self.x_radius = float(x_radius)
        self.v_center = np.asarray(v_center, dtype=float)
        self.v_radius = float(v_radius)
        self.graze_cut = float(graze_cut)
        self.amplitude = float(amplitude)
        self.t0_margin = max(self.t_center - self.t_radius, 0.0)

    def _parts(self, t, x, v):
        """The scaled distances s_t, u_x, u_v, then q(v_1) and q'(v_1)."""
        st = np.abs(np.asarray(t, dtype=float) - self.t_center) / self.t_radius
        ux = np.linalg.norm(x - self.x_center, axis=-1) / self.x_radius
        uv = np.linalg.norm(v - self.v_center, axis=-1) / self.v_radius
        return (st, ux, uv, *self._q(np.asarray(v, dtype=float)[..., 0]))

    def _q(self, v1):
        if self.graze_cut == 0.0:
            return np.ones_like(np.asarray(v1, dtype=float)), 0.0
        u = np.clip((np.abs(v1) - self.graze_cut) / self.graze_cut, 0.0, 1.0)
        q = u * u * (3.0 - 2.0 * u)
        dq = 6.0 * u * (1.0 - u) / self.graze_cut * np.sign(v1)
        return q, dq

    def value(self, t, x, v):
        st, ux, uv, q, _ = self._parts(t, x, v)
        return self.amplitude * _bump(st) * _bump(ux) * _bump(uv) * q

    def grad_t(self, t, x, v):
        st, ux, uv, q, _ = self._parts(t, x, v)
        db = _bump_ratio(st) * (np.asarray(t, dtype=float) - self.t_center) / self.t_radius**2
        return self.amplitude * db * _bump(ux) * _bump(uv) * q

    def grad_x(self, t, x, v):
        st, ux, uv, q, _ = self._parts(t, x, v)
        db = _bump_ratio(ux)[..., None] / self.x_radius**2 * (x - self.x_center)
        return self.amplitude * (_bump(st) * _bump(uv) * q)[..., None] * db

    def grad_v(self, t, x, v):
        st, ux, uv, q, dq = self._parts(t, x, v)
        dv = np.asarray(v, dtype=float) - self.v_center
        db = _bump_ratio(uv)[..., None] / self.v_radius**2 * dv
        out = self.amplitude * (_bump(st) * _bump(ux) * q)[..., None] * db
        out[..., 0] += self.amplitude * _bump(st) * _bump(ux) * _bump(uv) * dq
        return out


def bump_library(d=3, t_span=(0.05, 1.0), speed=1.0, length=1.0):
    """The fixed test-function library used by the residual acceptance runs.

    Separable bumps with varied centers and radii; every member vanishes
    for |v_1| <= 0.05 speed (grazing exclusion) and is supported away from
    t = 0 (initial-corner exclusion).
    """
    t0, t1 = t_span
    tc = 0.5 * (t0 + t1)
    tr = 0.6 * (t1 - t0)
    gc = 0.05 * speed

    def vec(first, rest=0.0):
        out = np.full(d, rest, dtype=float)
        out[0] = first
        return out

    lib = [
        SeparableBump(tc, tr, vec(0.5 * length), 1.5 * length,
                      vec(0.8 * speed), 2.0 * speed, graze_cut=gc),
        SeparableBump(tc, tr, vec(0.5 * length), 1.5 * length,
                      vec(-0.8 * speed), 2.0 * speed, graze_cut=gc),
        SeparableBump(0.8 * tc, 0.8 * tr, vec(1.0 * length, 0.2 * length), 2.0 * length,
                      vec(0.0), 2.5 * speed, graze_cut=gc, amplitude=0.7),
        SeparableBump(1.2 * tc, 0.7 * tr, vec(0.3 * length), 1.0 * length,
                      vec(0.5 * speed, -0.3 * speed), 1.8 * speed, graze_cut=gc,
                      amplitude=1.3),
        SeparableBump(tc, 0.9 * tr, vec(0.8 * length, -0.4 * length), 2.5 * length,
                      vec(-0.5 * speed, 0.4 * speed), 2.2 * speed, graze_cut=gc,
                      amplitude=0.9),
    ]
    return lib


def _support_ok(phi, domain, t, x, v, value):
    """Admissibility at one sample: phi vanishes on the grazing set and at
    the initial boundary corner."""
    if value == 0.0 or domain is None:
        return True
    if float(domain.signed_distance(x)) > 1e-9 * domain.scale:
        return True
    if t <= 1e-12:
        return False
    n = domain.inward_normal(domain.project_boundary(x))
    vn = abs(float(np.dot(v, n)))
    threshold = max(getattr(phi, "graze_cut", 0.0), 1e-12 * float(np.linalg.norm(v)))
    return vn >= threshold


def weakform_residual(traj: Trajectory, phi, domain=None) -> float:
    """Residual of the renormalized transport identity along one trajectory.

    residual = phi(T, Z_T) - phi(0, Z_0)
               - int_0^T (d_t phi + v . grad_x phi + E . grad_v phi)(Z_t) dt
               - sum_events [phi(t*, x*, v_plus) - phi(t*, x*, v_minus)]

    The time quadrature is trapezoid over the recorded samples, subdivided
    at event times with one-sided velocity values, so the residual shrinks
    at second order under dt refinement.  The event sum is the Lagrangian
    face of the boundary-trace pairing of phi(x, v) with phi(x, R_x v).
    phi's evaluators must broadcast as SeparableBump's do: all samples are
    evaluated in one call.  Raises SupportViolation if phi is nonzero at a
    grazing boundary sample.
    """
    nodes = [(float(t), traj.x[k], traj.v[k], traj.e_field[k])
             for k, t in enumerate(traj.times)]
    for ev in traj.events:
        nodes.append((float(ev.t), ev.x, ev.v_minus, ev.e))
        nodes.append((float(ev.t) + 0.0, ev.x, ev.v_plus, ev.e))
    # stable sort keeps the minus node before the plus node at equal times
    nodes.sort(key=lambda nd: nd[0])

    tt = np.array([nd[0] for nd in nodes])
    xx = np.array([nd[1] for nd in nodes])
    vv = np.array([nd[2] for nd in nodes])
    ee = np.array([nd[3] for nd in nodes])
    vals = phi.value(tt, xx, vv)
    if domain is not None:
        live = np.flatnonzero(vals != 0.0)
        near = live[domain.signed_distance(xx[live]) <= 1e-9 * domain.scale]
        for k in near:
            if not _support_ok(phi, domain, tt[k], xx[k], vv[k], float(vals[k])):
                raise SupportViolation(
                    "test function violates the grazing-set exclusion")
    g = (
        phi.grad_t(tt, xx, vv)
        + np.sum(vv * phi.grad_x(tt, xx, vv), axis=-1)
        + np.sum(ee * phi.grad_v(tt, xx, vv), axis=-1)
    )
    integral = float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(tt)))

    jumps = sum(
        phi.value(ev.t, ev.x, ev.v_plus) - phi.value(ev.t, ev.x, ev.v_minus)
        for ev in traj.events
    )
    t0, tN = float(traj.times[0]), float(traj.times[-1])
    boundary_term = (
        phi.value(tN, traj.x[-1], traj.v[-1]) - phi.value(t0, traj.x[0], traj.v[0])
    )
    return boundary_term - integral - jumps


# -----------------------------------------------------------------------------
# incompressibility probe
# -----------------------------------------------------------------------------

def incompressibility_probe(run: RunRecord, seed_points, h=1e-5, t_end=1.0) -> np.ndarray:
    """|det J - 1| of the finite-difference flow-map Jacobian at each of the
    seed points, the rows of ``seed_points`` (phase points (x, v)).

    Each point's stencil of 4d+1 passive tracers (center and +-h along every
    phase coordinate) joins one tracer ensemble, which takes the run's own
    steps: step k is a ``step`` of ``run.dt`` in the field stored with
    sample k.  A step treats its rows independently, so each value is the
    one its stencil gives alone.  ``t_end`` must lie within the run
    (GridMismatch otherwise).  Any step in which a tracer's path bounces
    off the boundary, however briefly, raises StencilReflected (the map is
    not smooth across events, so every stencil must stay reflection-free).
    """
    cfg = StepperConfig(dt=run.dt)
    n_steps = cfg.steps(t_end, "t_end")
    if n_steps >= len(run.samples):
        raise GridMismatch(f"t_end = {t_end!r} lies beyond the run")
    z0 = np.asarray(seed_points, dtype=float)
    m, d = len(z0), z0.shape[1] // 2
    offsets = np.zeros((4 * d + 1, 2 * d))
    offsets[1::2], offsets[2::2] = h * np.eye(2 * d), -h * np.eye(2 * d)
    z = (z0[:, None, :] + offsets).reshape(-1, 2 * d)
    tracers = Ensemble(x=z[:, :d], v=z[:, d:], w=np.zeros(len(z)), domain=run.final.domain)

    for _, _, field, _ in run.samples[:n_steps]:
        tracers, events, _ = step(tracers, field, cfg)
        if events:
            raise StencilReflected("tracer stencil reached the boundary")

    z_end = np.concatenate([tracers.x, tracers.v], axis=1).reshape(m, 4 * d + 1, 2 * d)
    jac = (z_end[:, 1::2] - z_end[:, 2::2]).transpose(0, 2, 1) / (2.0 * h)
    return np.abs(np.linalg.det(jac) - 1.0)


# -----------------------------------------------------------------------------
# blow-up monitor
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupReport:
    times: np.ndarray
    loglog_moment: np.ndarray
    total_variation: float
    integrand_bound: np.ndarray


def _phase_terms(e: Ensemble):
    """(w * alive, |v|^2, |(x, v)|); inf at the float limit, silently."""
    with np.errstate(over="ignore"):
        v2 = (e.v**2).sum(axis=1)
        return e.w * e.alive, v2, np.sqrt((e.x**2).sum(axis=1) + v2)


def _loglog_moment(w, znorm) -> float:
    return float((w * np.log(np.log(2.0 + znorm))).sum())


def _total_variation(moment) -> float:
    return float(np.sum(np.abs(np.diff(moment))))


def blowup_monitor(run: RunRecord) -> BlowupReport:
    """Per-sample sum_i w_i loglog(2 + |Z_i|) and its drive-term bound.

    The moment's total variation staying finite under refinement is the
    discrete face of trajectories not blowing up in finite time; the bound
    series integrates |b(Z)| / ((1 + |Z|) log(2 + |Z|)), with the field the
    run felt (the one stored with each snapshot).
    """
    times = np.array([t for t, _ in run.snapshots])
    moment = np.empty(len(times))
    bound = np.empty(len(times))
    for k, ((_, e), e_val) in enumerate(zip(run.snapshots, run.fields)):
        w, v2, znorm = _phase_terms(e)
        moment[k] = _loglog_moment(w, znorm)
        bnorm = np.sqrt(v2 + np.sum(e_val**2, axis=1))
        bound[k] = float(np.sum(w * bnorm / ((1.0 + znorm) * np.log(2.0 + znorm))))
    return BlowupReport(times, moment, _total_variation(moment), bound)


# -----------------------------------------------------------------------------
# Green-function bound audit
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class GreenAudit:
    passed: bool
    max_value_ratio: float
    max_gradient_ratio: float
    max_boundary_potential: float
    pairs: int


def _random_interior(rng, domain, n):
    d = domain.dim
    if isinstance(domain, Ball):
        out = np.empty((n, d))
        have = 0
        while have < n:
            cand = domain.radius * (2.0 * rng.random((n - have, d)) - 1.0)
            cand = cand[np.linalg.norm(cand, axis=1) < domain.radius * 0.999]
            out[have : have + len(cand)] = cand
            have += len(cand)
        return out
    out = rng.random((n, d)) * 2.0 - 1.0
    out[:, 0] = rng.random(n) * 2.0 + 1e-6
    return out


def _random_boundary(rng, domain, n):
    d = domain.dim
    if isinstance(domain, Ball):
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return domain.radius * u
    out = rng.random((n, d)) * 2.0 - 1.0
    out[:, 0] = 0.0
    return out


def audit_green(domain, kind, n_pairs=10_000, seed=0) -> GreenAudit:
    """Audit the pointwise Green bounds and the grounded-boundary property.

    Bounds checked on random interior pairs:
      0 <= G <= C_v |x-z|^(2-d)      with C_v = 2 c_d / (d-2),
      |grad_x G| <= C_g |x-z|^(1-d)  with C_g = 2 c_d
    (the two constants agree at d = 3; the gradient bound needs the larger
    one in higher dimension).  The boundary check evaluates the potential
    of a random 32-particle ensemble at 100 boundary points, relative to
    the direct-kernel scale.
    """
    rng = np.random.default_rng(seed)
    d = domain.dim
    cv = 2.0 * c_d(d) / (d - 2)
    cg = 2.0 * c_d(d)

    x = _random_interior(rng, domain, n_pairs)
    z = _random_interior(rng, domain, n_pairs)
    sep = np.linalg.norm(x - z, axis=1)
    ok = sep > 1e-12 * domain.scale
    x, z, sep = x[ok], z[ok], sep[ok]
    g = green(kind, domain, x, z)
    gg = np.linalg.norm(grad_green(kind, domain, x, z), axis=1)
    vr = float(np.max(g / (cv * sep ** (2.0 - d))))
    gr = float(np.max(gg / (cg * sep ** (1.0 - d))))
    nonneg = bool(np.min(g) >= -1e-15 * np.max(np.abs(g)))

    src = _random_interior(rng, domain, 32)
    w = rng.random(32)
    xb = _random_boundary(rng, domain, 100)
    pot = np.sum(w[None, :] * green(kind, domain, xb[:, None, :], src[None, :, :]), axis=1)
    typical = np.sum(
        w[None, :]
        * (c_d(d) / (d - 2))
        * np.linalg.norm(xb[:, None, :] - src[None, :, :], axis=-1) ** (2.0 - d),
        axis=1,
    )
    br = float(np.max(np.abs(pot) / typical))

    passed = nonneg and vr <= 1.0 and gr <= 1.0 and br < 1e-10
    return GreenAudit(passed, vr, gr, br, int(len(sep)))


# -----------------------------------------------------------------------------
# writers (diff-friendly, deterministic)
# -----------------------------------------------------------------------------

def float_rows(*columns, ids=None):
    """The rows of the columns (1-D, or 2-D for several) side by side, as
    comma-joined ``repr(float)``: the shortest text that reads back to the
    same double; ``ids`` (integers), when given, go after the first value.
    One ``tolist`` makes every value a Python float at once.  ``csv_rows``
    writes the same text in the compiled kernel."""
    rows = np.column_stack(columns).astype(float).tolist()
    if ids is None:
        return [",".join(map(repr, row)) for row in rows]
    return [",".join([repr(row[0]), str(i), *map(repr, row[1:])])
            for row, i in zip(rows, np.asarray(ids).tolist(), strict=True)]


def csv_rows(*columns, ids=None):
    """``float_rows``' lines as ASCII bytes, each ending in a newline, from
    one call of pairs.c's ``csv_rows``, a shortest-digits formatter that
    writes ``repr``'s text; ``float_rows`` itself without the compiled
    kernel.  The values and ids go over as C-ordered bytes, and the lines
    come back from a buffer of pairs.c's bound (25 bytes a value, 21 an id),
    so a block of rows costs one copy each way."""
    kernel = fields._load_kernel()
    if kernel is None:
        return "".join(row + "\n" for row in float_rows(*columns, ids=ids)).encode()
    values = np.column_stack(columns).astype(float, copy=False)
    m, n = values.shape
    if ids is not None:
        ids = np.asarray(ids, dtype=np.dtype(ctypes.c_long))
        if ids.shape != (m,):
            raise ValueError(f"{len(ids)} ids for {m} rows")
        ids = ids.tobytes()
    out = ctypes.create_string_buffer(m * (25 * n + 21))
    return ctypes.string_at(out, kernel.csv_rows(m, n, values.tobytes(), ids, out))


LEDGER_HEADER = "t,kinetic,potential,total,K_integral,drift"


def write_ledger_csv(ledger: EnergyLedger, path):
    with open(path, "wb") as fh:
        fh.write(LEDGER_HEADER.encode() + b"\n")
        fh.write(csv_rows(ledger.times, ledger.kinetic, ledger.potential,
                          ledger.total, ledger.k_integral, ledger.drift))


def read_ledger_csv(path) -> EnergyLedger:
    """A written ledger; its K column reads as zeros (it is not written)."""
    data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    t, ke, pe, total, k_int, drift = (np.asarray(data[name], dtype=float)
                                      for name in LEDGER_HEADER.split(","))
    return EnergyLedger(t, ke, pe, total, np.zeros(len(data)), k_int, drift)


def write_phi_csv(probe: SeparationProbe, path):
    series = phi_series(probe)
    slopes = np.concatenate([[0.0], np.diff(series) / np.diff(probe.times)])
    with open(path, "wb") as fh:
        fh.write(b"t,phi,slope\n" + csv_rows(probe.times, series, slopes))


def write_residual_jsonl(records, path):
    """One JSON record per (trajectory, test function) residual."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
