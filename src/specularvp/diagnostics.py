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
  event; without it the ledger loses an order of accuracy at bounces.
* The whole-space (Problem B) route replaces (1 - rbar^zeta) S by
  (sgn - sbar)(x_1) times the mollified-kernel sum against the odd density.
* Every diagnostic reads the field from the run itself: ``blowup_monitor``
  and the trajectories read the field stored with each snapshot and each
  event, ``energy_audit`` and ``incompressibility_probe`` rebuild each
  stored snapshot's field with the run's own factory
  (``RunRecord.field_factory``), ``LedgerObserver`` and ``k_tau`` take a
  snapshot's ``SnapshotField``.  So a ledger cannot be audited with another
  field, sign or kind than the run's.
* ``energy_audit`` and ``blowup_monitor`` recompute everything from stored
  snapshots; ``LedgerObserver`` accumulates the same ledger and moment
  while ``integrate`` runs, from the stepper's own pair sweeps.  Both
  assemble the ledger with one helper, so they agree bit for bit.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

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
    "phi_functional",
    "phi_series",
    "phi_growth_check",
    "SeparableBump",
    "bump_library",
    "weakform_residual",
    "incompressibility_probe",
    "blowup_monitor",
    "audit_green",
    "float_rows",
    "write_ledger_csv",
    "write_phi_csv",
    "write_residual_jsonl",
]


class GridMismatch(ValueError):
    """Run was not recorded densely enough for this diagnostic."""


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


def k_tau(field) -> float:
    """Instantaneous energy-error power K of a snapshot's ``SnapshotField``.

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
    e = field.ens
    gap = field.model.cutoff_gap(e.x)
    if not np.any(gap):
        return 0.0
    return _k_power(e, e.w * e.alive, gap, field.pre_cutoff_sum(e.x))


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

    def every(self, stride) -> "EnergyLedger":
        """Every ``stride``-th row."""
        return EnergyLedger(*(getattr(self, f.name)[::stride]
                              for f in dataclasses.fields(self)))


def _add_event_corrections(corr, times, events, field_at):
    """Add each bounce's trapezoid correction J h (1/2 - theta) to corr[k + 1].

    K jumps by J = 2 w_i (charge - factor)(x*) (v_plus - v_minus) . S_i(x*)
    at a reflection; k is the step holding the event (the first k with
    t* <= times[k + 1], found by bisection, so a streamed call makes no
    pass over the run) and the sources are those of ``field_at(k)``, the
    field of the snapshot entering it (an O(dt) approximation of an O(dt)
    term).  Events of a step that ends after times[-1] are skipped and
    returned.
    """
    later = []
    for ev in events:
        k = bisect.bisect_left(times, ev.t) - 1
        if k + 1 >= len(times):
            later.append(ev)
            continue
        if k < 0:
            continue
        field = field_at(k)
        gap = float(field.model.cutoff_gap(ev.x)[0])
        if gap == 0.0:
            continue
        s_at = field.pre_cutoff_sum(ev.x)[0]
        jump = (
            2.0 * field.ens.w[ev.particle] * gap
            * float(np.dot(ev.v_plus - ev.v_minus, s_at))
        )
        h = times[k + 1] - times[k]
        theta = (ev.t - times[k]) / h
        corr[k + 1] += jump * h * (0.5 - theta)
    return later


def _ledger(times, ke, pe, kt, corr=None) -> EnergyLedger:
    """Trapezoid K-integral, plus the summed event corrections, and the drift."""
    total = ke + pe
    k_int = np.concatenate([[0.0], np.cumsum(0.5 * (kt[1:] + kt[:-1]) * np.diff(times))])
    if corr is not None:
        k_int = k_int + np.cumsum(corr)
    drift = total - total[0] - k_int
    return EnergyLedger(times, ke, pe, total, kt, k_int, drift)


def energy_audit(run: RunRecord) -> EnergyLedger:
    """Recompute the energy ledger from a run's snapshots, each in its own
    field (the run's ``field_factory``), all event corrections at once.

    Requires one snapshot per step (GridMismatch otherwise).
    """
    if run.snapshot_every != 1:
        raise GridMismatch("energy audit needs one snapshot per step")
    fields = [run.field_factory(s) for _, s in run.snapshots]
    times = np.array([t for t, _ in run.snapshots])
    ke = np.array([kinetic_energy(f.ens) for f in fields])
    pe = np.array([f.model.potential(f.ens) for f in fields])
    kt = np.array([k_tau(f) for f in fields])
    corr = None
    if run.events:
        corr = np.zeros(len(times))
        _add_event_corrections(corr, times, run.events, fields.__getitem__)
    return _ledger(times, ke, pe, kt, corr)


class LedgerObserver:
    """The energy ledger and the log-log moment, accumulated during a run.

    Pass it as ``integrate(..., observer=LedgerObserver())``: each
    snapshot's kinetic and potential energy, K and moment then come from
    the snapshot and the cached ``sweep`` of the field the run stepped
    with, the pass the stepper made anyway (the cutoff gap from its
    factor).  The run keeps O(steps) scalars and the fields of the last
    three snapshots instead of one snapshot per step.  ``ledger()`` and
    ``total_variation`` equal ``energy_audit`` and ``blowup_monitor`` on a
    run that stored every snapshot.

    A bounce at exactly t_k counts in the step before (see
    ``_add_event_corrections``), so the observer keeps the last three
    fields itself.
    """

    def __init__(self):
        self.times, self.kinetic, self.potential, self.k_tau = [], [], [], []
        self.moment = []
        self._corr = []         # event corrections per sample
        self._bounced = False   # the run had events
        self._pending = []      # events whose step ends after the last sample
        self._recent = deque(maxlen=3)  # the fields of the last three samples

    def __call__(self, t, snap, field, events):
        model, sweep = field.model, field.sweep
        w, v2, znorm = _phase_terms(snap)
        self.times.append(t)
        self.kinetic.append(float((w * v2).sum()))
        self.potential.append(model.energy(snap, sweep.phi))
        gap = model.cutoff_gap(snap.x, sweep.factor)
        self.k_tau.append(_k_power(snap, w, gap, sweep.pre_cutoff) if gap.any() else 0.0)
        self.moment.append(_loglog_moment(w, znorm))
        self._corr.append(0.0)
        self._recent.append(field)
        self._bounced = self._bounced or bool(events)
        if self._pending or events:
            # sample k's field is the (k - len(times))-th from the end
            self._pending = _add_event_corrections(
                self._corr, self.times, self._pending + events,
                lambda k: self._recent[k - len(self.times)])

    def ledger(self) -> EnergyLedger:
        corr = np.array(self._corr) if self._bounced else None
        return _ledger(*(np.array(a) for a in (self.times, self.kinetic, self.potential,
                                               self.k_tau)), corr)

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
    """Pair two runs' snapshots by particle id; GridMismatch unless both
    kept one snapshot per step, PairMismatch on misalignment."""
    if run_base.snapshot_every != 1 or run_pert.snapshot_every != 1:
        raise GridMismatch("the separation probe needs one snapshot per step")
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


def phi_functional(probe: SeparationProbe, t) -> float:
    """Phi at one sample time (must lie on the probe grid)."""
    idx = np.flatnonzero(np.isclose(probe.times, t, rtol=0, atol=1e-12))
    if len(idx) != 1:
        raise PairMismatch(f"t={t} is not a probe sample time")
    return float(phi_series(probe)[idx[0]])


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

def incompressibility_probe(run: RunRecord, seed_point, h=1e-5, t_end=1.0,
                            dt=1e-3) -> float:
    """|det J - 1| of the finite-difference flow-map Jacobian at one point.

    A stencil of 4d+1 passive tracers (center and +-h along every phase
    coordinate) takes ``step``s of ``dt`` in the run's per-step frozen
    fields, rebuilt from its snapshots with its own factory; any step in
    which a tracer's path bounces off the boundary, however briefly, raises
    StencilReflected (the map is not smooth across events, so the stencil
    must stay reflection-free).
    """
    if run.snapshot_every != 1:
        raise GridMismatch("incompressibility probe needs one snapshot per step")
    cfg = StepperConfig(dt=dt)
    n_steps = cfg.steps(t_end, "t_end")
    z0 = np.asarray(seed_point, dtype=float)
    d = z0.size // 2
    offsets = np.zeros((4 * d + 1, 2 * d))
    offsets[1::2], offsets[2::2] = h * np.eye(2 * d), -h * np.eye(2 * d)
    z = z0 + offsets
    tracers = Ensemble(x=z[:, :d], v=z[:, d:], w=np.zeros(len(z)),
                       domain=run.snapshots[0][1].domain)

    steps_per_field = run.dt / dt
    for k in range(n_steps):
        snap = int(k / steps_per_field) if steps_per_field >= 1 else k
        field_fn = run.field_factory(run.snapshots[min(snap, len(run.snapshots) - 1)][1])
        tracers, events, _ = step(tracers, field_fn, cfg)
        if events:
            raise StencilReflected("tracer stencil reached the boundary")

    z_end = np.concatenate([tracers.x, tracers.v], axis=1)
    jac = (z_end[1::2] - z_end[2::2]).T / (2.0 * h)
    return float(abs(np.linalg.det(jac) - 1.0))


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

def float_rows(*columns):
    """The rows of the columns (1-D, or 2-D for several) side by side, as
    comma-joined ``repr(float)``: the shortest text that reads back to the
    same double.  One ``tolist`` makes every value a Python float at once."""
    return [",".join(map(repr, row))
            for row in np.column_stack(columns).astype(float).tolist()]


def write_ledger_csv(ledger: EnergyLedger, path):
    lines = ["t,kinetic,potential,total,K_integral,drift"]
    lines += float_rows(ledger.times, ledger.kinetic, ledger.potential,
                        ledger.total, ledger.k_integral, ledger.drift)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ledger_csv(path) -> EnergyLedger:
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    kt = np.zeros(len(data))
    return EnergyLedger(
        times=np.asarray(data["t"], dtype=float),
        kinetic=np.asarray(data["kinetic"], dtype=float),
        potential=np.asarray(data["potential"], dtype=float),
        total=np.asarray(data["total"], dtype=float),
        k_tau=kt,
        k_integral=np.asarray(data["K_integral"], dtype=float),
        drift=np.asarray(data["drift"], dtype=float),
    )


def write_phi_csv(probe: SeparationProbe, path):
    series = phi_series(probe)
    slopes = np.concatenate([[0.0], np.diff(series) / np.diff(probe.times)])
    lines = ["t,phi,slope"] + float_rows(probe.times, series, slopes)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_residual_jsonl(records, path):
    """One JSON record per (trajectory, test function) residual."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
