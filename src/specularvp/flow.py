"""Time integration of the specular flow.

The stepper is kick-drift-kick leapfrog.  A step that would cross the
boundary is re-done as a composition of KDK sub-steps split at the crossing
time, with the specular velocity jump applied exactly on the boundary; this
keeps the integrator second order through bounces.  Crossing times are
located by bisection of the signed distance along the kicked sub-path
(robust near grazing; a closed-form billiard map for the ball is
deliberately not used so that both domains share one code path).

Two backends:

* EVENT_DRIVEN: particles live in the closed domain; every boundary
  crossing is located and reflected.
* FOLD_HALFSPACE: an even-symmetric whole-space ensemble is advanced with
  no reflections; half-space observables are read through the fold
  x_1 -> |x_1|, v_1 -> sgn(x_1) v_1, which reproduces the reflected flow.
  For the hard-sign field the step is split at plane crossings exactly like
  the event-driven step is split at bounces, so the two backends agree in
  folded coordinates to integrator roundoff.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import GRAZE_RTOL, Domain, reflect_velocity
from .ensemble import Ensemble, Frame, FrameMismatch
from .fields import Sweep

__all__ = [
    "Backend",
    "StepperConfig",
    "ReflectionEvent",
    "Trajectory",
    "RunRecord",
    "ReflectionOverflow",
    "NonFiniteState",
    "NoCrossing",
    "step",
    "step_fold_halfspace",
    "handle_reflection",
    "integrate",
    "fold_halfspace",
]

# particles beyond this many domain scales (in |x| or |v|) are marked dead
BLOWUP_LIMIT = 1e12

# event location tolerance, relative to the domain scale
EVENT_DIST_RTOL = 1e-13


class ReflectionOverflow(RuntimeError):
    """More reflections in one step than the configured maximum."""


class NonFiniteState(RuntimeError):
    """A live particle's position or velocity became NaN or infinite."""


class NoCrossing(RuntimeError):
    """handle_reflection called on a segment that never exits the domain."""


class Backend(enum.Enum):
    EVENT_DRIVEN = "event_driven"
    FOLD_HALFSPACE = "fold_halfspace"


@dataclass(frozen=True)
class StepperConfig:
    """Stepper knobs.

    frozen_field=True evaluates the field once per step from the entering
    snapshot; False re-freezes it from the drifted positions for the
    trailing half-kick (standard self-consistent velocity Verlet).  The
    frozen variant decouples the steps Picard-style but costs one order of
    accuracy in the energy ledger, so refresh is the default.
    """

    dt: float
    max_reflections_per_step: int = 8
    backend: Backend = Backend.EVENT_DRIVEN
    frozen_field: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.max_reflections_per_step < 1:
            raise ValueError("max_reflections_per_step must be >= 1")


@dataclass(frozen=True)
class ReflectionEvent:
    """One specular bounce: velocity jump v_plus - v_minus = -2 (v_minus . n) n."""

    t: float
    particle: int
    x: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray


@dataclass
class Trajectory:
    """Recorded path of one particle: samples, field values, and events."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    e_field: np.ndarray
    events: list
    event_fields: list
    t_minus: float = 0.0
    t_plus: float = np.inf


def _bisect_fraction(dist_of, hi):
    """Largest theta in [0, hi] with dist(theta) >= 0, by bisection.

    ``dist_of`` must satisfy dist(0) >= 0 and dist(hi) < 0.  The invariant
    dist(lo) >= 0 > dist(hi) is kept throughout, so starting exactly on the
    boundary (dist(0) = 0, moving inward) converges to the later crossing.
    """
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dist_of(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _advance_with_events(x, v, e_fn, dt, t0, domain: Domain, max_reflections, particle):
    """One full KDK step of a single particle, split at boundary crossings.

    Between crossings each sub-interval is an ordinary kick-drift-kick
    sub-step with the frozen field ``e_fn``; the crossing time is found on
    the kicked parabola, the velocity is reflected exactly on the boundary,
    and the composition stays second order through the bounce.
    """
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float)
    tol = EVENT_DIST_RTOL * domain.scale
    events = []
    t = float(t0)
    remaining = float(dt)
    for _ in range(max_reflections + 1):
        e0 = e_fn(x[None, :])[0]

        def path(theta, x=x, v=v, e0=e0, h=remaining):
            s = theta * h
            return x + s * v + 0.5 * s * s * e0

        hi = None
        for probe in (1.0, 0.5):
            if domain.signed_distance(path(probe)) < 0.0:
                hi = probe
        if hi is None:
            x_end = path(1.0)
            v_half = v + 0.5 * remaining * e0
            v_end = v_half + 0.5 * remaining * e_fn(x_end[None, :])[0]
            return x_end, v_end, events
        theta = _bisect_fraction(lambda th: domain.signed_distance(path(th)), hi)
        s = theta * remaining
        x_hit = domain.project_boundary(path(theta))
        e_hit = e_fn(x_hit[None, :])[0]
        # complete the partial KDK sub-step [t, t + s] ending on the boundary
        v_minus = v + 0.5 * s * (e0 + e_hit)
        frame = domain.boundary_frame(x_hit)
        vn = float(np.dot(v_minus, frame.normal))
        if abs(vn) < GRAZE_RTOL * float(np.linalg.norm(v_minus)):
            # grazing set: no jump; finish the step and clamp back inside if
            # the path dips out by a rounding margin
            rest = remaining - s
            x_end = x_hit + rest * v_minus + 0.5 * rest * rest * e_hit
            if domain.signed_distance(x_end) < 0.0:
                x_end = domain.project_boundary(x_end)
            v_end = v_minus + 0.5 * rest * (e_hit + e_fn(x_end[None, :])[0])
            return x_end, v_end, events
        v_plus = reflect_velocity(frame, v_minus)
        events.append(ReflectionEvent(t + s, particle, x_hit, v_minus, v_plus))
        x, v = x_hit, v_plus
        t += s
        remaining -= s
        if remaining <= tol / max(float(np.linalg.norm(v)), 1e-300):
            return x, v, events
    raise ReflectionOverflow(
        f"particle {particle} exceeded {max_reflections} reflections in one step"
    )


def handle_reflection(x_enter, v, t_enter, dt_remaining, domain: Domain,
                      max_reflections=8, particle=0):
    """Field-free drift from x_enter over dt_remaining with specular bounces.

    Returns (x_exit, v_exit, events).  Raises NoCrossing if the segment
    never leaves the domain (caller contract) and ReflectionOverflow past
    ``max_reflections`` bounces.  Grazing hits (|v . n| < GRAZE_RTOL |v|)
    pass through with no jump.
    """
    x = np.asarray(x_enter, dtype=float)
    v = np.asarray(v, dtype=float)
    if domain.signed_distance(x + dt_remaining * v) >= 0.0:
        raise NoCrossing("drift segment does not exit the domain")

    def no_field(p):
        return np.zeros_like(p)

    return _advance_with_events(x, v, no_field, dt_remaining, t_enter, domain,
                                max_reflections, particle)


def _mark_blowups(e: Ensemble, x, v):
    """Alive mask after a step: particles beyond BLOWUP_LIMIT die; a live one
    gone non-finite raises, since NaN * 0 would still poison the pair sums."""
    bad = e.alive & ~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1))
    if np.any(bad):
        raise NonFiniteState(
            f"particle {int(np.flatnonzero(bad)[0])} has a non-finite position or velocity")
    scale = e.domain.scale if e.domain is not None else 1.0
    big = (np.max(np.abs(x), axis=1) > BLOWUP_LIMIT * scale) | (
        np.max(np.abs(v), axis=1) > BLOWUP_LIMIT * scale
    )
    if not np.any(big & e.alive):
        return e.alive
    return e.alive & ~big


def _own_sweep(field_fn, x, potential):
    """The sweep of a snapshot's own field at its own positions x; a plain
    field function (no ``sweep``) gives the field alone."""
    sweep = getattr(field_fn, "sweep", None)
    return Sweep(field_fn(x)) if sweep is None else sweep(potential)


def _tail_kick(e: Ensemble, field_fn, cfg: StepperConfig, field_factory, x_new, v_new,
               crossing, potential):
    """Trailing half-kick of the particles that did not cross; returns the new
    snapshot and the tail sweep (None when the tail field is ``field_fn``)."""
    alive = e.alive
    x_new[~alive] = e.x[~alive]
    if cfg.frozen_field or field_factory is None:
        tail, kick = None, field_fn(x_new)
    else:
        tail = _own_sweep(field_factory(e.with_state(x=x_new, v=v_new)), x_new, potential)
        kick = tail.field
    rest = alive & ~crossing
    v_new[rest] += 0.5 * cfg.dt * kick[rest]
    v_new[~alive] = e.v[~alive]
    return e.with_state(x=x_new, v=v_new, alive=_mark_blowups(e, x_new, v_new)), tail


def step(e: Ensemble, field_fn, cfg: StepperConfig, t0=0.0, field_factory=None,
         lead=None, potential=False):
    """One kick-drift-kick step; returns (new snapshot, reflection events, tail).

    ``field_fn`` is the field frozen from the input snapshot; ``lead`` is its
    value at e.x when the caller has it (it is computed otherwise).  With
    cfg.frozen_field both half-kicks use ``field_fn`` and ``tail`` is None;
    otherwise the trailing kick of reflection-free particles re-freezes the
    field from the drifted positions (``field_factory`` must then be given),
    and ``tail`` is that field's sweep at the new positions, with the
    per-row potential when ``potential`` is set.  Particles whose step
    crosses the boundary are advanced one by one with event sub-steps, in
    ascending index order.
    """
    alive = e.alive
    e0 = field_fn(e.x) if lead is None else lead
    v_half = e.v + np.where(alive[:, None], 0.5 * cfg.dt * e0, 0.0)
    x_new = e.x + cfg.dt * np.where(alive[:, None], v_half, 0.0)
    v_new = v_half.copy()
    events: list[ReflectionEvent] = []

    if e.domain is not None:
        x_mid = e.x + np.where(
            alive[:, None], 0.5 * cfg.dt * e.v + 0.125 * cfg.dt**2 * e0, 0.0
        )
        crossing = alive & (
            (e.domain.signed_distance(x_new) < 0.0)
            | (e.domain.signed_distance(x_mid) < 0.0)
        )
    else:
        crossing = np.zeros(len(e), dtype=bool)

    # crossing particles take their whole step (tail kick included) against
    # the frozen field; the rest get the configured tail kick below
    for i in np.flatnonzero(crossing):
        x_new[i], v_new[i], evts = _advance_with_events(
            e.x[i], e.v[i], field_fn, cfg.dt, t0, e.domain,
            cfg.max_reflections_per_step, int(i),
        )
        events.extend(evts)

    new, tail = _tail_kick(e, field_fn, cfg, field_factory, x_new, v_new, crossing, potential)
    return new, events, tail


def _advance_fold_with_events(x, v, e_fn, dt, max_crossings):
    """Whole-space KDK sub-stepped at plane crossings (hard-sign field).

    The field is discontinuous across {x_1 = 0}; splitting the kick there
    (with the one-sided limits, related by the mirror symmetry
    E(0-) = (E(0+))') keeps the scheme second order and makes the folded
    step match the event-driven step exactly.
    """
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float)
    remaining = float(dt)
    side = 1.0 if x[0] >= 0.0 else -1.0

    def eval_field(p, s):
        # on the plane itself the field closure returns the upper branch;
        # correct it when the particle travels on the lower side
        val = e_fn(p[None, :])[0]
        if s < 0 and p[0] == 0.0:
            val = val.copy()
            val[0] = -val[0]
        return val

    for _ in range(max_crossings + 1):
        e0 = eval_field(x, side)

        def path(theta, x=x, v=v, e0=e0, h=remaining):
            s = theta * h
            return x + s * v + 0.5 * s * s * e0

        hi = None
        for probe in (1.0, 0.5):
            if side * path(probe)[0] < 0.0:
                hi = probe
        if hi is None:
            x_end = path(1.0)
            v_half = v + 0.5 * remaining * e0
            v_end = v_half + 0.5 * remaining * e_fn(x_end[None, :])[0]
            return x_end, v_end
        theta = _bisect_fraction(lambda th: side * path(th)[0], hi)
        s = theta * remaining
        x_hit = path(theta)
        x_hit[0] = 0.0
        e_hit = e_fn(x_hit[None, :])[0]
        if side < 0:
            e_hit = e_hit.copy()
            e_hit[0] = -e_hit[0]
        v = v + 0.5 * s * (e0 + e_hit)
        x = x_hit
        remaining -= s
        side = -side
    raise ReflectionOverflow("particle exceeded plane-crossing budget in one step")


def step_fold_halfspace(e: Ensemble, field_fn, cfg: StepperConfig, t0=0.0, field_factory=None,
                        lead=None, potential=False):
    """Whole-space step of an even-symmetric ensemble (no reflections).

    The ensemble must be in the ProblemB frame; the half-space trajectory is
    recovered through ``fold_halfspace``.  Field closures carrying
    ``plane_split = True`` (hard-sign fields) get their kicks split at plane
    crossings; smooth fields take the plain KDK step.  Arguments and result
    as for ``step`` (the event list is always empty).
    """
    if e.frame is not Frame.PROBLEM_B:
        raise FrameMismatch("fold backend expects a ProblemB ensemble")
    alive = e.alive
    e0 = field_fn(e.x) if lead is None else lead
    v_half = e.v + np.where(alive[:, None], 0.5 * cfg.dt * e0, 0.0)
    x_new = e.x + cfg.dt * np.where(alive[:, None], v_half, 0.0)
    v_new = v_half.copy()

    if getattr(field_fn, "plane_split", False):
        x_mid = e.x + np.where(
            alive[:, None], 0.5 * cfg.dt * e.v + 0.125 * cfg.dt**2 * e0, 0.0
        )
        s0 = np.where(e.x[:, 0] >= 0.0, 1.0, -1.0)
        crossing = alive & ((s0 * x_new[:, 0] < 0.0) | (s0 * x_mid[:, 0] < 0.0))
        for i in np.flatnonzero(crossing):
            x_new[i], v_new[i] = _advance_fold_with_events(
                e.x[i], e.v[i], field_fn, cfg.dt, cfg.max_reflections_per_step
            )
    else:
        crossing = np.zeros(len(e), dtype=bool)

    new, tail = _tail_kick(e, field_fn, cfg, field_factory, x_new, v_new, crossing, potential)
    return new, [], tail


def fold_halfspace(x, v):
    """Fold whole-space phase points onto the half-space: (|x_1|, sgn(x_1) v_1).

    Points on the plane fold with the upper branch (sgn(0) = +1).
    """
    x = np.array(x, dtype=float)
    v = np.array(v, dtype=float)
    flip = x[..., 0] < 0.0
    x[..., 0] = np.abs(x[..., 0])
    v[..., 0] = np.where(flip, -v[..., 0], v[..., 0])
    return x, v


@dataclass
class RunRecord:
    """Everything a fixed-dt run left behind.

    ``snapshots`` holds (time, Ensemble) pairs every ``snapshot_every``
    steps, always including the initial and final states.  Trajectory
    arrays (sampled every step), per-sample field values and the field at
    each event exist when the run was asked to store them.
    """

    times: np.ndarray
    snapshots: list
    events: list
    final: Ensemble
    dt: float
    snapshot_every: int = 1
    traj_x: np.ndarray | None = None
    traj_v: np.ndarray | None = None
    traj_e: np.ndarray | None = None
    traj_times: np.ndarray | None = None
    event_fields: list = field(default_factory=list)
    deaths: dict = field(default_factory=dict)  # particle -> t_plus (blow-up)
    meta: dict = field(default_factory=dict)

    def trajectory(self, i: int) -> Trajectory:
        if self.traj_x is None:
            raise ValueError("run was not recorded with store_trajectories=True")
        evs = [ev for ev in self.events if ev.particle == i]
        efs = [ef for ev, ef in zip(self.events, self.event_fields) if ev.particle == i]
        return Trajectory(
            times=self.traj_times,
            x=self.traj_x[:, i, :],
            v=self.traj_v[:, i, :],
            e_field=self.traj_e[:, i, :],
            events=evs,
            event_fields=efs,
            t_minus=float(self.traj_times[0]),
            t_plus=self.deaths.get(i, float(self.traj_times[-1])),
        )


def integrate(e0: Ensemble, field_factory, cfg: StepperConfig, t_end,
              snapshot_every=1, store_trajectories=False, t0=0.0, meta=None,
              observer=None):
    """Fixed-dt run over [t0, t0 + t_end].

    Each step freezes the field from the snapshot entering the step (the
    Picard-style decoupling); events are merged in (particle, time) order
    within a step.  Deterministic for a fixed initial ensemble.

    Force reuse: in refresh mode the trailing-kick field of a step is the
    field of the snapshot it ends on, so its sweep is the next step's
    leading field.  It is carried over unless a particle died in the step
    (dead particles leave the sources); then, and in frozen mode, the new
    snapshot's field is swept afresh.  Factories must therefore depend on
    a snapshot's positions, weights and alive mask only.

    ``observer(t, snapshot, sweep, events, start)`` is called on the initial
    snapshot and after every step, with the snapshot's own ``Sweep`` (its
    per-row potential included), the step's events and the snapshot the
    step started from (None and no events for the initial call).
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    n_steps = int(round(t_end / cfg.dt)) if t_end > 0 else 0
    if n_steps and abs(n_steps * cfg.dt - t_end) > 1e-9 * max(t_end, cfg.dt):
        raise ValueError("t_end must be an integer number of steps")
    stepper = step_fold_halfspace if cfg.backend is Backend.FOLD_HALFSPACE else step
    potential = observer is not None

    e = e0
    t = float(t0)
    field_fn = field_factory(e)
    sweep = _own_sweep(field_fn, e.x, potential)  # of the current snapshot e
    if observer is not None:
        observer(t, e, sweep, [], None)
    snapshots = [(t, e)]
    events: list[ReflectionEvent] = []
    event_fields: list[np.ndarray] = []
    tj_x = tj_v = tj_e = None
    if store_trajectories:
        d = e0.dim
        tj_x = np.empty((n_steps + 1, len(e0), d))
        tj_v = np.empty_like(tj_x)
        tj_e = np.empty_like(tj_x)
        tj_x[0], tj_v[0], tj_e[0] = e0.x, e0.v, sweep.field

    times = [t]
    deaths: dict[int, float] = {}
    for k in range(n_steps):
        start, lead, sweep = e, sweep.field, None
        e, evts, sweep = stepper(e, field_fn, cfg, t0=t, lead=lead, potential=potential,
                                 field_factory=None if cfg.frozen_field else field_factory)
        evts = sorted(evts, key=lambda ev: (ev.particle, ev.t))
        events.extend(evts)
        if store_trajectories:
            event_fields.extend(field_fn(ev.x[None, :])[0] for ev in evts)
        t = t0 + (k + 1) * cfg.dt
        times.append(t)
        died = start.alive & ~e.alive
        for i in np.flatnonzero(died):
            deaths[int(i)] = t
        field_fn = field_factory(e)
        if sweep is None or died.any():
            sweep = _own_sweep(field_fn, e.x, potential)
        if observer is not None:
            observer(t, e, sweep, evts, start)
        if store_trajectories:
            tj_x[k + 1], tj_v[k + 1], tj_e[k + 1] = e.x, e.v, sweep.field
        if (k + 1) % snapshot_every == 0 or k + 1 == n_steps:
            snapshots.append((t, e))

    return RunRecord(
        times=np.asarray(times),
        snapshots=snapshots,
        events=events,
        final=e,
        dt=cfg.dt,
        snapshot_every=snapshot_every,
        traj_x=tj_x,
        traj_v=tj_v,
        traj_e=tj_e,
        traj_times=np.asarray(times) if store_trajectories else None,
        event_fields=event_fields,
        deaths=deaths,
        meta=dict(meta or {}),
    )
