"""Time integration of the specular flow.

The stepper is kick-drift-kick leapfrog.  A step whose kicked path leaves
the domain is re-done as a composition of KDK sub-steps split at the first
exit time, with the specular velocity jump applied exactly on the boundary;
this keeps the integrator second order through bounces.  Along a sub-step
the distance to the wall is a polynomial in time (a quadratic for the
half-space, a quartic for the ball), and the exit is its first root where
the path leaves, so an excursion that returns within the step is found.

Two backends:

* EVENT_DRIVEN: particles live in the closed domain; every boundary
  crossing is located and reflected.
* FOLD_HALFSPACE: an even-symmetric whole-space ensemble is advanced with
  no reflections; half-space observables are read through the fold
  x_1 -> |x_1|, v_1 -> sgn(x_1) v_1, which reproduces the reflected flow.
  For the hard-sign field the same sub-stepper splits the step at plane
  crossings, passing through instead of reflecting, so the two backends
  agree bitwise in folded coordinates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GRAZE_RTOL, Domain, HalfSpace, reflect_velocity
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

# an exit time settles on a grid of this many ulps either side of its root
ULP_WALK = 4
_OFFSETS = np.arange(-ULP_WALK, ULP_WALK + 1)


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


def _path(x, v, e, s):
    """Point at time s along the kicked sub-path from x (rows broadcast)."""
    return x + s * v + 0.5 * s * s * e


def _distance_poly(domain: Domain, x, v, e, h, side):
    """Coefficients (lowest degree first, last axis) of the distance to the
    wall along ``_path`` in theta = s / h, for one particle or rows: side *
    x_1 for the half-space wall or the fold plane, R^2 - |x|^2 for the ball.
    The constant term comes from the start's computed signed distance d
    (R^2 - |x|^2 = d (2R - d)), clipped at 0: a start that reads as on the
    wall is a root at theta = 0, and one an ulp outside is not an exit."""
    d = np.maximum(side * domain.signed_distance(x), 0.0)
    if isinstance(domain, HalfSpace):
        return np.stack([d, side * h * v[..., 0], side * 0.5 * h * h * e[..., 0]], axis=-1)
    xv, vv, xe, ve, ee = ((a * b).sum(axis=-1)
                          for a, b in ((x, v), (v, v), (x, e), (v, e), (e, e)))
    return np.stack([d * (2.0 * domain.radius - d), -2.0 * h * xv, -h * h * (vv + xe),
                     -h**3 * ve, -0.25 * h**4 * ee], axis=-1)


def _real_roots(c):
    """Real roots of sum_k c[k] t^k, leading terms below rounding on [0, 1]
    dropped: the stable closed form up to degree 2 (the half-space, the
    plane, a ball in a zero field), else companion-matrix eigenvalues."""
    while len(c) > 1 and abs(c[-1]) <= np.finfo(float).eps * sum(map(abs, c)):
        c = c[:-1]
    if len(c) > 3:
        comp = np.eye(len(c) - 1, k=-1)
        comp[:, -1] = [-ck / c[-1] for ck in c[:-1]]
        z = np.linalg.eigvals(comp)
        return list(z.real[np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z.real))])
    c0, b, a = c + [0.0] * (3 - len(c))
    disc = b * b - 4.0 * a * c0
    if a == 0.0 or disc < 0.0:
        return [-c0 / b] if a == 0.0 and b else []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c0 / q] if q else [0.0]


def _first_exit(domain: Domain, x, v, e, h, side=1.0):
    """Fraction theta in [0, 1) of the sub-step h at which the path first
    leaves the domain, or None if it stays in the closed domain.

    The real roots of the distance polynomial split [0, 1]; the exit starts
    the first piece on which it is negative, so a tangency, a start on the
    wall moving inward and an arrival on the wall at theta = 1 are not
    exits.  A root gets two Newton steps, then theta moves to the last float
    with computed distance >= 0 in the run from ULP_WALK ulps below to
    ULP_WALK above (further back if there is none).  A path whose computed
    end point rounds outside exits just before theta = 1.
    """
    c = _distance_poly(domain, x, v, e, h, side).tolist()

    def poly(t, c=c):
        return sum(cj * t**j for j, cj in enumerate(c))

    def dist(t):
        return side * domain.signed_distance(_path(x, v, e, t * h))

    cut = sorted([0.0, 1.0, *(r for r in _real_roots(c) if 0.0 < r < 1.0)])
    mid = [0.5 * (a + b) for a, b in zip(cut, cut[1:])]
    k = next((k for k, m in enumerate(mid) if cut[k + 1] > cut[k] and poly(m) < 0.0), None)
    theta = 1.0 if k is None else cut[k]
    if k:
        # a root: Newton, kept between the midpoints of the pieces around it
        slope = [j * cj for j, cj in enumerate(c)][1:]
        for _ in range(2):
            if poly(theta, slope):
                theta = min(max(theta - poly(theta) / poly(theta, slope), mid[k - 1]), mid[k])
    grid = np.clip(theta + np.spacing(theta) * _OFFSETS, 0.0, 1.0)
    d = dist(grid[:, None])
    if k is None and d[ULP_WALK] >= 0.0:
        return None
    ok = (d >= 0.0) & ((_OFFSETS <= 0) | (bool(k) & (grid < 1.0)))
    run = len(ok) if ok.all() else int(np.argmin(ok))
    theta, step = float(grid[max(run - 1, 0)]), 2.0 * ULP_WALK
    while not run and theta > 0.0 and dist(theta) < 0.0:
        theta = max(theta - step * np.spacing(theta), 0.0)
        step *= 2.0
    return theta


def _advance_with_events(x, v, e_fn, dt, t0, domain: Domain, max_reflections, particle,
                         fold=False):
    """One full KDK step of a single particle, split where its path leaves.

    Between exits each sub-interval is a kick-drift-kick sub-step with the
    frozen field ``e_fn``, and the partial sub-step up to an exit is
    completed on the wall, where the velocity is reflected and the event
    recorded.  With ``fold`` the wall is the plane {x_1 = 0} of a
    whole-space particle, passed with no jump and no event; the particle
    then takes the field branch of its new side (the hard-sign field has
    E(0-) = (E(0+))'), so the folded step equals the reflected one.  Grazing
    hits (|v . n| <= GRAZE_RTOL |v|, v = 0 included) finish the step with no
    jump, sliding along the wall if the field pushes them into it.  Returns
    (x, v, events), or None when the path does not leave at all.
    """
    x, v = np.array(x, dtype=float), np.array(v, dtype=float)
    tol = EVENT_DIST_RTOL * domain.scale
    side = -1.0 if fold and x[0] < 0.0 else 1.0
    events, t, remaining = [], float(t0), float(dt)

    def field(p):
        # the closure gives the upper branch on the plane; the lower side flips it
        val = e_fn(p[None, :])[0]
        return np.r_[-val[0], val[1:]] if side < 0 and p[0] == 0.0 else val

    for k in range(max_reflections + 1):
        e0 = field(x)
        theta = _first_exit(domain, x, v, e0, remaining, side)
        if theta is None:
            if k == 0:
                return None
            x_end = _path(x, v, e0, remaining)
            v_half = v + 0.5 * remaining * e0
            v_end = v_half + 0.5 * remaining * field(x_end)
            return x_end, v_end, events
        s = theta * remaining
        x_hit = domain.project_boundary(_path(x, v, e0, s))
        e_hit = field(x_hit)
        # complete the partial KDK sub-step [t, t + s] ending on the wall
        v_minus = v + 0.5 * s * (e0 + e_hit)
        frame = domain.boundary_frame(x_hit)
        vn = float(np.dot(v_minus, frame.normal))
        if abs(vn) <= GRAZE_RTOL * float(np.linalg.norm(v_minus)):
            # grazing set, a particle at rest on the wall included: no jump;
            # finish the step.  A path the field pushes through the wall
            # slides along it: its end is clamped back onto the wall and
            # loses its outward normal velocity
            rest = remaining - s
            x_end = _path(x_hit, v_minus, e_hit, rest)
            through = side * domain.signed_distance(x_end) < 0.0
            if through:
                x_end = domain.project_boundary(x_end)
            v_end = v_minus + 0.5 * rest * (e_hit + field(x_end))
            if through:
                n = side * domain.inward_normal(x_end)
                v_end = v_end - min(float(np.dot(v_end, n)), 0.0) * n
            return x_end, v_end, events
        if fold:
            v = v_minus
            side = -side
        else:
            v = reflect_velocity(frame, v_minus)
            events.append(ReflectionEvent(t + s, particle, x_hit, v_minus, v))
        x = x_hit
        t += s
        remaining -= s
        if remaining <= tol / max(float(np.linalg.norm(v)), 1e-300):
            return x, v, events
    raise ReflectionOverflow(
        f"particle {particle} exceeded {max_reflections} reflections in one step")


def handle_reflection(x_enter, v, t_enter, dt_remaining, domain: Domain,
                      max_reflections=8, particle=0):
    """Field-free drift from x_enter over dt_remaining with specular bounces.

    Returns (x_exit, v_exit, events).  Raises NoCrossing if the segment
    never leaves the domain (caller contract) and ReflectionOverflow past
    ``max_reflections`` bounces.  Grazing hits (|v . n| <= GRAZE_RTOL |v|)
    pass through with no jump.
    """
    out = _advance_with_events(x_enter, v, np.zeros_like, dt_remaining, t_enter, domain,
                               max_reflections, particle)
    if out is None:
        raise NoCrossing("drift segment does not exit the domain")
    return out


def _mark_blowups(e: Ensemble, x, v):
    """Alive mask after a step: particles beyond BLOWUP_LIMIT die; a live one
    gone non-finite raises, since NaN * 0 would still poison the pair sums."""
    bad = e.alive & ~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1))
    if np.any(bad):
        raise NonFiniteState(
            f"particle {int(np.flatnonzero(bad)[0])} has a non-finite position or velocity")
    scale = e.domain.scale if e.domain is not None else 1.0
    return e.alive & (np.maximum(np.abs(x).max(axis=1), np.abs(v).max(axis=1))
                      <= BLOWUP_LIMIT * scale)


def _own_sweep(field_fn, x, potential):
    """The sweep of a snapshot's own field at its own positions x; a plain
    field function (no ``sweep``) gives the field alone."""
    sweep = getattr(field_fn, "sweep", None)
    return Sweep(field_fn(x)) if sweep is None else sweep(potential)


def _step(e: Ensemble, field_fn, cfg: StepperConfig, t0, field_factory, lead, potential,
          wall: Domain | None, fold=False):
    """The body of ``step`` (the wall ``e.domain``) and
    ``step_fold_halfspace`` (the plane {x_1 = 0}, or None)."""
    alive = e.alive
    e0 = field_fn(e.x) if lead is None else lead
    v_half = e.v + np.where(alive[:, None], 0.5 * cfg.dt * e0, 0.0)
    with np.errstate(over="ignore"):  # an overflow is caught as non-finite below
        x_new = e.x + cfg.dt * np.where(alive[:, None], v_half, 0.0)
    v_new = v_half.copy()
    if not (np.isfinite(x_new).all() and np.isfinite(v_new).all()):
        _mark_blowups(e, x_new, v_new)  # raises before any field sees a non-finite point
    events: list[ReflectionEvent] = []

    crossing = np.zeros(len(e), dtype=bool)
    if wall is not None:
        side = np.where(e.x[:, 0] >= 0.0, 1.0, -1.0) if fold else 1.0
        # on [0, 1] the distance polynomial is at least its constant term
        # plus its negative coefficients; the end point may round outside
        c = _distance_poly(wall, e.x, e.v, e0, cfg.dt, side)
        outside = side * wall.signed_distance(x_new) < 0.0
        near = alive & ((c[:, 0] + np.minimum(c[:, 1:], 0.0).sum(axis=1) < 0.0) | outside)
        for i in np.flatnonzero(near):
            out = _advance_with_events(e.x[i], e.v[i], field_fn, cfg.dt, t0, wall,
                                       cfg.max_reflections_per_step, int(i), fold)
            if out is not None:
                x_new[i], v_new[i], evts = out
                crossing[i] = True
                events.extend(evts)
            elif outside[i]:
                # the path stays in the closed domain but its end rounds outside
                x_new[i] = wall.project_boundary(x_new[i])

    # trailing half-kick of the particles that did not cross
    x_new[~alive] = e.x[~alive]
    if cfg.frozen_field or field_factory is None:
        tail, kick = None, field_fn(x_new)
    else:
        tail = _own_sweep(field_factory(e.with_state(x=x_new, v=v_new)), x_new, potential)
        kick = tail.field
    rest = alive & ~crossing
    v_new[rest] += 0.5 * cfg.dt * kick[rest]
    v_new[~alive] = e.v[~alive]
    return e.with_state(x=x_new, v=v_new, alive=_mark_blowups(e, x_new, v_new)), events, tail


def step(e: Ensemble, field_fn, cfg: StepperConfig, t0=0.0, field_factory=None,
         lead=None, potential=False):
    """One kick-drift-kick step; returns (new snapshot, reflection events, tail).

    ``field_fn`` is the field frozen from the input snapshot; ``lead`` is its
    value at e.x when the caller has it (it is computed otherwise).  With
    cfg.frozen_field both half-kicks use ``field_fn`` and ``tail`` is None;
    otherwise the trailing kick of reflection-free particles re-freezes the
    field from the drifted positions (``field_factory`` must then be given),
    and ``tail`` is that field's sweep at the new positions, with the
    per-row potential when ``potential`` is set.  Particles whose path
    leaves the domain take their whole step, trailing kick included, in the
    event sub-stepper against the frozen field, in ascending index order.
    """
    return _step(e, field_fn, cfg, t0, field_factory, lead, potential, e.domain)


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
    plane = HalfSpace(e.dim) if getattr(field_fn, "plane_split", False) else None
    return _step(e, field_fn, cfg, t0, field_factory, lead, potential, plane, fold=True)


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
