"""Time integration of the specular flow.

The stepper is kick-drift-kick leapfrog.  A step whose kicked path leaves
the domain is re-done as a composition of KDK sub-steps split at the first
exit time, with the specular velocity jump applied exactly on the boundary;
this keeps the integrator second order through bounces.  Along a sub-step
the distance to the wall is a polynomial in time (a quadratic for the
half-space, a quartic for the ball), and the exit is its first root where
the path leaves, so an excursion that returns within the step is found.
All particles whose path leaves in a step advance together, in rounds of
one bounce each, with one field call per round; round 0 reuses the leading
field and distance polynomials the step computed to find them.  Particles
are summed and located independently, so the result is bitwise the same as
stepping them one at a time.

The ensemble's frame decides the wall:

* ProblemA: particles live in the closed domain; every boundary crossing
  is located and reflected.
* ProblemB: an even-symmetric whole-space ensemble is advanced with no
  reflections; half-space observables are read through the fold
  x_1 -> |x_1|, v_1 -> sgn(x_1) v_1, which reproduces the reflected flow.
  For the hard-sign field ``step`` folds the rows, making the plane the
  half-space wall and a pass through it a bounce of the same sub-stepper.
  The two routes agree in folded coordinates to rounding: the two clouds
  sum their pairs in different orders, so the deviation is 0.0 on some
  draws and a few ulps on others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GRAZE_RTOL, Domain, HalfSpace, reflect_velocity
from .ensemble import Ensemble, Frame, Sources
from .fields import SnapshotField

__all__ = [
    "StepperConfig",
    "ReflectionEvent",
    "Trajectory",
    "RunRecord",
    "ReflectionOverflow",
    "NonFiniteState",
    "step",
    "samples",
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
_EPS = np.finfo(float).eps


class ReflectionOverflow(RuntimeError):
    """More reflections in one step than the configured maximum."""


class NonFiniteState(RuntimeError):
    """A live particle's position or velocity became NaN or infinite."""


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
    frozen_field: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.max_reflections_per_step < 1:
            raise ValueError("max_reflections_per_step must be >= 1")

    def steps(self, span, name):
        """The number of steps in the span of time called ``name``; a span
        that is not a whole number >= 0 of steps is a ValueError."""
        n = round(span / self.dt) if math.isfinite(span) else -1
        if n < 0 or abs(n * self.dt - span) > 1e-9 * max(span, self.dt):
            raise ValueError(f"{name} = {span!r} is not a whole number of steps "
                             f"of dt = {self.dt!r}")
        return n


@dataclass(frozen=True)
class ReflectionEvent:
    """One specular bounce: velocity jump v_plus - v_minus = -2 (v_minus . n) n.

    ``e`` is the step's frozen field at the hit x, the value the sub-stepper
    kicked with (bitwise the frozen field function called at x).
    ``step_start`` is the start time of the step that made the bounce, the
    sample the energy ledger books its correction against; t may equal it,
    or round past the step's end.
    """

    t: float
    particle: int
    x: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    e: np.ndarray
    step_start: float


@dataclass
class Trajectory:
    """Path of one particle read from a run's snapshots: the sample times,
    its position, velocity and field at each, and its events."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    e_field: np.ndarray
    events: list


def _path(x, v, e, s):
    """Point at time s along the kicked sub-path from x (rows broadcast)."""
    return x + s * v + 0.5 * s * s * e


def _dot(a, b):
    """Row-wise a . b; per row bitwise equal to np.dot of the two rows."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _distance_poly(domain: Domain, x, v, e, h):
    """Coefficients (lowest degree first, last axis) of the distance to the
    wall along ``_path`` in theta = s / h, for rows with a scalar or per-row
    h: x_1 for the half-space wall (the fold plane, folded by ``step``),
    R^2 - |x|^2 for the ball.  The constant term comes from the start's
    computed signed distance d (R^2 - |x|^2 = d (2R - d)), clipped at 0: a
    start that reads as on the wall is a root at theta = 0, and one an ulp
    outside is not an exit.  The powers h^3 and h^4 are taken per value as
    Python floats, whose rounding differs from numpy's array power."""
    d = np.maximum(domain.signed_distance(x), 0.0)
    if isinstance(domain, HalfSpace):
        return np.stack([d, h * v[..., 0], 0.5 * h * h * e[..., 0]], axis=-1)
    hs = np.asarray(h, dtype=float)
    h3, h4 = (np.array([t**p for t in hs.ravel().tolist()]).reshape(hs.shape) for p in (3, 4))
    xv, vv, xe, ve, ee = ((a * b).sum(axis=-1)
                          for a, b in ((x, v), (v, v), (x, e), (v, e), (e, e)))
    return np.stack([d * (2.0 * domain.radius - d), -2.0 * h * xv, -h * h * (vv + xe),
                     -h3 * ve, -0.25 * h4 * ee], axis=-1)


def _real_roots(cs):
    """Real roots of each sum_k c[k] t^k in the list cs, leading terms below
    rounding on [0, 1] dropped: the stable closed form up to degree 2 (the
    half-space, the plane, a ball in a zero field), else companion-matrix
    eigenvalues, one stacked ``eigvals`` per matrix size."""
    trimmed, roots = [], []
    for c in cs:
        while len(c) > 1 and abs(c[-1]) <= _EPS * sum(map(abs, c)):
            c = c[:-1]
        trimmed.append(c)
        if len(c) > 3:
            roots.append(None)
            continue
        c0, b, a = c + [0.0] * (3 - len(c))
        disc = b * b - 4.0 * a * c0
        if a == 0.0 or disc < 0.0:
            roots.append([-c0 / b] if a == 0.0 and b else [])
        else:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots.append([q / a, c0 / q] if q else [0.0])
    for m in {len(c) - 1 for c in trimmed if len(c) > 3}:
        rows = [k for k, c in enumerate(trimmed) if len(c) == m + 1]
        comp = np.zeros((len(rows), m, m))
        comp[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        comp[:, :, -1] = [[-ck / trimmed[k][-1] for ck in trimmed[k][:-1]] for k in rows]
        z = np.linalg.eigvals(comp)
        real = np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z.real))
        for k, zk, rk in zip(rows, z.real.tolist(), real.tolist()):
            roots[k] = [r for r, keep in zip(zk, rk) if keep]
    return roots


def _first_exit(domain: Domain, c, x, v, e, h):
    """Fraction theta in [0, 1) of each row's sub-step h at which its path
    first leaves the domain, NaN where it stays in the closed domain; c holds
    the rows' ``_distance_poly`` coefficients.

    The real roots of the distance polynomial split [0, 1]; the exit starts
    the first piece on which it is negative, so a tangency, a start on the
    wall moving inward and an arrival on the wall at theta = 1 are not
    exits.  A root gets two Newton steps, then theta moves to the last float
    with computed distance >= 0 in the run from ULP_WALK ulps below to
    ULP_WALK above (further back if there is none).  A path whose computed
    end point rounds outside exits just before theta = 1.  The piece search
    and Newton steps run per row in Python floats, the ulp walk on all rows
    at once.  The fold plane is the half-space wall of rows folded by ``step``.
    """
    def poly(t, c):
        return sum(cj * t**j for j, cj in enumerate(c))

    def dist(i, t):
        # signed distance at fractions t (a row of columns per row i)
        return domain.signed_distance(
            _path(x[i, None], v[i, None], e[i, None], (t * h[i, None])[..., None]))

    polys = c.tolist()
    theta = np.empty(len(polys))
    root, none = np.zeros(len(polys), dtype=bool), np.zeros(len(polys), dtype=bool)
    for i, (cf, roots) in enumerate(zip(polys, _real_roots(polys))):
        cut = sorted([0.0, 1.0, *(r for r in roots if 0.0 < r < 1.0)])
        mid = [0.5 * (a + b) for a, b in zip(cut, cut[1:])]
        k = next((k for k, m in enumerate(mid) if cut[k + 1] > cut[k] and poly(m, cf) < 0.0),
                 None)
        th = 1.0 if k is None else cut[k]
        if k:
            # a root: Newton, kept between the midpoints of the pieces around it
            slope = [j * cj for j, cj in enumerate(cf)][1:]
            for _ in range(2):
                if poly(th, slope):
                    th = min(max(th - poly(th, cf) / poly(th, slope), mid[k - 1]), mid[k])
        theta[i], root[i], none[i] = th, bool(k), k is None
    grid = np.clip(theta[:, None] + np.spacing(theta)[:, None] * _OFFSETS, 0.0, 1.0)
    d = dist(slice(None), grid)
    stay = none & (d[:, ULP_WALK] >= 0.0)
    ok = (d >= 0.0) & ((_OFFSETS <= 0) | (root[:, None] & (grid < 1.0)))
    run = np.where(ok.all(axis=1), len(_OFFSETS), ok.argmin(axis=1))
    theta = grid[np.arange(len(grid)), np.maximum(run - 1, 0)]
    for i in np.flatnonzero((run == 0) & ~stay):
        step = 2.0 * ULP_WALK
        while theta[i] > 0.0 and dist([i], theta[[i], None])[0, 0] < 0.0:
            theta[i] = max(theta[i] - step * np.spacing(theta[i]), 0.0)
            step *= 2.0
    theta[stay] = np.nan
    return theta


def _advance_with_events(x, v, e, c, e_fn, dt, t0, domain: Domain, max_reflections,
                         particles):
    """One full KDK step of the rows (x, v), each split where its path leaves.

    ``e`` is the frozen field ``e_fn`` at x and ``c`` the rows'
    ``_distance_poly`` over the whole step, as the caller computed them to
    flag the rows.  Between exits each sub-interval is a kick-drift-kick
    sub-step with the frozen field, and the partial sub-step up to an exit
    is completed on the wall, where the velocity is reflected and the event
    recorded; ``step`` hands in the fold plane as the half-space wall of
    folded rows, where a pass is a bounce.  Grazing hits (|v . n| <=
    GRAZE_RTOL |v|, v = 0 included) finish the step with no jump, sliding
    along the wall if the field pushes them into it; so do hits whose KDK
    velocity v_minus already points inward (v . n > GRAZE_RTOL |v|, n the
    inward normal), which the path can reach when the field at the hit
    differs from the one at the sub-step's start: a reflection would send
    them out, and the next sub-step would undo it at the same time.

    The rows advance together in rounds.  Round 0 locates the first exits
    from ``c`` and calls no field.  Every later round makes one ``e_fn``
    call, at the wall hits just located and the step ends of rows with no
    further exit, and one more at the ends of its grazing slides, which
    finish in the round that finds them; then the rows that bounced locate
    their next exits.  Each row goes through the float operations it would
    go through alone.

    ``particles`` are the rows' particle indices.  Returns (crossed, x, v,
    events, bounces): ``crossed`` marks the rows whose path leaves, x and v
    are the rows' end states (rows that do not cross come back as given),
    the events are in (particle, time) order, each with ``t0``, the step's
    start, as its ``step_start``, and ``bounces`` counts each row's
    reflections.  ReflectionOverflow names the lowest particle with more
    than ``max_reflections`` bounces.
    """
    x, v, e = (np.array(a, dtype=float) for a in (x, v, e))
    n = len(x)
    t, remaining = np.full(n, float(t0)), np.full(n, float(dt))
    bounces = np.zeros(n, dtype=int)
    tol = EVENT_DIST_RTOL * domain.scale
    events, overflow = [], []

    theta = _first_exit(domain, c, x, v, e, remaining)
    crossed = ~np.isnan(theta)
    rows, theta = np.flatnonzero(crossed), theta[crossed]
    while len(rows):
        leave = ~np.isnan(theta)
        end, hit, s = rows[~leave], rows[leave], theta[leave] * remaining[rows[leave]]
        # one field call for the round: at the step ends of the rows with no
        # further exit and at the wall hits
        ends = _path(x[end], v[end], e[end], remaining[end, None]) if len(end) else x[:0]
        hits = (domain.project_boundary(_path(x[hit], v[hit], e[hit], s[:, None]))
                if len(hit) else x[:0])
        f_end, f_hit = np.split(e_fn(np.concatenate([ends, hits])), [len(end)])
        if len(end):
            # the rows with no further exit finish their KDK sub-step
            r = remaining[end, None]
            x[end], v[end] = ends, (v[end] + 0.5 * r * e[end]) + 0.5 * r * f_end
        if not len(hit):
            break
        # complete the partial KDK sub-steps [t, t + s] ending on the wall
        vm = v[hit] + (0.5 * s)[:, None] * (e[hit] + f_hit)
        normal = domain.inward_normal(hits)
        graze = _dot(vm, normal) >= -GRAZE_RTOL * np.sqrt(_dot(vm, vm))
        if graze.any():
            # the grazing set, a particle at rest on the wall and one already
            # moving inward included: no jump; the rest of the step is one
            # sub-step along the wall, and a path pushed through the wall is
            # clamped back onto it and loses its outward normal velocity
            g, rest = hit[graze], remaining[hit[graze]] - s[graze]
            g_end = _path(hits[graze], vm[graze], f_hit[graze], rest[:, None])
            through = domain.signed_distance(g_end) < 0.0
            g_end[through] = domain.project_boundary(g_end[through])
            g_v = vm[graze] + 0.5 * rest[:, None] * (f_hit[graze] + e_fn(g_end))
            nrm = domain.inward_normal(g_end[through])
            vn = _dot(g_v[through], nrm)
            g_v[through] -= np.where(0.0 < vn, 0.0, vn)[:, None] * nrm
            x[g], v[g] = g_end, g_v
            hit, s, hits, f_hit, vm, normal = (
                a[~graze] for a in (hit, s, hits, f_hit, vm, normal))
        v_plus = reflect_velocity(normal, vm)
        events += [ReflectionEvent(float(tk), int(particles[k]), xk, vk, wk, fk, float(t0))
                   for k, tk, xk, vk, wk, fk in zip(hit, t[hit] + s, hits, vm, v_plus, f_hit)]
        x[hit], v[hit], e[hit] = hits, v_plus, f_hit
        t[hit] += s
        remaining[hit] -= s
        bounces[hit] += 1
        stop = remaining[hit] <= tol / np.maximum(np.sqrt(_dot(v_plus, v_plus)), 1e-300)
        over = ~stop & (bounces[hit] > max_reflections)
        overflow.extend(particles[hit[over]])
        rows = hit[~stop & ~over]
        if len(rows):
            xr, vr, er, hr = x[rows], v[rows], e[rows], remaining[rows]
            theta = _first_exit(domain, _distance_poly(domain, xr, vr, er, hr), xr, vr, er, hr)
    if overflow:
        raise ReflectionOverflow(
            f"particle {int(min(overflow))} exceeded {max_reflections} reflections in one step")
    events.sort(key=lambda ev: ev.particle)
    return crossed, x, v, events, bounces


def _mark_blowups(alive, x, v, scale):
    """Alive mask after a step: particles beyond BLOWUP_LIMIT * scale die.  The
    limit test fails for NaN and inf too, and only then is finiteness checked:
    a live particle gone non-finite raises (NaN * 0 would poison the sums)."""
    limit = BLOWUP_LIMIT * scale
    if np.abs(x).max(initial=0.0) <= limit and np.abs(v).max(initial=0.0) <= limit:
        return alive
    bad = np.flatnonzero(alive & ~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1)))
    if len(bad):
        raise NonFiniteState(f"particle {int(bad[0])} has a non-finite position or velocity")
    return alive & (np.maximum(np.abs(x).max(axis=1), np.abs(v).max(axis=1)) <= limit)


def _own_field(field_fn, x):
    """A snapshot's field at its own positions x: a ``SnapshotField``'s cached
    sweep's, or a plain field function's value."""
    return field_fn.sweep.field if isinstance(field_fn, SnapshotField) else field_fn(x)


def step(e: Ensemble, field_fn, cfg: StepperConfig, t0=0.0, field_factory=None, lead=None):
    """One kick-drift-kick step; returns (new snapshot, reflection events, tail).

    ``field_fn`` is the field frozen from the input snapshot; ``lead`` is its
    value at e.x when the caller has it (it is computed otherwise).  Without
    a ``field_factory`` (the frozen-field step) both half-kicks use
    ``field_fn`` and ``tail`` is None; with one, the trailing kick of
    reflection-free particles re-freezes the field from the drifted
    positions: ``tail`` is that field, the factory's value on the step's
    ``Sources`` (the new positions, the entering alive mask), and the kick
    is its sweep's.

    The frame picks the wall.  A ProblemA ensemble reflects off its domain
    (none in the whole space).  A ProblemB ensemble is a whole-space,
    even-symmetric one with no reflections (read it through
    ``fold_halfspace``): a field carrying ``plane_split = True`` (hard sign)
    is stepped in folded coordinates, where the plane {x_1 = 0} is the
    half-space wall, and unfolded by the side each row ends on; the event
    list is empty.  A smooth field takes the plain KDK step.

    Particles whose path leaves the domain (or crosses the plane) take
    their whole step, trailing kick included, in the event sub-stepper
    against the frozen field: all of them together, in rounds of one bounce
    each and one field call per round, bitwise as if each stepped alone.
    ReflectionOverflow names the lowest such particle past
    cfg.max_reflections_per_step bounces, NonFiniteState a live particle
    gone non-finite.  The one ``Ensemble`` built, the new snapshot, checks it.
    """
    fold = e.frame is Frame.PROBLEM_B
    if fold:
        wall = HalfSpace(e.dim) if getattr(field_fn, "plane_split", False) else None
    else:
        wall = e.domain
    scale = e.domain.scale if e.domain is not None else 1.0
    alive, dt = e.alive, cfg.dt
    e0 = field_fn(e.x) if lead is None else lead
    v_new = e.v + 0.5 * dt * e0
    with np.errstate(over="ignore"):  # an overflow is caught as non-finite below
        x_new = e.x + dt * v_new
    if not alive.all():  # the dead keep their state
        x_new[~alive], v_new[~alive] = e.x[~alive], e.v[~alive]
    if not np.isfinite(x_new).all():  # so is a non-finite v_new
        _mark_blowups(alive, x_new, v_new, scale)  # raises before any field sees it
    events: list[ReflectionEvent] = []

    rest = alive
    if wall is not None:
        x, v, end = e.x, e.v, x_new
        if fold:
            # fold (x_1 -> |x_1|, v_1 -> sgn(x_1) v_1): the plane is the wall, and
            # the hard-sign field at a folded point is the folded field
            flip = np.ones_like(x)
            flip[x[:, 0] < 0.0, 0] = -1.0
            x, v, e0, end = x * flip, v * flip, e0 * flip, end * flip
        # on [0, 1] the distance polynomial is at least its constant term
        # plus its negative coefficients; the end point may round outside
        c = _distance_poly(wall, x, v, e0, dt)
        outside = wall.signed_distance(end) < 0.0
        near = np.flatnonzero(
            alive & ((c[:, 0] + np.minimum(c[:, 1:], 0.0).sum(axis=1) < 0.0) | outside))
        if len(near):
            crossed, x_out, v_out, events, bounces = _advance_with_events(
                x[near], v[near], e0[near], c[near], field_fn, dt, t0, wall,
                cfg.max_reflections_per_step, near)
            hit = near[crossed]
            rest = alive.copy()
            rest[hit] = False
            x_new[hit], v_new[hit] = x_out[crossed], v_out[crossed]
            if fold:
                # unfold by the side each row ends on; a plane pass is no event
                flip[hit, 0] *= (-1.0) ** bounces[crossed]
                x_new[hit] *= flip[hit]
                v_new[hit] *= flip[hit]
                events = []
            # a path that stays in the closed domain but whose end rounds outside
            stay = near[~crossed & outside[near]]
            x_new[stay] = wall.project_boundary(x_new[stay])

    # trailing half-kick of the particles that did not cross
    if field_factory is None:
        tail, kick = None, field_fn(x_new)
    else:
        tail = field_factory(Sources(x_new, e.w, alive, e.domain, e.frame))
        kick = _own_field(tail, x_new)
    np.add(v_new, 0.5 * dt * kick, out=v_new, where=rest[:, None])
    return e.with_state(x=x_new, v=v_new, alive=_mark_blowups(alive, x_new, v_new, scale)), \
        events, tail


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
    steps, always including the initial and final states, and ``fields``
    the field of each at its own positions, the one the run stepped with.
    ``events`` are the bounces in (particle, time) order within each step,
    each carrying the field at its hit.  ``deaths`` maps each particle that
    blew up to the time of the step it died in.  ``field_factory`` is the
    factory the run stepped with; the diagnostics rebuild each snapshot's
    field function from it.
    """

    snapshots: list
    fields: list
    events: list
    final: Ensemble
    dt: float
    snapshot_every: int = 1
    deaths: dict = field(default_factory=dict)
    field_factory: object = None

    def trajectory(self, i: int) -> Trajectory:
        """Particle i's path; needs one snapshot per step (ValueError otherwise)."""
        if self.snapshot_every != 1:
            raise ValueError("a trajectory needs one snapshot per step")
        return Trajectory(
            times=np.array([t for t, _ in self.snapshots]),
            x=np.array([s.x[i] for _, s in self.snapshots]),
            v=np.array([s.v[i] for _, s in self.snapshots]),
            e_field=np.array([f[i] for f in self.fields]),
            events=[ev for ev in self.events if ev.particle == i],
        )


def samples(e0: Ensemble, field_factory, cfg: StepperConfig, t_end):
    """The run over [0, t_end] as a stream of samples (t, snapshot, field,
    events), the initial one and one after each step; it keeps nothing.

    ``field`` is the snapshot's own field, the one the next step steps in
    (the factory's ``SnapshotField``: its ``model`` and cached ``sweep``,
    the per-row potential included); ``events`` are the bounces of the step
    that made the snapshot, in (particle, time) order, each with the time
    of the sample before as its ``step_start``.  Each step freezes the
    field from the snapshot entering it (the Picard-style decoupling); a
    step that raises ends the stream after the samples made before it.

    Force reuse: in refresh mode the trailing-kick field of a step is the
    field of the snapshot it ends on, so it is the next step's field, and
    its cached sweep the next step's leading field.  It is carried over
    unless a particle died in the step (dead particles leave the sources);
    then, and in frozen mode, the factory builds the new snapshot's field.
    Factories must therefore depend on a snapshot's positions, weights and
    alive mask only (the trailing kick gets the step's ``Sources``).

    The ensemble's frame picks the wall (see ``step``).
    """
    n_steps = cfg.steps(t_end, "t_end")
    e, t, events, field_fn = e0, 0.0, [], field_factory(e0)
    for k in range(n_steps + 1):  # k = 0: the initial snapshot
        if k:
            alive = e.alive
            e, events, field_fn = step(e, field_fn, cfg, t0=t, lead=lead,
                                       field_factory=None if cfg.frozen_field else field_factory)
            t = k * cfg.dt
            if field_fn is None or (alive & ~e.alive).any():  # frozen, or a death
                field_fn = field_factory(e)
        lead = _own_field(field_fn, e.x)
        yield t, e, field_fn, events


def integrate(e0: Ensemble, field_factory, cfg: StepperConfig, t_end,
              snapshot_every=1, observer=None):
    """Fixed-dt run over [0, t_end]; returns its ``RunRecord``, recorded
    from ``samples``.

    A snapshot is kept every ``snapshot_every`` steps, a whole number >= 1
    (ValueError otherwise, before any step), with the field it steps in at
    its own positions: that field's sweep's, or a plain field function's
    value.  ``observer(t, snapshot, field, events)`` is handed every sample
    of the stream as it is made.
    """
    if not (float(snapshot_every).is_integer() and snapshot_every >= 1):
        raise ValueError(f"snapshot_every = {snapshot_every!r} is not a whole number >= 1")
    snapshot_every = int(snapshot_every)
    n_steps = cfg.steps(t_end, "t_end")

    snapshots, fields, events, deaths = [], [], [], {}
    alive = e0.alive
    for k, (t, e, field_fn, evts) in enumerate(samples(e0, field_factory, cfg, t_end)):
        events.extend(evts)
        deaths.update(dict.fromkeys(np.flatnonzero(alive & ~e.alive).tolist(), t))
        alive = e.alive
        if observer is not None:
            observer(t, e, field_fn, evts)
        if k % snapshot_every == 0 or k == n_steps:
            snapshots.append((t, e))
            fields.append(_own_field(field_fn, e.x))

    return RunRecord(snapshots=snapshots, fields=fields, events=events, final=e, dt=cfg.dt,
                     snapshot_every=snapshot_every, deaths=deaths,
                     field_factory=field_factory)
