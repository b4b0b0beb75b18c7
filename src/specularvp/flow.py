"""Time integration of the specular flow.

The stepper is kick-drift-kick leapfrog.  A step whose kicked path leaves
the domain is re-done as a composition of KDK sub-steps split at the first
exit time, with the specular velocity jump applied exactly on the boundary;
this keeps the integrator second order through bounces.  Along a sub-step
the distance to the wall is a polynomial in time (a quadratic for the
half-space, a quartic for the ball), and the exit is its first root where
the path leaves, so an excursion that returns within the step is found.
All particles whose path leaves in a step advance together, in rounds of
one bounce each, with one field call and one compiled event-location call
per round; round 0 reuses the leading field the step computed to find
them.  Particles are summed and located independently, so the result is
bitwise the same as stepping them one at a time.

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
from dataclasses import dataclass

import numpy as np

from .geometry import GRAZE_RTOL, Domain, HalfSpace, reflect_velocity
from .ensemble import Ensemble, Frame, Sources
from . import fields
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
    kicked with (bitwise the frozen field function called at x).  The
    bounce belongs to the step that made it, the sample it arrives with in
    ``samples``: t may equal the step's start, or round past its end.
    """

    t: float
    particle: int
    x: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    e: np.ndarray


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
    wall along ``_path`` in theta = s / h for a step of length h: x_1 for
    the half-space wall (the fold plane, folded by ``step``), R^2 - |x|^2
    for the ball.  The constant term comes from the start's computed signed
    distance d (R^2 - |x|^2 = d (2R - d)), clipped at 0: a start that reads
    as on the wall is a root at theta = 0, and one an ulp outside is not an
    exit.  ``step`` flags the rows that may leave with it; ``_exit_row``
    computes the same coefficients per row."""
    h, d = float(h), np.maximum(domain.signed_distance(x), 0.0)
    if isinstance(domain, HalfSpace):
        return np.stack([d, h * v[..., 0], 0.5 * h * h * e[..., 0]], axis=-1)
    xv, vv, xe, ve, ee = ((a * b).sum(axis=-1)
                          for a, b in ((x, v), (v, v), (x, e), (v, e), (e, e)))
    return np.stack([d * (2.0 * domain.radius - d), -2.0 * h * xv, -h * h * (vv + xe),
                     -h**3 * ve, -0.25 * h**4 * ee], axis=-1)


def _horner(c, t):
    """sum_k c[k] t^k in Horner's form."""
    p = c[-1]
    for cj in reversed(c[:-1]):
        p = p * t + cj
    return p


def _real_roots(c):
    """Real roots of sum_k c[k] t^k (c a list), leading terms below rounding
    on [0, 1] dropped.  Up to degree 2 the stable closed form gives every
    real root (the half-space, the plane, a ball in a zero field).  Above,
    the roots in (0, 1) are isolated: the roots of the derivative, found the
    same way, split [0, 1] into monotone pieces; a zero at a split point is
    a root, and a piece whose ends have opposite signs is bisected, in
    Horner's form, until its midpoint equals an end, the root returned."""
    while len(c) > 1 and abs(c[-1]) <= _EPS * sum(map(abs, c)):
        c = c[:-1]
    if len(c) <= 3:
        c0, b, a = c + [0.0] * (3 - len(c))
        disc = b * b - 4.0 * a * c0
        if a == 0.0 or disc < 0.0:
            return [-c0 / b] if a == 0.0 and b else []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        return [q / a, c0 / q] if q else [0.0]
    slope = [j * cj for j, cj in enumerate(c)][1:]
    cut = [0.0, *sorted(r for r in _real_roots(slope) if 0.0 < r < 1.0), 1.0]
    f = [_horner(c, t) for t in cut]
    roots = [t for t, ft in zip(cut[1:-1], f[1:-1]) if ft == 0.0]
    for lo, hi, flo, fhi in zip(cut, cut[1:], f, f[1:]):
        if flo < 0.0 < fhi or fhi < 0.0 < flo:
            while (mid := 0.5 * (lo + hi)) != lo and mid != hi:
                fm = _horner(c, mid)
                if fm == 0.0:
                    break
                if (fm < 0.0) == (flo < 0.0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(mid)
    return roots


def _exit_row(radius, x, v, e, h):
    """``_first_exit`` of one row in Python floats: x, v and e are lists, h
    a float, radius the ball's or 0.0 for the half-space wall.

    The distance polynomial's coefficients are ``_distance_poly``'s float
    operations: numpy adds a short row's products from the first on (d < 8)
    and takes h^3 and h^4 as Python's ``**`` does, with libm's pow."""
    def dot(a, b):
        s = a[0] * b[0]
        for ak, bk in zip(a[1:], b[1:]):
            s += ak * bk
        return s

    def dist(s):
        # the computed signed distance at time s along the path
        p = [xk + s * vk + 0.5 * s * s * ek for xk, vk, ek in zip(x, v, e)]
        return radius - math.sqrt(dot(p, p)) if radius else p[0]

    def poly(c, t):
        return sum(cj * t**j for j, cj in enumerate(c))

    d0 = dist(0.0)
    d0 = d0 if d0 > 0.0 else 0.0
    if radius:
        c = [d0 * (2.0 * radius - d0), -2.0 * h * dot(x, v), -h * h * (dot(v, v) + dot(x, e)),
             -h**3 * dot(v, e), -0.25 * h**4 * dot(e, e)]
    else:
        c = [d0, h * v[0], 0.5 * h * h * e[0]]
    cut = sorted([0.0, 1.0, *(r for r in _real_roots(c) if 0.0 < r < 1.0)])
    mid = [0.5 * (a + b) for a, b in zip(cut, cut[1:])]
    k = next((k for k, m in enumerate(mid) if cut[k + 1] > cut[k] and poly(c, m) < 0.0), None)
    th = 1.0 if k is None else cut[k]
    if k:
        # a root: Newton, kept between the midpoints of the pieces around it
        slope = [j * cj for j, cj in enumerate(c)][1:]
        for _ in range(2):
            if poly(slope, th):
                th = min(max(th - poly(c, th) / poly(slope, th), mid[k - 1]), mid[k])
    if k is None and dist(1.0 * h) >= 0.0:
        return math.nan
    grid = [min(max(th + math.ulp(th) * o, 0.0), 1.0) for o in range(-ULP_WALK, ULP_WALK + 1)]
    run = next((j for j, g in enumerate(grid)
                if (j > ULP_WALK and not (k and g < 1.0)) or not dist(g * h) >= 0.0), len(grid))
    if run:
        return grid[run - 1]
    th, step = grid[0], 2.0 * ULP_WALK
    while th > 0.0 and dist(th * h) < 0.0:
        th = max(th - step * math.ulp(th), 0.0)
        step *= 2.0
    return th


def _first_exit(domain: Domain, x, v, e, h):
    """Fraction theta in [0, 1) of each row's sub-step h at which its path
    first leaves the domain, NaN where it stays in the closed domain.

    Along the path the distance to the wall is a polynomial in theta (see
    ``_distance_poly``); its real roots (``_real_roots``) split [0, 1], and
    the exit starts the first piece on which it is negative, so a tangency,
    a start on the wall moving inward and an arrival on the wall at
    theta = 1 are not exits.  A root gets two Newton steps, then theta
    moves to the last float with computed distance >= 0 in the run from
    ULP_WALK ulps below to ULP_WALK above (further back if there is none).
    A path whose computed end point rounds outside exits just before
    theta = 1.  The fold plane is the half-space wall of rows folded by
    ``step``.

    The rows go to pairs.c's ``first_exit`` in one call, which does each
    row's float operations in scalar doubles; without the compiled kernel
    ``_exit_row`` does the same operations in Python floats, with the same
    bits.
    """
    radius = 0.0 if isinstance(domain, HalfSpace) else float(domain.radius)
    kernel = fields._load_kernel()
    if kernel is None:
        return np.array([_exit_row(radius, *row) for row in
                         zip(x.tolist(), v.tolist(), e.tolist(), h.tolist())])
    x, v, e, h = (np.ascontiguousarray(a, dtype=float) for a in (x, v, e, h))
    if not x.shape == v.shape == e.shape == (len(h), domain.dim) or h.ndim != 1:
        raise ValueError("first_exit takes rows x, v, e of shape (m, dim) and h of shape (m,)")
    theta = np.empty(len(h))
    kernel.first_exit(x.shape[1], radius, len(h), x.ctypes.data, v.ctypes.data,
                      e.ctypes.data, h.ctypes.data, theta.ctypes.data)
    return theta


def _advance_with_events(x, v, e, e_fn, dt, t0, domain: Domain, max_reflections, particles):
    """One full KDK step of the rows (x, v), each split where its path leaves.

    ``e`` is the frozen field ``e_fn`` at x, as the caller computed it.
    Between exits each sub-interval is a kick-drift-kick sub-step with the
    frozen field, and the partial sub-step up to an exit is completed on the
    wall, where the velocity is reflected and the event recorded; ``step``
    hands in the fold plane as the half-space wall of folded rows, where a
    pass is a bounce.  Grazing hits (|v . n| <= GRAZE_RTOL |v|, v = 0
    included) finish the step with no jump, sliding along the wall if the
    field pushes them into it; so do hits whose KDK velocity v_minus already
    points inward (v . n > GRAZE_RTOL |v|, n the inward normal), which the
    path can reach when the field at the hit differs from the one at the
    sub-step's start: a reflection would send them out, and the next
    sub-step would undo it at the same time.

    The rows advance together in rounds, each with one ``_first_exit`` call
    for the rows still moving.  Round 0 calls no field.  Every later round
    makes one ``e_fn`` call, at the wall hits just located and the step ends
    of rows with no further exit, and one more at the ends of its grazing
    slides, which finish in the round that finds them; then the rows that
    bounced locate their next exits.  Each row goes through the float
    operations it would go through alone.

    ``particles`` are the rows' particle indices.  Returns (crossed, x, v,
    events, bounces): ``crossed`` marks the rows whose path leaves, x and v
    are the rows' end states (rows that do not cross come back as given),
    the events are in (particle, time) order, timed from ``t0``, the step's
    start, and ``bounces`` counts each row's reflections.
    ReflectionOverflow names the lowest particle with more than
    ``max_reflections`` bounces.
    """
    x, v, e = (np.array(a, dtype=float) for a in (x, v, e))
    n = len(x)
    t, remaining = np.full(n, float(t0)), np.full(n, float(dt))
    bounces = np.zeros(n, dtype=int)
    tol = EVENT_DIST_RTOL * domain.scale
    events, overflow = [], []

    theta = _first_exit(domain, x, v, e, remaining)
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
        events += [ReflectionEvent(float(tk), int(particles[k]), xk, vk, wk, fk)
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
            theta = _first_exit(domain, x[rows], v[rows], e[rows], remaining[rows])
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
                x[near], v[near], e0[near], field_fn, dt, t0, wall,
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
    """A fixed-dt run as the list of its ``samples``, (t, snapshot, field,
    events), kept as they came, and its step ``dt``.

    The other attributes are views of the samples: ``snapshots`` the (time,
    Ensemble) pairs, ``final`` the last snapshot, ``events`` the bounces in
    step order and (particle, time) order within a step, each carrying the
    field at its hit, and ``deaths`` each particle that blew up with the
    time of the step it died in.  ``fields`` is each snapshot's field at its
    own positions, the one the run stepped with: a ``SnapshotField``'s
    cached sweep's, or a plain field function's value.
    """

    samples: list
    dt: float

    @property
    def snapshots(self):
        return [(t, e) for t, e, _, _ in self.samples]

    @property
    def final(self) -> Ensemble:
        return self.samples[-1][1]

    @property
    def events(self):
        return [ev for *_, evts in self.samples for ev in evts]

    @property
    def fields(self):
        return [_own_field(f, e.x) for _, e, f, _ in self.samples]

    @property
    def deaths(self):
        deaths, alive = {}, self.samples[0][1].alive
        for t, e, _, _ in self.samples:
            deaths.update(dict.fromkeys(np.flatnonzero(alive & ~e.alive).tolist(), t))
            alive = e.alive
        return deaths

    def trajectory(self, i: int) -> Trajectory:
        """Particle i's path through the samples."""
        return Trajectory(
            times=np.array([t for t, *_ in self.samples]),
            x=np.array([e.x[i] for _, e, _, _ in self.samples]),
            v=np.array([e.v[i] for _, e, _, _ in self.samples]),
            e_field=np.array([f[i] for f in self.fields]),
            events=[ev for ev in self.events if ev.particle == i],
        )


def samples(e0: Ensemble, field_factory, cfg: StepperConfig, t_end):
    """The run over [0, t_end] as a stream of samples (t, snapshot, field,
    events), the initial one and one after each step; it keeps nothing.

    ``field`` is the snapshot's own field, the one the next step steps in
    (the factory's ``SnapshotField``: its ``model`` and cached ``sweep``,
    the per-row potential included; it may be bound to the step's
    ``Sources``, which carry no velocities); ``events`` are the bounces of
    the step from the sample before, in (particle, time) order.  Each step
    freezes the field from the snapshot entering it (the Picard-style
    decoupling); a step that raises ends the stream after the samples made
    before it.

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


def integrate(e0: Ensemble, field_factory, cfg: StepperConfig, t_end) -> RunRecord:
    """Fixed-dt run over [0, t_end]; its ``RunRecord`` keeps every sample of
    ``samples``."""
    return RunRecord(list(samples(e0, field_factory, cfg, t_end)), cfg.dt)
