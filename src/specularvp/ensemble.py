"""Weighted-particle phase-space ensembles and Problem A/B symmetrization."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, HalfSpace

__all__ = [
    "Frame",
    "Ensemble",
    "Sources",
    "InitialCondition",
    "FrameMismatch",
    "AsymmetricInput",
    "UnsupportedDensity",
    "symmetrize",
    "restrict",
    "kinetic_energy",
    "sample_initial",
]

# particles sampled exactly on the boundary are nudged inward by this
# fraction of the domain scale (the initial trace set is measure zero)
BOUNDARY_NUDGE = 1e-12


class FrameMismatch(ValueError):
    """Operation applied to an ensemble in the wrong frame."""


class AsymmetricInput(ValueError):
    """ProblemB ensemble is not closed under the mirror map."""


class UnsupportedDensity(ValueError):
    """Initial-condition sampler kind not recognized."""


class Frame(enum.Enum):
    PROBLEM_A = "problem_a"   # lives in the closed domain
    PROBLEM_B = "problem_b"   # whole space, closed under (x, v) -> (x', v')


@dataclass(frozen=True)
class Ensemble:
    """Immutable snapshot of weighted phase-space samples.

    Arrays are copied and frozen on construction.  ``alive`` marks particles
    still inside the finite phase-space box (blown-up particles are frozen
    and excluded from fields and observables; their weights are untouched).
    Construction checks that a ProblemA ensemble lies in its closed domain;
    the snapshot ``step`` returns is the step's one check of its positions.
    """

    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    domain: Domain | None = None
    frame: Frame = Frame.PROBLEM_A
    alive: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        x, v, w = (np.array(a, dtype=float) for a in (self.x, self.v, self.w))
        alive = np.ones(len(w), bool) if self.alive is None else np.array(self.alive, bool)
        if x.shape != v.shape or x.shape[:1] != w.shape:
            raise ValueError("inconsistent particle array shapes")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if self.frame is Frame.PROBLEM_A and self.domain is not None and len(x):
            if self.domain.signed_distance(x).min() < -1e-9 * self.domain.scale:
                raise ValueError("ProblemA particles must lie in the closed domain")
        for name, a in (("x", x), ("v", v), ("w", w), ("alive", alive)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self):
        return len(self.w)

    @property
    def dim(self):
        return self.x.shape[1]

    @property
    def total_mass(self):
        return float(np.sum(self.w * self.alive))

    def with_state(self, x=None, v=None, alive=None):
        """New snapshot with updated positions/velocities; weights never change."""
        return type(self)(self.x if x is None else x, self.v if v is None else v, self.w,
                          self.domain, self.frame, self.alive if alive is None else alive)


@dataclass(slots=True)
class Sources:
    """A snapshot as a field reads it, unchecked and with no velocities:
    ``step`` builds its trailing-kick field from one, before the snapshot."""

    x: np.ndarray
    w: np.ndarray
    alive: np.ndarray
    domain: Domain | None
    frame: Frame


def _mirror_xv(x, v):
    xm = np.array(x, dtype=float)
    vm = np.array(v, dtype=float)
    xm[:, 0] = -xm[:, 0]
    vm[:, 0] = -vm[:, 0]
    return xm, vm


def symmetrize(e: Ensemble) -> Ensemble:
    """Even extension: append the mirror (x', v', w) of every particle.

    Output has 2N particles and twice the mass; the usual factor 1/2 lives
    in the observables that compare the two frames, not in the weights.
    Particle i's mirror sits at index i + N.
    """
    if e.frame is not Frame.PROBLEM_A:
        raise FrameMismatch("symmetrize expects a ProblemA ensemble")
    if not isinstance(e.domain, HalfSpace):
        raise FrameMismatch("symmetrize is defined for half-space ensembles")
    xm, vm = _mirror_xv(e.x, e.v)
    return Ensemble(
        x=np.concatenate([e.x, xm]),
        v=np.concatenate([e.v, vm]),
        w=np.concatenate([e.w, e.w]),
        domain=e.domain,
        frame=Frame.PROBLEM_B,
        alive=np.concatenate([e.alive, e.alive]),
    )


def mirror_pair_indices(e: Ensemble):
    """Index ``m`` with ``m[i]`` the mirror partner of particle i.

    Raises AsymmetricInput if some particle has no partner within 1e-9
    (relative to the domain scale) in mirrored phase space.
    """
    from scipy.spatial import cKDTree

    scale = e.domain.scale if e.domain is not None else 1.0
    z = np.concatenate([e.x, e.v, e.w[:, None]], axis=1)
    xm, vm = _mirror_xv(e.x, e.v)
    zm = np.concatenate([xm, vm, e.w[:, None]], axis=1)
    dist, idx = cKDTree(zm).query(z, k=1)
    if np.any(dist > 1e-9 * max(scale, 1.0)):
        raise AsymmetricInput("ensemble is not closed under the mirror map")
    return idx


def restrict(e: Ensemble) -> Ensemble:
    """Keep the half-space representative of an even-symmetric ensemble.

    Inverse of ``symmetrize`` up to ordering: keeps x_1 > 0, and one member
    of each mirror pair sitting exactly on the plane.
    """
    if e.frame is not Frame.PROBLEM_B:
        raise FrameMismatch("restrict expects a ProblemB ensemble")
    if len(e) == 0:
        return Ensemble(
            x=e.x, v=e.v, w=e.w, domain=e.domain, frame=Frame.PROBLEM_A, alive=e.alive
        )
    partner = mirror_pair_indices(e)
    keep = e.x[:, 0] > 0
    on_plane = np.flatnonzero(e.x[:, 0] == 0)
    keep[np.minimum(on_plane, partner[on_plane])] = True  # the lower index of each pair
    return Ensemble(
        x=e.x[keep],
        v=e.v[keep],
        w=e.w[keep],
        domain=e.domain,
        frame=Frame.PROBLEM_A,
        alive=e.alive[keep],
    )


def kinetic_energy(e: Ensemble) -> float:
    """sum_i w_i |v_i|^2 (no 1/2: the energy ledger uses the bare second moment).

    A velocity near the float limit squares to inf without a warning; the
    stepper's ``NonFiniteState`` check reports such a state."""
    with np.errstate(over="ignore"):
        return float(np.sum(e.w * e.alive * np.sum(e.v**2, axis=1)))


@dataclass(frozen=True)
class InitialCondition:
    """Sampler recipe for the initial phase-space density.

    kinds:
      uniform_box : positions uniform on ``x_bounds`` (rejection-clipped to
                    the domain), velocities uniform on ``v_bounds``
      maxwellian  : positions uniform on ``x_bounds`` (clipped to the
                    domain), velocities isotropic normal with variance
                    ``temperature`` per component around ``v_center``
      delta       : n copies of the single point (``x0``, ``v0``)
      explicit    : particle arrays given directly

    Each particle weighs mass/n unless ``w`` gives the weights.
    """

    kind: str
    n: int
    mass: float = 1.0
    x_bounds: tuple | None = None   # (lo, hi) arrays
    v_bounds: tuple | None = None
    temperature: float = 1.0
    v_center: np.ndarray | None = None
    x0: np.ndarray | None = None
    v0: np.ndarray | None = None
    x: np.ndarray | None = None
    v: np.ndarray | None = None
    w: np.ndarray | None = None

    def __post_init__(self):
        for name in ("n", "mass", "temperature"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.w is not None and np.any(self.w < 0):
            raise ValueError("weights must be >= 0")

    def validate_for_domain(self, domain: Domain | None):
        """Refuse a recipe with no particles in the domain: vectors of another
        dimension, a given position outside the closed domain, or a sampling
        box that misses its interior (rejection sampling would never end);
        then one with a value that is not finite."""
        if domain is not None:
            vectors = [*(self.x_bounds or ()), *(self.v_bounds or ()), self.v_center, self.x0,
                       self.v0]
            if any(np.shape(a) != (domain.dim,) for a in vectors if a is not None):
                raise ValueError(f"initial-condition vectors need {domain.dim} entries")
            given = self.x0 if self.x is None else self.x
            if given is not None and np.any(domain.signed_distance(given) < -1e-9 * domain.scale):
                raise ValueError("an initial position lies outside the domain")
            if self.x_bounds is not None:
                lo, hi = np.minimum(*self.x_bounds), np.maximum(*self.x_bounds)
                # the box point deepest in the domain: largest x_1, or nearest the center
                deepest = hi if isinstance(domain, HalfSpace) else np.clip(0.0, lo, hi)
                if not domain.signed_distance(deepest) > 0:
                    raise ValueError("the sampling box x_min..x_max misses the domain")
        for name in ("mass", "temperature", "x_bounds", "v_bounds", "v_center", "x0", "v0",
                     "x", "v", "w"):
            if (value := getattr(self, name)) is not None and not np.isfinite(value).all():
                raise ValueError(f"initial-condition {name} is not finite")


def _sample_box(rng, lo, hi, n):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((n, lo.size))


def _sample_positions(rng, ic, domain, n):
    lo, hi = ic.x_bounds
    out = np.empty((n, np.asarray(lo).size))
    have = 0
    while have < n:
        cand = _sample_box(rng, lo, hi, n - have)
        if domain is not None:
            cand = cand[domain.signed_distance(cand) >= 0]
        out[have : have + len(cand)] = cand
        have += len(cand)
    return out


def sample_initial(ic: InitialCondition, domain=None, seed=0) -> Ensemble:
    """Draw the recipe's N particles as a ProblemA ensemble.

    Deterministic for a fixed seed.  Particles landing exactly on the
    boundary are nudged inward along the normal by 1e-12 * scale.
    """
    ic.validate_for_domain(domain)
    rng = np.random.default_rng(seed)
    n = ic.n
    if ic.kind == "uniform_box":
        x = _sample_positions(rng, ic, domain, n)
        v = _sample_box(rng, *ic.v_bounds, n)
    elif ic.kind == "maxwellian":
        x = _sample_positions(rng, ic, domain, n)
        d = x.shape[1]
        center = np.zeros(d) if ic.v_center is None else np.asarray(ic.v_center, dtype=float)
        v = center + np.sqrt(ic.temperature) * rng.standard_normal((n, d))
    elif ic.kind == "delta":
        x = np.tile(np.asarray(ic.x0, dtype=float), (n, 1))
        v = np.tile(np.asarray(ic.v0, dtype=float), (n, 1))
    elif ic.kind == "explicit":
        x = np.array(ic.x, dtype=float)
        v = np.array(ic.v, dtype=float)
        if len(x) != n:
            raise ValueError("explicit particle count does not match n")
    else:
        raise UnsupportedDensity(f"unknown initial-condition kind {ic.kind!r}")

    if domain is not None and len(x):
        dist = domain.signed_distance(x)
        on_boundary = dist == 0.0
        if np.any(on_boundary):
            x = np.array(x)
            nudge = BOUNDARY_NUDGE * domain.scale
            x[on_boundary] += nudge * domain.inward_normal(x[on_boundary])
    w = np.full(n, ic.mass / n if n else 0.0) if ic.w is None else ic.w
    return Ensemble(x=x, v=v, w=w, domain=domain)
