"""Kernels, Green functions, regularizations, and the field model.

Two regularization routes coexist, matching the two halves of the theory:

* the *whole-space route* (Problem B): a mollified kernel ``H_eps`` (Plummer
  softening) and a smoothed sign ``s_bar`` replacing sgn(x_1);
* the *domain route*: the exact image-charge Green function of the domain,
  cut off at short pair separations (``delta``) and near the boundary
  (``zeta``).

The short-range cutoff is applied per kernel term, keyed on that term's own
separation (|x-z| for the direct term, the image separation for the image
term).  A single global factor r((|x-z|)/delta) would kill the finite
self-image interaction at x = z, which both the force and the energy ledger
need; with the per-term cutoff the same object appears in the force and in
the energy, and the energy identity closes.

Every route is one ``FieldModel``: a radial kernel summed against a signed
source cloud, times a factor at the target.  All pair sums go through one
tiled loop, and the sum order is part of the specification: each target row
runs over the sources in ascending index order and adds one pair term at a
time, so results do not depend on the tiling.  The loop is a small C kernel
(``pairs.c``), built by gcc on first use and cached in this package's
``__pycache__`` under a name keyed by the sha256 of the source and flags.
It takes the rows in blocks of 32, one vector lane per row, and the rows
after the last full block as one shorter block; each lane does its row's
float operations in its row's order.  The flags keep every bit: ``-O3`` and
``-fno-math-errno`` vectorise the lanes (vector sqrt and division round
correctly), ``-ffp-contract=off`` forbids fused multiply-adds, and without
``-ffast-math`` nothing is reassociated.  No ``-march``: the AVX-512 and
AVX2 clones of ``pair_rows`` are picked by the CPU at load time, so one
cached build serves every CPU.  Without a compiler, or if the build fails,
``_rows_numpy`` does the same float operations in the same order and gives
the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import Frame
from .geometry import Ball, Domain

__all__ = [
    "GreenKind",
    "RegularizationParams",
    "DimensionTooSmall",
    "CoincidentPoints",
    "NegativeArgument",
    "FieldModel",
    "SnapshotField",
    "Sweep",
    "c_d",
    "cutoff_rbar",
    "cutoff_rbar_prime",
    "smooth_sign",
    "boundary_cutoff",
    "green",
    "grad_green",
    "green_cut",
    "grad_green_cut",
    "kernel_plummer",
    "field_model",
    "field_halfspace_A",
    "field_problem_b",
    "interaction_energy",
    "make_field_factory",
]


class DimensionTooSmall(ValueError):
    """The theory requires dimension d >= 3."""


class CoincidentPoints(ValueError):
    """Green function evaluated at x = z."""


class NegativeArgument(ValueError):
    """Cutoff profile takes arguments >= 0 only."""


class GreenKind:
    """Which Green function generates the field."""

    WHOLE_SPACE = "whole_space"
    HALF_SPACE_IMAGE = "half_space_image"
    BALL_IMAGE = "ball_image"
    # Problem A with the Plummer-softened kernel against the odd reflection
    HALF_SPACE_MOLLIFIED = "halfspace_mollified"


@dataclass(frozen=True)
class RegularizationParams:
    """The four regularization knobs.

    eps_mollify : Plummer softening length of the mollified kernel
    r_sign      : half-width of the smoothed sign
    zeta        : boundary cutoff length (field vanishes within zeta of the
                  boundary, is untouched beyond 2 zeta)
    delta       : short-range Green cutoff (pairs closer than delta do not
                  interact, pairs beyond 2 delta are untouched)

    The knobs are independent here; the coupled schedules used in the
    convergence theory are a choice of test configuration, not a constraint
    of the data structure.
    """

    eps_mollify: float
    r_sign: float
    zeta: float
    delta: float

    def __post_init__(self):
        for name in ("eps_mollify", "r_sign", "zeta", "delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def validate_for_domain(self, domain: Domain):
        """For a ball the cutoff shell must stay clear of the center."""
        if isinstance(domain, Ball) and 2 * self.zeta >= domain.radius:
            raise ValueError(
                f"zeta={self.zeta} too large for ball radius {domain.radius}: "
                "boundary cutoff must be supported in a collar (2*zeta < R)"
            )


def c_d(d: int) -> float:
    """Normalization making div(x |x|^-d) = delta_0 / c_d.

    Equals the reciprocal surface area of the unit (d-1)-sphere:
    c_3 = 1/(4 pi), c_4 = 1/(2 pi^2).
    """
    if d < 3:
        raise DimensionTooSmall(f"need d >= 3, got {d}")
    return math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0))


def _h_amp(d: int) -> float:
    # amplitude of the fundamental solution H(x) = c_d/(d-2) |x|^(2-d)
    return c_d(d) / (d - 2)


# -----------------------------------------------------------------------------
# cutoff profiles
# -----------------------------------------------------------------------------

def _smoothstep(t):
    # r(1 + t) = 6 t^5 - 15 t^4 + 10 t^3 on [0, 1]
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _smoothstep_prime(t):
    # vanishes at both ends, so a clipped t needs no mask
    return 30.0 * t * t * (t - 1.0) ** 2


def _clipped_t(s):
    s = np.asarray(s, dtype=float)
    if (s < 0).any():
        raise NegativeArgument("cutoff argument must be >= 0")
    return (s - 1.0).clip(0.0, 1.0)


def cutoff_rbar(s):
    """Monotone C^2 cutoff: 0 on [0,1], 1 on [2,inf), quintic smoothstep between.

    r(1+t) = 6 t^5 - 15 t^4 + 10 t^3 on [0,1]; max slope 1.875 <= 2.
    """
    return _smoothstep(_clipped_t(s))


def cutoff_rbar_prime(s):
    """Derivative of ``cutoff_rbar``."""
    return _smoothstep_prime(_clipped_t(s))


def smooth_sign(r_sign, x1):
    """Odd C^1 regularization of sgn: +-1 outside [-r, r], (3u - u^3)/2 inside."""
    u = np.clip(np.asarray(x1, dtype=float) / r_sign, -1.0, 1.0)
    return 0.5 * u * (3.0 - u * u)


def boundary_cutoff(domain: Domain, zeta, x):
    """r(dist(x, boundary)/zeta): 0 within zeta of the boundary, 1 beyond 2 zeta."""
    return cutoff_rbar(domain.signed_distance(x) / zeta)


# -----------------------------------------------------------------------------
# radial profiles: g(sep) and the gradient coefficient g'(sep)/sep
# -----------------------------------------------------------------------------

def _cut_base(delta, sep):
    """(sep, t, r): sep clamped at delta, where r is exactly 0 (no 0 * inf at
    sep = 0), the clipped t of r(1 + t) = r(sep/delta), and r.  The profile
    and the slope share it, so a fused sweep computes it once."""
    sep = np.maximum(sep, delta)
    t = np.minimum(sep / delta - 1.0, 1.0)
    return sep, t, _smoothstep(t)


def _cut_profile(d, base):
    """g(sep) = r(sep/delta) H(sep); exactly 0 for sep <= delta."""
    sep, _, r = base
    return r * _h_amp(d) * sep ** (2.0 - d)


def _cut_slope(d, delta, base):
    """g'(sep)/sep = c_d/(d-2) sep^-d (r' sep/delta + (2 - d) r), with r and r'
    from one clipped t; exactly 0 for sep <= delta (sep = 0 included)."""
    sep, t, r = base
    bracket = _smoothstep_prime(t) * sep / delta + (2.0 - d) * r
    return _h_amp(d) * bracket * sep ** (-float(d))


def plummer_potential(d, eps, sep):
    """H_eps(sep) = c_d/(d-2) (sep^2 + eps^2)^((2-d)/2); H_eps(0) is finite."""
    sep = np.asarray(sep, dtype=float)
    return _h_amp(d) * (sep**2 + eps**2) ** ((2.0 - d) / 2.0)


def kernel_plummer(eps, dx):
    """Softened kernel K_eps(dx) = dx (|dx|^2 + eps^2)^(-d/2).

    Equals -grad H_eps / c_d; exactly antisymmetric, zero at dx = 0.
    """
    dx = np.asarray(dx, dtype=float)
    d = dx.shape[-1]
    r2 = np.sum(dx * dx, axis=-1, keepdims=True)
    return dx * (r2 + eps**2) ** (-d / 2.0)


# -----------------------------------------------------------------------------
# Green functions (exact, image charges)
# -----------------------------------------------------------------------------

def _pair_separations(kind, domain, x, z):
    """Direct separation u = |x-z| and, for image kinds, the image separation.

    For the half-space the image separation is |x - z'| (mirror charge);
    for the ball it is the symmetric form s = sqrt(|x|^2|z|^2/R^2 - 2 x.z + R^2),
    which equals |z|/R times the distance to the Kelvin image point and is
    well defined down to z = 0.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    u = np.linalg.norm(x - z, axis=-1)
    if kind == GreenKind.WHOLE_SPACE:
        return u, None
    if kind == GreenKind.HALF_SPACE_IMAGE:
        diff = x - z
        s = np.sqrt(np.sum(diff[..., 1:] ** 2, axis=-1) + (x[..., 0] + z[..., 0]) ** 2)
        return u, s
    if kind == GreenKind.BALL_IMAGE:
        R = domain.radius
        s2 = (
            np.sum(x * x, axis=-1) * np.sum(z * z, axis=-1) / R**2
            - 2.0 * np.sum(x * z, axis=-1)
            + R**2
        )
        return u, np.sqrt(np.maximum(s2, 0.0))
    raise ValueError(f"unknown Green kind {kind!r}")


def green(kind, domain, x, z):
    """Green function G(x, z) of the chosen kind (no regularization).

    Symmetric in (x, z); nonnegative and vanishing on the boundary for the
    image kinds.  Raises CoincidentPoints at x = z.
    """
    d = domain.dim if domain is not None else np.asarray(x).shape[-1]
    u, s = _pair_separations(kind, domain, x, z)
    if np.any(u == 0.0):
        raise CoincidentPoints("green(x, z) requires x != z")
    h = _h_amp(d)
    g = h * u ** (2.0 - d)
    if s is not None:
        g = g - h * s ** (2.0 - d)
    return g


def _image_gradient_vector(kind, domain, x, z):
    # grad_x of (image separation)^2 / 2: x - z' (mirror) or x |z|^2/R^2 - z (ball)
    if kind == GreenKind.HALF_SPACE_IMAGE:
        zm = z.copy()
        zm[..., 0] = -zm[..., 0]
        return x - zm
    return x * (np.sum(z * z, axis=-1) / domain.radius**2)[..., None] - z


def grad_green(kind, domain, x, z):
    """Gradient of G with respect to x (no regularization)."""
    d = domain.dim if domain is not None else np.asarray(x).shape[-1]
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    u, s = _pair_separations(kind, domain, x, z)
    if np.any(u == 0.0):
        raise CoincidentPoints("grad_green(x, z) requires x != z")
    cd = c_d(d)
    g = -cd * u[..., None] ** (-float(d)) * (x - z)
    if s is not None:
        g = g + cd * s[..., None] ** (-float(d)) * _image_gradient_vector(kind, domain, x, z)
    return g


def green_cut(kind, domain, params: RegularizationParams, x, z):
    """Short-range-cut Green function G^delta(x, z).

    Each kernel term is multiplied by r(separation/delta) with its own
    separation, so the direct term dies for |x-z| <= delta while a finite
    self-image interaction survives.  Total function (defined at x = z).
    """
    d = domain.dim if domain is not None else np.asarray(x).shape[-1]
    u, s = _pair_separations(kind, domain, x, z)
    g = _cut_profile(d, _cut_base(params.delta, u))
    if s is not None:
        g = g - _cut_profile(d, _cut_base(params.delta, s))
    return g


def grad_green_cut(kind, domain, delta, x, z):
    """Gradient with respect to x of the per-term-cut Green function.

    Finite everywhere: a term whose separation is at most delta (a source on
    the wall and its own image, say) contributes exactly 0.
    """
    d = domain.dim if domain is not None else np.asarray(x).shape[-1]
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    u, s = _pair_separations(kind, domain, x, z)
    g = _cut_slope(d, delta, _cut_base(delta, u))[..., None] * (x - z)
    if s is not None:
        g = g - (_cut_slope(d, delta, _cut_base(delta, s))[..., None]
                 * _image_gradient_vector(kind, domain, x, z))
    return g


# -----------------------------------------------------------------------------
# the field model
# -----------------------------------------------------------------------------

# target rows per tile of the pair loop; bounds a pair array of the numpy
# path to _CHUNK_TARGETS x sources entries (times d for the gradient terms)
_CHUNK_TARGETS = 256

_KERNEL_SOURCE = Path(__file__).with_name("pairs.c")
_KERNEL_FLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _load_kernel():
    """pairs.c as a ctypes library (``pair_rows``, ``phase_cost``,
    ``assignment``), or None when it cannot be built or loaded: the numpy
    path and scipy then give the same bits.

    gcc builds it on first use into the package's ``__pycache__``, under a
    name keyed by the sha256 of the source and the flags, and publishes it
    by atomic rename, so concurrent first uses cannot load a partial file.
    """
    try:
        code = _KERNEL_SOURCE.read_bytes()
        key = hashlib.sha256(code + " ".join(_KERNEL_FLAGS).encode()).hexdigest()[:16]
        lib = _KERNEL_SOURCE.parent / "__pycache__" / f"pairs-{key}.so"
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
            os.close(fd)
            try:
                subprocess.run(["gcc", *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                               check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
    except (OSError, subprocess.CalledProcessError):
        return None
    p, dbl, i, n = ctypes.c_void_p, ctypes.c_double, ctypes.c_int, ctypes.c_long
    kernel.pair_rows.argtypes = [i, i, dbl, dbl, dbl, dbl, p, n, p, n, p, p, p, p]
    kernel.pair_rows.restype = None
    kernel.phase_cost.argtypes = [n, p, n, p, i, p]
    kernel.phase_cost.restype = None
    kernel.assignment.argtypes = [n, p, p]
    kernel.assignment.restype = i
    return kernel


def _address(a):
    return None if a is None else a.ctypes.data


def _summed(start, terms):
    """start + terms summed down axis 0 (the sources) in source order: the
    kernel's order.  numpy reduces along a slow axis one row at a time, and
    sums only the fast axis pairwise, so a single column is accumulated."""
    terms[0] += start
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _rows_numpy(d, cut, param, amp, gain, radius2, a2, t, y, q, s, phi):
    """pairs.c in numpy: the same float operations per pair on blocks with
    the sources on axis 0, each pair array dropped once used, and the same
    per-target order (``_summed``)."""
    tk, yk, q = np.ascontiguousarray(t.T)[None], y[:, :, None], q[:, None]  # (1, d, m), (n, d, 1)
    if a2 is None:
        sep2 = sum((tk[:, k] - yk[:, k]) ** 2 for k in range(d))

        def vec():
            return tk - yk
    else:
        a2 = a2[:, None]
        xx = sum(tk[0, k] * tk[0, k] for k in range(d))
        xz = sum(tk[:, k] * yk[:, k] for k in range(d))
        sep2 = np.maximum(xx * a2 + radius2 - 2.0 * xz, 0.0)
        del xz

        def vec():
            return tk * a2[:, :, None] - yk
    if cut:
        sep = np.maximum(np.sqrt(sep2), param)
        del sep2
        u = np.minimum(sep / param - 1.0, 1.0)
        r = _smoothstep(u)
        if s is not None:
            slope = gain * (_smoothstep_prime(u) * sep / param + (2.0 - d) * r)
        del u
        inv = 1.0 / sep
        del sep
        weight = r * amp if phi is not None else None
        del r
    else:
        inv = 1.0 / np.sqrt(sep2 + param)
        del sep2
        slope, weight = gain, amp
    p = inv
    for _ in range(d - 3):
        p = p * inv
    if phi is not None:
        phi[...] = _summed(phi, weight * p * q)
        del weight
    if s is not None:
        coef = slope * (p * inv * inv) * q
        del slope, p, inv
        terms = vec()
        terms *= coef[:, None]
        del coef
        s[...] = _summed(s.T, terms).T


def _tiled(rows, x, *outs):
    """rows(targets, *out_slices) tile by tile: the one pair loop.  Each row
    is summed on its own, so the tile size cannot change a bit of the result;
    an output given as None is not computed."""
    for lo in range(0, len(x), _CHUNK_TARGETS):
        tile = slice(lo, lo + _CHUNK_TARGETS)
        rows(x[tile], *(None if out is None else out[tile] for out in outs))
    return outs


class FieldModel:
    """One field, resolved once from (domain, kind, frame, params, hard_sign).

    A radial profile g summed against a signed source cloud (y_j, q_j) of
    the live particles, times a factor at the target:

        S(x) = sum_j q_j g'(s_j)/s_j grad_x(s_j^2)/2        pre-cutoff sum
        E(x) = -factor(x) S(x)                              field
        U    = sum_i w_i charge(x_i) sum_j q_j g(s_j(x_i))  potential

    * domain route: cut Green profile against (x_j, w_j), plus the mirror
      images (x_j', -w_j) or the Kelvin images; factor r^zeta, or 1 for the
      whole-space kind;
    * mollified image: Plummer profile against (x_j, w_j) and (x_j', -w_j),
      the cloud ``symmetrize`` builds, in its order; factor 1;
    * Problem B (ProblemB frame, whatever the kind, or ``hard_sign``):
      Plummer profile against (x_j, sgn(x_j1) w_j); factor s_bar(x_1) or the
      hard sign (``plane_split``: discontinuous across {x_1 = 0}).

    ``charge`` is the unregularized factor (1, or sgn(x_1) for Problem B);
    ``cutoff_gap`` = charge - factor is what the energy-error power K weighs.
    The routes that read ``kind`` refuse an image kind of another domain.
    """

    def __init__(self, domain, kind, frame, params: RegularizationParams, hard_sign=False):
        self.plane_split = bool(hard_sign)
        self.odd = False        # weight the sources by sgn(x_1)
        self.mirror = False     # append the mirror images (x', -w)
        self.kelvin = None      # R^2 of the ball: add the Kelvin image term
        self.factor = self.charge = lambda x: np.ones(len(x))
        # the profile for pairs.c: Plummer with eps^2, or the cut Green one with delta
        self.cut, self.param = False, params.eps_mollify * params.eps_mollify
        ball = isinstance(domain, Ball)
        if hard_sign or frame is Frame.PROBLEM_B:
            self.odd = True
            self.charge = lambda x: np.sign(x[:, 0])  # the plane carries no charge
            if hard_sign:  # the plane takes the upper branch
                self.factor = lambda x: np.where(x[:, 0] < 0.0, -1.0, 1.0)
            else:
                self.factor = lambda x: smooth_sign(params.r_sign, x[:, 0])
        elif kind != GreenKind.WHOLE_SPACE and (kind == GreenKind.BALL_IMAGE) != ball:
            raise ValueError(f"the {kind} field does not belong to {domain!r}")
        elif kind == GreenKind.HALF_SPACE_MOLLIFIED:
            self.mirror = True
        else:
            self.cut, self.param = True, params.delta
            if kind in (GreenKind.HALF_SPACE_IMAGE, GreenKind.BALL_IMAGE):
                params.validate_for_domain(domain)
                self.factor = lambda x: boundary_cutoff(domain, params.zeta, x)
                self.mirror = kind == GreenKind.HALF_SPACE_IMAGE
                if kind == GreenKind.BALL_IMAGE:
                    self.kelvin = domain.radius * domain.radius
            elif kind != GreenKind.WHOLE_SPACE:
                raise ValueError(f"unknown Green kind {kind!r}")

    def _cloud(self, ens):
        """[(y, q, a2)]: the signed sources in summation order, one entry per
        pair geometry; a2 = |y|^2/R^2 marks the Kelvin images, None points."""
        y, q = np.ascontiguousarray(ens.x), ens.w * ens.alive  # pairs.c reads rows
        if self.odd:
            q = self.charge(y) * q
        terms = []
        if self.kelvin is not None:
            a2 = sum(y[:, k] * y[:, k] for k in range(y.shape[1])) / self.kelvin
            terms.append((y, -q, a2))
        if self.mirror:
            ym = y.copy()
            ym[:, 0] = -ym[:, 0]
            y, q = np.concatenate([y, ym]), np.concatenate([q, -q])
        return [(y, q, None)] + terms

    def _rows(self, cloud, t, s, phi):
        """Add to s the gradient rows and to phi the potential rows of targets
        t (either may be None): each row runs over the cloud in order, in the
        compiled kernel, or in the numpy path when there is none."""
        d = t.shape[1]
        amp = _h_amp(d)
        args = (d, self.cut, self.param, amp, amp if self.cut else -c_d(d), self.kelvin or 0.0)
        kernel = _load_kernel()
        if kernel is None:
            for y, q, a2 in cloud:
                if len(y):
                    _rows_numpy(*args, a2, t, y, q, s, phi)
            return
        t = np.ascontiguousarray(t, dtype=float)
        for y, q, a2 in cloud:
            kernel.pair_rows(*args, _address(a2), len(t), t.ctypes.data, len(y),
                             y.ctypes.data, q.ctypes.data, _address(s), _address(phi))

    def _sums(self, cloud, x, gradient=True, potential=False):
        """(S, phi) at targets x; each only when asked, else None."""
        if x.shape[-1] != cloud[0][0].shape[1]:
            raise ValueError(f"targets in dimension {x.shape[-1]}, "
                             f"sources in dimension {cloud[0][0].shape[1]}")
        return _tiled(functools.partial(self._rows, cloud), x,
                      np.zeros(x.shape) if gradient else None,
                      np.zeros(len(x)) if potential else None)

    def bind(self, ens) -> "SnapshotField":
        """The field of one snapshot, its source cloud built once."""
        return SnapshotField(self, ens)

    def field(self, ens, x):
        """E(x) = -factor(x) S(x) at positions x, shape (n, d)."""
        return self.bind(ens)(x)

    def potential(self, ens) -> float:
        """Double sum over all particle pairs, i = j included (the self-image term survives)."""
        phi = self._sums(self._cloud(ens), ens.x, gradient=False, potential=True)[1]
        return self.energy(ens, phi)

    def energy(self, ens, phi) -> float:
        """The potential energy from the per-row sums phi of ``Sweep``."""
        return float((ens.w * ens.alive * self.charge(ens.x) * phi).sum())

    def cutoff_gap(self, x, factor=None):
        """charge - factor at x: 1 - r^zeta, sgn - s_bar, or 0 (hard sign, whole
        space); ``factor`` is factor(x) when the caller has it (``Sweep.factor``)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.plane_split:
            return np.zeros(len(x))
        return self.charge(x) - (self.factor(x) if factor is None else factor)


@dataclass(frozen=True)
class Sweep:
    """One pair sweep of a snapshot at its own positions x_i.

    field      : E(x_i)
    pre_cutoff : S(x_i), the gradient sum before the target factor
    phi        : sum_j q_j g(s_ij) per row (``FieldModel.energy`` turns it
                 into the potential energy)
    factor     : the target factor at x_i, which the streamed ledger's cutoff
                 gap reuses; ``Ensemble``, not the sweep, checks positions
    """

    field: np.ndarray
    pre_cutoff: np.ndarray
    phi: np.ndarray
    factor: np.ndarray


class SnapshotField:
    """The field of one snapshot: the model resolved once and the source cloud
    built on first use.  Called on positions x, it returns E(x); ``sweep``
    is the fused pass at the snapshot's own positions, made on first use.
    ``plane_split`` marks a hard-sign field, discontinuous across {x_1 = 0}.
    ``ens`` may be ``Sources``."""

    def __init__(self, model: FieldModel, ens):
        self.model, self.ens = model, ens
        self.plane_split = model.plane_split

    @functools.cached_property
    def cloud(self):
        return self.model._cloud(self.ens)

    def pre_cutoff_sum(self, x):
        """S(x): the gradient sum before the target factor (sum_j w_j grad_x G^delta
        on the domain route, the mollified-kernel sum on the others)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.model._sums(self.cloud, x)[0]

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return -self.model.factor(x)[:, None] * self.pre_cutoff_sum(x)

    @functools.cached_property
    def sweep(self) -> Sweep:
        """E, S and phi at the snapshot's positions, one pair pass; bitwise
        equal to the field, ``pre_cutoff_sum`` and ``potential`` computed on
        their own."""
        x = self.ens.x
        s, phi = self.model._sums(self.cloud, x, potential=True)
        factor = self.model.factor(x)
        return Sweep(-factor[:, None] * s, s, phi, factor)


# field_model(domain, kind, frame, params, hard_sign=False): each model is built once
field_model = functools.lru_cache(maxsize=64)(FieldModel)


def field_halfspace_A(ens, params: RegularizationParams, x):
    """Half-space field of Problem A: softened kernel against the odd-reflected density.

    E(x) = c_d sum_j w_j [K_eps(x - x_j) - K_eps(x - x_j')], where x' flips
    the first coordinate.  Tangential components vanish on the boundary
    plane by the image antisymmetry.
    """
    model = field_model(ens.domain, GreenKind.HALF_SPACE_MOLLIFIED, ens.frame, params)
    return model.field(ens, x)


def field_problem_b(ens, params: RegularizationParams, x, hard_sign=False):
    """Whole-space field of Problem B from a symmetrized ensemble.

    E(x) = pref(x_1) * c_d sum_j sgn(x_j1) w_j K_eps(x - x_j), with pref the
    smoothed sign (the regularized problem) or the hard sign (the limit
    problem; stepping a symmetrized ensemble in it makes the folded flow
    agree with the event-driven half-space flow exactly).
    """
    model = field_model(ens.domain, GreenKind.WHOLE_SPACE, Frame.PROBLEM_B, params, hard_sign)
    return model.field(ens, x)


def make_field_factory(domain, kind, params: RegularizationParams, hard_sign=False):
    """Factory: snapshot ensemble -> its ``SnapshotField`` (callable on positions).

    Hard-sign fields carry ``plane_split = True``: the field is
    discontinuous across {x_1 = 0}, and the stepper splits the kicks of a
    ProblemB ensemble there.
    """

    def factory(ens):
        return field_model(domain, kind, ens.frame, params, hard_sign).bind(ens)

    return factory


def interaction_energy(ens, kind, domain, params: RegularizationParams):
    """Double sum sum_{i,j} w_i w_j G^delta(x_i, x_j), all pairs including i = j.

    The delta-cutoff removes the singular direct self-term while keeping the
    finite self-image term, so this is the potential energy whose gradient
    is the domain-route force.  ProblemB-framed ensembles instead use the
    mollified kernel against the odd density (signed weights), matching the
    smooth-sign force.
    """
    return field_model(domain, kind, ens.frame, params).potential(ens)
