"""Domain geometry: half-space and ball, boundary operators, flattening maps.

The two supported domains both admit exact image-charge Green functions,
so everything here is closed-form.  Conventions:

* the boundary normal ``n(x)`` points *inward*,
* ``signed_distance`` is positive inside the domain, zero on the boundary,
  negative outside,
* velocities reflect specularly: ``R_x v = v - 2 (v . n) n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GRAZE_RTOL",
    "Domain",
    "HalfSpace",
    "Ball",
    "FlatteningMap",
    "ChartViolation",
    "reflect_velocity",
]

# Velocities with |v . n| at most GRAZE_RTOL * |v| at a boundary hit (v = 0
# included) are treated as tangential (no reflection): the grazing set is
# excluded from events.
GRAZE_RTOL = 1e-12


class ChartViolation(ValueError):
    """Point lies outside the chart of a flattening map."""


class Domain:
    """Common interface of the supported domains (half-space, ball)."""

    dim: int
    scale: float

    def signed_distance(self, x):
        raise NotImplementedError

    def inward_normal(self, x):
        raise NotImplementedError

    def project_boundary(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class HalfSpace(Domain):
    """The half-space {x_1 > 0} in dimension d >= 3."""

    dim: int = 3
    scale: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dim}")

    def signed_distance(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0]

    def inward_normal(self, x):
        x = np.asarray(x, dtype=float)
        n = np.zeros_like(x)
        n[..., 0] = 1.0
        return n

    def project_boundary(self, x):
        x = np.array(x, dtype=float)
        x[..., 0] = 0.0
        return x


@dataclass(frozen=True)
class Ball(Domain):
    """The open ball of radius R > 0 centered at the origin, d >= 3."""

    dim: int = 3
    radius: float = 1.0

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dim}")
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def scale(self):
        return self.radius

    def signed_distance(self, x):
        x = np.asarray(x, dtype=float)
        return self.radius - np.linalg.norm(x, axis=-1)

    def inward_normal(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return -x / r

    def project_boundary(self, x):
        """Nearest sphere point, rounded onto the closed ball (signed distance >= 0).

        R x / |x| can land an ulp outside; such points are pulled in by an
        ulp at a time, so a wall hit never reads as outside the domain.
        """
        x = np.asarray(x, dtype=float)
        p = self.radius * x / np.linalg.norm(x, axis=-1, keepdims=True)
        outside = np.linalg.norm(p, axis=-1, keepdims=True) > self.radius
        while np.any(outside):
            p = np.where(outside, p * (1.0 - np.finfo(float).eps), p)
            outside = np.linalg.norm(p, axis=-1, keepdims=True) > self.radius
        return p


def reflect_velocity(n, v):
    """Specular reflection R_x v = v - 2 (v . n(x)) n(x).

    ``n`` is the inward unit normal.  Broadcasts over leading axes.
    Internally reflects across the hyperplane normal to n without assuming
    |n| = 1 (divides by n . n) with extended-precision reductions and a
    single final rounding, so the computed map is an involution and an
    isometry to within a couple of ulps (the plain double formula leaks ~10
    ulps through |n|^2 - 1).
    """
    n = np.asarray(n, dtype=float)
    v = np.asarray(v, dtype=float)
    if n.shape != v.shape:
        n, v = np.broadcast_arrays(n, v)
    nl, vl = n.astype(np.longdouble), v.astype(np.longdouble)
    vn = np.einsum("...i,...i->...", vl, nl)[..., None]
    nn = np.einsum("...i,...i->...", nl, nl)[..., None]
    # v - (2 vn / nn) n, in place
    vn *= 2.0
    vn /= nn
    nl *= vn
    vl -= nl
    return vl.astype(np.float64)


class FlatteningMap:
    """Boundary-flattening change of variables y = phi(x).

    ``phi`` maps a neighbourhood of the boundary to the half-space model
    {y_1 >= 0} so that y_1 equals the distance to the boundary.  It is built
    from the orthogonal projection onto the boundary, a fixed boundary
    parametrization, and a translation along e_1 by the projection distance.
    The two identities

        J(x) n(x) = e_1          and          v . n(x) = J(x) v . e_1

    hold exactly throughout the chart by construction; tests verify them
    (and the Jacobian itself) by finite differences.

    For the half-space the map is the identity.  For the ball the boundary
    parametrization is stereographic projection of the sphere from the
    antipode of the e_1 pole; the chart is the shell R/2 < |x| <= R with the
    polar cap around -e_1 removed (x_1/|x| > -1/2), which keeps the
    stereographic factor bounded.
    """

    def __init__(self, domain: Domain):
        self.domain = domain

    # -- chart ---------------------------------------------------------------

    def in_chart(self, x):
        x = np.asarray(x, dtype=float)
        if isinstance(self.domain, HalfSpace):
            return x[..., 0] >= 0
        R = self.domain.radius
        r = np.linalg.norm(x, axis=-1)
        return (r > 0.5 * R) & (r <= R * (1 + 1e-12)) & (x[..., 0] / r > -0.5)

    def _require_chart(self, x):
        ok = self.in_chart(x)
        if not np.all(ok):
            raise ChartViolation("point outside the flattening chart")

    # -- forward / inverse ---------------------------------------------------

    def forward(self, x):
        """phi(x): distance to the boundary goes to the first coordinate."""
        x = np.asarray(x, dtype=float)
        self._require_chart(x)
        if isinstance(self.domain, HalfSpace):
            return x.copy()
        R = self.domain.radius
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        u = x / r
        y = np.empty_like(x)
        y[..., 0] = R - r[..., 0]
        # stereographic coordinates of the projected boundary point, last
        # component negated to keep det J > 0
        denom = 1.0 + u[..., :1]
        y[..., 1:] = R * u[..., 1:] / denom
        y[..., -1] = -y[..., -1]
        return y

    def inverse(self, y):
        """psi(y) = phi^{-1}(y) on the image of the chart."""
        y = np.asarray(y, dtype=float)
        if isinstance(self.domain, HalfSpace):
            return y.copy()
        R = self.domain.radius
        eta = y[..., 1:] / R
        eta[..., -1] = -eta[..., -1]
        q = np.sum(eta**2, axis=-1, keepdims=True)
        u = np.empty_like(y)
        u[..., 0] = ((1.0 - q) / (1.0 + q))[..., 0]
        u[..., 1:] = 2.0 * eta / (1.0 + q)
        r = R - y[..., :1]
        return r * u

    def jacobian(self, x):
        """Analytic Jacobian J(x) = d(phi)/dx, shape (..., d, d)."""
        x = np.asarray(x, dtype=float)
        self._require_chart(x)
        d = self.domain.dim
        if isinstance(self.domain, HalfSpace):
            J = np.zeros(x.shape + (d,))
            J[..., range(d), range(d)] = 1.0
            return J
        R = self.domain.radius
        r = np.linalg.norm(x, axis=-1)[..., None]
        u = x / r
        J = np.empty(x.shape + (d,))
        J[..., 0, :] = -u
        u1 = u[..., :1]
        # d y_k / d x_j = sgn_k * R/(r (1+u1)^2) * [d_{kj}(1+u1) - u_k u_j - u_k d_{1j}]
        pref = (R / (r * (1.0 + u1) ** 2))[..., None]
        rows = -u[..., 1:, None] * u[..., None, :]
        rows[..., range(d - 1), range(1, d)] += (1.0 + u1)[..., None, 0]
        rows[..., :, 0] -= u[..., 1:]
        J[..., 1:, :] = pref * rows
        J[..., -1, :] = -J[..., -1, :]
        return J

    def jacobian_det(self, x):
        return np.linalg.det(self.jacobian(x))

    def flatten(self, x):
        """Return (phi(x), J(x)); raises ChartViolation outside the chart."""
        return self.forward(x), self.jacobian(x)
