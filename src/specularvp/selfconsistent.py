"""Picard fixed-point loop and the Wasserstein-1 machinery monitoring it.

The convergence monitor of choice is the trajectory-coupling metric Z_n,
the mass-weighted mean phase-space displacement between consecutive
iterates, sup over the time grid.  Both iterates start from the same
particles, so mass * Z_n is the sup of the identity coupling's cost, an O(N)
upper bound: sup_k W_1(k) <= mass * Z_n.  Exact W_1 (min-cost matching) is a
secondary certified check at small N.

The matching's cost matrix and assignment run in the pair kernel's library
(pairs.c: ``phase_cost``, ``assignment``), which gives scipy's ``cdist`` and
``linear_sum_assignment`` bit for bit; without a compiler those two are
imported where they are called, so no command loads scipy at start.
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .ensemble import Ensemble, Sources
from .flow import StepperConfig, step

__all__ = [
    "PicardState",
    "MassMismatch",
    "TooLarge",
    "UnequalWeights",
    "NonContractionWarning",
    "N_EXACT",
    "check_exact_w1",
    "w1_exact",
    "picard_iterate",
]

N_EXACT = 512


class MassMismatch(ValueError):
    """Ensembles carry different total mass."""


class TooLarge(ValueError):
    """Ensemble too large for the exact cubic-time matching."""


class UnequalWeights(ValueError):
    """Exact W_1 needs equal weights within each ensemble, and equal live
    counts across the two."""


class NonContractionWarning(UserWarning):
    """Picard ratio exceeded 1 for several consecutive iterates (T_0 too large)."""


def _phase_points(e: Ensemble):
    return np.concatenate([e.x, e.v], axis=1)


def _check_mass(a: Ensemble, b: Ensemble):
    ma, mb = a.total_mass, b.total_mass
    if abs(ma - mb) > 1e-12 * max(ma, mb, 1e-300):
        raise MassMismatch(f"total masses differ: {ma} vs {mb}")
    return ma


def w1_exact(a: Ensemble, b: Ensemble) -> float:
    """Exact Kantorovich W_1 between two equal-mass empirical measures.

    Euclidean cost on phase space (x, v) between the live particles, with
    equal weights throughout: a min-cost perfect matching (shortest
    augmenting paths, O(N^3)).  Equal masses with unequal live counts mean
    unequal weights, an UnequalWeights.
    """
    mass = _check_mass(a, b)
    return _w1_alive(_phase_points(a)[a.alive], a.w[a.alive],
                     _phase_points(b)[b.alive], b.w[b.alive], mass)


def check_exact_w1(w):
    """What exact W_1 cannot match, for the weights w of one ensemble's live
    particles: TooLarge past ``N_EXACT`` of them, UnequalWeights if they differ."""
    if len(w) > N_EXACT:
        raise TooLarge(f"exact matching limited to {N_EXACT} particles, got {len(w)}")
    if len(w) and np.ptp(w) > 1e-12 * np.max(w):
        raise UnequalWeights("exact W_1 requires equal weights within each ensemble")


def _w1_alive(za, wa, zb, wb, mass):
    """Exact W_1 between the phase points za and zb, live rows only, with
    weights wa and wb, each summing to ``mass``."""
    for w in (wa, wb):
        check_exact_w1(w)
    if len(za) == 0 or len(zb) == 0:
        return 0.0
    if len(za) != len(zb):
        raise UnequalWeights(f"exact W_1 requires equal weights across the ensembles, "
                             f"got {len(za)} and {len(zb)} live particles")
    kernel = fields._load_kernel()
    cost = _cost_matrix(kernel, za, zb)
    cols = _assignment(kernel, cost)
    return mass / len(za) * float(cost[np.arange(len(za)), cols].sum())


def _cost_matrix(kernel, za, zb):
    """cdist(za, zb): the squares summed in coordinate order, then sqrt."""
    if kernel is None:
        from scipy.spatial.distance import cdist
        return cdist(za, zb)
    za = np.ascontiguousarray(za, dtype=float)
    zt = np.ascontiguousarray(zb.T, dtype=float)
    cost = np.empty((len(za), len(zb)))
    kernel.phase_cost(len(za), za.ctypes.data, len(zb), zt.ctypes.data, za.shape[1],
                      cost.ctypes.data)
    return cost


def _assignment(kernel, cost):
    """The columns of linear_sum_assignment(cost) for a square matrix, with
    its ValueErrors."""
    if kernel is None:
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment(cost)[1]
    cols = np.empty(len(cost), dtype=np.dtype(ctypes.c_long))
    status = kernel.assignment(len(cost), cost.ctypes.data, cols.ctypes.data)
    if status == -1:
        raise ValueError("matrix contains invalid numeric entries")
    if status == -2:
        raise ValueError("cost matrix is infeasible")
    if status:
        raise MemoryError("no memory for the assignment")
    return cols


def _sup_w1(za, zb, w, mass):
    """max over the grid times k of the exact W_1 between the live phase points
    za[k] and zb[k] (weights w, summing to ``mass``), the same float as matching
    every k.  The identity coupling's cost bounds W_1(k) from above, so the
    times are visited in descending order of it, and the visit stops once the
    next bound, widened by a relative 1e-9 for rounding, cannot exceed the max.
    A non-finite bound visits every time in order, raising as that loop does."""
    bound = np.sqrt(np.sum((za - zb) ** 2, axis=2)) @ w
    finite = bool(np.all(np.isfinite(bound)))
    sup = 0.0
    for k in np.argsort(-bound, kind="stable") if finite else range(len(za)):
        if finite and bound[k] * (1 + 1e-9) <= sup:
            break
        sup = max(sup, _w1_alive(za[k], w, zb[k], w, mass))
    return sup


# -----------------------------------------------------------------------------
# Picard iteration
# -----------------------------------------------------------------------------

@dataclass
class PicardState:
    """Outcome of the Picard loop.

    z_values[k] is the contraction metric Z_{k+1} (mass-weighted mean
    phase-space displacement between iterates k+1 and k, sup over the time
    grid); ratios[k] = Z_{k+2}/Z_{k+1}.  With ``compute_w1``, w1_values[k] is
    the sup over the time grid of exact W_1 between the live particles of
    iterates k+1 and k, at most mass * z_values[k].  The history is the last
    iterate's trajectories on the shared grid.
    """

    n: int
    times: np.ndarray
    z_values: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    w1_values: list = field(default_factory=list)
    history_x: np.ndarray | None = None
    history_v: np.ndarray | None = None
    converged: bool = False


def picard_iterate(h0: Ensemble, field_factory, cfg: StepperConfig, t0_horizon,
                   n_max=6, tol=0.0, compute_w1=False) -> PicardState:
    """Run the Picard scheme of the regularized system on [0, T_0].

    Iterate n+1 advances h0 under the field that ``field_factory`` (as for
    ``integrate``) makes from iterate n's recorded history, as ``Sources``
    (iterate 0 is the constant-in-time h0).  Stops when Z_n <= tol or after
    n_max iterates; emits a NonContractionWarning if the ratio exceeds 1
    three times in a row.  With ``compute_w1`` it refuses (TooLarge,
    UnequalWeights) before the first step what exact W_1 cannot match.
    """
    m = cfg.steps(t0_horizon, "T_0")
    if m < 1:
        raise ValueError("T_0 must be positive")
    times = np.arange(m + 1) * cfg.dt
    n_part = len(h0)
    mass = h0.total_mass

    hist_x = np.broadcast_to(h0.x, (m + 1, n_part, h0.dim)).copy()
    hist_v = np.broadcast_to(h0.v, (m + 1, n_part, h0.dim)).copy()
    state = PicardState(n=0, times=times)
    bad_streak = 0
    if compute_w1:  # refuse before stepping
        check_exact_w1(h0.w[h0.alive])

    for n in range(1, n_max + 1):
        new_x = np.empty_like(hist_x)
        new_v = np.empty_like(hist_v)
        e = h0
        new_x[0], new_v[0] = e.x, e.v
        for k in range(m):
            # the field generated by the recorded history at grid index k
            field_fn = field_factory(Sources(hist_x[k], h0.w, h0.alive, h0.domain, h0.frame))
            e, _, _ = step(e, field_fn, cfg, t0=times[k])
            new_x[k + 1], new_v[k + 1] = e.x, e.v

        disp = np.sqrt(
            np.sum((new_x - hist_x) ** 2, axis=2) + np.sum((new_v - hist_v) ** 2, axis=2)
        )
        z = float(np.max(np.sum(h0.w[None, :] * disp, axis=1)) / mass) if mass else 0.0
        state.z_values.append(z)
        if compute_w1:
            za = np.concatenate([new_x, new_v], axis=2)[:, h0.alive]
            zb = np.concatenate([hist_x, hist_v], axis=2)[:, h0.alive]
            state.w1_values.append(_sup_w1(za, zb, h0.w[h0.alive], mass))
        if len(state.z_values) >= 2 and state.z_values[-2] > 0:
            ratio = z / state.z_values[-2]
            state.ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio > 1.0 else 0
            if bad_streak >= 3:
                warnings.warn(
                    "Picard ratio above 1 for 3 consecutive iterates; "
                    "T_0 is too large for contraction",
                    NonContractionWarning,
                )
        hist_x, hist_v = new_x, new_v
        state.n = n
        if z <= tol:
            state.converged = True
            break

    state.history_x, state.history_v = hist_x, hist_v
    return state
