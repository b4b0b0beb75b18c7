"""Picard fixed-point loop and the Wasserstein-1 machinery monitoring it.

The convergence monitor of choice is the trajectory-coupling metric Z_n:
both iterates start from the same particles, so the mass-weighted mean
phase-space displacement between consecutive iterates is an O(N) upper
bound for W_1 between the iterate measures.  Exact W_1 (min-cost matching)
is a secondary certified check at small N; the sliced estimator scales to
large N but is an estimator, not a bound.

The matching's cost matrix and assignment run in the pair kernel's library
(pairs.c: ``phase_cost``, ``assignment``), which gives scipy's ``cdist`` and
``linear_sum_assignment`` bit for bit; without a compiler those two are
imported where they are called, so no command loads scipy at start.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .ensemble import Ensemble, Sources
from .flow import StepperConfig, step

__all__ = [
    "W1Report",
    "PicardState",
    "MassMismatch",
    "TooLarge",
    "UnequalWeights",
    "NonContractionWarning",
    "N_EXACT",
    "w1_exact",
    "w1_sliced",
    "picard_iterate",
]

N_EXACT = 512


class MassMismatch(ValueError):
    """Ensembles carry different total mass."""


class TooLarge(ValueError):
    """Ensemble too large for the exact cubic-time matching."""


class UnequalWeights(ValueError):
    """Exact W_1 needs equal weights within each ensemble."""


class NonContractionWarning(UserWarning):
    """Picard ratio exceeded 1 for several consecutive iterates (T_0 too large)."""


@dataclass(frozen=True)
class W1Report:
    value: float
    method: str            # "exact_matching" or "sliced"
    certified: bool
    directions: int = 0
    seed: int | None = None
    raw_mean: float = 0.0  # sliced only: unnormalized slice average (contracts)


def _phase_points(e: Ensemble):
    return np.concatenate([e.x, e.v], axis=1)


def _check_mass(a: Ensemble, b: Ensemble):
    ma, mb = a.total_mass, b.total_mass
    if abs(ma - mb) > 1e-12 * max(ma, mb, 1e-300):
        raise MassMismatch(f"total masses differ: {ma} vs {mb}")
    return ma


def w1_exact(a: Ensemble, b: Ensemble, n_exact=N_EXACT) -> W1Report:
    """Exact Kantorovich W_1 between two equal-mass empirical measures.

    Euclidean cost on phase space (x, v) between the live particles.  Equal
    live counts reduce to a min-cost perfect matching (shortest augmenting
    paths, O(N^3)); unequal counts with uniform weights fall back to the
    transport LP.
    """
    mass = _check_mass(a, b)
    value = _w1_alive(_phase_points(a)[a.alive], a.w[a.alive],
                      _phase_points(b)[b.alive], b.w[b.alive], mass, n_exact)
    return W1Report(value, "exact_matching", True)


def _w1_alive(za, wa, zb, wb, mass, n_exact=N_EXACT):
    """Exact W_1 between the phase points za and zb, live rows only, with
    weights wa and wb, each summing to ``mass``."""
    if len(za) > n_exact or len(zb) > n_exact:
        raise TooLarge(f"exact matching limited to {n_exact} particles")
    for w in (wa, wb):
        if len(w) and np.ptp(w) > 1e-12 * np.max(w):
            raise UnequalWeights("exact W_1 requires equal weights within each ensemble")
    if len(za) == 0 or len(zb) == 0:
        return 0.0
    kernel = fields._load_kernel()
    cost = _cost_matrix(kernel, za, zb)
    if len(za) != len(zb):
        return _w1_lp(cost, wa, wb)
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


def _w1_lp(cost, wa, wb):
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    na, nb = cost.shape
    rows, cols, vals = [], [], []
    for i in range(na):
        rows.extend([i] * nb)
        cols.extend(range(i * nb, (i + 1) * nb))
        vals.extend([1.0] * nb)
    for j in range(nb):
        rows.extend([na + j] * na)
        cols.extend(range(j, na * nb, nb))
        vals.extend([1.0] * na)
    A = csr_matrix((vals, (rows, cols)), shape=(na + nb, na * nb))
    rhs = np.concatenate([wa, wb])
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=rhs[:-1], method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _w1_1d(pa, wa, pb, wb):
    """Exact 1-D W_1 between weighted point sets (equal total mass)."""
    ia = np.argsort(pa, kind="stable")
    ib = np.argsort(pb, kind="stable")
    pa, wa = pa[ia], wa[ia]
    pb, wb = pb[ib], wb[ib]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    total = min(ca[-1], cb[-1])
    grid = np.unique(np.concatenate([ca, cb]))
    grid = grid[grid <= total]
    qa = pa[np.searchsorted(ca, grid - 1e-15 * total)]
    qb = pb[np.searchsorted(cb, grid - 1e-15 * total)]
    dm = np.diff(np.concatenate([[0.0], grid]))
    return float(np.sum(dm * np.abs(qa - qb)))


def w1_sliced(a: Ensemble, b: Ensemble, directions=128, seed=0) -> W1Report:
    """Sliced W_1: projected 1-D transport averaged over random directions.

    Each slice contracts (a projection is 1-Lipschitz), so the raw slice
    average sits below the true W_1 by roughly the mean projection factor
    E|u . e|; ``value`` divides it out, giving an estimator that lands near
    the exact distance when the transport is displacement-dominated.  An
    estimator, never a bound: ``certified`` is False, ``raw_mean`` keeps
    the uncorrected average.
    """
    _check_mass(a, b)
    if len(a) == 0 and len(b) == 0:
        return W1Report(0.0, "sliced", False, directions, seed)
    rng = np.random.default_rng(seed)
    za, zb = _phase_points(a), _phase_points(b)
    dims = za.shape[1]
    u = rng.standard_normal((directions, dims))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    wa = a.w * a.alive
    wb = b.w * b.alive
    raw = float(np.mean([_w1_1d(za @ ui, wa, zb @ ui, wb) for ui in u]))
    # E|u . e| for a uniform direction in R^dims
    mean_proj = math.gamma(dims / 2.0) / (math.sqrt(math.pi) * math.gamma((dims + 1) / 2.0))
    return W1Report(raw / mean_proj, "sliced", False, directions, seed, raw_mean=raw)


# -----------------------------------------------------------------------------
# Picard iteration
# -----------------------------------------------------------------------------

@dataclass
class PicardState:
    """Outcome of the Picard loop.

    z_values[k] is the contraction metric Z_{k+1} (mass-weighted mean
    phase-space displacement between iterates k+1 and k, sup over the time
    grid); ratios[k] = Z_{k+2}/Z_{k+1}.  The history is the last iterate's
    trajectories on the shared grid.
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
    three times in a row.
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
            w = h0.w[h0.alive]
            za = np.concatenate([new_x, new_v], axis=2)[:, h0.alive]
            zb = np.concatenate([hist_x, hist_v], axis=2)[:, h0.alive]
            w1max = 0.0
            for k in range(m + 1):
                w1max = max(w1max, _w1_alive(za[k], w, zb[k], w, mass))
            state.w1_values.append(w1max)
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
