"""Picard fixed-point loop and the Wasserstein-1 machinery monitoring it.

The convergence monitor of choice is the trajectory-coupling metric Z_n:
both iterates start from the same particles, so the mass-weighted mean
phase-space displacement between consecutive iterates is an O(N) upper
bound for W_1 between the iterate measures.  Exact W_1 (min-cost matching)
is a secondary certified check at small N; the sliced estimator scales to
large N but is an estimator, not a bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .ensemble import Ensemble
from .fields import GreenKind, make_field_factory
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

    Euclidean cost on phase space (x, v).  Equal particle counts reduce to
    a min-cost perfect matching (Hungarian, O(N^3)); unequal counts with
    uniform weights fall back to the transport LP.
    """
    mass = _check_mass(a, b)
    if len(a) > n_exact or len(b) > n_exact:
        raise TooLarge(f"exact matching limited to {n_exact} particles")
    for e in (a, b):
        if len(e) and np.ptp(e.w) > 1e-12 * np.max(e.w):
            raise UnequalWeights("exact W_1 requires equal weights within each ensemble")
    if len(a) == 0:
        return W1Report(0.0, "exact_matching", True)
    cost = cdist(_phase_points(a), _phase_points(b))
    if len(a) == len(b):
        rows, cols = linear_sum_assignment(cost)
        value = mass / len(a) * float(cost[rows, cols].sum())
    else:
        value = _w1_lp(cost, a.w * a.alive, b.w * b.alive)
    return W1Report(value, "exact_matching", True)


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
    grid); ratios[k] = Z_{k+2}/Z_{k+1}.  Histories keep the last two
    iterates' trajectories on the shared grid.
    """

    n: int
    times: np.ndarray
    z_values: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    w1_values: list = field(default_factory=list)
    history_x: np.ndarray | None = None
    history_v: np.ndarray | None = None
    prev_history_x: np.ndarray | None = None
    prev_history_v: np.ndarray | None = None
    converged: bool = False


def picard_iterate(h0: Ensemble, params, cfg: StepperConfig, t0_horizon,
                   n_max=6, tol=0.0, kind=GreenKind.HALF_SPACE_IMAGE, domain=None,
                   compute_w1=False) -> PicardState:
    """Run the Picard scheme of the regularized system on [0, T_0].

    Iterate n+1 advances h0 under the field generated by iterate n's
    recorded trajectory history (iterate 0 is the constant-in-time h0).
    A ProblemB-framed h0 takes the smooth-sign whole-space field whatever
    ``kind`` says.  Stops when Z_n <= tol or after n_max iterates; emits a
    NonContractionWarning if the ratio exceeds 1 three times in a row.
    """
    if not t0_horizon > 0:
        raise ValueError("T_0 must be positive")
    domain = h0.domain if domain is None else domain
    m = int(round(t0_horizon / cfg.dt))
    if m < 1 or abs(m * cfg.dt - t0_horizon) > 1e-9 * t0_horizon:
        raise ValueError("T_0 must be a positive integer number of steps")
    times = np.arange(m + 1) * cfg.dt
    n_part = len(h0)
    mass = h0.total_mass
    factory = make_field_factory(domain, kind, params)

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
            field_fn = factory(h0.with_state(x=hist_x[k]))
            e, _, _ = step(e, field_fn, cfg, t0=times[k])
            new_x[k + 1], new_v[k + 1] = e.x, e.v

        disp = np.sqrt(
            np.sum((new_x - hist_x) ** 2, axis=2) + np.sum((new_v - hist_v) ** 2, axis=2)
        )
        z = float(np.max(np.sum(h0.w[None, :] * disp, axis=1)) / mass) if mass else 0.0
        state.z_values.append(z)
        if compute_w1:
            w1max = 0.0
            for k in range(m + 1):
                a = h0.with_state(x=new_x[k], v=new_v[k])
                b = h0.with_state(x=hist_x[k], v=hist_v[k])
                w1max = max(w1max, w1_exact(a, b).value)
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
        state.prev_history_x, state.prev_history_v = hist_x, hist_v
        hist_x, hist_v = new_x, new_v
        state.n = n
        if z <= tol:
            state.converged = True
            break

    state.history_x, state.history_v = hist_x, hist_v
    return state
