from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import GreenKind, RegularizationParams, make_field_factory
from specularvp.flow import StepperConfig, integrate
from specularvp.geometry import HalfSpace
from specularvp.selfconsistent import (
    MassMismatch,
    NonContractionWarning,
    TooLarge,
    UnequalWeights,
    picard_iterate,
    w1_exact,
    w1_sliced,
)

HS = HalfSpace(3)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.05, delta=0.05)
IMAGE = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, PARAMS)


def cloud(n, seed, mass=1.0, spread=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    x = np.c_[1.0 + spread * rng.random(n), rng.normal(size=(n, 2)) * spread + offset]
    v = rng.normal(size=(n, 3)) * spread
    return Ensemble(x=x, v=v, w=np.full(n, mass / n), domain=HS)


def brute_force_w1(a, b):
    za = np.c_[a.x, a.v]
    zb = np.c_[b.x, b.v]
    cost = cdist(za, zb)
    n = len(a)
    best = min(sum(cost[i, p[i]] for i in range(n)) for p in permutations(range(n)))
    return a.total_mass / n * best


class TestW1Exact:
    def test_identical_ensembles(self):
        a = cloud(10, 0)
        assert w1_exact(a, a).value == 0.0

    def test_two_diracs(self):
        a = Ensemble(x=np.array([[1.0, 0.0, 0.0]]), v=np.zeros((1, 3)),
                     w=np.array([0.5]), domain=HS)
        b = Ensemble(x=np.array([[1.0, 3.0, 0.0]]), v=np.zeros((1, 3)),
                     w=np.array([0.5]), domain=HS)
        assert w1_exact(a, b).value == pytest.approx(0.5 * 3.0, rel=1e-15)

    def test_matches_brute_force_n8(self):
        for seed in range(5):
            a = cloud(8, seed)
            b = cloud(8, seed + 100)
            assert w1_exact(a, b).value == pytest.approx(
                brute_force_w1(a, b), abs=1e-12)

    def test_triangle_inequality_and_symmetry(self):
        a, b, c = cloud(12, 1), cloud(12, 2), cloud(12, 3)
        ab = w1_exact(a, b).value
        ba = w1_exact(b, a).value
        ac = w1_exact(a, c).value
        cb = w1_exact(c, b).value
        assert ab == pytest.approx(ba, rel=1e-12)
        assert ab <= ac + cb + 1e-12

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            w1_exact(cloud(8, 0, mass=1.0), cloud(8, 1, mass=2.0))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            w1_exact(cloud(600, 0), cloud(600, 1))

    def test_unequal_weights(self):
        rng = np.random.default_rng(4)
        w = rng.random(8)
        a = Ensemble(x=np.c_[1 + rng.random(8), rng.normal(size=(8, 2))],
                     v=rng.normal(size=(8, 3)), w=w, domain=HS)
        b = cloud(8, 5, mass=float(np.sum(w)))
        with pytest.raises(UnequalWeights):
            w1_exact(a, b)

    def test_unequal_sizes_lp_fallback(self):
        # 2 vs 4 particles, equal total mass: exact OT through the LP
        a = Ensemble(x=np.array([[1.0, 0, 0], [2.0, 0, 0]]), v=np.zeros((2, 3)),
                     w=np.array([0.5, 0.5]), domain=HS)
        b = Ensemble(x=np.array([[1.0, 1.0, 0], [1.0, -1.0, 0],
                                 [2.0, 1.0, 0], [2.0, -1.0, 0]]),
                     v=np.zeros((4, 3)), w=np.full(4, 0.25), domain=HS)
        # each source splits evenly to its two nearest targets at distance 1
        assert w1_exact(a, b).value == pytest.approx(1.0, rel=1e-8)


class TestW1Sliced:
    def test_identical(self):
        a = cloud(64, 0)
        assert w1_sliced(a, a, directions=16, seed=0).value == 0.0

    def test_two_diracs_projection_contracts(self):
        a = Ensemble(x=np.array([[1.0, 0.0, 0.0]]), v=np.zeros((1, 3)),
                     w=np.array([1.0]), domain=HS)
        b = Ensemble(x=np.array([[1.0, 2.0, 0.0]]), v=np.zeros((1, 3)),
                     w=np.array([1.0]), domain=HS)
        rep = w1_sliced(a, b, directions=256, seed=1)
        assert 0 < rep.value <= 2.0
        assert not rep.certified

    def test_within_25_percent_of_exact_on_gaussian_clouds(self):
        # displacement-dominated pairs: same isotropic cloud shape, centers
        # separated well beyond the sampling noise
        rels = []
        for seed in range(3):
            a = cloud(64, seed)
            b = cloud(64, seed + 40, offset=8.0)
            exact = w1_exact(a, b).value
            sliced = w1_sliced(a, b, directions=128, seed=0).value
            rels.append(abs(sliced - exact) / exact)
        assert np.mean(rels) <= 0.25
        assert max(rels) <= 0.3

    def test_raw_mean_contracts(self):
        a = cloud(32, 21)
        b = cloud(32, 22, offset=1.0)
        rep = w1_sliced(a, b, directions=64, seed=5)
        assert rep.raw_mean <= w1_exact(a, b).value + 1e-12

    def test_seed_pins_the_estimate(self):
        a, b = cloud(32, 9), cloud(32, 10)
        r1 = w1_sliced(a, b, directions=64, seed=3)
        r2 = w1_sliced(a, b, directions=64, seed=3)
        assert r1.value == r2.value


class TestOddMeasureContraction:
    """W1 between odd densities contracts against W1 between even densities.

    Both measures come from the same even-symmetric ensembles, so masses
    match; the transport of the odd difference moves the positive part
    (upper a, lower b) onto (upper b, lower a)."""

    @staticmethod
    def _positions_w1(xa, wa, xb, wb):
        cost = cdist(xa, xb)
        rows, cols = linear_sum_assignment(cost)
        return float(np.sum(wa[rows] * cost[rows, cols]))

    def _split(self, sym):
        upper = sym.x[:, 0] > 0
        return sym.x[upper], sym.x[~upper], sym.w[upper]

    def test_odd_reflection_contracts_w1_bruteforce(self):
        for seed in range(4):
            n = 4
            a_sym = symmetrize(cloud(n, seed))
            b_sym = symmetrize(cloud(n, seed + 50))
            a_up, a_lo, w = self._split(a_sym)
            b_up, b_lo, _ = self._split(b_sym)
            # odd route: (a_up + b_lo) -> (b_up + a_lo)
            odd = self._positions_w1(
                np.concatenate([a_up, b_lo]), np.concatenate([w, w]),
                np.concatenate([b_up, a_lo]), np.concatenate([w, w]))
            even = self._positions_w1(a_sym.x, a_sym.w, b_sym.x, b_sym.w)
            assert odd <= even + 1e-12

    def test_dual_lower_bound_with_random_lipschitz_features(self):
        # random 1-Lipschitz features certify a lower bound on the odd W1,
        # which must stay below the even W1 (lower-bound certification only)
        rng = np.random.default_rng(12)
        a_sym = symmetrize(cloud(5, 1))
        b_sym = symmetrize(cloud(5, 2))
        sgn_a = np.sign(a_sym.x[:, 0])
        sgn_b = np.sign(b_sym.x[:, 0])
        best = 0.0
        for c in rng.normal(size=(128, 3)) * 2.0:
            phi_a = np.linalg.norm(a_sym.x - c, axis=1)
            phi_b = np.linalg.norm(b_sym.x - c, axis=1)
            # the proof's trick: sgn(y1) (phi(y) - phi(y')) / 2 is 1-Lipschitz
            phi_a_m = np.linalg.norm(a_sym.x * [-1, 1, 1] - c, axis=1)
            phi_b_m = np.linalg.norm(b_sym.x * [-1, 1, 1] - c, axis=1)
            fa = np.sum(a_sym.w * sgn_a * 0.5 * (phi_a - phi_a_m))
            fb = np.sum(b_sym.w * sgn_b * 0.5 * (phi_b - phi_b_m))
            best = max(best, abs(fa - fb))
        even = self._positions_w1(a_sym.x, a_sym.w, b_sym.x, b_sym.w)
        assert best <= even + 1e-12


class TestPicard:
    def test_zero_mass_converges_immediately(self):
        e = Ensemble(x=np.array([[1.0, 0.0, 0.0]]), v=np.zeros((1, 3)),
                     w=np.array([0.0]), domain=HS)
        state = picard_iterate(e, IMAGE, StepperConfig(dt=1e-2), 0.05, n_max=3)
        assert state.z_values[0] == 0.0
        assert state.converged

    def test_single_particle_ratio_scales_with_horizon(self):
        e = Ensemble(x=np.array([[0.12, 0.0, 0.0]]),
                     v=np.array([[0.05, 0.0, 0.0]]),
                     w=np.array([4.0]), domain=HS)
        params = RegularizationParams(0.05, 0.05, 0.04, 0.05)
        firsts = {}
        for t0 in (0.1, 0.05):
            state = picard_iterate(e, make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, params),
                                   StepperConfig(dt=2.5e-3), t0, n_max=4)
            assert all(r < 1 for r in state.ratios)
            firsts[t0] = state.ratios[0]
        # contraction factor roughly linear in T_0
        assert firsts[0.05] < firsts[0.1]
        assert firsts[0.05] / firsts[0.1] < 0.8

    def test_converged_iteration_matches_frozen_field_run(self):
        # at the fixed point the scheme equals per-step-frozen integration
        e = Ensemble(x=np.array([[0.5, 0.1, 0.0], [0.9, -0.1, 0.0]]),
                     v=np.array([[0.1, 0.2, 0.0], [-0.1, -0.2, 0.0]]),
                     w=np.array([0.5, 0.5]), domain=HS)
        cfg = StepperConfig(dt=5e-3)
        state = picard_iterate(e, IMAGE, cfg, 0.05, n_max=12, tol=1e-14)
        assert state.converged
        rec = integrate(e, IMAGE, StepperConfig(dt=5e-3, frozen_field=True), 0.05)
        assert np.allclose(state.history_x[-1], rec.final.x, atol=1e-12)
        assert np.allclose(state.history_v[-1], rec.final.v, atol=1e-12)

    def test_z_dominates_w1(self):
        e = cloud(8, 13, mass=2.0)
        state = picard_iterate(e, IMAGE, StepperConfig(dt=5e-3), 0.05, n_max=3,
                               compute_w1=True)
        for z, w1v in zip(state.z_values, state.w1_values):
            assert w1v <= z * e.total_mass + 1e-12

    def test_problem_b_route(self):
        base = cloud(4, 14, mass=0.5)
        sym = symmetrize(base)
        state = picard_iterate(sym, make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS),
                               StepperConfig(dt=5e-3), 0.05, n_max=3)
        assert len(state.z_values) == 3
        assert all(r < 1 for r in state.ratios)

    def test_non_contraction_warning(self):
        # heavy mass and a long horizon break the contraction
        e = cloud(4, 15, mass=2000.0, spread=0.3)
        with pytest.warns(NonContractionWarning):
            picard_iterate(e, make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE,
                                                 RegularizationParams(0.05, 0.05, 0.02, 0.02)),
                           StepperConfig(dt=0.05), 1.0, n_max=8)

    def test_bad_horizon_rejected(self):
        e = cloud(2, 16)
        with pytest.raises(ValueError):
            picard_iterate(e, IMAGE, StepperConfig(dt=1e-2), -0.1)
