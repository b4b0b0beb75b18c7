import shutil
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from specularvp import cli, fields, selfconsistent
from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import GreenKind, RegularizationParams, make_field_factory
from specularvp.flow import StepperConfig, integrate
from specularvp.geometry import HalfSpace
from specularvp.selfconsistent import (
    MassMismatch,
    NonContractionWarning,
    TooLarge,
    UnequalWeights,
    _assignment,
    _cost_matrix,
    _sup_w1,
    _w1_alive,
    picard_iterate,
    w1_exact,
    w1_sliced,
)

HS = HalfSpace(3)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.05, delta=0.05)
IMAGE = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, PARAMS)
NEEDS_GCC = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no C compiler: scipy is the only path")


def no_compiler():
    return mock.patch.object(fields, "_load_kernel", lambda: None)


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


class TestW1DeadParticles:
    @staticmethod
    def pair(x1, w, alive):
        x = np.zeros((len(x1), 3))
        x[:, 0] = x1
        return Ensemble(x=x, v=np.zeros_like(x), w=w, domain=HS, alive=alive)

    def test_dead_rows_are_not_matched(self):
        # the live rows coincide; the dead ones sit apart and carry no mass
        a = self.pair([1.0, 2.0], [0.5, 0.5], [True, False])
        b = self.pair([1.0, 9.0], [0.5, 0.5], [True, False])
        assert w1_exact(a, b).value == 0.0
        assert w1_sliced(a, b).value == 0.0

    def test_unequal_live_counts_take_the_lp(self):
        # 3 particles each, 2 live against 1: the live weights are equal
        # within each ensemble, the dead one's is not
        a = self.pair([1.0, 3.0, 5.0], [0.25, 0.25, 0.25], [True, True, False])
        b = self.pair([2.0, 4.0, 6.0], [0.5, 0.25, 0.25], [True, False, False])
        assert w1_exact(a, b).value == pytest.approx(0.5, rel=1e-8)


@NEEDS_GCC
class TestCompiledMatching:
    """The kernel's cost matrix and assignment against scipy, the oracle."""

    def test_assignment_is_scipys(self):
        kernel = fields._load_kernel()
        rng = np.random.default_rng(2016)
        for t in range(3000):
            n = 1 if t < 20 else int(rng.integers(2, 61))
            if t % 3 == 0:  # small integer costs: full of ties
                cost = rng.integers(0, 4, (n, n)).astype(float)
            else:
                cost = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4)
            assert np.array_equal(_assignment(kernel, cost), linear_sum_assignment(cost)[1])

    @pytest.mark.parametrize("d", [6, 8])
    def test_cost_is_cdist_bytes(self, d):
        kernel = fields._load_kernel()
        rng = np.random.default_rng(d)
        for _ in range(200):
            na, nb = rng.integers(1, 100, 2)
            za = rng.normal(size=(na, d)) * 10.0 ** rng.integers(-3, 4)
            zb = rng.normal(size=(nb, d))
            assert _cost_matrix(kernel, za, zb).tobytes() == cdist(za, zb).tobytes()

    @pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "scipy"])
    @pytest.mark.parametrize("bad, match", [
        (np.nan, "invalid numeric entries"), (-np.inf, "invalid numeric entries"),
        (np.inf, "infeasible")])
    def test_non_finite_cost_raises(self, compiled, bad, match):
        cost = np.ones((3, 3))
        cost[1] = bad  # a +inf row leaves row 1 no finite match
        kernel = fields._load_kernel() if compiled else None
        with pytest.raises(ValueError, match=match):
            _assignment(kernel, cost)

    @pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "scipy"])
    def test_infinite_velocity_raises(self, compiled):
        a, b = cloud(4, 0), cloud(4, 1)
        v = a.v.copy()
        v[2, 1] = np.inf
        loader = fields._load_kernel if compiled else (lambda: None)
        with mock.patch.object(fields, "_load_kernel", loader):
            with pytest.raises(ValueError, match="infeasible"):
                w1_exact(a.with_state(v=v), b)

    def test_picard_writes_the_same_bytes_without_a_compiler(self, tmp_path):
        config = tmp_path / "picard.cfg"
        config.write_text(PICARD_FOLD)
        runs = {}
        for name, loader in [("kernel", fields._load_kernel), ("scipy", lambda: None)]:
            with mock.patch.object(fields, "_load_kernel", loader):
                out = tmp_path / name
                assert cli.main(["picard", "--config", str(config), "--out", str(out)]) == 0
            runs[name] = (out / "contraction.csv").read_bytes()
        assert runs["kernel"] == runs["scipy"]
        assert len(runs["kernel"].splitlines()) == 4


# Picard with exact W1 on a symmetrized cloud, fold backend
PICARD_FOLD = """
[domain]
kind = halfspace
dim = 3

[regularization]
eps_mollify = 0.05
r_sign = 0.05
zeta = 0.05
delta = 0.05

[field]
kind = whole_space

[initial]
type = uniform_box
n = 24
mass = 0.5
seed = 3
x_min = 0.05, -1.0, -1.0
x_max = 1.0, 1.0, 1.0
v_min = -0.5, -0.5, -0.5
v_max = 0.5, 0.5, 0.5

[stepper]
dt = 0.01
t_end = 0.04
backend = fold

[picard]
t0 = 0.04
n_max = 3
w1 = true
"""


def exhaustive_sup(za, zb, w, mass):
    return max(_w1_alive(za[k], w, zb[k], w, mass) for k in range(len(za)))


class TestSupW1:
    """The sup over the grid of exact W1, visited in coupling-bound order,
    against matching every grid time."""

    @pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "scipy"])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 5), n=st.integers(1, 7),
           tie=st.booleans(), swap=st.booleans(), scale=st.sampled_from([1e-9, 0.3, 1.0, 1e3]),
           spread=st.sampled_from([0.01, 1.0]), mass=st.sampled_from([0.5, 3.0]))
    def test_pruned_sup_is_the_exhaustive_max(self, compiled, seed, m, n, tie, swap,
                                              scale, spread, mass):
        # at a scale near the cloud's own spread the identity coupling is far
        # from optimal; a small spread gives grid times of near-equal bound
        # and unequal W1
        rng = np.random.default_rng(seed)
        za = rng.normal(size=(m + 1, n, 6))
        amp = scale * (1.0 + spread * rng.random((m + 1, 1, 1)))
        zb = za + amp * rng.normal(size=za.shape)
        if tie and m >= 1:
            # time 1 takes time 0's displacements, row-permuted: the same
            # bound to rounding, another W1; time 2 repeats time 0 exactly
            zb[1] = za[1] + (zb[0] - za[0])[rng.permutation(n)]
            if m >= 2:
                za[2], zb[2] = za[0], zb[0]
        if swap and n >= 2:
            # two rows trade places at the last time: the identity coupling
            # costs more than W1 there, by far at a small scale
            i, j = rng.choice(n, 2, replace=False)
            zb[m, [i, j]] = zb[m, [j, i]]
        w = np.full(n, mass / n)
        loader = fields._load_kernel if compiled else (lambda: None)
        with mock.patch.object(fields, "_load_kernel", loader):
            assert _sup_w1(za, zb, w, mass) == exhaustive_sup(za, zb, w, mass)

    @pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "scipy"])
    def test_nan_raises_as_the_exhaustive_loop(self, compiled):
        rng = np.random.default_rng(5)
        za = rng.normal(size=(4, 5, 6))
        zb = za + rng.normal(size=za.shape)
        zb[2, 1, 3] = np.nan
        w = np.full(5, 0.2)
        loader = fields._load_kernel if compiled else (lambda: None)
        with mock.patch.object(fields, "_load_kernel", loader):
            with pytest.raises(ValueError) as exhaustive:
                exhaustive_sup(za, zb, w, 1.0)
            with pytest.raises(ValueError) as pruned:
                _sup_w1(za, zb, w, 1.0)
        assert type(pruned.value) is type(exhaustive.value)
        assert str(pruned.value) == str(exhaustive.value) == "matrix contains invalid numeric entries"

    def test_one_assignment_per_iterate(self, tmp_path):
        # PICARD_FOLD: 3 iterates of 5 grid times; the identity coupling is
        # optimal at each iterate's sup, so each iterate matches once
        config = tmp_path / "picard.cfg"
        config.write_text(PICARD_FOLD)
        with mock.patch.object(selfconsistent, "_assignment",
                               wraps=selfconsistent._assignment) as matched:
            assert cli.main(["picard", "--config", str(config),
                             "--out", str(tmp_path / "out")]) == 0
        assert matched.call_count == 3


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

    @pytest.mark.parametrize("n, w, error", [
        (513, None, TooLarge), (8, np.linspace(0.05, 0.2, 8), UnequalWeights)],
        ids=["too-large", "unequal-weights"])
    def test_exact_w1_refused_before_stepping(self, n, w, error):
        h0 = cloud(n, 17)
        if w is not None:
            h0 = Ensemble(x=h0.x, v=h0.v, w=w, domain=HS)
        with mock.patch.object(selfconsistent, "step", wraps=selfconsistent.step) as stepped:
            with pytest.raises(error):
                picard_iterate(h0, IMAGE, StepperConfig(dt=1e-2), 0.01, n_max=1,
                               compute_w1=True)
        assert stepped.call_count == 0

    def test_bad_horizon_rejected(self):
        e = cloud(2, 16)
        with pytest.raises(ValueError):
            picard_iterate(e, IMAGE, StepperConfig(dt=1e-2), -0.1)
