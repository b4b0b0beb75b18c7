import numpy as np
import pytest

from specularvp.ensemble import (
    AsymmetricInput,
    Ensemble,
    Frame,
    FrameMismatch,
    InitialCondition,
    UnsupportedDensity,
    kinetic_energy,
    restrict,
    sample_initial,
    symmetrize,
)
from specularvp.geometry import HalfSpace

HS = HalfSpace(3)


def phase_multiset(e):
    rows = np.concatenate([e.x, e.v, e.w[:, None]], axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def make(x, v, w=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    return Ensemble(x=x, v=v, w=w, domain=HS, frame=Frame.PROBLEM_A)


class TestSymmetrize:
    def test_single_particle_gets_its_mirror(self):
        e = symmetrize(make([[1.0, 0.0, 0.0]], [[2.0, 3.0, 0.0]]))
        assert len(e) == 2
        assert e.frame is Frame.PROBLEM_B
        assert np.array_equal(e.x[1], [-1.0, 0.0, 0.0])
        assert np.array_equal(e.v[1], [-2.0, 3.0, 0.0])
        assert e.w[1] == 1.0
        assert e.total_mass == 2.0

    def test_particle_on_plane_mirrors_in_velocity_only(self):
        e = symmetrize(make([[0.0, 1.0, 0.0]], [[2.0, 0.5, 0.0]]))
        assert np.array_equal(e.x[0], e.x[1])
        assert np.array_equal(e.v[1], [-2.0, 0.5, 0.0])

    def test_frame_mismatch(self):
        e = symmetrize(make([[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]))
        with pytest.raises(FrameMismatch):
            symmetrize(e)


class TestRestrict:
    def test_restrict_inverts_symmetrize(self):
        rng = np.random.default_rng(0)
        base = make(np.c_[0.1 + rng.random(9), rng.normal(size=(9, 2))],
                    rng.normal(size=(9, 3)), rng.random(9))
        back = restrict(symmetrize(base))
        assert np.array_equal(phase_multiset(back), phase_multiset(base))

    def test_symmetrize_after_restrict_reproduces_symmetric_input(self):
        rng = np.random.default_rng(1)
        base = make(np.c_[0.1 + rng.random(5), rng.normal(size=(5, 2))],
                    rng.normal(size=(5, 3)))
        sym = symmetrize(base)
        again = symmetrize(restrict(sym))
        assert np.array_equal(phase_multiset(again), phase_multiset(sym))

    def test_pair_straddling_plane_keeps_positive_member(self):
        sym = symmetrize(make([[0.7, 0.0, 0.0]], [[1.0, 0.0, 0.0]]))
        res = restrict(sym)
        assert len(res) == 1
        assert res.x[0, 0] == 0.7

    def test_empty(self):
        e = Ensemble(x=np.zeros((0, 3)), v=np.zeros((0, 3)), w=np.zeros(0),
                     domain=HS, frame=Frame.PROBLEM_B)
        assert len(restrict(e)) == 0

    def test_asymmetric_input_rejected(self):
        e = Ensemble(x=np.array([[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]]),
                     v=np.zeros((2, 3)), w=np.ones(2),
                     domain=HS, frame=Frame.PROBLEM_B)
        with pytest.raises(AsymmetricInput):
            restrict(e)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            restrict(make([[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]))


class TestEnergies:
    def test_kinetic_no_half_factor(self):
        e = make([[1.0, 0.0, 0.0]], [[3.0, 0.0, 0.0]], [2.0])
        assert kinetic_energy(e) == 18.0

    def test_kinetic_zero_velocities(self):
        e = make(np.ones((4, 3)), np.zeros((4, 3)))
        assert kinetic_energy(e) == 0.0

    def test_mirror_pair_contributes_equally(self):
        base = make([[1.0, 0.2, 0.0]], [[2.0, -1.0, 0.5]], [0.7])
        sym = symmetrize(base)
        assert kinetic_energy(sym) == pytest.approx(2 * kinetic_energy(base), rel=1e-15)

    def test_problem_b_kinetic_doubles_restriction(self):
        rng = np.random.default_rng(2)
        base = make(np.c_[0.1 + rng.random(6), rng.normal(size=(6, 2))],
                    rng.normal(size=(6, 3)))
        sym = symmetrize(base)
        assert kinetic_energy(sym) == pytest.approx(
            2 * kinetic_energy(restrict(sym)), rel=1e-13)


class TestOddDensityView:
    def test_even_moments_of_odd_density_vanish(self):
        # discrete face of the odd reflection: sum sgn(x1) w h(x) = 0 for even h
        rng = np.random.default_rng(3)
        base = make(np.c_[0.1 + rng.random(20), rng.normal(size=(20, 2))],
                    rng.normal(size=(20, 3)), rng.random(20))
        sym = symmetrize(base)
        sgn = np.sign(sym.x[:, 0])
        for h in (lambda x: np.cos(x[:, 0]) + x[:, 1] ** 2,
                  lambda x: np.exp(-np.sum(x**2, axis=1))):
            total = np.sum(sgn * sym.w * h(sym.x))
            assert abs(total) < 1e-12


class TestImmutability:
    def test_arrays_frozen(self):
        e = make([[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            e.x[0, 0] = 2.0
        with pytest.raises(ValueError):
            e.w[0] = 5.0

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            make([[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [-1.0])

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            make([[-1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])


class TestSampling:
    def test_uniform_box_small(self):
        ic = InitialCondition(kind="uniform_box", n=4, mass=2.0,
                              x_bounds=(np.array([1.0, -1.0, -1.0]),
                                        np.array([2.0, 1.0, 1.0])),
                              v_bounds=(np.full(3, -0.5), np.full(3, 0.5)))
        e = sample_initial(ic, domain=HS, seed=0)
        assert len(e) == 4
        assert np.all(e.w == 0.5)
        assert np.all((e.x >= [1, -1, -1]) & (e.x <= [2, 1, 1]))
        assert np.all(np.abs(e.v) <= 0.5)

    def test_delta_copies(self):
        ic = InitialCondition(kind="delta", n=3, mass=1.0,
                              x0=np.array([1.0, 0.0, 0.0]),
                              v0=np.array([0.0, 1.0, 0.0]))
        e = sample_initial(ic, domain=HS, seed=5)
        assert np.all(e.x == e.x[0])
        assert np.all(e.v == [0.0, 1.0, 0.0])

    def test_maxwellian_second_moment_within_3_sigma(self):
        n = 100_000
        temp = 1.7
        ic = InitialCondition(kind="maxwellian", n=n, mass=1.0,
                              x_bounds=(np.array([1.0, 0.0, 0.0]),
                                        np.array([2.0, 1.0, 1.0])),
                              temperature=temp)
        e = sample_initial(ic, domain=HS, seed=11)
        mean_v2 = np.mean(np.sum(e.v**2, axis=1))
        # Var(|v|^2) = 2 d T^2 for an isotropic Gaussian
        sigma = np.sqrt(2 * 3 * temp**2 / n)
        assert abs(mean_v2 - 3 * temp) <= 3 * sigma

    def test_deterministic_for_fixed_seed(self):
        ic = InitialCondition(kind="maxwellian", n=100, mass=1.0,
                              x_bounds=(np.array([1.0, 0.0, 0.0]),
                                        np.array([2.0, 1.0, 1.0])))
        a = sample_initial(ic, domain=HS, seed=42)
        b = sample_initial(ic, domain=HS, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedDensity):
            sample_initial(InitialCondition(kind="cauchy", n=1), domain=HS)

    def test_boundary_nudge(self):
        ic = InitialCondition(kind="delta", n=2, mass=1.0,
                              x0=np.array([0.0, 0.0, 0.0]),
                              v0=np.array([1.0, 0.0, 0.0]))
        e = sample_initial(ic, domain=HS, seed=0)
        assert np.all(e.x[:, 0] == 1e-12)
