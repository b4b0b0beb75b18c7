import numpy as np
import pytest
from scipy import integrate as sps_integrate

import specularvp.fields as fields_module

from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import (
    CoincidentPoints,
    DimensionTooSmall,
    GreenKind,
    NegativeArgument,
    RegularizationParams,
    boundary_cutoff,
    c_d,
    cutoff_rbar,
    cutoff_rbar_prime,
    field_halfspace_A,
    field_model,
    field_problem_b,
    grad_green_cut,
    green,
    green_cut,
    interaction_energy,
    kernel_plummer,
    plummer_potential,
    smooth_sign,
)
from specularvp.geometry import Ball, HalfSpace

HS = HalfSpace(3)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1)


def regularized(domain, kind, e, x):
    """The regularized field of e at x, on the route its frame and the kind pick."""
    return field_model(domain, kind, e.frame, PARAMS).field(e, x)


def ensemble(x, v=None, w=None, domain=HS, frame=Frame.PROBLEM_A):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.zeros_like(x) if v is None else np.atleast_2d(np.asarray(v, dtype=float))
    w = np.ones(len(x)) if w is None else np.asarray(w, dtype=float)
    return Ensemble(x=x, v=v, w=w, domain=domain, frame=frame)


class TestNormalization:
    def test_c3_from_flux_quadrature(self):
        # independent oracle: flux of x/|x|^3 through the unit sphere
        flux, _ = sps_integrate.dblquad(
            lambda theta, phi: np.sin(theta), 0, 2 * np.pi, 0, np.pi)
        assert c_d(3) == pytest.approx(1.0 / flux, rel=1e-9)
        assert c_d(3) == pytest.approx(1.0 / (4 * np.pi), rel=1e-13)

    def test_c4_from_flux_quadrature(self):
        # same flux oracle in d=4: surface measure of S^3
        flux, _ = sps_integrate.tplquad(
            lambda a, b, c: np.sin(a) ** 2 * np.sin(b),
            0, 2 * np.pi, 0, np.pi, 0, np.pi)
        assert c_d(4) == pytest.approx(1.0 / flux, rel=1e-9)
        assert c_d(4) == pytest.approx(1.0 / (2 * np.pi**2), rel=1e-13)

    def test_positive_and_dimension_guard(self):
        assert all(c_d(d) > 0 for d in range(3, 10))
        with pytest.raises(DimensionTooSmall):
            c_d(2)


class TestCutoffProfiles:
    def test_rbar_plateaus_and_midpoint(self):
        assert cutoff_rbar(0.5) == 0.0
        assert cutoff_rbar(3.0) == 1.0
        assert cutoff_rbar(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_rbar_monotone_with_bounded_slope(self):
        s = np.linspace(0, 3, 4001)
        r = cutoff_rbar(s)
        assert np.all(np.diff(r) >= 0)
        assert np.max(cutoff_rbar_prime(s)) <= 2.0
        # derivative matches finite differences (C^2 smoothstep)
        h = 1e-6
        mid = np.linspace(1.01, 1.99, 99)
        fd = (cutoff_rbar(mid + h) - cutoff_rbar(mid - h)) / (2 * h)
        assert np.allclose(fd, cutoff_rbar_prime(mid), atol=1e-8)

    def test_rbar_negative_argument(self):
        with pytest.raises(NegativeArgument):
            cutoff_rbar(-0.1)

    def test_smooth_sign(self):
        r = 0.2
        assert smooth_sign(r, 2 * r) == 1.0
        assert smooth_sign(r, 0.0) == 0.0
        assert smooth_sign(r, r / 2) == pytest.approx(11.0 / 16.0, abs=1e-15)
        x = np.linspace(-3 * r, 3 * r, 101)
        assert np.allclose(smooth_sign(r, -x), -smooth_sign(r, x))

    def test_boundary_cutoff(self):
        zeta = 0.1
        pts = np.array([[0.05, 0.0, 0.0], [0.3, 0.0, 0.0], [0.15, 0.0, 0.0]])
        vals = boundary_cutoff(HS, zeta, pts)
        assert vals[0] == 0.0
        assert vals[1] == 1.0
        assert vals[2] == pytest.approx(0.5, abs=1e-15)


class TestGreen:
    def test_halfspace_vanishes_on_wall(self):
        rng = np.random.default_rng(0)
        xb = rng.standard_normal((100, 3))
        xb[:, 0] = 0.0
        z = rng.standard_normal((100, 3))
        z[:, 0] = np.abs(z[:, 0]) + 0.1
        g = green(GreenKind.HALF_SPACE_IMAGE, HS, xb, z)
        assert np.abs(g).max() < 1e-12

    def test_wholespace_unit_separation(self):
        x = np.array([1.0, 0.0, 0.0])
        z = np.zeros(3)
        assert green(GreenKind.WHOLE_SPACE, None, x, z) == pytest.approx(
            1.0 / (4 * np.pi), rel=1e-14)

    def test_ball_harmonicity_by_finite_difference_laplacian(self):
        ball = Ball(3, 1.0)
        z = np.array([0.3, 0.1, -0.2])
        x0 = np.array([-0.2, 0.4, 0.3])
        h = 1e-3
        lap = -6.0 * green(GreenKind.BALL_IMAGE, ball, x0, z)
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            lap += green(GreenKind.BALL_IMAGE, ball, x0 + dx, z) + green(
                GreenKind.BALL_IMAGE, ball, x0 - dx, z)
        assert abs(lap) / h**2 < 1e-4

    def test_ball_vanishes_on_sphere_and_symmetry(self):
        ball = Ball(3, 2.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((50, 3))
        u = 2.0 * u / np.linalg.norm(u, axis=1, keepdims=True)
        z = rng.standard_normal((50, 3)) * 0.5
        assert np.abs(green(GreenKind.BALL_IMAGE, ball, u, z)).max() < 1e-12
        x = rng.standard_normal((50, 3)) * 0.4
        gxz = green(GreenKind.BALL_IMAGE, ball, x, z)
        gzx = green(GreenKind.BALL_IMAGE, ball, z, x)
        assert np.allclose(gxz, gzx, rtol=1e-12)
        assert np.all(gxz >= 0)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            green(GreenKind.WHOLE_SPACE, None, np.ones(3), np.ones(3))


class TestGreenCut:
    def test_wholespace_dead_zone_and_plateau(self):
        delta = PARAMS.delta
        x = np.zeros(3)
        for sep, expect_green in ((0.5 * delta, False), (3 * delta, True)):
            z = np.array([sep, 0.0, 0.0])
            gc = green_cut(GreenKind.WHOLE_SPACE, None, PARAMS, x, z)
            if expect_green:
                assert gc == pytest.approx(
                    green(GreenKind.WHOLE_SPACE, None, x, z), rel=1e-14)
            else:
                assert gc == 0.0
        z = np.array([1.5 * delta, 0.0, 0.0])
        assert green_cut(GreenKind.WHOLE_SPACE, None, PARAMS, x, z) == pytest.approx(
            0.5 * green(GreenKind.WHOLE_SPACE, None, x, z), rel=1e-13)

    def test_halfspace_self_image_survives_the_cut(self):
        # at x = z only the image term remains, keyed on the 2 x_1 separation
        x1 = 0.4
        x = np.array([x1, 0.0, 0.0])
        gc = green_cut(GreenKind.HALF_SPACE_IMAGE, HS, PARAMS, x, x)
        expected = -cutoff_rbar(2 * x1 / PARAMS.delta) * c_d(3) * (2 * x1) ** (-1.0)
        assert gc == pytest.approx(expected, rel=1e-14)

    def test_matches_green_beyond_two_delta(self):
        rng = np.random.default_rng(2)
        x = np.c_[1 + rng.random(50), rng.standard_normal((50, 2))]
        z = np.c_[1 + rng.random(50), rng.standard_normal((50, 2)) + 3.0]
        a = green_cut(GreenKind.HALF_SPACE_IMAGE, HS, PARAMS, x, z)
        b = green(GreenKind.HALF_SPACE_IMAGE, HS, x, z)
        assert np.allclose(a, b, rtol=1e-14)

    def test_gradient_consistency_with_finite_differences(self):
        # the regularized field = -grad of the discrete cut potential, away from shells
        rng = np.random.default_rng(3)
        src = np.c_[0.5 + rng.random(4), rng.standard_normal((4, 2)) * 0.3]
        w = np.array([0.3, 0.2, 0.25, 0.25])
        e = ensemble(src, w=w)
        x0 = np.array([1.3, 0.15, -0.2])
        h = 1e-4

        def pot(x):
            return float(np.sum(w * green_cut(
                GreenKind.HALF_SPACE_IMAGE, HS, PARAMS, x[None, :], src)))

        grad = np.empty(3)
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            grad[j] = (pot(x0 + dx) - pot(x0 - dx)) / (2 * h)
        field = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, x0[None, :])[0]
        assert np.allclose(field, -grad, atol=1e-6)


class TestFields:
    def test_halfspace_A_hand_value(self):
        # unit particle at (1,0,0): E((2,0,0)) = c_3 (1 - 1/9) e_1 = 2/(9 pi) e_1
        e = ensemble([[1.0, 0.0, 0.0]])
        small_eps = RegularizationParams(1e-12, 0.05, 0.1, 0.1)
        field = field_halfspace_A(e, small_eps, np.array([[2.0, 0.0, 0.0]]))[0]
        assert field[0] == pytest.approx(2.0 / (9 * np.pi), rel=1e-9)
        assert field[1] == field[2] == 0.0

    def test_halfspace_A_tangential_vanishes_on_wall(self):
        rng = np.random.default_rng(4)
        e = ensemble(np.c_[0.2 + rng.random(12), rng.standard_normal((12, 2))],
                     w=rng.random(12))
        xb = rng.standard_normal((20, 3))
        xb[:, 0] = 0.0
        field = field_halfspace_A(e, PARAMS, xb)
        scale = np.abs(field[:, 0]).max()
        assert np.abs(field[:, 1:]).max() <= 1e-10 * max(scale, 1e-300)

    def test_halfspace_A_equals_explicit_four_term_sum(self):
        # two mirror particles placed by hand: brute-force sum over 4 sources
        e = ensemble([[0.5, 0.2, 0.0], [1.5, -0.3, 0.4]], w=[0.7, 0.3])
        x = np.array([[0.9, 0.1, 0.2]])
        eps = PARAMS.eps_mollify
        total = np.zeros(3)
        for xj, wj in zip(e.x, e.w):
            xm = xj.copy()
            xm[0] = -xm[0]
            total += wj * (kernel_plummer(eps, x[0] - xj) - kernel_plummer(eps, x[0] - xm))
        total *= c_d(3)
        assert np.allclose(field_halfspace_A(e, PARAMS, x)[0], total, rtol=1e-14)

    def test_regularized_vanishes_in_boundary_collar(self):
        e = ensemble([[1.0, 0.0, 0.0]])
        x = np.array([[0.05, 0.3, 0.2]])  # dist < zeta
        field = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, x)
        assert np.all(field == 0.0)

    def test_regularized_empty_ensemble(self):
        e = Ensemble(x=np.zeros((0, 3)), v=np.zeros((0, 3)), w=np.zeros(0), domain=HS)
        field = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, np.array([[1.0, 0.0, 0.0]]))
        assert np.all(field == 0.0)

    def test_regularized_image_only_inside_delta(self):
        # |x - x_j| < delta and dist > 2 zeta: only the image term acts
        xj = np.array([0.7, 0.0, 0.0])
        e = ensemble([xj], w=[2.0])
        x = xj + np.array([0.0, 0.04, 0.0])
        field = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, x[None, :])[0]
        zm = xj.copy()
        zm[0] = -zm[0]
        expected = -2.0 * grad_green_cut(
            GreenKind.HALF_SPACE_IMAGE, HS, PARAMS.delta, x[None, :], xj[None, :])[0]
        assert np.allclose(field, expected, rtol=1e-14)
        # direct part is dead: same value as the image charge alone
        sep_image = np.linalg.norm(x - zm)
        assert sep_image > 2 * PARAMS.delta
        attraction = -c_d(3) * (x - zm) / sep_image**3 * 2.0
        assert np.allclose(field, attraction, rtol=1e-12)

    def test_batch_single_particle_self_image_closed_form(self):
        x1 = 0.9
        e = ensemble([[x1, 0.0, 0.0]], w=[0.5])
        field = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, e.x)[0]
        # image at (-x1, 0 ,0), strength -w, separation 2 x1 beyond the cutoffs
        expected = -0.5 * c_d(3) / (2 * x1) ** 2
        assert field[0] == pytest.approx(expected, rel=1e-12)
        assert abs(field[1]) < 1e-18 and abs(field[2]) < 1e-18

    def test_batch_two_body_far_from_wall_matches_softened_coulomb(self):
        a = np.array([5.0, 0.0, 0.0])
        b = np.array([5.0, 0.7, 0.0])
        e = ensemble([a, b], w=[1.0, 1.0])
        field = regularized(None, GreenKind.WHOLE_SPACE, e, e.x)
        diff = a - b
        # the whole-space route is the cut Green gradient; beyond 2 delta it
        # coincides with the bare Coulomb kernel
        expected = c_d(3) * diff / np.linalg.norm(diff) ** 3
        assert np.allclose(field[0], expected, rtol=1e-12)
        assert np.allclose(field[1], -expected, rtol=1e-12)

    def test_tile_size_and_repeat_determinism(self, monkeypatch):
        # every target row is summed on its own: no tiling can change a bit
        rng = np.random.default_rng(5)
        e = ensemble(np.c_[0.2 + rng.random(33), rng.standard_normal((33, 2))],
                     w=rng.random(33))
        ref = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, e.x)
        again = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, e.x)
        assert np.array_equal(ref, again)
        for tile in (1, 7, 32):
            monkeypatch.setattr(fields_module, "_CHUNK_TARGETS", tile)
            out = regularized(HS, GreenKind.HALF_SPACE_IMAGE, e, e.x)
            assert np.array_equal(ref, out)

    def test_problem_b_field_symmetry(self):
        # (E(x))' = E(x') for even-symmetrized ensembles
        rng = np.random.default_rng(6)
        base = ensemble(np.c_[0.2 + rng.random(10), rng.standard_normal((10, 2))],
                        v=rng.standard_normal((10, 3)), w=rng.random(10))
        sym = symmetrize(base)
        x = rng.standard_normal((40, 3))
        ex = field_problem_b(sym, PARAMS, x)
        xp = x.copy()
        xp[:, 0] = -xp[:, 0]
        exp = field_problem_b(sym, PARAMS, xp)
        flipped = ex.copy()
        flipped[:, 0] = -flipped[:, 0]
        assert np.allclose(exp, flipped, rtol=1e-12, atol=1e-16)

    def test_kernel_antisymmetry(self):
        rng = np.random.default_rng(7)
        dx = rng.standard_normal((100, 3))
        assert np.array_equal(kernel_plummer(0.1, -dx), -kernel_plummer(0.1, dx))


class TestInteractionEnergy:
    def test_single_particle_pure_self_image(self):
        x1 = 0.4
        e = ensemble([[x1, 0.0, 0.0]], w=[0.7])
        pe = interaction_energy(e, GreenKind.HALF_SPACE_IMAGE, HS, PARAMS)
        expected = 0.7**2 * (-cutoff_rbar(2 * x1 / PARAMS.delta)
                             * c_d(3) * (2 * x1) ** (-1.0))
        assert pe == pytest.approx(expected, rel=1e-14)

    def test_two_deep_particles_dominated_by_direct_term(self):
        # 4-term hand sum; interparticle distance well below wall distance
        a = np.array([100.0, 0.0, 0.0])
        b = np.array([100.0, 0.8, 0.0])
        e = ensemble([a, b], w=[0.5, 0.5])
        pe = interaction_energy(e, GreenKind.HALF_SPACE_IMAGE, HS, PARAMS)
        hand = 0.0
        for xi, wi in zip(e.x, e.w):
            for xj, wj in zip(e.x, e.w):
                hand += wi * wj * float(green_cut(
                    GreenKind.HALF_SPACE_IMAGE, HS, PARAMS, xi, xj))
        assert pe == pytest.approx(hand, rel=1e-13)
        direct = 2 * 0.5 * 0.5 * c_d(3) / 0.8
        assert pe == pytest.approx(direct, rel=0.05)
        assert abs(pe - direct) / abs(pe) < 0.05

    def test_empty_ensemble(self):
        e = Ensemble(x=np.zeros((0, 3)), v=np.zeros((0, 3)), w=np.zeros(0), domain=HS)
        assert interaction_energy(e, GreenKind.HALF_SPACE_IMAGE, HS, PARAMS) == 0.0

    def test_problem_b_route_uses_mollified_kernel(self):
        base = ensemble([[0.5, 0.0, 0.0]], w=[1.0])
        sym = symmetrize(base)
        pe = interaction_energy(sym, GreenKind.WHOLE_SPACE, None, PARAMS)
        eps = PARAMS.eps_mollify
        # signed double sum over the pair {x, x'}: 2 H_eps(0) - 2 H_eps(|x - x'|)
        expected = 2 * plummer_potential(3, eps, 0.0) - 2 * plummer_potential(3, eps, 1.0)
        assert pe == pytest.approx(float(expected), rel=1e-13)


class TestRegularizationParams:
    def test_positivity(self):
        with pytest.raises(ValueError, match="zeta"):
            RegularizationParams(0.1, 0.1, 0.0, 0.1)
        with pytest.raises(ValueError, match="delta"):
            RegularizationParams(0.1, 0.1, 0.1, -1.0)

    def test_ball_collar_constraint(self):
        params = RegularizationParams(0.1, 0.1, 0.6, 0.1)
        with pytest.raises(ValueError, match="collar"):
            params.validate_for_domain(Ball(3, 1.0))
        params.validate_for_domain(Ball(3, 10.0))
