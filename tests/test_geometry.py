import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specularvp.geometry import (
    Ball,
    ChartViolation,
    FlatteningMap,
    HalfSpace,
    reflect_velocity,
)


def random_unit_vectors(rng, n, d):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestReflection:
    def test_normal_component_flips(self):
        n = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(reflect_velocity(n, np.array([-3.0, 2.0, 0.0])),
                              np.array([3.0, 2.0, 0.0]))

    def test_tangential_velocity_is_fixed_point(self):
        n = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 5.0, 1.0])
        assert np.array_equal(reflect_velocity(n, v), v)

    def test_involution(self):
        rng = np.random.default_rng(0)
        n = random_unit_vectors(rng, 2000, 3)
        v = rng.standard_normal((2000, 3)) * 3.0
        rr = reflect_velocity(n, reflect_velocity(n, v))
        err = np.abs(rr - v).max(axis=1)
        assert np.all(err <= 4 * np.spacing(np.linalg.norm(v, axis=1)))

    def test_isometry_within_4_ulps(self):
        rng = np.random.default_rng(1)
        n = random_unit_vectors(rng, 2000, 4)
        v = rng.standard_normal((2000, 4))
        speed0 = np.linalg.norm(v, axis=1)
        speed1 = np.linalg.norm(reflect_velocity(n, v), axis=1)
        assert np.all(np.abs(speed1 - speed0) <= 4 * np.spacing(speed0))

    def test_tangential_part_preserved(self):
        rng = np.random.default_rng(2)
        n = random_unit_vectors(rng, 500, 3)
        v = rng.standard_normal((500, 3))
        r = reflect_velocity(n, v)
        tang_before = v - np.sum(v * n, axis=1, keepdims=True) * n
        tang_after = r - np.sum(r * n, axis=1, keepdims=True) * n
        assert np.allclose(tang_before, tang_after, rtol=1e-12, atol=1e-14)


class TestSignedDistance:
    def test_halfspace(self):
        assert HalfSpace(3).signed_distance(np.array([0.7, -1.0, 4.0])) == 0.7

    def test_ball_center_and_outside(self):
        ball = Ball(3, radius=2.0)
        assert ball.signed_distance(np.zeros(3)) == 2.0
        assert ball.signed_distance(np.array([3.0, 0.0, 0.0])) == -1.0

    def test_gradient_is_inward_normal(self):
        # finite differences of the distance against the analytic normal
        rng = np.random.default_rng(3)
        for domain in (HalfSpace(3), Ball(3, 1.5)):
            x = rng.standard_normal((50, 3)) * 0.3
            if isinstance(domain, Ball):
                x = 1.2 * x / np.linalg.norm(x, axis=1, keepdims=True)
            else:
                x[:, 0] = 0.1 + rng.random(50)
            h = 1e-6
            grad = np.empty_like(x)
            for j in range(3):
                dx = np.zeros(3)
                dx[j] = h
                grad[:, j] = (domain.signed_distance(x + dx)
                              - domain.signed_distance(x - dx)) / (2 * h)
            assert np.allclose(grad, domain.inward_normal(x), atol=1e-6)

    def test_dimension_and_radius_validation(self):
        with pytest.raises(ValueError):
            HalfSpace(2)
        with pytest.raises(ValueError):
            Ball(3, radius=0.0)
        with pytest.raises(ValueError):
            Ball(2, radius=1.0)


class TestBallProjection:
    @given(
        x=st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                   min_size=3, max_size=3).filter(lambda c: np.linalg.norm(c) > 1e-6),
        radius=st.sampled_from([1.0, 0.3, 2.5, 7.0]),
    )
    def test_projection_lands_on_the_closed_ball(self, x, radius):
        # rounding may put R x/|x| an ulp outside; the result must not be
        ball = Ball(3, radius)
        p = ball.project_boundary(np.array(x))
        ulp = np.spacing(radius)
        assert radius - 4 * ulp <= np.linalg.norm(p) <= radius
        assert ball.signed_distance(p) >= 0.0

    def test_batch_projection_never_reads_outside(self):
        rng = np.random.default_rng(11)
        ball = Ball(3, 1.0)
        p = ball.project_boundary(rng.normal(size=(20000, 3)))
        assert np.min(ball.signed_distance(p)) >= 0.0
        assert np.max(ball.signed_distance(p)) <= 4 * np.spacing(1.0)


def fd_jacobian(fm, x, h=1e-6):
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        dx = np.zeros(d)
        dx[j] = h
        J[:, j] = (fm.forward(x + dx) - fm.forward(x - dx)) / (2 * h)
    return J


def random_chart_points(rng, ball, n):
    # shell R/2 < |x| <= R avoiding the removed polar cap
    pts = np.empty((n, ball.dim))
    have = 0
    while have < n:
        u = rng.standard_normal((n, ball.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u = u[u[:, 0] > -0.45]
        r = ball.radius * (0.55 + 0.44 * rng.random(len(u)))
        cand = r[:, None] * u
        take = min(len(cand), n - have)
        pts[have:have + take] = cand[:take]
        have += take
    return pts


class TestFlatteningMap:
    def test_halfspace_is_identity(self):
        fm = FlatteningMap(HalfSpace(3))
        x = np.array([0.3, -1.0, 2.0])
        y, J = fm.flatten(x)
        assert np.array_equal(y, x)
        assert np.array_equal(J, np.eye(3))

    def test_boundary_maps_to_zero_height(self):
        ball = Ball(3, 1.0)
        fm = FlatteningMap(ball)
        y = fm.forward(np.array([1.0, 0.0, 0.0]))
        assert y[0] == pytest.approx(0.0, abs=1e-15)

    def test_first_coordinate_is_distance(self):
        ball = Ball(3, 1.0)
        fm = FlatteningMap(ball)
        rng = np.random.default_rng(4)
        for x in random_chart_points(rng, ball, 20):
            assert fm.forward(x)[0] == pytest.approx(ball.signed_distance(x), rel=1e-13)

    def test_jacobian_against_finite_differences(self):
        ball = Ball(3, 1.0)
        fm = FlatteningMap(ball)
        x = np.array([0.9, 0.0, 0.0])
        assert np.allclose(fm.jacobian(x), fd_jacobian(fm, x), atol=1e-8)
        rng = np.random.default_rng(5)
        for x in random_chart_points(rng, ball, 10):
            assert np.allclose(fm.jacobian(x), fd_jacobian(fm, x), atol=1e-7)

    def test_normal_identities_at_random_chart_points(self):
        # J n(x) = e_1 and v . n(x) = J v . e_1 at 10^3 chart points
        ball = Ball(3, 1.3)
        fm = FlatteningMap(ball)
        rng = np.random.default_rng(6)
        pts = random_chart_points(rng, ball, 1000)
        J = fm.jacobian(pts)
        n = ball.inward_normal(pts)
        jn = np.einsum("kij,kj->ki", J, n)
        e1 = np.zeros_like(jn)
        e1[:, 0] = 1.0
        assert np.abs(jn - e1).max() < 1e-8
        v = rng.standard_normal((1000, 3))
        lhs = np.sum(v * n, axis=1)
        rhs = np.einsum("kij,kj->ki", J, v)[:, 0]
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_roundtrip_and_det_bounds(self):
        ball = Ball(4, 1.0)
        fm = FlatteningMap(ball)
        rng = np.random.default_rng(7)
        pts = random_chart_points(rng, ball, 200)
        back = fm.inverse(fm.forward(pts))
        assert np.abs(back - pts).max() < 1e-10 * ball.radius
        det = fm.jacobian_det(pts)
        assert np.all(det > 0)
        assert np.all((det > 1e-2) & (det < 1e2))

    def test_chart_violation(self):
        fm = FlatteningMap(Ball(3, 1.0))
        with pytest.raises(ChartViolation):
            fm.forward(np.array([0.1, 0.0, 0.0]))
        with pytest.raises(ChartViolation):
            fm.forward(np.array([-0.9, 0.01, 0.0]))
