from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from specularvp import fields
from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import (
    GreenKind,
    RegularizationParams,
    field_model,
    make_field_factory,
)
from specularvp.flow import (
    NonFiniteState,
    ReflectionOverflow,
    StepperConfig,
    _first_exit,
    _real_roots,
    fold_halfspace,
    integrate,
    step,
)
from specularvp.geometry import Ball, HalfSpace

HS = HalfSpace(3)
BALL = Ball(3, 1.0)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.05, delta=0.05)


def mollified_image(ens):
    """Problem A's mollified half-space field of ens: the softened kernel
    against the odd-reflected density."""
    return field_model(ens.domain, GreenKind.HALF_SPACE_MOLLIFIED, ens.frame, PARAMS).bind(ens)


def zero_field(x):
    return np.zeros_like(x)


def constant_field(g):
    g = np.asarray(g, float)

    def field(x):
        return np.tile(g, (len(x), 1))
    return field


def uniform_field(g):
    return constant_field([-g, 0.0, 0.0])


def particle(x, v, w=1.0, domain=HS, frame=Frame.PROBLEM_A):
    return Ensemble(x=np.atleast_2d(np.asarray(x, float)),
                    v=np.atleast_2d(np.asarray(v, float)),
                    w=np.atleast_1d(np.asarray(w, float)),
                    domain=domain, frame=frame)


class TestStep:
    def test_free_streaming_bounce(self):
        e = particle([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
        out, events, _ = step(e, zero_field, StepperConfig(dt=2.0))
        assert np.array_equal(out.x[0], [1.0, 0.0, 0.0])
        assert np.array_equal(out.v[0], [1.0, 0.0, 0.0])
        assert len(events) == 1
        assert events[0].t == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(events[0].x, [0.0, 0.0, 0.0])

    def test_free_streaming_no_boundary(self):
        e = particle([2.0, 0.0, 0.0], [0.5, 1.0, -0.5])
        out, events, _ = step(e, zero_field, StepperConfig(dt=0.25))
        assert events == []
        assert np.array_equal(out.x[0], e.x[0] + 0.25 * e.v[0])

    def test_bouncing_ball_period_closed_form(self):
        # uniform field toward the wall: drop from rest at h, period 2 v0/g
        g, h = 0.5, 1.0
        e = particle([h, 0.0, 0.0], [0.0, 0.0, 0.0])
        fac = lambda ens: uniform_field(g)
        rec = integrate(e, fac, StepperConfig(dt=1e-3), 8.0)
        v0 = np.sqrt(2 * g * h)
        expected = [np.sqrt(2 * h / g), np.sqrt(2 * h / g) + 2 * v0 / g]
        times = [ev.t for ev in rec.events]
        assert len(times) == 2
        assert times[0] == pytest.approx(expected[0], abs=1e-10)
        assert times[1] - times[0] == pytest.approx(2 * v0 / g, abs=1e-10)

    def test_speed_preserved_at_events(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = np.array([0.2 + rng.random(), *rng.normal(size=2)])
            v = rng.normal(size=3) * 2
            v[0] = -abs(v[0]) - 0.5
            e = particle(x, v)
            _, events, _ = step(e, zero_field, StepperConfig(dt=2.0))
            for ev in events:
                s_minus = np.linalg.norm(ev.v_minus)
                s_plus = np.linalg.norm(ev.v_plus)
                assert abs(s_plus - s_minus) <= 4 * np.spacing(s_minus)
                jump = ev.v_plus - ev.v_minus
                n = HS.inward_normal(ev.x)
                tang = jump - np.dot(jump, n) * n
                assert np.linalg.norm(tang) <= 1e-12 * s_minus


def free_flight(x, v, dt, domain, max_reflections=8):
    """One particle's step of dt in a zero field: the event sub-stepper's
    bounces off the domain; returns (x, v, events)."""
    out, events, _ = step(particle(x, v, domain=domain), zero_field,
                          StepperConfig(dt=dt, max_reflections_per_step=max_reflections))
    return out.x[0], out.v[0], events


class TestHandleReflection:
    """The event sub-stepper through a one-particle step in a zero field."""

    def test_straight_segment_hits_wall(self):
        x, v, events = free_flight([0.5, 0.0, 0.0], [-1.0, 2.0, 0.0], 1.0, HS)
        assert len(events) == 1
        assert events[0].t == pytest.approx(0.5, abs=1e-12)
        assert events[0].x[0] == 0.0
        assert np.linalg.norm(events[0].v_plus) == pytest.approx(
            np.linalg.norm(events[0].v_minus), rel=1e-15)
        assert x[0] == pytest.approx(0.5, abs=1e-12)

    def test_ball_radial_infall_reverses(self):
        x, v, events = free_flight([0.5, 0.0, 0.0], [2.0, 0.0, 0.0], 1.0, BALL)
        assert len(events) == 1
        assert np.allclose(events[0].v_plus, [-2.0, 0.0, 0.0], rtol=1e-12)
        assert np.allclose(x, [-0.5, 0.0, 0.0], atol=1e-12)

    def test_double_bounce_matches_tiny_dt_reference(self):
        # near-tangential chord in the ball: two bounces within one long step
        x0 = np.array([0.9, 0.0, 0.0])
        v0 = np.array([0.3, 1.2, 0.0])
        dt = 1.2
        x, v, events = free_flight(x0, v0, dt, BALL, max_reflections=8)
        assert len(events) == 2
        assert events[0].t < events[1].t
        # reference: many explicit micro-steps through the same free flight
        e = particle(x0, v0, domain=BALL)
        rec = integrate(e, lambda ens: zero_field, StepperConfig(dt=dt / 20000), dt)
        assert np.allclose(rec.final.x[0], x, atol=1e-9)
        assert np.allclose(rec.final.v[0], v, atol=1e-9)

    def test_reflection_overflow(self):
        x0 = np.array([0.9, 0.0, 0.0])
        v0 = np.array([0.3, 1.2, 0.0])
        with pytest.raises(ReflectionOverflow):
            free_flight(x0, v0, 10.0, BALL, max_reflections=2)

    def test_overflow_names_the_lowest_index(self):
        # particles 1 and 3 run the same near-tangential chord and both
        # overflow; the error names particle 1, whatever order they advance in
        chord = ([0.9, 0.0, 0.0], [0.3, 1.2, 0.0])
        e = Ensemble(x=np.array([[0.0, 0.0, 0.0], chord[0], [0.1, 0.0, 0.0], chord[0]]),
                     v=np.array([[0.1, 0.0, 0.0], chord[1], [0.0, 0.1, 0.0],
                                 [0.6, 2.4, 0.0]]),
                     w=np.ones(4), domain=BALL)
        with pytest.raises(ReflectionOverflow, match="particle 1 exceeded"):
            step(e, zero_field, StepperConfig(dt=10.0, max_reflections_per_step=2))

    def test_grazing_passes_through(self):
        # v . n = 0 exactly on the plane: no event, stays on the plane
        e = particle([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        out, events, _ = step(e, zero_field, StepperConfig(dt=1.0))
        assert events == []
        assert out.x[0, 0] == 0.0
        assert np.array_equal(out.v[0], [0.0, 1.0, 0.0])

    def test_rest_on_the_wall_slides_under_an_outward_field(self):
        # v = 0 on the wall is in the grazing set; pushed into the wall by
        # E = (-1, 1/2, 0) the particle slides along it, x_2 = t^2/4, rather
        # than recording a null bounce (v- = v+ = 0) and stopping every step
        e = particle([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        events = []
        for k in range(10):
            e, evts, _ = step(e, constant_field([-1.0, 0.5, 0.0]), StepperConfig(dt=0.1),
                              t0=0.1 * k)
            events.extend(evts)
        assert e.x[0, 0] == 0.0
        assert e.x[0, 1] == pytest.approx(0.25, rel=1e-14)
        assert not any(np.array_equal(ev.v_minus, ev.v_plus) for ev in events)


class TestBilliards:
    def test_chord_reflection_angles(self):
        # specular billiard: incidence equals reflection against the sphere normal
        rng = np.random.default_rng(1)
        for _ in range(20):
            x0 = rng.normal(size=3)
            x0 = 0.3 * x0 / np.linalg.norm(x0)
            v0 = rng.normal(size=3)
            v0 /= np.linalg.norm(v0)
            _, _, events = free_flight(x0, v0, 3.0, BALL)
            assert events
            ev = events[0]
            n = BALL.inward_normal(ev.x)
            cos_in = -np.dot(ev.v_minus, n)
            cos_out = np.dot(ev.v_plus, n)
            assert abs(cos_in - cos_out) < 1e-10


class TestMissedExcursion:
    """Paths that leave the domain and come back within one step."""

    def test_halfspace_dip_between_probe_points_bounces(self):
        # x_1(s) = 0.01 - s + 2 s^2 dips to -0.115 at s = 1/4 and is back
        # above the wall at s = 1/2 and s = 1
        e = particle([0.01, 0.0, 0.0], [-1.0, 0.0, 0.0])
        out, events, _ = step(e, constant_field([4.0, 0.0, 0.0]), StepperConfig(dt=1.0))
        s = (1.0 - np.sqrt(0.92)) / 4.0
        assert len(events) == 1
        assert events[0].t == pytest.approx(s, abs=1e-15)
        assert events[0].x[0] == 0.0
        # after the bounce the particle leaves with 1 - 4 s along +e_1
        rest = 1.0 - s
        assert out.x[0, 0] == pytest.approx((1.0 - 4.0 * s) * rest + 2.0 * rest**2, abs=1e-13)
        assert out.v[0, 0] == pytest.approx(1.0 - 4.0 * s + 4.0 * rest, abs=1e-13)

    def test_ball_bulge_between_probe_points_bounces(self):
        # x_1(s) = 0.99 + s - 4 s^2 reaches 1.0525 at s = 1/8
        e = particle([0.99, 0.0, 0.0], [1.0, 0.0, 0.0], domain=BALL)
        out, events, _ = step(e, constant_field([-8.0, 0.0, 0.0]), StepperConfig(dt=0.5))
        assert len(events) == 1
        assert events[0].t == pytest.approx((1.0 - np.sqrt(0.84)) / 8.0, abs=1e-14)
        assert 0.0 <= BALL.signed_distance(events[0].x) <= 4 * np.spacing(1.0)
        assert BALL.signed_distance(out.x[0]) >= 0.0

    def test_fold_twin_crosses_the_plane_and_equals_the_bounce(self):
        base = particle([0.01, 0.2, -0.1], [-1.0, 0.3, 0.5])
        half = constant_field([4.0, 0.0, 0.0])

        def whole(x):
            # odd extension of the half-space field, upper branch on the plane
            out = np.zeros_like(x)
            out[:, 0] = np.where(x[:, 0] >= 0.0, 4.0, -4.0)
            return out
        whole.plane_split = True

        cfg = StepperConfig(dt=1.0)
        evt, events, _ = step(base, half, cfg)
        fold, _, _ = step(symmetrize(base), whole, cfg)
        assert len(events) == 1
        assert fold.x[0, 0] < 0.0 < fold.x[1, 0]
        for i in (0, 1):
            xf, vf = fold_halfspace(fold.x[i:i + 1], fold.v[i:i + 1])
            assert np.array_equal(xf, evt.x) and np.array_equal(vf, evt.v)

    def test_reaching_the_wall_at_the_step_end_is_not_an_event(self):
        e = particle([0.25, 0.0, 0.0], [-1.0, 0.0, 0.0])
        cfg = StepperConfig(dt=0.25)
        out, events, _ = step(e, zero_field, cfg)
        assert events == [] and out.x[0, 0] == 0.0
        # the next step starts on the wall moving out: it bounces at once
        out, events, _ = step(out, zero_field, cfg, t0=0.25)
        assert [ev.t for ev in events] == [0.25]
        assert np.array_equal(out.x[0], [0.25, 0.0, 0.0])

    def test_start_on_the_wall_moving_inward_bounces_only_on_return(self):
        # x_1(s) = s - 2 s^2 leaves the wall at s = 0 and comes back at s = 1/2
        e = particle([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        out, events, _ = step(e, constant_field([-4.0, 0.0, 0.0]), StepperConfig(dt=1.0))
        assert [ev.t for ev in events] == [0.5]
        assert np.array_equal(out.x[0], [0.0, 0.0, 0.0])
        assert np.array_equal(out.v[0], [-1.0, 0.0, 0.0])


def reference_bounces(domain, x, v, g, dt):
    """Bounce count of the constant-field billiard over dt, from a fine grid.

    Each parabola piece is sampled on a grid; the first sample outside
    brackets the exit, which brentq refines.  Returns None for a draw too
    close to a tangency, a grazing hit or a piece end to count reliably.
    """
    x, v = np.array(x, float), np.array(v, float)
    remaining, count = dt, 0
    while count < 8:
        def dist(s, x=x, v=v):
            return float(domain.signed_distance(x + s * v + 0.5 * s * s * g))
        s = np.linspace(0.0, remaining, 20001)
        d = domain.signed_distance(x + s[:, None] * v + 0.5 * (s * s)[:, None] * g)
        out = np.flatnonzero(d[1:] < 0.0)
        stop = out[0] + 1 if len(out) else len(s) - 1
        inner = d[1:stop]
        dips = (inner[1:-1] <= inner[:-2]) & (inner[1:-1] <= inner[2:]) & (inner[1:-1] < 1e-6)
        if dips.any() or abs(d[-1]) < 1e-6:
            return None
        if not len(out):
            return count
        hit = brentq(dist, s[stop - 1], s[stop], xtol=1e-15)
        if hit > remaining - 1e-9:
            return None
        x_hit = x + hit * v + 0.5 * hit * hit * g
        v_minus = v + hit * g
        n = domain.inward_normal(x_hit)
        if abs(np.dot(v_minus, n)) < 1e-3 * np.linalg.norm(v_minus):
            return None
        x, v = x_hit, v_minus - 2.0 * np.dot(v_minus, n) * n
        remaining -= hit
        count += 1
    return None


coord = st.floats(-1.0, 1.0)
vec3 = st.tuples(coord, coord, coord).map(np.array)


@st.composite
def start_in(draw, domain):
    if domain is HS:
        return np.array([draw(st.floats(1e-3, 1.0)), draw(coord), draw(coord)])
    p = draw(vec3)
    assume(np.linalg.norm(p) <= 0.95)
    return p


class TestEventProperties:
    """One step of a constant-field billiard against an independent count."""

    @pytest.mark.parametrize("domain", [HS, BALL], ids=["halfspace", "ball"])
    @given(data=st.data())
    def test_events_match_a_fine_grid_reference(self, domain, data):
        x = data.draw(start_in(domain))
        v = 3.0 * data.draw(vec3)
        g = 10.0 * data.draw(vec3)
        dt = data.draw(st.floats(0.05, 1.0))
        expected = reference_bounces(domain, x, v, g, dt)
        assume(expected is not None)
        event(f"{expected} bounces")
        e = particle(x, v, domain=domain)
        out, events, _ = step(e, constant_field(g), StepperConfig(dt=dt))
        assert len(events) == expected
        for ev in events:
            assert 0.0 <= domain.signed_distance(ev.x) <= 4 * np.spacing(domain.scale)
        assert domain.signed_distance(out.x[0]) >= 0.0
        Ensemble(x=out.x, v=out.v, w=out.w, domain=domain)

    @pytest.mark.parametrize("domain", [HS, BALL], ids=["halfspace", "ball"])
    @given(data=st.data())
    def test_grazing_start_records_no_event(self, domain, data):
        # a tangential start on the wall (v . n = 0); in the ball the path
        # must leave the wall at once, or it may bounce later in the step.
        # A start an ulp inside the sphere is not on the wall: its tangent
        # chord meets the sphere at an angle of about 1e-8, far above the
        # grazing set, and it bounces.
        u = data.draw(vec3)
        assume(np.linalg.norm(u) > 0.1)
        x = domain.project_boundary(u / np.linalg.norm(u))
        assume(domain.signed_distance(x) == 0.0)
        n = domain.inward_normal(x)
        v = 3.0 * data.draw(vec3)
        v = v - np.dot(v, n) * n
        g = 10.0 * data.draw(vec3)
        dt = data.draw(st.floats(0.05, 1.0))
        assume(np.linalg.norm(v) > 0.1)
        assume(domain is HS or np.dot(v, v) - domain.radius * np.dot(g, n) > 0.1)
        e = particle(x, v, domain=domain)
        out, events, _ = step(e, constant_field(g), StepperConfig(dt=dt))
        assert events == []
        assert domain.signed_distance(out.x[0]) >= 0.0
        Ensemble(x=out.x, v=out.v, w=out.w, domain=domain)


def exit_rows(rng, domain, k):
    """k locator rows (x, v, e, h) against the wall of ``domain``: starts in
    the bulk, on the wall and an ulp inside; no field (the ball's distance is
    then a quadratic), a moderate and a strong one; free, tangent (v . n = 0
    at the start) and arriving paths, which reach the wall at theta = 1 or
    within a relative 1e-15 or 1e-9 of it; h from 1e-6 to 1."""
    rows = []
    for _ in range(k):
        dim, h = domain.dim, 10.0 ** rng.uniform(-6.0, 0.0)
        e = rng.choice([0.0, 3.0, 30.0]) * rng.standard_normal(dim)
        u = rng.standard_normal(dim)
        if isinstance(domain, HalfSpace):
            x = np.r_[rng.uniform(0.0, 1.0), u[1:]]
        else:
            x = rng.uniform(0.0, 1.0) * u / np.linalg.norm(u)
        start = rng.integers(3)
        if start:
            x = domain.project_boundary(x)
        if start == 2:  # an ulp inside
            x = np.r_[np.nextafter(0.0, 1.0), x[1:]] if isinstance(domain, HalfSpace) \
                else x * (1.0 - np.finfo(float).eps)
        v = 3.0 * rng.standard_normal(dim)
        path = rng.integers(3)
        if path == 1:
            nrm = domain.inward_normal(x)
            v -= np.dot(v, nrm) * nrm
        elif path == 2:
            end = domain.project_boundary(x + rng.standard_normal(dim))
            v = (end - x - 0.5 * h * h * e) / h * (1.0 + rng.choice([0.0, 1e-15, -1e-15, 1e-9, -1e-9]))
        rows.append((x, v, e, h))
    return tuple(np.array(a) for a in zip(*rows))


class TestFirstExit:
    """The compiled locator is the Python one, and its roots are the
    polynomial's."""

    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("wall", ["halfspace", "ball"])
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 30))
    def test_compiled_locator_is_the_python_one_bitwise(self, wall, dim, seed, k):
        assert fields._load_kernel() is not None
        domain = HalfSpace(dim) if wall == "halfspace" else Ball(dim, 1.0)
        rows = exit_rows(np.random.default_rng(seed), domain, k)
        compiled = _first_exit(domain, *rows)
        with mock.patch.object(fields, "_load_kernel", lambda: None):
            reference = _first_exit(domain, *rows)
        event(f"{int(np.sum(~np.isnan(compiled)))} of {k} rows exit")
        assert compiled.tobytes() == reference.tobytes()

    @given(first=st.integers(1, 4095), gaps=st.lists(st.integers(5, 2000), max_size=3),
           rest=st.sampled_from(["real", "complex"]), far=st.lists(st.integers(1025, 4095),
                                                                   min_size=4, max_size=4),
           signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
           scale=st.integers(-10, 10))
    def test_isolated_roots_are_the_quartics_roots(self, first, gaps, rest, far, signs, scale):
        # roots on the 2^-12 grid, at least 5 / 4096 apart in (0, 1), and the
        # rest beyond [-1, 1] or a complex pair: the coefficients are exact.
        # A root comes back within 1e-12, or within the width 4 eps kappa
        # where p's rounding hides its sign, kappa = sum |c_j| r^j / |p'(r)|
        # (roots 1e-3 apart in a cluster of three or four are that ill
        # conditioned)
        inside = [k / 4096 for k in np.cumsum([first, *gaps]) if k < 4096]
        outside = [s * m / 1024 for s, m in zip(signs, far)][:4 - len(inside)]
        c = np.polynomial.polynomial.polyfromroots(inside) * (signs[0] * 2.0 ** scale)
        if rest == "complex" and len(outside) >= 2:
            a, b = outside[0] / 16, far[1] / 4096  # (t - a)^2 + b^2
            outside = [(a * a + b * b, -2.0 * a, 1.0), *[(-r, 1.0) for r in outside[2:]]]
        else:
            outside = [(-r, 1.0) for r in outside]
        for factor in outside:
            c = np.polynomial.polynomial.polymul(c, factor)
        c = c.tolist()
        found = sorted(r for r in _real_roots(c) if 0.0 < r < 1.0)
        assert len(found) == len(inside)
        slope = np.polynomial.polynomial.polyder(c)
        for got, r in zip(found, inside):
            kappa = sum(abs(cj) * r**j for j, cj in enumerate(c)) / abs(
                np.polynomial.polynomial.polyval(r, slope))
            assert abs(got - r) <= max(1e-12, 4.0 * np.finfo(float).eps * kappa)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_a_touch_of_the_wall_is_not_an_exit(self, compiled):
        # x_1 = x0 + s - s^2 turns at s = 1/2, where it reaches x0 + 1/4.
        # From x0 = 3/4 it touches the unit sphere there: 1 - x_1^2 has a
        # double root at 1/2 and is positive around it, so the path stays.
        # From an x0 2^-20 further out it leaves at 1/2 - 2^-10; from one
        # 2^-20 further in it stays.
        loader = fields._load_kernel if compiled else (lambda: None)
        theta = []
        with mock.patch.object(fields, "_load_kernel", loader):
            for dx in (0.0, 2.0**-20, -(2.0**-20)):
                theta += _first_exit(BALL, np.array([[0.75 + dx, 0.0, 0.0]]),
                                     np.array([[1.0, 0.0, 0.0]]), np.array([[-2.0, 0.0, 0.0]]),
                                     np.array([1.0])).tolist()
        assert np.isnan(theta[0]) and np.isnan(theta[2])
        assert abs(theta[1] - (0.5 - 2.0**-10)) <= 1e-12


def affine_field(a, b):
    """E(x) = A x + b, summed elementwise so each row's bits depend on that row alone."""
    def field(x):
        out = np.tile(b, (len(x), 1))
        for j in range(x.shape[1]):
            out += x[:, j:j + 1] * a[:, j]
        return out
    return field


def draw_cloud(rng, wall, dim, k):
    """k starts near the wall (or the fold plane) with fast velocities."""
    x = rng.uniform(-0.5, 0.5, size=(k, dim))
    if wall == "halfspace":
        x[:, 0] = rng.uniform(1e-3, 0.5, size=k)
    elif wall == "ball":
        r = rng.uniform(0.5, 0.99, size=(k, 1))
        x = r * x / np.linalg.norm(x, axis=1, keepdims=True)
    return x, 3.0 * rng.standard_normal((k, dim))


class TestBatchInvariance:
    """Particles step independently: k at once equal k steps of one, bitwise."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("wall", ["halfspace", "ball", "fold"])
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), dt=st.floats(0.05, 1.0))
    def test_k_particles_step_as_k_single_steps(self, wall, dim, seed, k, dt):
        rng = np.random.default_rng(seed)
        x, v = draw_cloud(rng, wall, dim, k)
        field = affine_field(5.0 * rng.standard_normal((dim, dim)),
                             10.0 * rng.standard_normal(dim))
        cfg = StepperConfig(dt=dt, frozen_field=True)
        if wall == "fold":
            field.plane_split = True
            domain, frame = HalfSpace(dim), Frame.PROBLEM_B
        else:
            domain = HalfSpace(dim) if wall == "halfspace" else Ball(dim, 1.0)
            frame = Frame.PROBLEM_A

        def run(rows):
            e = Ensemble(x=x[rows], v=v[rows], w=np.ones(len(rows)), domain=domain,
                         frame=frame)
            out, events, _ = step(e, field, cfg, t0=0.5)
            return out, [((rows[ev.particle], ev.t), ev)
                         for ev in sorted(events, key=lambda ev: (ev.particle, ev.t))]

        singles = []
        for i in range(k):
            try:
                singles.append(run([i]))
            except ReflectionOverflow:
                # the lowest overflowing particle is named
                event("overflow")
                with pytest.raises(ReflectionOverflow, match=f"particle {i} exceeded"):
                    run(list(range(k)))
                return
        out, events = run(list(range(k)))
        if wall == "fold":
            event(f"{int(np.sum((out.x[:, 0] < 0.0) != (x[:, 0] < 0.0)))} plane crossings")
        else:
            event(f"{len(events)} events")
        assert np.array_equal(out.x, np.concatenate([o.x for o, _ in singles]))
        assert np.array_equal(out.v, np.concatenate([o.v for o, _ in singles]))
        expected = [item for _, evs in singles for item in evs]
        assert [key for key, _ in events] == [key for key, _ in expected]
        for (_, ev), (_, ref) in zip(events, expected):
            for a in ("x", "v_minus", "v_plus"):
                assert np.array_equal(getattr(ev, a), getattr(ref, a))


class TestEventDirection:
    """A recorded bounce arrives from inside: v_minus points out of the domain."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("wall", ["halfspace", "ball"])
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), dt=st.floats(0.05, 1.0))
    @example(seed=0, k=2, dt=1.0)
    def test_no_inward_event_and_no_cancelling_pair(self, wall, dim, seed, k, dt):
        # with seed 0, k = 2, dt = 1 in the d = 3 half-space, particle 1 hits
        # the wall with a KDK velocity that already points inward; reflecting
        # it sent it out, and a second event at the same time undid the first
        rng = np.random.default_rng(seed)
        x, v = draw_cloud(rng, wall, dim, k)
        field = affine_field(5.0 * rng.standard_normal((dim, dim)),
                             10.0 * rng.standard_normal(dim))
        domain = HalfSpace(dim) if wall == "halfspace" else Ball(dim, 1.0)
        e = Ensemble(x=x, v=v, w=np.ones(k), domain=domain)
        try:
            _, events, _ = step(e, field, StepperConfig(dt=dt, frozen_field=True), t0=0.5)
        except ReflectionOverflow:
            event("overflow")
            return
        event(f"{len(events)} events")
        for ev in events:
            assert np.dot(ev.v_minus, domain.inward_normal(ev.x)) < 0.0
        keys = [(ev.particle, ev.t) for ev in events]
        assert len(set(keys)) == len(keys)


# A reversed run misses its start by at most C eps (1 + bounces) scale, with
# scale the largest |x| or |v| component on the way.  C is ten times the
# largest ratio, 3.0, measured before any draw on 8 particles, v = 3 N(0, 1),
# dt = 1e-2, 400 steps each way, seeds 0-2: the half-space with E = (-2, 0, 0)
# in d = 3 and no field in d = 4, the unit ball with E = 0.7 x in d = 3 and no
# field in d = 4.  The draws keep to fields of that strength: the bound has
# no term for the flow's own amplification of rounding, which reaches ratios
# of 51 for |E| near 15 on paths skimming the sphere.
REVERSAL_C = 32.0


# The fold's reversed runs keep the same form, with plane crossings for
# bounces and their own constant: ten times the largest ratio, 5.3, measured
# before any draw on 8 particles symmetrized to 16, v = 3 N(0, 1), dt = 1e-2,
# 400 steps each way, seeds 0-2, d = 3 and 4, in no field, E = c x with
# c = 0.7 and -1, and E_1 = c sgn(x_1) with c = 2 and -2.  The largest came
# from E = 0.7 x, which amplifies rounding as the cloud spreads; every mirror
# pair held bitwise.
FOLD_REVERSAL_C = 53.0


# In the self-consistent half-space image field the identity holds where
# every crossing row feels no field.  16 particles of draw_cloud(seed 3),
# w = 2/16, zeta = 0.1, T = 0.8 cross only inside the zeta-shell, where the
# boundary cutoff makes the field 0, with 6 bounces each way.  Measured
# before the test: max |dx| of 6.1e-16 to 1.3e-15 and max |dv| of 8.9e-16 to
# 1.3e-15 for dt = 4e-3, 2e-3, 1e-3 and 5e-4, at most 0.78 eps scale with
# scale = 7.66, the largest |x| or |v| component; the bound is ten times that.
IMAGE_REVERSAL_C = 8.0


def there_and_back(e, field, cfg, n, count):
    """n steps, a velocity reversal, n steps and a reversal; returns the end,
    each way's sum of count(before, after, events) over its steps, and the
    largest |x| or |v| component on the way."""
    scale, counts = max(np.abs(e.x).max(), np.abs(e.v).max(), 1.0), []
    for _ in range(2):
        counts.append(0)
        for _ in range(n):
            new, events, _ = step(e, field, cfg)
            counts[-1] += count(e, new, events)
            e = new
            scale = max(scale, np.abs(e.x).max(), np.abs(e.v).max())
        e = e.with_state(v=-e.v)
    return e, counts, scale


class TestTimeReversal:
    """KDK is symmetric and a specular bounce is its own inverse, so in a
    static field n steps, a velocity reversal, n steps and a reversal come
    back to the start to rounding, with as many bounces each way."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("wall", ["halfspace", "ball"])
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["zero", "constant", "linear"]),
           k=st.integers(1, 4), n=st.integers(1, 40), dt=st.floats(1e-3, 0.1))
    def test_reversed_run_returns_to_its_start(self, wall, dim, seed, kind, k, n, dt):
        rng = np.random.default_rng(seed)
        x, v = draw_cloud(rng, wall, dim, k)
        domain = HalfSpace(dim) if wall == "halfspace" else Ball(dim, 1.0)
        field = {"zero": zero_field,
                 "constant": constant_field(rng.uniform(-2.0, 2.0, dim)),
                 "linear": affine_field(rng.uniform(-1.0, 1.0) * np.eye(dim), np.zeros(dim)),
                 }[kind]
        cfg = StepperConfig(dt=dt, max_reflections_per_step=50)
        e, bounces, scale = there_and_back(Ensemble(x=x, v=v, w=np.ones(k), domain=domain),
                                           field, cfg, n, lambda a, b, events: len(events))
        event(f"{bounces[0]} bounces each way")
        assert bounces[0] == bounces[1]
        bound = REVERSAL_C * np.finfo(float).eps * (1 + bounces[0]) * scale
        assert np.abs(e.x - x).max() <= bound
        assert np.abs(e.v - v).max() <= bound

    @pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3, 5e-4])
    def test_reversed_image_run_returns_to_its_start(self, dt):
        x, v = draw_cloud(np.random.default_rng(3), "halfspace", 3, 16)
        factory = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, RegularizationParams(
            eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1))
        cfg = StepperConfig(dt=dt, max_reflections_per_step=50)
        there = integrate(Ensemble(x=x, v=v, w=np.full(16, 2 / 16), domain=HS), factory, cfg,
                          0.8)
        back = integrate(there.final.with_state(v=-there.final.v), factory, cfg, 0.8)
        assert len(there.events) == len(back.events) == 6
        assert not any(ev.e.any() for ev in there.events + back.events)
        scale = max(np.abs(a).max() for run in (there, back) for _, s in run.snapshots
                    for a in (s.x, s.v))
        bound = IMAGE_REVERSAL_C * np.finfo(float).eps * scale
        assert np.abs(back.final.x - x).max() <= bound
        assert np.abs(back.final.v + v).max() <= bound

    @pytest.mark.parametrize("dim", [3, 4])
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["zero", "linear", "sign"]),
           k=st.integers(1, 4), n=st.integers(1, 40), dt=st.floats(1e-3, 0.1))
    def test_reversed_fold_run_returns_to_its_start(self, dim, seed, kind, k, n, dt):
        # a symmetrized cloud in a hard-sign field steps in folded coordinates,
        # where the plane is a wall; each field is mirror-consistent, so at a
        # folded point it is the folded field
        rng = np.random.default_rng(seed)
        x, v = draw_cloud(rng, "halfspace", dim, k)
        sym = symmetrize(Ensemble(x=x, v=v, w=np.ones(k), domain=HalfSpace(dim)))
        c = rng.uniform(-1.0, 1.0)
        field = {"zero": lambda x: np.zeros_like(x),
                 "linear": affine_field(c * np.eye(dim), np.zeros(dim)),
                 "sign": lambda x: np.c_[np.where(x[:, 0] < 0.0, -2.0 * c, 2.0 * c),
                                         np.zeros((len(x), dim - 1))],
                 }[kind]
        field.plane_split = True

        def crossings(a, b, events):
            assert events == []  # a plane pass is no event
            return int(np.sum((a.x[:k, 0] < 0.0) != (b.x[:k, 0] < 0.0)))

        cfg = StepperConfig(dt=dt, max_reflections_per_step=50)
        e, passes, scale = there_and_back(sym, field, cfg, n, crossings)
        event(f"{passes[0]} plane crossings each way")
        assert passes[0] == passes[1]
        bound = FOLD_REVERSAL_C * np.finfo(float).eps * (1 + passes[0]) * scale
        assert np.abs(e.x - sym.x).max() <= bound
        assert np.abs(e.v - sym.v).max() <= bound
        flip = np.r_[-1.0, np.ones(dim - 1)]
        assert np.array_equal(e.x[k:], flip * e.x[:k])
        assert np.array_equal(e.v[k:], flip * e.v[:k])


class TestIntegrate:
    def test_zero_time_returns_initial(self):
        e = particle([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        rec = integrate(e, lambda ens: zero_field, StepperConfig(dt=0.1), 0.0)
        assert rec.final is e
        assert len(rec.snapshots) == 1
        assert rec.events == []

    def test_richardson_second_order_on_smooth_segments(self):
        def fac(ens):
            def field(x):
                out = np.zeros_like(x)
                out[:, 0] = -0.2 - 0.1 * x[:, 0] ** 2
                out[:, 1] = 0.05 * np.sin(x[:, 1])
                return out
            return field

        e = particle([2.0, 0.3, 0.0], [0.1, 0.4, -0.2])
        ref = integrate(e, fac, StepperConfig(dt=1e-5), 1.0)
        zr = np.concatenate([ref.final.x[0], ref.final.v[0]])
        errs = []
        for dt in (2e-3, 1e-3):
            rec = integrate(e, fac, StepperConfig(dt=dt), 1.0)
            errs.append(np.linalg.norm(np.concatenate(
                [rec.final.x[0], rec.final.v[0]]) - zr))
        assert errs[0] / errs[1] > 3.5

    def test_weights_never_rewritten(self):
        rng = np.random.default_rng(2)
        w = rng.random(8)
        e = Ensemble(x=np.c_[0.3 + rng.random(8), rng.normal(size=(8, 2))],
                     v=rng.normal(size=(8, 3)), w=w, domain=HS)
        fac = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, PARAMS)
        rec = integrate(e, fac, StepperConfig(dt=1e-2), 0.5)
        for _, snap in rec.snapshots:
            assert np.array_equal(snap.w, w)

    def test_mirror_pairs_preserved_under_problem_b(self):
        rng = np.random.default_rng(3)
        base = Ensemble(x=np.c_[0.2 + rng.random(6), rng.normal(size=(6, 2))],
                        v=rng.normal(size=(6, 3)), w=np.full(6, 0.1), domain=HS)
        sym = symmetrize(base)
        fac = make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True)
        rec = integrate(sym, fac, StepperConfig(dt=1e-3), 0.5)
        n = len(base)
        f = rec.final
        xm = f.x[n:].copy()
        vm = f.v[n:].copy()
        xm[:, 0] = -xm[:, 0]
        vm[:, 0] = -vm[:, 0]
        assert np.allclose(f.x[:n], xm, atol=1e-12)
        assert np.allclose(f.v[:n], vm, atol=1e-12)

    def test_fractional_step_count_rejected(self):
        e = particle([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            integrate(e, lambda ens: zero_field, StepperConfig(dt=0.3), 1.0)

    def test_blowup_marks_dead(self):
        e = particle([1.0, 0.0, 0.0], [1e13, 0.0, 0.0])
        rec = integrate(e, lambda ens: zero_field, StepperConfig(dt=0.01), 0.01)
        assert not rec.final.alive[0]
        assert rec.deaths == {0: 0.01}
        assert np.array_equal(rec.final.x[0], e.x[0] + 0.01 * e.v[0])
        rec2 = integrate(rec.final, lambda ens: zero_field, StepperConfig(dt=0.01), 0.02)
        assert np.array_equal(rec2.final.x[0], rec.final.x[0])


class TestRunRecord:
    """A run's record is its snapshots with their fields and its events with
    theirs, each byte for byte the value a fresh evaluation gives."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("wall", ["halfspace", "ball"])
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5))
    def test_snapshots_fields_and_events_agree(self, wall, dim, seed, k):
        rng = np.random.default_rng(seed)
        x, v = draw_cloud(rng, wall, dim, k)
        if wall == "halfspace":
            domain, kind = HalfSpace(dim), GreenKind.HALF_SPACE_IMAGE
            v[0, 0] = -1.0 - abs(v[0, 0])
        else:
            domain, kind = Ball(dim, 1.0), GreenKind.BALL_IMAGE
            v[0] = 3.0 * x[0] / np.linalg.norm(x[0])
        factory = make_field_factory(domain, kind, PARAMS)
        e0 = Ensemble(x=x, v=v, w=np.full(k, 0.5 / k), domain=domain)
        rec = integrate(e0, factory, StepperConfig(dt=0.05), 0.5)
        assert rec.events, "particle 0 must bounce"
        event(f"{len(rec.events)} events")
        # (snapshot, events of the step that starts on it)
        steps = [(a[1], b[3]) for a, b in zip(rec.samples, rec.samples[1:])]
        assert [id(ev) for _, evts in steps for ev in evts] == [id(ev) for ev in rec.events]
        for snap, evts in steps:
            for ev in evts:
                assert ev.e.tobytes() == factory(snap)(ev.x[None])[0].tobytes()
        assert len(rec.fields) == len(rec.snapshots)
        for (_, snap), f in zip(rec.snapshots, rec.fields):
            assert f.tobytes() == factory(snap)(snap.x).tobytes()
            assert domain.signed_distance(snap.x).min() >= 0.0
        for i in range(k):
            traj = rec.trajectory(i)
            assert np.array_equal(traj.times, [t for t, _ in rec.snapshots])
            assert np.array_equal(traj.x, [snap.x[i] for _, snap in rec.snapshots])
            assert np.array_equal(traj.v, [snap.v[i] for _, snap in rec.snapshots])
            assert np.array_equal(traj.e_field, [f[i] for f in rec.fields])
            assert [id(ev) for ev in traj.events] == [id(ev) for ev in rec.events
                                                       if ev.particle == i]


class TestBoundaryResidents:
    """A particle sitting on the wall meets its own image at separation 0."""

    @staticmethod
    def step_with_wall_particle(domain, kind, wall_point):
        rng = np.random.default_rng(4)
        if domain is HS:
            x = np.c_[0.2 + rng.random(8), rng.normal(size=(8, 2)) * 0.5]
        else:
            x = rng.uniform(-0.4, 0.4, size=(8, 3))
        x[0] = wall_point
        e = Ensemble(x=x, v=rng.normal(size=(8, 3)) * 0.3, w=np.full(8, 0.1), domain=domain)
        fac = make_field_factory(domain, kind, PARAMS)
        out, _, _ = step(e, fac(e), StepperConfig(dt=1e-2), field_factory=fac)
        return out

    def test_halfspace_image_source_on_the_wall_stays_finite(self):
        out = self.step_with_wall_particle(HS, GreenKind.HALF_SPACE_IMAGE, [0.0, 0.1, -0.2])
        assert np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.v))
        assert np.all(out.alive)

    def test_ball_image_source_on_the_sphere_stays_finite(self):
        out = self.step_with_wall_particle(BALL, GreenKind.BALL_IMAGE, [0.0, 1.0, 0.0])
        assert np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.v))
        assert np.all(out.alive)


class TestNonFiniteState:
    def test_nan_field_raises_instead_of_staying_alive(self):
        e = particle([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], np.zeros((2, 3)), [1.0, 1.0])

        def nan_field(x):
            out = np.zeros_like(x)
            out[1, 2] = np.nan
            return out

        with pytest.raises(NonFiniteState, match="particle 1"):
            step(e, nan_field, StepperConfig(dt=0.01))

    def test_nan_in_the_trailing_field_raises(self):
        # the leading field is finite; the NaN comes with the trailing kick
        e = particle([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], np.zeros((2, 3)), [1.0, 1.0])

        def factory(sources):
            def nan_field(x):
                out = np.zeros_like(x)
                out[1, 2] = np.nan
                return out
            return nan_field

        with pytest.raises(NonFiniteState, match="particle 1"):
            step(e, zero_field, StepperConfig(dt=0.01), field_factory=factory)

    def test_trailing_kick_past_the_limit_kills(self):
        # a finite state beyond BLOWUP_LIMIT is a death, not an error
        e = particle([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], np.zeros((2, 3)), [1.0, 1.0])

        def factory(sources):
            return lambda x: np.where(np.arange(len(x))[:, None] == 1, [0.0, 0.0, 1e16], 0.0)

        out, _, _ = step(e, zero_field, StepperConfig(dt=0.01), field_factory=factory)
        assert list(out.alive) == [True, False]
        assert out.v[1, 2] == 0.5 * 0.01 * 1e16 and np.array_equal(out.x, e.x)

    def test_dead_particles_are_not_checked(self):
        # a particle that blew up earlier keeps its frozen state and raises nothing
        e = particle([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], np.zeros((2, 3)), [1.0, 1.0])
        e = e.with_state(alive=np.array([True, False]))

        def nan_for_dead(x):
            out = np.zeros_like(x)
            out[1] = np.nan
            return out

        out, _, _ = step(e, nan_for_dead, StepperConfig(dt=0.01))
        assert np.array_equal(out.x, e.x) and not out.alive[1]

    def test_infinite_position_raises_before_the_tail_sweep(self):
        # the drift overflows to inf; the trailing field must not see it
        e = particle([1.0, 0.0, 0.0], [0.0, 1e308, 0.0])
        fac = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, PARAMS)
        with np.errstate(invalid="raise", over="ignore"):
            with pytest.raises(NonFiniteState):
                step(e, fac(e), StepperConfig(dt=10.0), field_factory=fac)


class TestFoldBackend:
    def test_zero_field_fold_equals_reflection(self):
        # |1 - t| versus the bounced coordinate, exactly
        base = particle([1.0, 0.0, 0.0], [-1.0, 0.3, 0.0])
        sym = symmetrize(base)
        cfg = StepperConfig(dt=0.25)
        rec_fold = integrate(sym, lambda ens: zero_field, cfg, 2.0)
        rec_evt = integrate(base, lambda ens: zero_field, StepperConfig(dt=0.25), 2.0)
        for (_, sf), (_, se) in zip(rec_fold.snapshots, rec_evt.snapshots):
            xf, vf = fold_halfspace(sf.x[:1], sf.v[:1])
            assert np.allclose(xf, se.x, atol=1e-14)
            assert np.allclose(vf, se.v, atol=1e-14)

    def test_plane_particle_with_zero_normal_velocity_stays(self):
        e = Ensemble(x=np.array([[0.0, 0.5, 0.0], [0.0, 0.5, 0.0]]),
                     v=np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
                     w=np.ones(2), domain=HS, frame=Frame.PROBLEM_B)
        out, _, _ = step(e, zero_field, StepperConfig(dt=1.0))
        assert np.all(out.x[:, 0] == 0.0)

    @pytest.mark.parametrize("dim", [3, 4])
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), dt=st.floats(0.05, 1.0))
    @example(seed=0, k=3, dt=1.0)  # every row crosses at least twice
    def test_fold_step_is_the_reflected_step_of_the_folded_rows(self, dim, seed, k, dt):
        # in a field mirror-symmetric by construction, a plane pass is a
        # bounce in folded coordinates, bit for bit, and records no event
        rng = np.random.default_rng(seed)
        x, v = draw_cloud(rng, "halfspace", dim, k)
        v[:, 0] = -np.abs(v[:, 0])
        # pulled at the plane hard enough to cross it several times in a step
        upper = affine_field(rng.standard_normal((dim, dim)),
                             np.r_[-rng.uniform(5.0, 50.0), rng.standard_normal(dim - 1)])

        def mirrored(p):
            # the upper field at the folded point, E_1 unfolded by side
            f = upper(np.c_[np.abs(p[:, :1]), p[:, 1:]])
            f[p[:, 0] < 0.0, 0] *= -1.0
            return f
        mirrored.plane_split = True

        base = Ensemble(x=x, v=v, w=np.ones(k), domain=HalfSpace(dim))
        cfg = StepperConfig(dt=dt, max_reflections_per_step=64)
        out_a, events_a, _ = step(base, upper, cfg)
        out_b, events_b, _ = step(symmetrize(base), mirrored, cfg)
        counts = np.bincount([ev.particle for ev in events_a], minlength=k)
        event(f"at most {counts.max()} crossings of one row")
        assert events_b == []
        xf, vf = fold_halfspace(out_b.x, out_b.v)
        assert np.array_equal(xf, np.tile(out_a.x, (2, 1)))
        assert np.array_equal(vf, np.tile(out_a.v, (2, 1)))

    def test_backend_equivalence_within_bound(self):
        rng = np.random.default_rng(4)
        n = 6
        base = Ensemble(x=np.c_[0.2 + rng.random(n), rng.normal(size=(n, 2))],
                        v=rng.normal(size=(n, 3)), w=np.full(n, 0.02), domain=HS)

        def a_factory(ens):
            def field(x):
                return mollified_image(ens)(x)
            return field

        dt = 1e-3
        rec_a = integrate(base, a_factory, StepperConfig(dt=dt), 1.0)
        rec_b = integrate(
            symmetrize(base),
            make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True),
            StepperConfig(dt=dt), 1.0)
        dev = 0.0
        for (_, sa), (_, sb) in zip(rec_a.snapshots, rec_b.snapshots):
            xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
            dev = max(dev, np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]).max())
        assert dev <= 10 * dt**2

    def test_hard_sign_fold_equals_the_mollified_image_bounces_exactly(self):
        # the plane crossings of the fold and the bounces of the event run go
        # through one sub-stepper, so the folded states agree to the bit
        rng = np.random.default_rng(8)
        n = 6
        x = np.c_[0.01 + 0.05 * rng.random(n), rng.normal(size=(n, 2))]
        v = rng.normal(size=(n, 3))
        v[:, 0] = -np.abs(v[:, 0]) - 0.5
        base = Ensemble(x=x, v=v, w=np.full(n, 0.05), domain=HS)

        def a_factory(ens):
            def field(pos):
                return mollified_image(ens)(pos)
            return field

        dt = 1e-2
        rec_a = integrate(base, a_factory, StepperConfig(dt=dt), 0.2)
        rec_b = integrate(
            symmetrize(base),
            make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True),
            StepperConfig(dt=dt), 0.2)
        assert len(rec_a.events) >= 1
        dev = 0.0
        for (_, sa), (_, sb) in zip(rec_a.snapshots, rec_b.snapshots):
            xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
            dev = max(dev, np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]).max())
        assert dev == 0.0
