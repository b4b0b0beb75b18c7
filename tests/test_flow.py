import numpy as np
import pytest

from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import (
    GreenKind,
    RegularizationParams,
    field_halfspace_A,
    make_field_factory,
)
from specularvp.flow import (
    Backend,
    NoCrossing,
    NonFiniteState,
    ReflectionOverflow,
    StepperConfig,
    fold_halfspace,
    handle_reflection,
    integrate,
    step,
    step_fold_halfspace,
)
from specularvp.geometry import Ball, HalfSpace

HS = HalfSpace(3)
BALL = Ball(3, 1.0)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.05, delta=0.05)


def zero_field(x):
    return np.zeros_like(x)


def uniform_field(g):
    def field(x):
        out = np.zeros_like(x)
        out[:, 0] = -g
        return out
    return field


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


class TestHandleReflection:
    def test_straight_segment_hits_wall(self):
        x, v, events = handle_reflection(
            np.array([0.5, 0.0, 0.0]), np.array([-1.0, 2.0, 0.0]), 0.0, 1.0, HS)
        assert len(events) == 1
        assert events[0].t == pytest.approx(0.5, abs=1e-12)
        assert events[0].x[0] == 0.0
        assert np.linalg.norm(events[0].v_plus) == pytest.approx(
            np.linalg.norm(events[0].v_minus), rel=1e-15)
        assert x[0] == pytest.approx(0.5, abs=1e-12)

    def test_ball_radial_infall_reverses(self):
        x, v, events = handle_reflection(
            np.array([0.5, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), 0.0, 1.0, BALL)
        assert len(events) == 1
        assert np.allclose(events[0].v_plus, [-2.0, 0.0, 0.0], rtol=1e-12)
        assert np.allclose(x, [-0.5, 0.0, 0.0], atol=1e-12)

    def test_double_bounce_matches_tiny_dt_reference(self):
        # near-tangential chord in the ball: two bounces within one long step
        x0 = np.array([0.9, 0.0, 0.0])
        v0 = np.array([0.3, 1.2, 0.0])
        dt = 1.2
        x, v, events = handle_reflection(x0, v0, 0.0, dt, BALL, max_reflections=8)
        assert len(events) == 2
        assert events[0].t < events[1].t
        # reference: many explicit micro-steps through the same free flight
        e = particle(x0, v0, domain=BALL)
        rec = integrate(e, lambda ens: zero_field, StepperConfig(dt=dt / 20000), dt)
        assert np.allclose(rec.final.x[0], x, atol=1e-9)
        assert np.allclose(rec.final.v[0], v, atol=1e-9)

    def test_no_crossing_contract(self):
        with pytest.raises(NoCrossing):
            handle_reflection(np.array([1.0, 0.0, 0.0]),
                              np.array([0.1, 0.0, 0.0]), 0.0, 1.0, HS)

    def test_reflection_overflow(self):
        x0 = np.array([0.9, 0.0, 0.0])
        v0 = np.array([0.3, 1.2, 0.0])
        with pytest.raises(ReflectionOverflow):
            handle_reflection(x0, v0, 0.0, 10.0, BALL, max_reflections=2)

    def test_grazing_passes_through(self):
        # v . n = 0 exactly on the plane: no event, stays on the plane
        e = particle([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        out, events, _ = step(e, zero_field, StepperConfig(dt=1.0))
        assert events == []
        assert out.x[0, 0] == 0.0
        assert np.array_equal(out.v[0], [0.0, 1.0, 0.0])


class TestBilliards:
    def test_chord_reflection_angles(self):
        # specular billiard: incidence equals reflection against the sphere normal
        rng = np.random.default_rng(1)
        for _ in range(20):
            x0 = rng.normal(size=3)
            x0 = 0.3 * x0 / np.linalg.norm(x0)
            v0 = rng.normal(size=3)
            v0 /= np.linalg.norm(v0)
            _, _, events = handle_reflection(x0, v0, 0.0, 3.0, BALL)
            assert events
            ev = events[0]
            n = BALL.inward_normal(ev.x)
            cos_in = -np.dot(ev.v_minus, n)
            cos_out = np.dot(ev.v_plus, n)
            assert abs(cos_in - cos_out) < 1e-10


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
        rec = integrate(sym, fac, StepperConfig(dt=1e-3, backend=Backend.FOLD_HALFSPACE), 0.5)
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


class TestFoldBackend:
    def test_zero_field_fold_equals_reflection(self):
        # |1 - t| versus the bounced coordinate, exactly
        base = particle([1.0, 0.0, 0.0], [-1.0, 0.3, 0.0])
        sym = symmetrize(base)
        cfg = StepperConfig(dt=0.25, backend=Backend.FOLD_HALFSPACE)
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
        out, _, _ = step_fold_halfspace(e, zero_field, StepperConfig(dt=1.0))
        assert np.all(out.x[:, 0] == 0.0)

    def test_frame_mismatch(self):
        e = particle([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(Exception):
            step_fold_halfspace(e, zero_field, StepperConfig(dt=0.1))

    def test_backend_equivalence_within_bound(self):
        rng = np.random.default_rng(4)
        n = 6
        base = Ensemble(x=np.c_[0.2 + rng.random(n), rng.normal(size=(n, 2))],
                        v=rng.normal(size=(n, 3)), w=np.full(n, 0.02), domain=HS)

        def a_factory(ens):
            def field(x):
                return field_halfspace_A(ens, PARAMS, x)
            return field

        dt = 1e-3
        rec_a = integrate(base, a_factory, StepperConfig(dt=dt), 1.0)
        rec_b = integrate(
            symmetrize(base),
            make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True),
            StepperConfig(dt=dt, backend=Backend.FOLD_HALFSPACE), 1.0)
        dev = 0.0
        for (_, sa), (_, sb) in zip(rec_a.snapshots, rec_b.snapshots):
            xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
            dev = max(dev, np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]).max())
        assert dev <= 10 * dt**2
