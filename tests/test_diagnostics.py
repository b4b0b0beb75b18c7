import numpy as np
import pytest

from specularvp.diagnostics import (
    GridMismatch,
    PairMismatch,
    SeparableBump,
    SeparationProbe,
    StencilReflected,
    SupportViolation,
    audit_green,
    blowup_monitor,
    bump_library,
    energy_audit,
    energy_bound_check,
    incompressibility_probe,
    k_tau,
    make_separation_probe,
    phi_functional,
    phi_growth_check,
    phi_series,
    read_ledger_csv,
    weakform_residual,
    write_ledger_csv,
    write_phi_csv,
)
from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import (
    GreenKind,
    RegularizationParams,
    boundary_cutoff,
    c_d,
    cutoff_rbar,
    cutoff_rbar_prime,
    make_field_factory,
)
from specularvp.flow import StepperConfig, integrate
from specularvp.geometry import Ball, HalfSpace

HS = HalfSpace(3)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1)
KIND = GreenKind.HALF_SPACE_IMAGE


def make(x, v, w, domain=HS, frame=Frame.PROBLEM_A):
    return Ensemble(x=np.atleast_2d(np.asarray(x, float)),
                    v=np.atleast_2d(np.asarray(v, float)),
                    w=np.atleast_1d(np.asarray(w, float)),
                    domain=domain, frame=frame)


def field_of(e, kind=KIND, params=PARAMS, hard_sign=False):
    """The snapshot field of e in its own domain."""
    return make_field_factory(e.domain, kind, params, hard_sign)(e)


class TestKTau:
    def test_vanishes_beyond_the_shell(self):
        rng = np.random.default_rng(0)
        e = make(np.c_[0.5 + rng.random(8), rng.normal(size=(8, 2))],
                 rng.normal(size=(8, 3)), np.full(8, 0.1))
        assert k_tau(field_of(e)) == 0.0

    def test_vanishes_for_velocity_orthogonal_to_field(self):
        # single particle in the shell moving tangentially: v . S = 0
        e = make([[0.15, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [1.0])
        assert k_tau(field_of(e)) == pytest.approx(0.0, abs=1e-18)

    def test_single_particle_hand_value(self):
        # K = 2 w (1 - rbar^zeta) v . S with S the self-image gradient sum
        x1, w, v1 = 0.15, 0.7, -0.8
        e = make([[x1, 0.0, 0.0]], [[v1, 0.0, 0.0]], [w])
        s = 2 * x1
        # d/ds [rbar(s/delta) c_d s^{-1}]
        g_prime = (cutoff_rbar_prime(s / PARAMS.delta) / PARAMS.delta * c_d(3) / s
                   + cutoff_rbar(s / PARAMS.delta) * (-1.0) * c_d(3) / s**2)
        s1 = -w * g_prime
        expected = 2 * w * (1 - cutoff_rbar(x1 / PARAMS.zeta)) * v1 * s1
        assert k_tau(field_of(e)) == pytest.approx(expected, rel=1e-12)

    def test_problem_b_route_vanishes_outside_sign_strip(self):
        rng = np.random.default_rng(1)
        base = make(np.c_[0.5 + rng.random(4), rng.normal(size=(4, 2))],
                    rng.normal(size=(4, 3)), np.full(4, 0.2))
        sym = symmetrize(base)
        assert k_tau(field_of(sym, GreenKind.WHOLE_SPACE)) == 0.0

    def test_whole_space_kind_is_zero(self):
        e = make([[0.02, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [1.0], domain=None)
        assert k_tau(field_of(e, GreenKind.WHOLE_SPACE)) == 0.0


def run_fixture(e0, dt, t_end, kind=KIND, params=PARAMS, **kw):
    fac = make_field_factory(e0.domain, kind, params)
    cfg = StepperConfig(dt=dt)
    return integrate(e0, fac, cfg, t_end, **kw)


class TestEnergyAudit:
    def test_static_single_particle_drift_is_zero(self):
        e = make([[5.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [1.0], domain=None)
        rec = run_fixture(e, 1e-2, 0.5, kind=GreenKind.WHOLE_SPACE)
        ledger = energy_audit(rec)
        assert ledger.max_abs_drift == 0.0
        assert ledger.drift[0] == 0.0

    def test_two_body_free_space_conservation(self):
        e = make([[0.5, 0.0, 0.0], [-0.5, 0.1, 0.0]],
                 [[0.0, 0.2, 0.0], [0.0, -0.2, 0.0]],
                 [1.0, 1.0], domain=None)
        rec = run_fixture(e, 1e-3, 1.0, kind=GreenKind.WHOLE_SPACE)
        ledger = energy_audit(rec)
        assert ledger.max_abs_drift <= 1e-6 * ledger.total[0]

    def test_bouncer_needs_the_k_integral(self):
        # ledger closes with the K term and fails without it
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [0.05])
        rec = run_fixture(e, 1e-3, 1.2)
        ledger = energy_audit(rec)
        no_k = np.abs(ledger.total - ledger.total[0])
        assert ledger.max_abs_drift < 1e-5 * abs(ledger.total[0])
        assert np.max(no_k) > 100 * ledger.max_abs_drift

    def test_event_correction_restores_second_order(self):
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [2.0])
        drifts = {}
        for dt in (1e-3, 5e-4):
            rec = run_fixture(e, dt, 1.2)
            drifts[dt] = energy_audit(rec).max_abs_drift
        assert drifts[1e-3] / drifts[5e-4] >= 3.0

    def test_grid_mismatch(self):
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [1.0])
        rec = run_fixture(e, 1e-2, 0.1, snapshot_every=5)
        with pytest.raises(GridMismatch):
            energy_audit(rec)

    def test_smooth_sign_fold_ledger_closes_through_k(self):
        # whole-space route: the sign-mismatch power balances the books
        rng = np.random.default_rng(8)
        base = make(np.c_[0.2 + rng.random(6), rng.normal(size=(6, 2))],
                    rng.normal(size=(6, 3)) * 0.6, np.full(6, 0.05))
        sym = symmetrize(base)
        fac = make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS)
        rec = integrate(sym, fac, StepperConfig(dt=1e-3), 1.0)
        ledger = energy_audit(rec)
        without_k = np.abs(ledger.total - ledger.total[0]).max()
        assert ledger.max_abs_drift <= 1e-6 * abs(ledger.total[0])
        assert without_k > 1000 * ledger.max_abs_drift

    def test_hard_sign_fold_run_conserves_energy(self):
        # no sign mismatch at all: K is identically zero and the signed
        # mollified energy is conserved through plane crossings
        rng = np.random.default_rng(8)
        base = make(np.c_[0.2 + rng.random(6), rng.normal(size=(6, 2))],
                    rng.normal(size=(6, 3)) * 0.6, np.full(6, 0.05))
        sym = symmetrize(base)
        fac = make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True)
        rec = integrate(sym, fac, StepperConfig(dt=1e-3), 1.0)
        ledger = energy_audit(rec)
        assert np.all(ledger.k_tau == 0.0)
        assert ledger.max_abs_drift <= 1e-6 * abs(ledger.total[0])


class TestEnergyBound:
    def test_conserved_run_passes(self):
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [0.3])
        rec = run_fixture(e, 1e-3, 1.0)
        check = energy_bound_check(energy_audit(rec), tol=1e-4)
        assert check.passed
        assert check.min_margin >= 0

    def test_blown_up_run_fails(self):
        # dt far too large for the interaction: the integrator pumps energy
        rng = np.random.default_rng(5)
        e = make(np.c_[1.5 + 0.02 * rng.random(8), 0.02 * rng.normal(size=(8, 2))],
                 np.zeros((8, 3)), np.full(8, 20.0))
        params = RegularizationParams(0.05, 0.05, 0.1, 0.02)
        fac = make_field_factory(HS, KIND, params)
        rec = integrate(e, fac, StepperConfig(dt=0.5), 10.0)
        check = energy_bound_check(energy_audit(rec), tol=1e-4)
        assert not check.passed
        assert check.min_margin < 0

    def test_single_sample_vacuous_pass(self):
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [1.0])
        rec = run_fixture(e, 1e-3, 0.0)
        check = energy_bound_check(energy_audit(rec), tol=1e-4)
        assert check.passed

    def test_empty_ledger_rejected(self):
        from specularvp.diagnostics import EnergyLedger
        empty = EnergyLedger(*(np.zeros(0),) * 7)
        with pytest.raises(ValueError):
            energy_bound_check(empty)


def free_streaming_pair(n=32, jitter=1e-6, dt=1e-2, t_end=0.5, dv=None):
    rng = np.random.default_rng(3)
    x = np.c_[2.0 + rng.random(n), rng.normal(size=(n, 2))]
    v = 0.2 * rng.normal(size=(n, 3))
    w = np.full(n, 1.0 / n)
    base = Ensemble(x=x, v=v, w=w, domain=HS)
    x2 = x + jitter * rng.standard_normal((n, 3))
    v2 = v if dv is None else v + dv
    pert = Ensemble(x=x2, v=v2, w=w, domain=HS)
    cfg = StepperConfig(dt=dt)
    fac = lambda ens: (lambda pos: np.zeros_like(pos))
    rec_b = integrate(base, fac, cfg, t_end)
    rec_p = integrate(pert, fac, cfg, t_end)
    return rec_b, rec_p


class TestPhi:
    def test_identical_families_give_zero(self):
        rec_b, _ = free_streaming_pair(jitter=0.0)
        probe = make_separation_probe(rec_b, rec_b, delta=1e-3, zeta=0.1)
        assert np.all(phi_series(probe) == 0.0)

    def test_single_pair_log2(self):
        zeta, delta = 0.1, 1e-3
        times = np.zeros(1)
        probe = SeparationProbe(
            times=times,
            x_base=np.zeros((1, 1, 3)),
            v_base=np.zeros((1, 1, 3)),
            x_pert=np.array([[[zeta * delta, 0.0, 0.0]]]),
            v_pert=np.zeros((1, 1, 3)),
            w=np.ones(1), delta=delta, zeta=zeta)
        assert phi_functional(probe, 0.0) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_free_streaming_closed_form(self):
        # common positions, velocity offset dv: Phi(t) = log(1 + t|dv|/(zd) + |dv|/d)
        dv = np.array([3e-7, 0.0, 0.0])
        rec_b, rec_p = free_streaming_pair(jitter=0.0, dv=dv)
        zeta, delta = 0.2, 1e-3
        probe = make_separation_probe(rec_b, rec_p, delta=delta, zeta=zeta)
        series = phi_series(probe)
        t = probe.times
        expected = np.log1p(t * np.linalg.norm(dv) / (zeta * delta)
                            + np.linalg.norm(dv) / delta)
        assert np.allclose(series, expected, rtol=1e-10)

    def test_growth_check_finite_and_shapes(self):
        rec_b, rec_p = free_streaming_pair()
        probe = make_separation_probe(rec_b, rec_p, delta=1e-3, zeta=0.1)
        report = phi_growth_check(probe)
        assert np.isfinite(report.max_slope)
        assert report.bound_shape == pytest.approx(
            1 / 0.1 + 0.1 + 0.1 * np.log(1 / (0.1 * 1e-3)), rel=1e-12)
        assert report.fitted_c == pytest.approx(report.max_slope / report.bound_shape)

    def test_coincident_pairs_have_zero_slope(self):
        rec_b, _ = free_streaming_pair(jitter=0.0)
        probe = make_separation_probe(rec_b, rec_b, delta=1e-3, zeta=0.1)
        assert phi_growth_check(probe).max_slope == 0.0

    def test_pair_mismatch(self):
        rec_b, rec_p = free_streaming_pair()
        short = free_streaming_pair(n=8)[0]
        with pytest.raises(PairMismatch):
            make_separation_probe(rec_b, short, delta=1e-3, zeta=0.1)

    def test_functional_needs_grid_time(self):
        rec_b, rec_p = free_streaming_pair()
        probe = make_separation_probe(rec_b, rec_p, delta=1e-3, zeta=0.1)
        with pytest.raises(PairMismatch):
            phi_functional(probe, 0.123456)

    def test_parameters_in_unit_interval(self):
        rec_b, rec_p = free_streaming_pair()
        with pytest.raises(ValueError):
            make_separation_probe(rec_b, rec_p, delta=2.0, zeta=0.1)


class TimeOnly:
    """phi(t) = sin(t): residual reduces to pure time quadrature."""

    graze_cut = 0.0
    t0_margin = 0.0

    def value(self, t, x, v):
        return np.sin(t)

    def grad_t(self, t, x, v):
        return np.cos(t)

    def grad_x(self, t, x, v):
        return np.zeros_like(x)

    def grad_v(self, t, x, v):
        return np.zeros_like(v)


class TestWeakform:
    def bounce_trajectory(self, dt=1e-3, with_field=True):
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.6, 0.0]], [2.0 if with_field else 0.0])
        rec = run_fixture(e, dt, 1.2)
        assert len(rec.events) == 1
        return rec.trajectory(0)

    def test_time_only_function(self):
        traj = self.bounce_trajectory()
        res = weakform_residual(traj, TimeOnly(), HS)
        assert abs(res) < 1e-6

    def test_wall_even_function_has_no_jump(self):
        # phi even in v_1: phi(x, R_x v) = phi(x, v), so event jumps vanish
        class EvenInV1(SeparableBump):
            def value(self, t, x, v):
                vv = v.copy()
                vv[..., 0] = abs(vv[..., 0])
                return super().value(t, x, vv)

            def grad_t(self, t, x, v):
                vv = v.copy()
                vv[..., 0] = abs(vv[..., 0])
                return super().grad_t(t, x, vv)

            def grad_x(self, t, x, v):
                vv = v.copy()
                vv[..., 0] = abs(vv[..., 0])
                return super().grad_x(t, x, vv)

            def grad_v(self, t, x, v):
                vv = v.copy()
                sign = np.where(vv[..., 0] >= 0, 1.0, -1.0)
                vv[..., 0] = abs(vv[..., 0])
                out = super().grad_v(t, x, vv)
                out[..., 0] *= sign
                return out

        phi = EvenInV1(0.5, 0.45, np.array([0.4, 0.2, 0.0]), 1.5,
                       np.array([0.9, 0.4, 0.0]), 2.0, graze_cut=0.1)
        traj = self.bounce_trajectory(dt=1e-3)
        jump = sum(phi.value(ev.t, ev.x, ev.v_plus)
                   - phi.value(ev.t, ev.x, ev.v_minus) for ev in traj.events)
        assert jump == pytest.approx(0.0, abs=1e-14)
        res = weakform_residual(traj, phi, HS)
        assert abs(res) < 5e-5

    def test_generic_bounce_residual_second_order(self):
        lib = bump_library(d=3, t_span=(0.1, 1.1), speed=1.0, length=0.8)
        res = {}
        for dt in (2e-4, 1e-4):
            traj = self.bounce_trajectory(dt=dt)
            res[dt] = max(abs(weakform_residual(traj, phi, HS)) for phi in lib)
        assert res[1e-4] <= 1e-6
        assert res[2e-4] / res[1e-4] >= 3.0

    def test_jump_term_is_active_for_generic_functions(self):
        lib = bump_library(d=3, t_span=(0.1, 1.1), speed=1.0, length=0.8)
        traj = self.bounce_trajectory(dt=1e-3)
        jumps = [sum(phi.value(ev.t, ev.x, ev.v_plus)
                     - phi.value(ev.t, ev.x, ev.v_minus) for ev in traj.events)
                 for phi in lib]
        assert max(abs(j) for j in jumps) > 1e-3

    def test_support_violation(self):
        # a bump with no grazing cut, nonzero on the boundary with tangential v
        bad = SeparableBump(0.5, 0.45, np.array([0.0, 0.0, 0.0]), 1.0,
                            np.array([0.0, 1.0, 0.0]), 1.0, graze_cut=0.0)
        times = np.array([0.4, 0.5])
        x = np.array([[0.0, 0.0, 0.0], [0.0, 1e-4, 0.0]])
        v = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        from specularvp.flow import Trajectory
        traj = Trajectory(times=times, x=x, v=v, e_field=np.zeros((2, 3)), events=[])
        with pytest.raises(SupportViolation):
            weakform_residual(traj, bad, HS)


class TestIncompressibility:
    def reference_run(self, kind=KIND, domain=HS):
        e = make([[0.5, 0.1, 0.0], [0.9, -0.1, 0.0]],
                 [[0.1, 0.2, 0.0], [-0.1, -0.2, 0.0]],
                 [0.5, 0.5], domain=domain)
        return run_fixture(e, 1e-3, 1.0, kind=kind)

    def test_zero_field_shear_map(self):
        e = make([[5.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [0.0])
        rec = run_fixture(e, 1e-3, 1.0)
        err = incompressibility_probe(rec, np.array([3.0, 0, 0, 0.1, 0.2, 0.0]),
                                      h=1e-5, t_end=1.0, dt=1e-3)
        assert err < 1e-9

    def test_self_consistent_two_body(self):
        rec = self.reference_run()
        err = incompressibility_probe(rec, np.array([1.5, 0.3, 0.0, 0.0, 0.1, 0.0]),
                                      h=1e-5, t_end=1.0, dt=1e-3)
        assert err <= 1e-4

    def test_stencil_reflection_raises(self):
        rec = self.reference_run()
        with pytest.raises(StencilReflected):
            incompressibility_probe(rec, np.array([0.05, 0.0, 0.0, -1.0, 0.0, 0.0]),
                                    h=1e-5, t_end=1.0, dt=1e-3)

    def test_excursion_within_one_step_raises(self):
        # in a field of 1e4 pushing off the wall, a tracer at x_1 = 1.2e-5
        # moving out at unit speed reaches x_1 = -3.8e-5 at t = 1e-4 and is
        # back inside at the end of the step: only the whole path shows it
        def push(ens):
            return lambda x: np.tile([1e4, 0.0, 0.0], (len(x), 1))

        rec = integrate(make([[0.5, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [1.0]), push,
                        StepperConfig(dt=1e-3), 1e-3)
        with pytest.raises(StencilReflected):
            incompressibility_probe(rec, np.array([1.2e-5, 0.0, 0.0, -1.0, 0.0, 0.0]),
                                    h=1e-6, t_end=1e-3, dt=1e-3)


class TestBlowupMonitor:
    def test_static_is_constant(self):
        e = make([[5.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [1.0], domain=None)
        rec = run_fixture(e, 1e-2, 0.5, kind=GreenKind.WHOLE_SPACE)
        rep = blowup_monitor(rec)
        assert rep.total_variation == 0.0
        assert np.all(rep.loglog_moment == rep.loglog_moment[0])

    def test_free_streaming_single_particle_closed_form(self):
        e = make([[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [1.0], domain=None)
        rec = run_fixture(e, 1e-2, 2.0, kind=GreenKind.WHOLE_SPACE)
        rep = blowup_monitor(rec)
        t = rep.times
        z = np.sqrt((1 + t) ** 2 + 1.0)
        assert np.allclose(rep.loglog_moment, np.log(np.log(2 + z)), rtol=1e-10)

    def test_total_variation_finite_and_stable(self):
        rng = np.random.default_rng(6)
        e = make(np.c_[0.5 + rng.random(8), rng.normal(size=(8, 2))],
                 rng.normal(size=(8, 3)) * 0.4, np.full(8, 0.1))
        tv = {}
        for dt in (2e-3, 1e-3):
            rec = run_fixture(e, dt, 1.0)
            tv[dt] = blowup_monitor(rec).total_variation
        assert np.isfinite(tv[1e-3])
        assert abs(tv[2e-3] - tv[1e-3]) <= 0.05 * max(tv[1e-3], 1e-12)


    def test_hard_sign_run_is_bounded_with_the_hard_sign_field(self):
        # particles inside the smoothed-sign strip feel the hard sign in a
        # fold run; the drive-term bound must use that field, not the smooth one
        rng = np.random.default_rng(3)
        base = make(np.c_[0.005 + 0.08 * rng.random(16), rng.normal(size=(16, 2)) * 0.05],
                    rng.normal(size=(16, 3)) * 0.3, np.full(16, 1.0 / 16))
        fac = make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True)
        rec = integrate(symmetrize(base), fac, StepperConfig(dt=1e-3), 0.01)

        def bound(hard_sign):
            out = []
            for _, e in rec.snapshots:
                z = np.sqrt(np.sum(e.x**2, axis=1) + np.sum(e.v**2, axis=1))
                ev = field_of(e, GreenKind.WHOLE_SPACE, hard_sign=hard_sign)(e.x)
                b = np.sqrt(np.sum(e.v**2, axis=1) + np.sum(ev**2, axis=1))
                out.append(np.sum(e.w * b / ((1.0 + z) * np.log(2.0 + z))))
            return np.array(out)

        rep = blowup_monitor(rec)
        assert np.allclose(rep.integrand_bound, bound(True), rtol=1e-12, atol=0.0)
        assert not np.allclose(bound(False), bound(True), rtol=1e-3, atol=0.0)


class TestMirrorSymmetryOfDiagnostics:
    def test_problem_b_ledger_and_phi_are_mirror_invariant(self):
        # diagnostics computed on a ProblemB run equal those on its mirror
        # image bitwise (negation and |.| are exact)
        import dataclasses

        rng = np.random.default_rng(7)
        base = make(np.c_[0.3 + rng.random(6), rng.normal(size=(6, 2))],
                    rng.normal(size=(6, 3)) * 0.5, np.full(6, 0.1))
        sym = symmetrize(base)
        fac = make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=True)
        rec = integrate(sym, fac, StepperConfig(dt=1e-2), 0.2)

        def mirrored(run):
            snaps = []
            for t, s in run.snapshots:
                xm = s.x.copy()
                vm = s.v.copy()
                xm[:, 0] = -xm[:, 0]
                vm[:, 0] = -vm[:, 0]
                snaps.append((t, s.with_state(x=xm, v=vm)))
            return dataclasses.replace(run, snapshots=snaps)

        led = energy_audit(rec)
        led_m = energy_audit(mirrored(rec))
        assert np.array_equal(led.total, led_m.total)
        assert np.array_equal(led.k_tau, led_m.k_tau)
        assert np.array_equal(led.drift, led_m.drift)


class TestGreenAudit:
    def test_halfspace_d3(self):
        rep = audit_green(HS, KIND, n_pairs=2000, seed=0)
        assert rep.passed
        assert rep.max_boundary_potential < 1e-10

    def test_ball_d3(self):
        rep = audit_green(Ball(3, 1.0), GreenKind.BALL_IMAGE, n_pairs=2000, seed=1)
        assert rep.passed

    def test_halfspace_d4(self):
        rep = audit_green(HalfSpace(4), KIND, n_pairs=2000, seed=2)
        assert rep.passed


class TestWriters:
    def test_ledger_roundtrip(self, tmp_path):
        e = make([[0.6, 0.0, 0.0]], [[-1.0, 0.0, 0.0]], [1.0])
        rec = run_fixture(e, 1e-2, 0.2)
        ledger = energy_audit(rec)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(ledger, path)
        back = read_ledger_csv(path)
        assert np.array_equal(back.times, ledger.times)
        assert np.array_equal(back.total, ledger.total)
        assert np.array_equal(back.drift, ledger.drift)

    def test_phi_csv(self, tmp_path):
        rec_b, rec_p = free_streaming_pair(n=4, t_end=0.1)
        probe = make_separation_probe(rec_b, rec_p, delta=1e-3, zeta=0.1)
        path = tmp_path / "phi.csv"
        write_phi_csv(probe, path)
        text = path.read_text().splitlines()
        assert text[0] == "t,phi,slope"
        assert len(text) == len(probe.times) + 1

    def test_residual_jsonl(self, tmp_path):
        import json

        from specularvp.diagnostics import write_residual_jsonl

        records = [{"trajectory": 0, "test_function": k, "residual": 1e-9 * k}
                   for k in range(3)]
        path = tmp_path / "residuals.jsonl"
        write_residual_jsonl(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[1])["test_function"] == 1
