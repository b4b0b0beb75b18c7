"""Acceptance gate: every quantitative criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion (printed with timing); the suite asserts each criterion at
exactly the stated tolerance and runtime budget.
"""

import time
from itertools import permutations

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import specularvp.fields as fields
from specularvp.cli import bounce3d_config_text, bounce3d_ensemble, parse_config, run
from specularvp.diagnostics import (
    audit_green,
    bump_library,
    energy_audit,
    energy_bound_check,
    incompressibility_probe,
    make_separation_probe,
    phi_growth_check,
    weakform_residual,
)
from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import (
    GreenKind,
    RegularizationParams,
    field_model,
    green,
    make_field_factory,
)
from specularvp.flow import StepperConfig, fold_halfspace, integrate
from specularvp.geometry import Ball, HalfSpace, reflect_velocity
from specularvp.selfconsistent import picard_iterate, w1_exact

HS = HalfSpace(3)


def report(number, name, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {number:02d} {name}: PASS "
          f"({elapsed:.2f}s of {budget:.0f}s budget{'; ' + detail if detail else ''})")


@pytest.fixture(scope="module")
def bounce3d_runs():
    """The bounce3d fixture integrated at dt and dt/2 (shared by 3, 4, 12)."""
    e0, params = bounce3d_ensemble()
    kind = GreenKind.HALF_SPACE_IMAGE
    factory = make_field_factory(HS, kind, params)
    runs = {}
    t0 = time.time()
    for dt in (1e-3, 5e-4):
        cfg = StepperConfig(dt=dt)
        runs[dt] = integrate(e0, factory, cfg, 2.0)
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_01_reflection_algebra():
    rng = np.random.default_rng(1)
    n = rng.standard_normal((1_000_000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    v = rng.standard_normal((1_000_000, 3)) * np.exp(rng.normal(size=(1_000_000, 1)))

    t0 = time.time()
    r = reflect_velocity(n, v)
    rr = reflect_velocity(n, r)
    speed0 = np.sqrt(np.einsum("ij,ij->i", v, v))
    ulp = np.spacing(speed0)

    inv_err = np.abs(rr - v).max(axis=1)
    assert np.all(inv_err <= 4 * ulp), "involution not exact to rounding"

    speed1 = np.sqrt(np.einsum("ij,ij->i", r, r))
    assert np.all(np.abs(speed1 - speed0) <= 4 * ulp), "speed not preserved"

    # tangential preservation <=> the jump r - v is parallel to n
    jump = r - v
    tang = jump - np.einsum("ij,ij->i", jump, n)[:, None] * n
    tang_err = np.sqrt(np.einsum("ij,ij->i", tang, tang))
    assert np.all(tang_err <= 1e-12 * speed0), "tangential part not preserved"

    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "reflection-algebra", elapsed, 1,
           f"max involution {np.max(inv_err / ulp):.1f} ulp, "
           f"max speed {np.max(np.abs(speed1 - speed0) / ulp):.1f} ulp")


def test_criterion_02_grounded_boundary_and_green_bounds():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst_rel = 0.0
    for trial in range(1000):
        use_ball = trial % 2 == 1
        if use_ball:
            domain = Ball(3, 1.0 + rng.random())
            kind = GreenKind.BALL_IMAGE
            src = rng.standard_normal((8, 3))
            src = 0.8 * domain.radius * src / np.maximum(
                np.linalg.norm(src, axis=1, keepdims=True), 1.0) * rng.random((8, 1))
            u = rng.standard_normal((100, 3))
            bpts = domain.radius * u / np.linalg.norm(u, axis=1, keepdims=True)
        else:
            domain = HS
            kind = GreenKind.HALF_SPACE_IMAGE
            src = np.c_[0.05 + 2 * rng.random(8), rng.standard_normal((8, 2))]
            bpts = np.c_[np.zeros(100), rng.standard_normal((100, 2))]
        w = rng.random(8)
        pot = np.sum(w[None, :] * green(kind, domain, bpts[:, None, :], src[None, :, :]),
                     axis=1)
        scale = np.sum(
            w[None, :] * green(GreenKind.WHOLE_SPACE, None,
                               bpts[:, None, :], src[None, :, :]), axis=1)
        worst_rel = max(worst_rel, float(np.max(np.abs(pot) / scale)))
    assert worst_rel < 1e-10, "grounded boundary potential too large"

    for domain, kind in ((HS, GreenKind.HALF_SPACE_IMAGE),
                         (Ball(3, 1.0), GreenKind.BALL_IMAGE)):
        rep = audit_green(domain, kind, n_pairs=10_000, seed=3)
        assert rep.passed, f"Green bounds failed for {kind}"

    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "grounded-boundary", elapsed, 10,
           f"max boundary potential {worst_rel:.2e} relative")


def test_criterion_03_energy_identity(bounce3d_runs):
    t0 = time.time()
    drifts = {}
    e0_total = None
    for dt in (1e-3, 5e-4):
        ledger = energy_audit(bounce3d_runs[dt])
        drifts[dt] = ledger.max_abs_drift
        e0_total = ledger.total[0]
    assert drifts[1e-3] <= 1e-5 * abs(e0_total), "drift exceeds 1e-5 E(0)"
    ratio = drifts[1e-3] / drifts[5e-4]
    assert ratio >= 3.0, f"halving dt reduced drift only {ratio:.2f}x"
    elapsed = time.time() - t0 + bounce3d_runs["elapsed"]
    assert elapsed < 60.0
    report(3, "energy-identity", elapsed, 60,
           f"|drift| {drifts[1e-3]:.2e} = {drifts[1e-3]/abs(e0_total):.1e} E(0), "
           f"dt/2 ratio {ratio:.2f}")


def test_criterion_04_energy_bound(bounce3d_runs):
    t0 = time.time()
    ledger = energy_audit(bounce3d_runs[1e-3])
    check = energy_bound_check(ledger, tol=1e-4)
    assert check.passed, "energy bound violated"
    elapsed = time.time() - t0
    report(4, "energy-bound", elapsed, 60,
           f"min margin {check.min_margin:.3e}")


def test_criterion_05_symmetrization_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(5)
    n = 32
    dt = 1e-3
    params = RegularizationParams(eps_mollify=0.08, r_sign=0.05, zeta=0.05, delta=0.05)
    x = np.c_[0.2 + 1.5 * rng.random(n), rng.normal(size=(n, 2))]
    v = rng.normal(size=(n, 3)) * 0.8
    base = Ensemble(x=x, v=v, w=np.full(n, 0.05 / n), domain=HS)

    def a_factory(ens):
        def field(pos):
            model = field_model(HS, GreenKind.HALF_SPACE_MOLLIFIED, ens.frame, params)
            return model.bind(ens)(pos)
        return field

    rec_a = integrate(base, a_factory, StepperConfig(dt=dt), 1.0)
    rec_b = integrate(
        symmetrize(base),
        make_field_factory(HS, GreenKind.WHOLE_SPACE, params, hard_sign=True),
        StepperConfig(dt=dt), 1.0)
    dev = 0.0
    for (_, sa), (_, sb) in zip(rec_a.snapshots, rec_b.snapshots):
        xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
        dev = max(dev, float(np.max(np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]))))
    assert dev <= 10 * dt**2, f"folded deviation {dev:.2e} above 10 dt^2"
    assert len(rec_a.events) > 0, "fixture produced no reflections"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, "symmetrization-equivalence", elapsed, 30,
           f"max folded deviation {dev:.2e} ({len(rec_a.events)} bounces)")


def test_criterion_06_picard_contraction():
    t0 = time.time()
    rng = np.random.default_rng(6)
    n = 16
    x = np.c_[0.3 + 1.2 * rng.random(n), rng.normal(size=(n, 2)) * 0.5]
    v = rng.normal(size=(n, 3)) * 0.3
    e0 = Ensemble(x=x, v=v, w=np.full(n, 10.0 / n), domain=HS)
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.08, delta=0.08)
    maxratio = {}
    for horizon in (0.05, 0.025):
        state = picard_iterate(e0, make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, params),
                               StepperConfig(dt=2.5e-3), horizon, n_max=6)
        assert len(state.ratios) == 5
        assert all(r < 1.0 for r in state.ratios), f"non-contractive at T0={horizon}"
        maxratio[horizon] = max(state.ratios)
    assert maxratio[0.025] < maxratio[0.05], "ratio did not shrink with T0"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(6, "picard-contraction", elapsed, 60,
           f"max ratios {maxratio[0.05]:.3f} (T0=0.05) -> {maxratio[0.025]:.3f} (T0=0.025)")


def test_criterion_07_w1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    perms = np.array(list(permutations(range(8))))
    rows = np.arange(8)
    worst = 0.0
    for _ in range(100):
        za = rng.standard_normal((8, 6))
        zb = rng.standard_normal((8, 6))
        a = Ensemble(x=np.abs(za[:, :3]) + 0.1, v=za[:, 3:], w=np.full(8, 0.125),
                     domain=None, frame=Frame.PROBLEM_A)
        b = Ensemble(x=np.abs(zb[:, :3]) + 0.1, v=zb[:, 3:], w=np.full(8, 0.125),
                     domain=None, frame=Frame.PROBLEM_A)
        cost = cdist(np.c_[a.x, a.v], np.c_[b.x, b.v])
        brute = cost[rows, perms].sum(axis=1).min() * 0.125
        exact = w1_exact(a, b)
        worst = max(worst, abs(exact - brute))
        assert abs(exact - brute) <= 1e-12, "matching does not reach the brute optimum"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(7, "w1-oracle", elapsed, 10, f"max |exact - brute| {worst:.1e}")


def test_criterion_08_incompressibility():
    t0 = time.time()
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1)
    kind = GreenKind.HALF_SPACE_IMAGE
    e = Ensemble(x=np.array([[0.5, 0.1, 0.0], [0.9, -0.1, 0.0]]),
                 v=np.array([[0.1, 0.2, 0.0], [-0.1, -0.2, 0.0]]),
                 w=np.array([0.5, 0.5]), domain=HS)
    rec = integrate(e, make_field_factory(HS, kind, params),
                    StepperConfig(dt=1e-3), 1.0)
    rng = np.random.default_rng(8)
    seed_pts = [np.concatenate([[1.0 + 1.5 * rng.random()], rng.normal(size=2) * 0.3,
                                rng.normal(size=3) * 0.2]) for _ in range(20)]
    worst = 0.0
    for err in incompressibility_probe(rec, seed_pts, h=1e-5, t_end=1.0):
        worst = max(worst, err)
        assert err <= 1e-4, f"|det - 1| = {err:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, "incompressibility", elapsed, 60, f"max |det-1| {worst:.2e}")


def test_criterion_09_phi_growth():
    t0 = time.time()
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.08, delta=0.08)
    rng = np.random.default_rng(9)
    n = 32
    x = np.c_[0.5 + 1.5 * rng.random(n), rng.normal(size=(n, 2)) * 0.5]
    v = rng.normal(size=(n, 3)) * 0.4
    w = np.full(n, 1.0 / n)
    base = Ensemble(x=x, v=v, w=w, domain=HS)
    pert = Ensemble(x=x + 1e-6 * rng.standard_normal((n, 3)), v=v, w=w, domain=HS)
    fac = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, params)
    cfg = StepperConfig(dt=1e-2)
    rec_b = integrate(base, fac, cfg, 0.5)
    rec_p = integrate(pert, fac, cfg, 0.5)
    slopes = {}
    for zeta in (0.1, 0.05):
        probe = make_separation_probe(rec_b, rec_p, delta=1e-3, zeta=zeta)
        rep = phi_growth_check(probe)
        assert np.isfinite(rep.max_slope)
        slopes[zeta] = rep.max_slope
    growth = slopes[0.05] / slopes[0.1]
    assert growth <= 2.5, f"slope grew {growth:.2f}x when zeta halved"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(9, "phi-growth", elapsed, 60,
           f"slopes {slopes[0.1]:.2e} -> {slopes[0.05]:.2e}, factor {growth:.2f}")


def test_criterion_10_weakform_residual():
    t0 = time.time()
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1)
    kind = GreenKind.HALF_SPACE_IMAGE
    lib = bump_library(d=3, t_span=(0.1, 1.1), speed=1.0, length=0.8)
    factory = make_field_factory(HS, kind, params)
    residuals = {}
    for dt in (1e-4, 5e-5):
        e = Ensemble(x=np.array([[0.6, 0.0, 0.0]]), v=np.array([[-1.0, 0.6, 0.0]]),
                     w=np.array([2.0]), domain=HS)
        rec = integrate(e, factory, StepperConfig(dt=dt), 1.2)
        assert len(rec.events) == 1, "fixture must produce a one-bounce trajectory"
        traj = rec.trajectory(0)
        residuals[dt] = max(abs(weakform_residual(traj, phi, HS)) for phi in lib)
    assert residuals[1e-4] <= 1e-6, f"residual {residuals[1e-4]:.2e} above 1e-6"
    ratio = residuals[1e-4] / residuals[5e-5]
    assert ratio >= 3.0, f"residual shrank only {ratio:.2f}x at dt/2"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(10, "weakform-residual", elapsed, 30,
           f"residual {residuals[1e-4]:.2e}, dt/2 ratio {ratio:.2f}")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    cfg_path = tmp_path / "bounce3d.cfg"
    cfg_path.write_text(bounce3d_config_text(t_end=0.2))
    cfg = parse_config(cfg_path)
    outs = {}
    for tag, tile in (("a", 256), ("b", 256), ("t7", 7)):
        monkeypatch.setattr(fields, "_CHUNK_TARGETS", tile)
        out = tmp_path / tag
        assert run(cfg, out) == 0
        outs[tag] = out
    names = ["snapshots.csv", "events.csv", "ledger.csv",
             "diagnostics.json", "manifest.json"]
    for name in names:
        assert (outs["a"] / name).read_bytes() == (outs["b"] / name).read_bytes(), (
            f"{name} differs between identical invocations")
        assert (outs["a"] / name).read_bytes() == (outs["t7"] / name).read_bytes(), (
            f"{name} differs between tile sizes")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(11, "determinism", elapsed, 30, f"{len(names)} artifacts byte-identical")


def test_criterion_12_casimir_mass(bounce3d_runs):
    t0 = time.time()
    for dt in (1e-3, 5e-4):
        rec = bounce3d_runs[dt]
        w0 = rec.snapshots[0][1].w
        for _, snap in rec.snapshots:
            assert np.array_equal(snap.w, w0), "weights were rewritten"
        assert snap.w.tobytes() == w0.tobytes()
    elapsed = time.time() - t0
    report(12, "casimir-mass", elapsed, 60,
           "weights bitwise constant across all snapshots")
