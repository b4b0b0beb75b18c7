"""Force reuse and the streamed ledger.

``integrate`` carries each step's trailing-kick field into the next step as
its field, the field's sweep as the leading field, and drops it when a
particle dies.  Every run here is
compared with a reference loop that reuses nothing: it evaluates each
step's leading field afresh, as the stepper did before the reuse, and the
two must agree bit for bit.  The ledger and log-log moment streamed by
``LedgerObserver`` must equal ``energy_audit`` and ``blowup_monitor``,
recomputed from stored snapshots, bit for bit.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from specularvp.cli import bounce3d_ensemble
from specularvp.diagnostics import LedgerObserver, blowup_monitor, energy_audit
from specularvp.ensemble import Ensemble, symmetrize
from specularvp.fields import (
    FieldModel,
    GreenKind,
    RegularizationParams,
    SnapshotField,
    make_field_factory,
)
from specularvp.flow import ReflectionEvent, StepperConfig, fold_halfspace, integrate, step
from specularvp.geometry import Ball, HalfSpace

HS = HalfSpace(3)
BALL = Ball(3, 1.0)
HS4 = HalfSpace(4)
PARAMS = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.1, delta=0.1)


def bounce(frozen=False):
    e0, params = bounce3d_ensemble()
    return (e0, make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, params),
            StepperConfig(dt=1e-2, frozen_field=frozen), 0.8)


def halfspace_d4():
    # a light cloud in d = 4 with one member launched through the cutoff shell
    rng = np.random.default_rng(9)
    x = np.c_[0.3 + rng.random(10), rng.normal(size=(10, 3)) * 0.5]
    v = rng.normal(size=(10, 4)) * 0.5
    x[0], v[0] = [0.3, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]
    e0 = Ensemble(x=x, v=v, w=np.full(10, 0.5 / 10), domain=HS4)
    return (e0, make_field_factory(HS4, GreenKind.HALF_SPACE_IMAGE, PARAMS),
            StepperConfig(dt=1e-2), 0.8)


def ball_image(dim=3):
    rng = np.random.default_rng(4)
    ball = Ball(dim, 1.0)
    x = rng.uniform(-0.4, 0.4, size=(12, dim))
    e0 = Ensemble(x=x, v=rng.normal(size=(12, dim)) * 5.0, w=np.full(12, 0.5 / 12),
                  domain=ball)
    return (e0, make_field_factory(ball, GreenKind.BALL_IMAGE, PARAMS),
            StepperConfig(dt=1e-2), 0.3)


def fold_base():
    # a thin layer at the plane: plane crossings, and the smoothed-sign strip
    rng = np.random.default_rng(5)
    return Ensemble(x=np.c_[0.005 + 0.08 * rng.random(8), rng.normal(size=(8, 2)) * 0.2],
                    v=rng.normal(size=(8, 3)), w=np.full(8, 1.0 / 16), domain=HS)


def fold(hard_sign):
    factory = make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS, hard_sign=hard_sign)
    return symmetrize(fold_base()), factory, StepperConfig(dt=1e-2), 0.3


def heavy_escapee():
    # particle 0 is heavy and far out; it passes BLOWUP_LIMIT at t = 1.5 and
    # its death still moves the field the others feel
    rng = np.random.default_rng(6)
    x = np.c_[1.0 + rng.random(6), rng.normal(size=(6, 2)) * 0.5]
    v = rng.normal(size=(6, 3)) * 0.1
    x[0], v[0] = [5e11, 0.0, 0.0], [4e11, 0.0, 0.0]
    w = np.full(6, 0.1)
    w[0] = 1e20
    e0 = Ensemble(x=x, v=v, w=w, domain=HS)
    return e0, make_field_factory(HS, GreenKind.WHOLE_SPACE, PARAMS), StepperConfig(dt=0.25), 3.0


CASES = {
    "halfspace_event": lambda: bounce(),
    "halfspace_d4_event": halfspace_d4,
    "ball_image_event": ball_image,
    "ball_image_d4_event": lambda: ball_image(4),
    "fold_hard_sign": lambda: fold(True),
    "fold_smooth_sign": lambda: fold(False),
    "frozen_field": lambda: bounce(frozen=True),
    "death_mid_run": heavy_escapee,
}


def reference_run(e, factory, cfg, t_end):
    """integrate without reuse: every step's leading field is evaluated afresh."""
    snaps, fields, events, hit_fields = [e], [], [], []
    for k in range(int(round(t_end / cfg.dt))):
        field_fn = factory(e)
        fields.append(field_fn(e.x))
        e, evts, _ = step(e, field_fn, cfg, t0=k * cfg.dt,
                          field_factory=None if cfg.frozen_field else factory)
        evts = sorted(evts, key=lambda ev: (ev.particle, ev.t))
        events += evts
        hit_fields += [field_fn(ev.x[None, :])[0] for ev in evts]
        snaps.append(e)
    fields.append(factory(e)(e.x))
    return snaps, fields, events, hit_fields


def assert_same_run(rec, ref):
    snaps, fields, events, hit_fields = ref
    assert len(rec.snapshots) == len(snaps) == len(rec.fields) == len(fields)
    for (_, a), b in zip(rec.snapshots, snaps):
        for name in ("x", "v", "alive"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    for a, b in zip(rec.fields, fields):
        assert np.array_equal(a, b)
    assert len(rec.events) == len(events) == len(hit_fields)
    for a, b, ef in zip(rec.events, events, hit_fields):
        assert (a.t, a.particle) == (b.t, b.particle)
        for name in ("x", "v_minus", "v_plus"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        # the field the sub-stepper kicked with is the frozen field at the hit
        assert np.array_equal(a.e, ef)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reuse_matches_a_run_without_reuse(case):
    e0, factory, cfg, t_end = CASES[case]()
    rec = integrate(e0, factory, cfg, t_end)
    assert_same_run(rec, reference_run(e0, factory, cfg, t_end))
    if case.endswith("_event"):
        assert rec.events, "the case must reflect"
    if case.startswith("fold"):
        x1 = np.array([s.x[:, 0] for _, s in rec.snapshots])
        assert np.any(x1 * x1[0] < 0), "no plane crossing"


# sha256 over the snapshots' x and v bytes of the fold(True) run as the
# dedicated fold stepper wrote it, before the frame alone picked the wall
FOLD_RUN_SHA256 = "b2f1dd8fd71ad5d73295ece5c2ad28da335f5720b031bcd78cbcfc97815ee7e4"


def test_the_frame_picks_the_wall():
    # a ProblemB ensemble under a plain config steps the fold: no wall
    # events, the fold run's bytes, and, folded, the event-driven run of its
    # half-space cloud in the mollified image field to rounding
    e0, factory, cfg, t_end = fold(True)
    rec = integrate(e0, factory, cfg, t_end)
    assert rec.events == []
    digest = hashlib.sha256()
    for _, snap in rec.snapshots:
        digest.update(snap.x.tobytes())
        digest.update(snap.v.tobytes())
    assert digest.hexdigest() == FOLD_RUN_SHA256
    base = fold_base()
    ref = integrate(base, make_field_factory(HS, GreenKind.HALF_SPACE_MOLLIFIED, PARAMS),
                    cfg, t_end)
    assert ref.events, "the half-space run must bounce"
    n = len(base)
    for (_, sb), (_, sa) in zip(rec.snapshots, ref.snapshots):
        xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
        assert np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]).max() <= 1e-14


def test_a_death_drops_the_carried_sweep():
    e0, factory, cfg, t_end = heavy_escapee()
    rec = integrate(e0, factory, cfg, t_end)
    assert rec.deaths == {0: 1.5}
    # the dead particle's sources changed the field: a sweep carried across
    # its death would have been wrong
    k = int(1.5 / cfg.dt)
    e = rec.snapshots[k][1]
    before = e.with_state(alive=rec.snapshots[k - 1][1].alive)
    assert not np.array_equal(factory(before)(e.x), factory(e)(e.x))


def test_a_plain_field_function_is_reused_and_dropped_too():
    # a field that counts the live particles: carrying it across the death
    # would kick every particle with the old count
    e0, _, cfg, t_end = heavy_escapee()

    def counting_factory(ens):
        return lambda x: np.full_like(x, -1e-3 * np.sum(ens.alive))

    rec = integrate(e0, counting_factory, cfg, t_end)
    assert 0 in rec.deaths
    assert_same_run(rec, reference_run(e0, counting_factory, cfg, t_end))


def test_one_full_sweep_per_step(monkeypatch):
    # the initial sweep, then one tail sweep per step; event sub-steps make
    # single-target calls only
    e0, factory, cfg, t_end = bounce()
    passes = []
    sums = FieldModel._sums

    def counted(self, cloud, x, *args, **kwargs):
        passes.append(len(x))
        return sums(self, cloud, x, *args, **kwargs)

    monkeypatch.setattr(FieldModel, "_sums", counted)
    rec = integrate(e0, factory, cfg, t_end)
    assert rec.events
    assert passes.count(len(e0)) == int(round(t_end / cfg.dt)) + 1
    assert set(passes) == {len(e0), 1}


def test_one_snapshot_and_one_factor_evaluation_per_step(monkeypatch):
    # k steps build k validated snapshots after the initial one (the trailing
    # field reads the step's Sources) and k fields, the trailing ones, which
    # the next steps step in; the target factor r^zeta is evaluated once per
    # snapshot: the observer's cutoff gap reuses the sweep's
    builds, factors, bound = [], [], []
    post_init, field_init = Ensemble.__post_init__, SnapshotField.__init__

    def counted_post_init(self):
        builds.append(len(self.w))
        post_init(self)

    def counted_field_init(self, model, ens):
        bound.append(len(ens.w))
        field_init(self, model, ens)

    monkeypatch.setattr(Ensemble, "__post_init__", counted_post_init)
    e0, params = bounce3d_ensemble()
    factory = make_field_factory(HS, GreenKind.HALF_SPACE_IMAGE, params)
    model = factory(e0).model
    monkeypatch.setattr(SnapshotField, "__init__", counted_field_init)
    factor = model.factor

    def counted_factor(x):
        factors.append(len(x))
        return factor(x)

    monkeypatch.setattr(model, "factor", counted_factor)
    k = 30
    rec = integrate(e0, factory, StepperConfig(dt=1e-3), k * 1e-3, observer=LedgerObserver())
    assert not rec.events and not rec.deaths
    assert 0 < len(builds) <= k + 1
    assert bound == [len(e0)] * (k + 1)
    assert factors == [len(e0)] * (k + 1)


# each whole-run case: its domain, field kind and whether it is the
# symmetrized hard-sign fold
WHOLE_RUNS = {
    "halfspace": ("halfspace", GreenKind.HALF_SPACE_IMAGE, False),
    "ball": ("ball", GreenKind.BALL_IMAGE, False),
    "ball_whole_space": ("ball", GreenKind.WHOLE_SPACE, False),
    "fold_hard_sign": ("halfspace", GreenKind.WHOLE_SPACE, True),
}


def _whole_run(case, dim, n, steps, seed):
    wall, kind, fold = WHOLE_RUNS[case]
    rng = np.random.default_rng(seed)
    if wall == "halfspace":
        dom = HalfSpace(dim)
        x = np.c_[rng.uniform(0.0, 0.4, n), rng.normal(size=(n, dim - 1)) * 0.3]
    else:
        dom = Ball(dim, 1.0)
        x = rng.normal(size=(n, dim))
        x *= (0.95 * rng.random(n) ** (1.0 / dim) / np.linalg.norm(x, axis=1))[:, None]
    e0 = Ensemble(x=x, v=rng.normal(size=(n, dim)) * 3.0, w=rng.uniform(0.1, 1.0, n) / n,
                  domain=dom)
    if fold:
        e0 = symmetrize(e0)
    obs = LedgerObserver()
    cfg = StepperConfig(dt=1e-2)
    factory = make_field_factory(dom, kind, PARAMS, hard_sign=fold)
    return e0, obs, integrate(e0, factory, cfg, steps * cfg.dt, observer=obs)


def assert_mirror_pairs(s, n):
    # particle i + n mirrors particle i; a particle and its mirror sum their
    # pairs in different orders, so the two agree to rounding, not bitwise
    flip = np.r_[-1.0, np.ones(s.dim - 1)]
    for a in (s.x, s.v):
        assert np.abs(a[n:] - flip * a[:n]).max() <= 1e-12 * (1.0 + np.abs(a).max())


def assert_specular(domain, ev):
    # |v+| = |v-|, and the jump v+ - v- lies along the normal at the hit, so
    # the tangential part is unchanged, each within a few ulps of |v|
    nrm = domain.inward_normal(ev.x)
    tol = 8.0 * np.finfo(float).eps * np.linalg.norm(ev.v_minus)

    def tangential(u):
        return u - np.dot(u, nrm) * nrm

    assert abs(np.linalg.norm(ev.v_plus) - np.linalg.norm(ev.v_minus)) <= tol
    assert np.abs(tangential(ev.v_plus - ev.v_minus)).max() <= tol
    assert np.abs(tangential(ev.v_plus) - tangential(ev.v_minus)).max() <= tol


@given(case=st.sampled_from(sorted(WHOLE_RUNS)), dim=st.sampled_from([3, 4]),
       n=st.integers(2, 5), steps=st.integers(20, 50), seed=st.integers(0, 2**16))
def test_whole_runs_stay_closed_keep_their_weights_and_stream_the_audit(
        case, dim, n, steps, seed):
    # the stepper builds each snapshot once and the tail field reads unchecked
    # Sources; every stored snapshot must still lie in the closed domain, or
    # for the fold keep its mirror pairs, and every bounce must be specular
    e0, obs, rec = _whole_run(case, dim, n, steps, seed)
    event("bounces" if rec.events else "no bounce")
    assert len(rec.snapshots) == steps + 1
    for _, s in rec.snapshots:
        if WHOLE_RUNS[case][2]:
            assert_mirror_pairs(s, n)
        else:
            assert s.domain.signed_distance(s.x).min() >= -1e-9 * s.domain.scale
        assert s.w.tobytes() == e0.w.tobytes()
    for ev in rec.events:
        assert_specular(e0.domain, ev)
    audit, ledger = energy_audit(rec), obs.ledger()
    for f in dataclasses.fields(audit):
        assert getattr(ledger, f.name).tobytes() == getattr(audit, f.name).tobytes(), f.name


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_ledger_equals_the_audits(case):
    e0, factory, cfg, t_end = CASES[case]()
    obs = LedgerObserver()
    rec = integrate(e0, factory, cfg, t_end, observer=obs)
    audit = energy_audit(rec)
    ledger = obs.ledger()
    for f in dataclasses.fields(audit):
        assert np.array_equal(getattr(ledger, f.name), getattr(audit, f.name)), f.name
    report = blowup_monitor(rec)
    assert np.array_equal(obs.moment, report.loglog_moment)
    assert obs.total_variation == report.total_variation
    if case.endswith("_event") or case == "fold_smooth_sign":
        assert np.any(ledger.k_tau != 0.0), "the case must exercise K"


def test_streamed_event_corrections_follow_the_step_index_rule():
    # events at a step's start time, just past its end, and past the run's
    # end take the same step index, source snapshot and order in both paths
    e0, factory, cfg, _ = bounce()
    rec = integrate(e0, factory, cfg, 0.3)
    times = np.array([t for t, _ in rec.snapshots])
    fields = [factory(s) for _, s in rec.snapshots]

    def bounce_at(t):
        return ReflectionEvent(t, 1, np.array([0.0, 0.1, 0.0]),
                               np.array([-1.0, 0.2, 0.0]), np.array([1.0, 0.2, 0.0]),
                               np.zeros(3))

    by_step = {
        5: [bounce_at(times[5] + 0.3 * cfg.dt)],
        10: [bounce_at(times[10])],                             # counted in step 9
        11: [bounce_at(np.nextafter(times[12], np.inf))],       # counted in step 12
        len(fields) - 2: [bounce_at(np.nextafter(times[-1], np.inf))],  # dropped
    }
    obs = LedgerObserver()
    for m, field in enumerate(fields):
        obs(times[m], field.ens, field, by_step.get(m - 1, []))
    events = [ev for k in sorted(by_step) for ev in by_step[k]]
    audit = energy_audit(dataclasses.replace(rec, events=events))
    assert np.array_equal(obs.ledger().k_integral, audit.k_integral)
    assert np.array_equal(obs.ledger().drift, audit.drift)
    jumps = np.diff(audit.k_integral - energy_audit(rec).k_integral)
    assert list(np.flatnonzero(jumps) + 1) == [6, 10, 13]
