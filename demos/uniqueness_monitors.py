"""Uniqueness-flavoured monitors: trajectory separation and weak-form residual.

Two runs start from the same particles, one with positions jittered by
1e-6.  The logarithmic separation functional Phi stays slowly growing (its
slope is what bounds uniqueness arguments), and halving the functional's
zeta parameter does not blow the slope up.  Separately, the renormalized
transport identity is evaluated along a one-bounce trajectory against a
library of test functions: the boundary jump term pairs phi(x, v) with
phi(x, R_x v) and the residual vanishes at second order in dt.

Run:  python demos/uniqueness_monitors.py
"""

import numpy as np

from specularvp.diagnostics import (
    bump_library,
    make_separation_probe,
    phi_growth_check,
    phi_series,
    weakform_residual,
    write_phi_csv,
    write_residual_jsonl,
)
from specularvp.ensemble import Ensemble
from specularvp.fields import GreenKind, RegularizationParams, make_field_factory
from specularvp.flow import StepperConfig, integrate
from specularvp.geometry import HalfSpace


def separation_story(domain, params):
    rng = np.random.default_rng(9)
    n = 32
    x = np.c_[0.5 + 1.5 * rng.random(n), rng.normal(size=(n, 2)) * 0.5]
    v = rng.normal(size=(n, 3)) * 0.4
    w = np.full(n, 1.0 / n)
    base = Ensemble(x=x, v=v, w=w, domain=domain)
    pert = Ensemble(x=x + 1e-6 * rng.standard_normal((n, 3)), v=v, w=w, domain=domain)
    fac = make_field_factory(domain, GreenKind.HALF_SPACE_IMAGE, params)
    cfg = StepperConfig(dt=1e-2)
    rec_b = integrate(base, fac, cfg, 0.5)
    rec_p = integrate(pert, fac, cfg, 0.5)

    print("-- separation functional Phi for 32 jittered pairs --")
    for zeta in (0.1, 0.05):
        probe = make_separation_probe(rec_b, rec_p, delta=1e-3, zeta=zeta)
        series = phi_series(probe)
        rep = phi_growth_check(probe)
        print(f"  zeta={zeta}: Phi(0)={series[0]:.4f} Phi(T)={series[-1]:.4f} "
              f"max dPhi/dt={rep.max_slope:.3e} "
              f"bound shape={rep.bound_shape:.2f} fitted C={rep.fitted_c:.2e}")
        if zeta == 0.1:
            write_phi_csv(probe, "phi.csv")
    print("  wrote phi.csv (t, phi, slope)")


def residual_story(domain, params):
    print("\n-- weak-form residual on a one-bounce trajectory --")
    lib = bump_library(d=3, t_span=(0.1, 1.1), speed=1.0, length=0.8)
    factory = make_field_factory(domain, GreenKind.HALF_SPACE_IMAGE, params)
    records = []
    for dt in (2e-4, 1e-4):
        e = Ensemble(x=np.array([[0.6, 0.0, 0.0]]), v=np.array([[-1.0, 0.6, 0.0]]),
                     w=np.array([2.0]), domain=domain)
        rec = integrate(e, factory, StepperConfig(dt=dt), 1.2)
        traj = rec.trajectory(0)
        residuals = [weakform_residual(traj, phi, domain) for phi in lib]
        records += [{"dt": dt, "trajectory": 0, "test_function": k,
                     "residual": float(r)} for k, r in enumerate(residuals)]
        print(f"  dt={dt}: bounce at t={rec.events[0].t:.4f}, "
              f"max |residual| = {max(abs(r) for r in residuals):.3e}")
    write_residual_jsonl(records, "residuals.jsonl")
    print("  wrote residuals.jsonl (one record per trajectory/test function)")


def main():
    domain = HalfSpace(3)
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.08, delta=0.08)
    separation_story(domain, params)
    residual_story(domain, RegularizationParams(0.05, 0.05, 0.1, 0.1))


if __name__ == "__main__":
    main()
