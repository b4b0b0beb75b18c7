"""Energy bookkeeping of a reflected half-space run.

A 64-particle cloud with one member launched at the grounded wall: the
bouncer dives through the boundary-cutoff shell, reflects, and climbs back
out.  Along the way the regularization exchanges energy with the system;
the ledger shows that kinetic + potential - integral(K) stays flat to a
few 1e-8 while kinetic + potential alone drifts visibly.

Run:  python demos/bounce_energy_ledger.py
"""

import numpy as np

from specularvp.cli import bounce3d_ensemble
from specularvp.diagnostics import energy_audit, energy_bound_check, write_ledger_csv
from specularvp.fields import GreenKind, make_field_factory
from specularvp.flow import StepperConfig, integrate


def main():
    e0, params = bounce3d_ensemble()
    factory = make_field_factory(e0.domain, GreenKind.HALF_SPACE_IMAGE, params)

    print(f"integrating {len(e0)} particles over t = 2.0 at dt = 1e-3 ...")
    rec = integrate(e0, factory, StepperConfig(dt=1e-3), 2.0)
    print(f"reflections: {len(rec.events)}")
    for ev in rec.events:
        print(f"  particle {ev.particle:2d} bounced at t = {ev.t:.4f}, "
              f"v1: {ev.v_minus[0]:+.3f} -> {ev.v_plus[0]:+.3f}")

    ledger = energy_audit(rec)
    raw_drift = np.abs(ledger.total - ledger.total[0]).max()
    print(f"\ninitial energy      : {ledger.total[0]:.6f}")
    print(f"raw |E(t) - E(0)|   : {raw_drift:.3e}   (K exchange, not an error)")
    print(f"ledger max |drift|  : {ledger.max_abs_drift:.3e}   "
          f"({ledger.max_abs_drift / ledger.total[0]:.1e} of E(0))")

    check = energy_bound_check(ledger, tol=1e-4)
    print(f"energy bound        : {'PASS' if check.passed else 'FAIL'} "
          f"(min margin {check.min_margin:.3e})")

    write_ledger_csv(ledger, "bounce_ledger.csv")
    print("\nwrote bounce_ledger.csv (t, kinetic, potential, total, K_integral, drift)")


if __name__ == "__main__":
    main()
