"""Two routes to the same reflected dynamics.

The half-space problem can be stepped event-by-event (locate each wall hit,
flip the normal velocity) or in the whole space after even symmetrization
(mirror every particle, let trajectories sail through the plane, read
observables through the fold x1 -> |x1|).  The two routes should agree
exactly; this script measures how exactly.

Run:  python demos/backend_equivalence.py
"""

import numpy as np

from specularvp.ensemble import Ensemble, symmetrize
from specularvp.fields import GreenKind, RegularizationParams, make_field_factory
from specularvp.flow import StepperConfig, fold_halfspace, integrate
from specularvp.geometry import HalfSpace


def main():
    rng = np.random.default_rng(3)
    domain = HalfSpace(3)
    n = 16
    base = Ensemble(
        x=np.c_[0.2 + 1.5 * rng.random(n), rng.normal(size=(n, 2))],
        v=rng.normal(size=(n, 3)) * 0.8,
        w=np.full(n, 0.05 / n),
        domain=domain,
    )
    params = RegularizationParams(eps_mollify=0.08, r_sign=0.05, zeta=0.05, delta=0.05)
    dt, t_end = 1e-3, 1.0

    print(f"event-driven half-space run: N={n}, dt={dt}, t={t_end}")
    rec_a = integrate(base, make_field_factory(domain, GreenKind.HALF_SPACE_MOLLIFIED, params),
                      StepperConfig(dt=dt), t_end)
    print(f"  reflections handled: {len(rec_a.events)}")

    print(f"fold: 2N={2 * n} mirrored particles (ProblemB frame), hard-sign whole-space field")
    rec_b = integrate(
        symmetrize(base),
        make_field_factory(domain, GreenKind.WHOLE_SPACE, params, hard_sign=True),
        StepperConfig(dt=dt),
        t_end,
    )

    dev = 0.0
    for (_, sa), (_, sb) in zip(rec_a.snapshots, rec_b.snapshots):
        xf, vf = fold_halfspace(sb.x[:n], sb.v[:n])
        dev = max(dev, float(np.max(np.abs(np.c_[xf, vf] - np.c_[sa.x, sa.v]))))
    print(f"\nmax folded phase-space deviation over the run: {dev:.3e}")
    print(f"allowance (10 dt^2 per unit time)            : {10 * dt**2 * t_end:.3e}")
    print("the two routes are the same flow, down to rounding" if dev < 1e-12
          else "routes diverged beyond rounding -- investigate")


if __name__ == "__main__":
    main()
