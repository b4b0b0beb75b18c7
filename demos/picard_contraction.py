"""Fixed-point iteration of the regularized system, watched in Wasserstein-1.

Each iterate advances the same initial cloud under the field generated by
the previous iterate's trajectories.  The trajectory-coupling metric Z_n
(mass-weighted mean phase-space displacement between consecutive iterates)
dominates W_1 between the iterate measures and contracts geometrically once
the horizon T_0 is small enough; halving T_0 roughly halves the ratio.

Run:  python demos/picard_contraction.py
"""

import numpy as np

from specularvp.ensemble import Ensemble
from specularvp.fields import GreenKind, RegularizationParams, make_field_factory
from specularvp.flow import StepperConfig
from specularvp.geometry import HalfSpace
from specularvp.selfconsistent import picard_iterate


def main():
    rng = np.random.default_rng(6)
    n = 16
    e0 = Ensemble(
        x=np.c_[0.3 + 1.2 * rng.random(n), rng.normal(size=(n, 2)) * 0.5],
        v=rng.normal(size=(n, 3)) * 0.3,
        w=np.full(n, 10.0 / n),
        domain=HalfSpace(3),
    )
    params = RegularizationParams(eps_mollify=0.05, r_sign=0.05, zeta=0.08, delta=0.08)

    for horizon in (0.05, 0.025):
        state = picard_iterate(
            e0, make_field_factory(e0.domain, GreenKind.HALF_SPACE_IMAGE, params),
            StepperConfig(dt=2.5e-3), horizon, n_max=6, compute_w1=True,
        )
        print(f"\nT_0 = {horizon}")
        print("  n   Z_n          ratio      W1(mu^n, mu^n-1)")
        for k, z in enumerate(state.z_values):
            ratio = f"{state.ratios[k - 1]:.4f}" if k >= 1 else "    -"
            w1v = f"{state.w1_values[k]:.3e}" if k < len(state.w1_values) else ""
            print(f"  {k + 1}   {z:.3e}    {ratio}    {w1v}")
        print(f"  worst ratio: {max(state.ratios):.4f}")


if __name__ == "__main__":
    main()
