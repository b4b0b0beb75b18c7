"""The ball domain: specular billiards, image charges, boundary flattening.

Free flight in a ball is the classical billiard: equal angles at every
bounce and speed exactly preserved.  The grounded sphere has an exact
image-charge Green function (audited against its pointwise bounds), and a
stereographic flattening map straightens the boundary while sending normals
to e_1 -- the two Jacobian identities are checked at random chart points.

Run:  python demos/ball_billiards.py
"""

import numpy as np

from specularvp.diagnostics import audit_green
from specularvp.ensemble import Ensemble
from specularvp.fields import GreenKind
from specularvp.flow import StepperConfig, step
from specularvp.geometry import Ball, FlatteningMap


def main():
    ball = Ball(3, radius=1.0)
    rng = np.random.default_rng(0)

    print("-- billiard chord: the bounces of one free flight --")
    # one particle's step of 6 time units in a zero field
    flight = Ensemble(x=[[0.3, 0.1, 0.0]], v=[[0.9, 0.7, 0.2]], w=[1.0], domain=ball)
    _, events, _ = step(flight, np.zeros_like, StepperConfig(dt=6.0, max_reflections_per_step=8))
    for ev in events:
        n = ball.inward_normal(ev.x)
        angle_in = np.degrees(np.arccos(-np.dot(ev.v_minus, n) / np.linalg.norm(ev.v_minus)))
        angle_out = np.degrees(np.arccos(np.dot(ev.v_plus, n) / np.linalg.norm(ev.v_plus)))
        print(f"  t = {ev.t:.3f}: incidence {angle_in:7.3f} deg, "
              f"reflection {angle_out:7.3f} deg, "
              f"|v| drift {abs(np.linalg.norm(ev.v_plus) - np.linalg.norm(ev.v_minus)):.1e}")

    print("\n-- grounded-sphere Green function audit (10^4 random pairs) --")
    rep = audit_green(ball, GreenKind.BALL_IMAGE, n_pairs=10_000, seed=1)
    print(f"  0 <= G <= C |x-z|^(2-d)  : ratio {rep.max_value_ratio:.3f} (<= 1)")
    print(f"  |grad G| <= C |x-z|^(1-d): ratio {rep.max_gradient_ratio:.3f} (<= 1)")
    print(f"  potential on the sphere  : {rep.max_boundary_potential:.2e} relative")

    print("\n-- flattening map identities at 1000 chart points --")
    fm = FlatteningMap(ball)
    pts = np.empty((1000, 3))
    have = 0
    while have < 1000:
        u = rng.standard_normal((1000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u = u[u[:, 0] > -0.45]
        r = 0.55 + 0.44 * rng.random(len(u))
        take = min(len(u), 1000 - have)
        pts[have:have + take] = (r[:, None] * u)[:take]
        have += take
    J = fm.jacobian(pts)
    n = ball.inward_normal(pts)
    jn_err = np.abs(np.einsum("kij,kj->ki", J, n) - np.eye(3)[0]).max()
    vv = rng.standard_normal((1000, 3))
    pair_err = np.abs(np.einsum("kj,kj->k", vv, n)
                      - np.einsum("kij,kj->ki", J, vv)[:, 0]).max()
    back = fm.inverse(fm.forward(pts))
    print(f"  J n = e_1 error          : {jn_err:.2e}")
    print(f"  v.n = (J v).e_1 error    : {pair_err:.2e}")
    print(f"  psi(phi(x)) roundtrip    : {np.abs(back - pts).max():.2e}")
    print(f"  det J range              : [{fm.jacobian_det(pts).min():.3f}, "
          f"{fm.jacobian_det(pts).max():.3f}]")


if __name__ == "__main__":
    main()
