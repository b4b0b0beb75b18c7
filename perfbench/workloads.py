"""The benchmark's four workloads: config text generated from a seed.

Each workload is one CLI invocation (``specularvp simulate`` or
``specularvp picard``) on a config written here.  The seed fixes every
input: for ``bounce3d`` the bulk cloud is drawn here with the recipe of
``cli.bounce3d_ensemble`` (seed 7 reproduces that fixture exactly); the
other workloads put the seed into ``[initial] seed`` and let the program's
own sampler draw the particles.  ``tiny=True`` shrinks every workload to a
smoke-test size with the same make-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# one regularization for every workload (the bounce3d fixture's)
REG = {"eps_mollify": 0.05, "r_sign": 0.05, "zeta": 0.1, "delta": 0.1}

# |drift| allowed by the ledger check, as a share of |E(0)|; bounce3d uses
# acceptance criterion 03's 1e-5, the others about 10x the largest drift
# seen over seeds 0-39 at the committed sizes (see README.md)
DRIFT_RTOL = {"bounce3d": 1e-5, "halfspace_bulk": 2e-6, "ball_billiards": 2e-3}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    config_text: str
    domain: str             # "halfspace" or "ball"
    field: str              # [field] kind
    radius: float           # ball radius (1.0 for the half-space scale)
    n: int                  # particles in the config
    steps: int              # steps per run (per iterate for picard)
    mass: float             # total mass of the stepped ensemble
    weight: float           # every particle's weight
    iterates: int = 1       # Picard iterates (1 for simulate)
    drift_rtol: float = 0.0  # ledger |drift| bound as a share of |E(0)|
    bouncers: tuple = ()    # particles whose path must reflect
    explicit: np.ndarray | None = None  # (x, v) rows handed to the program, if any


def _fmt_vec(values):
    return ", ".join(repr(float(c)) for c in values)


def _sections(domain, field, initial_lines, stepper_lines, output_lines, extra=()):
    lines = ["[domain]", f"kind = {domain[0]}", "dim = 3"]
    if domain[0] == "ball":
        lines.append(f"radius = {domain[1]!r}")
    lines += ["", "[field]", f"kind = {field}", "", "[regularization]"]
    lines += [f"{k} = {v!r}" for k, v in REG.items()]
    lines += ["", "[initial]"] + initial_lines
    lines += ["", "[stepper]"] + stepper_lines
    if output_lines:
        lines += ["", "[output]"] + output_lines
    lines += list(extra)
    return "\n".join(lines) + "\n"


def bounce3d(seed, tiny=False):
    """The acceptance fixture's make-up: a light bulk cloud plus one bouncer."""
    n = 8 if tiny else 64
    steps = 700 if tiny else 1000
    dt = 1e-3
    rng = np.random.default_rng(seed)
    x = np.c_[1.0 + 1.0 * rng.random(n), rng.normal(size=(n, 2)) * 0.5]
    v = rng.normal(size=(n, 3)) * 0.5
    x[0] = [0.6, 0.0, 0.0]
    v[0] = [-1.0, 0.0, 0.0]
    w = 0.5 / n
    initial = ["type = explicit", "", "[particles]"]
    initial += [f"{i} = " + _fmt_vec(np.r_[x[i], v[i], w]) for i in range(n)]
    text = _sections(
        ("halfspace",), "halfspace_image", initial,
        [f"dt = {dt!r}", f"t_end = {steps * dt!r}", "backend = event"],
        ["cadence_snapshot = 10", "cadence_ledger = 1"],
    )
    return Workload("bounce3d", "simulate", text, "halfspace", "halfspace_image", 1.0,
                    n, steps, 0.5, w, drift_rtol=DRIFT_RTOL["bounce3d"],
                    bouncers=(0,), explicit=np.c_[x, v])


def halfspace_bulk(seed, tiny=False):
    """A uniform cloud kept clear of the wall: the O(N^2) image pair sum."""
    n = 64 if tiny else 1024
    steps = 2
    dt = 0.01
    initial = [
        "type = uniform_box", f"n = {n}", "mass = 1.0", f"seed = {seed}",
        "x_min = 1.0, -2.0, -2.0", "x_max = 3.0, 2.0, 2.0",
        "v_min = -0.5, -0.5, -0.5", "v_max = 0.5, 0.5, 0.5",
    ]
    text = _sections(
        ("halfspace",), "halfspace_image", initial,
        [f"dt = {dt!r}", f"t_end = {steps * dt!r}", "backend = event"],
        ["cadence_snapshot = 1", "cadence_ledger = 1"],
    )
    return Workload("halfspace_bulk", "simulate", text, "halfspace", "halfspace_image", 1.0,
                    n, steps, 1.0, 1.0 / n, drift_rtol=DRIFT_RTOL["halfspace_bulk"])


def ball_billiards(seed, tiny=False):
    """A hot Maxwellian in the unit ball: event location dominates.

    The field is the cut whole-space one, not the ball image: with the ball
    image, a wall hit that ``Ball.project_boundary`` rounds to just outside
    the ball makes the field evaluation there raise NegativeArgument, which
    ends about one run in six (CHANGES.md, FOUND).
    """
    n = 16 if tiny else 64
    steps = 20 if tiny else 200
    dt = 0.01
    initial = [
        "type = maxwellian", f"n = {n}", "mass = 0.5", f"seed = {seed}",
        "x_min = -0.5, -0.5, -0.5", "x_max = 0.5, 0.5, 0.5", "temperature = 25.0",
    ]
    text = _sections(
        ("ball", 1.0), "whole_space", initial,
        [f"dt = {dt!r}", f"t_end = {steps * dt!r}", "backend = event",
         "max_reflections = 8"],
        ["cadence_snapshot = 10", "cadence_ledger = 1"],
    )
    return Workload("ball_billiards", "simulate", text, "ball", "whole_space", 1.0,
                    n, steps, 0.5, 0.5 / n, drift_rtol=DRIFT_RTOL["ball_billiards"])


def picard_fold(seed, tiny=False):
    """Picard with exact W1 on a symmetrized Problem B cloud (fold backend)."""
    n = 16 if tiny else 128
    steps = 4 if tiny else 20
    dt = 0.01
    n_max = 3 if tiny else 5
    initial = [
        "type = uniform_box", f"n = {n}", "mass = 0.5", f"seed = {seed}",
        "x_min = 0.05, -1.0, -1.0", "x_max = 1.0, 1.0, 1.0",
        "v_min = -0.5, -0.5, -0.5", "v_max = 0.5, 0.5, 0.5",
    ]
    text = _sections(
        ("halfspace",), "whole_space", initial,
        [f"dt = {dt!r}", f"t_end = {steps * dt!r}", "backend = fold"],
        [],
        ["", "[picard]", f"t0 = {steps * dt!r}", f"n_max = {n_max}", "tol = 0.0",
         "w1 = true"],
    )
    # the stepped ensemble is the even extension: 2n particles, twice the mass
    return Workload("picard_fold", "picard", text, "halfspace", "whole_space", 1.0,
                    n, steps, 1.0, 0.5 / n, iterates=n_max)


WORKLOADS = {f.__name__: f for f in (bounce3d, halfspace_bulk, ball_billiards, picard_fold)}
