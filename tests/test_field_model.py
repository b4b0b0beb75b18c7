"""The field model against a per-pair reference, on every route and both domains.

The reference is a plain double loop over (target, source) pairs with the
closed-form kernels, written here in scalar Python: the cut Green profile
g(s) = r(s/delta) c_d s^(2-d)/(d-2) and its slope, the Plummer kernel, the
mirror image for the half-space and the Kelvin image point z* = R^2 z/|z|^2
for the ball.  Clouds put points on the wall and on top of each other.

Tolerance: 1e-12 relative to the sum of the absolute pair contributions
(the scale of a sum whose terms may cancel).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import specularvp.fields as fields
from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import GreenKind, RegularizationParams, field_model
from specularvp.geometry import Ball, HalfSpace

RTOL = 1e-12
D = 3
CD = 1.0 / (4.0 * math.pi)
H = CD / (D - 2)
P = RegularizationParams(eps_mollify=0.05, r_sign=0.3, zeta=0.1, delta=0.2)
HS = HalfSpace(3)
BALL = Ball(3, 1.0)


# -- closed-form scalar kernels ------------------------------------------------

def smoothstep(s):
    t = min(max(s - 1.0, 0.0), 1.0)
    return 6 * t**5 - 15 * t**4 + 10 * t**3, 30 * t**4 - 60 * t**3 + 30 * t**2


def cut_g(sep):
    if sep <= P.delta:
        return 0.0, 0.0
    r, _ = smoothstep(sep / P.delta)
    return r * H * sep ** (2 - D), abs(r * H * sep ** (2 - D))


def cut_slope(sep):
    """g'(sep)/sep and a bound on its magnitude from the absolute sub-terms."""
    if sep <= P.delta:
        return 0.0, 0.0
    r, rp = smoothstep(sep / P.delta)
    a = H * rp / P.delta * sep ** (2 - D) / sep
    b = H * r * (2 - D) * sep ** (1 - D) / sep
    return a + b, abs(a) + abs(b)


def plummer_g(sep2):
    value = H * (sep2 + P.eps_mollify**2) ** ((2 - D) / 2)
    return value, abs(value)


def plummer_slope(sep2):
    value = -CD * (sep2 + P.eps_mollify**2) ** (-D / 2)
    return value, abs(value)


def dot(a, b):
    return sum(p * q for p, q in zip(a, b))


def sub(a, b):
    return [p - q for p, q in zip(a, b)]


def mirror(z):
    return [-z[0]] + list(z[1:])


# -- the reference: one (target, source) pair at a time ------------------------

def images(route, z):
    """(image point or None, separation scale a) of source z.

    Image term = -w * profile(a |x - z_img|); its gradient carries a^2 (x - z_img).
    """
    if route in ("hs_image", "mollified"):
        return mirror(z), 1.0
    if route == "ball_image":
        nz2 = dot(z, z)
        if nz2 == 0.0:
            return None, 0.0   # image at infinity: s = R, zero gradient
        R = BALL.radius
        return [R * R * c / nz2 for c in z], math.sqrt(nz2) / R
    return None, 1.0


def source_weight(route, z, w):
    if route in ("b_smooth", "b_hard"):
        return float(z[0] > 0) - float(z[0] < 0), w
    return 1.0, w


def reference(route, xs, ws, targets):
    """Pre-cutoff sums S, their scales, and the potential with its scale."""
    plummer = route in ("mollified", "b_smooth", "b_hard")
    slope = (lambda sep: plummer_slope(sep * sep)) if plummer else cut_slope
    prof = (lambda sep: plummer_g(sep * sep)) if plummer else cut_g

    def terms(x, z, w):
        """[(signed weight, separation, gradient vector)] of source z at target x."""
        sign, w = source_weight(route, z, w)
        out = [(sign * w, math.dist(x, z), sub(x, z))]
        img, a = images(route, z)
        if img is not None:
            out.append((-w, a * math.dist(x, img), [a * a * c for c in sub(x, img)]))
        elif route == "ball_image":
            out.append((-w, BALL.radius, [0.0] * D))
        return out

    sums, scales = [], []
    for x in targets:
        s, m = [0.0] * D, 0.0
        for z, w in zip(xs, ws):
            for q, sep, vec in terms(x, z, w):
                c, c_bound = slope(sep)
                s = [si + q * c * vi for si, vi in zip(s, vec)]
                m += abs(q) * c_bound * math.sqrt(dot(vec, vec))
        sums.append(s)
        scales.append(m)

    pot, pot_scale = 0.0, 0.0
    for x, wx in zip(xs, ws):
        charge = source_weight(route, x, 1.0)[0]
        for z, w in zip(xs, ws):
            for q, sep, _ in terms(x, z, w):
                g, g_bound = prof(sep)
                pot += charge * wx * q * g
                pot_scale += abs(charge * wx * q) * g_bound
    return np.array(sums), np.array(scales), pot, pot_scale


def factor(route, x):
    if route == "b_smooth":
        u = min(max(x[0] / P.r_sign, -1.0), 1.0)
        return 0.5 * u * (3 - u * u)
    if route == "b_hard":
        return -1.0 if x[0] < 0 else 1.0
    if route in ("hs_image", "ball_image"):
        dist = x[0] if route == "hs_image" else BALL.radius - math.sqrt(dot(x, x))
        return smoothstep(max(dist, 0.0) / P.zeta)[0]
    return 1.0


# -- clouds ----------------------------------------------------------------------

ROUTES = {
    # route: (domain, kind, frame, hard_sign)
    "hs_whole": (HS, GreenKind.WHOLE_SPACE, Frame.PROBLEM_A, False),
    "hs_image": (HS, GreenKind.HALF_SPACE_IMAGE, Frame.PROBLEM_A, False),
    "mollified": (HS, GreenKind.HALF_SPACE_MOLLIFIED, Frame.PROBLEM_A, False),
    "b_smooth": (HS, GreenKind.WHOLE_SPACE, Frame.PROBLEM_B, False),
    "b_hard": (HS, GreenKind.WHOLE_SPACE, Frame.PROBLEM_B, True),
    "ball_whole": (BALL, GreenKind.WHOLE_SPACE, Frame.PROBLEM_A, False),
    "ball_image": (BALL, GreenKind.BALL_IMAGE, Frame.PROBLEM_A, False),
}

grid = st.integers(-20, 20).map(lambda k: k / 16.0)
point = st.tuples(grid, grid, grid, st.sampled_from(["free", "wall", "copy"]))


def place(domain, raw, placed):
    x = np.array(raw[:3])
    if raw[3] == "copy" and placed:
        return placed[-1].copy()
    if isinstance(domain, HalfSpace):
        x[0] = 0.0 if raw[3] == "wall" else abs(x[0])
        return x
    x = 0.75 * x
    norm = np.linalg.norm(x)
    if norm > 0 and (raw[3] == "wall" or norm > domain.radius):
        x = domain.project_boundary(x)
    return x


@st.composite
def clouds(draw, route):
    domain, _, frame, _ = ROUTES[route]
    raws = draw(st.lists(point, min_size=1, max_size=6))
    xs = []
    for raw in raws:
        xs.append(place(domain, raw, xs))
    n = len(xs)
    w = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))) / 8.0
    alive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alive[0] = True
    e = Ensemble(x=np.array(xs), v=np.zeros((n, 3)), w=w, domain=domain, alive=alive)
    if frame is Frame.PROBLEM_B:
        e = symmetrize(e)
    extra = [place(domain, raw, []) for raw in draw(st.lists(point, max_size=3))]
    targets = np.array(list(e.x) + extra)
    return e, targets


@pytest.mark.parametrize("route", sorted(ROUTES))
@given(data=st.data())
def test_model_matches_pair_reference(route, data):
    e, targets = data.draw(clouds(route))
    domain, kind, frame, hard = ROUTES[route]
    model = field_model(domain, kind, frame, P, hard)
    ws = list(e.w * e.alive)
    s_ref, scale, pot_ref, pot_scale = reference(route, e.x.tolist(), ws, targets.tolist())

    s = model.pre_cutoff_sum(e, targets)
    assert np.all(np.isfinite(s))
    err = np.abs(s - s_ref).max(axis=1)
    assert np.all(err <= RTOL * scale), (err, scale)

    field = model.field(e, targets)
    assert np.all(np.isfinite(field))
    f_ref = np.array([-factor(route, list(x)) * si for x, si in zip(targets, s_ref)])
    assert np.all(np.abs(field - f_ref).max(axis=1) <= RTOL * scale)

    pot = model.potential(e)
    assert np.isfinite(pot)
    assert abs(pot - pot_ref) <= RTOL * pot_scale


def test_validation_runs_when_the_model_is_built():
    with pytest.raises(ValueError, match="collar"):
        field_model(Ball(3, 0.2), GreenKind.BALL_IMAGE, Frame.PROBLEM_A, P)


@pytest.mark.parametrize("route", sorted(ROUTES))
@given(data=st.data(), tile=st.sampled_from([1, 2, 256]))
def test_sweep_is_bitwise_the_separate_passes(route, data, tile):
    # one fused pass gives exactly the field, the pre-cutoff sum and the
    # potential that the three separate passes give, whatever the tiling
    e, _ = data.draw(clouds(route))
    domain, kind, frame, hard = ROUTES[route]
    model = field_model(domain, kind, frame, P, hard)
    with mock.patch.object(fields, "_CHUNK_TARGETS", tile):
        sweep = model.bind(e).sweep(potential=True)
        assert model.bind(e).sweep().phi is None
    assert np.array_equal(sweep.field, model.field(e, e.x))
    assert np.array_equal(sweep.pre_cutoff, model.pre_cutoff_sum(e, e.x))
    assert model.energy(e, sweep.phi) == model.potential(e)
