"""The field model against a per-pair reference, on every route and both domains.

The reference is a plain double loop over (target, source) pairs with the
closed-form kernels, written here in scalar Python: the cut Green profile
g(s) = r(s/delta) c_d s^(2-d)/(d-2) and its slope, the Plummer kernel, the
mirror image for the half-space and the Kelvin image point z* = R^2 z/|z|^2
for the ball.  Clouds put points on the wall and on top of each other.
Every route runs in d = 3 and d = 4, where the integer powers of the cut
profile and the half-powers of the Plummer kernel differ in parity.

Tolerance: 1e-12 relative to the sum of the absolute pair contributions
(the scale of a sum whose terms may cancel).

The compiled kernel (pairs.c) and the numpy path must agree bit for bit
(-0.0 apart from 0.0), also with target counts around its lane block.
"""

import functools
import math
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import specularvp.fields as fields
from specularvp.ensemble import Ensemble, Frame, symmetrize
from specularvp.fields import GreenKind, RegularizationParams, field_model
from specularvp.geometry import Ball, HalfSpace

RTOL = 1e-12
CD = {3: 1.0 / (4.0 * math.pi), 4: 1.0 / (2.0 * math.pi**2)}
P = RegularizationParams(eps_mollify=0.05, r_sign=0.3, zeta=0.1, delta=0.2)
RADIUS = 1.0


# -- closed-form scalar kernels ------------------------------------------------

def smoothstep(s):
    t = min(max(s - 1.0, 0.0), 1.0)
    return 6 * t**5 - 15 * t**4 + 10 * t**3, 30 * t**4 - 60 * t**3 + 30 * t**2


def cut_g(d, sep):
    if sep <= P.delta:
        return 0.0, 0.0
    r, _ = smoothstep(sep / P.delta)
    h = CD[d] / (d - 2)
    return r * h * sep ** (2 - d), abs(r * h * sep ** (2 - d))


def cut_slope(d, sep):
    """g'(sep)/sep and a bound on its magnitude from the absolute sub-terms."""
    if sep <= P.delta:
        return 0.0, 0.0
    r, rp = smoothstep(sep / P.delta)
    h = CD[d] / (d - 2)
    a = h * rp / P.delta * sep ** (2 - d) / sep
    b = h * r * (2 - d) * sep ** (1 - d) / sep
    return a + b, abs(a) + abs(b)


def plummer_g(d, sep):
    value = CD[d] / (d - 2) * (sep * sep + P.eps_mollify**2) ** ((2 - d) / 2)
    return value, abs(value)


def plummer_slope(d, sep):
    value = -CD[d] * (sep * sep + P.eps_mollify**2) ** (-d / 2)
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
        R = RADIUS
        return [R * R * c / nz2 for c in z], math.sqrt(nz2) / R
    return None, 1.0


def source_weight(route, z, w):
    if route in ("b_smooth", "b_hard"):
        return float(z[0] > 0) - float(z[0] < 0), w
    return 1.0, w


def reference(route, xs, ws, targets):
    """Pre-cutoff sums S, their scales, and the potential with its scale."""
    d = len(targets[0])
    plummer = route in ("mollified", "b_smooth", "b_hard")
    slope = functools.partial(plummer_slope if plummer else cut_slope, d)
    prof = functools.partial(plummer_g if plummer else cut_g, d)

    def terms(x, z, w):
        """[(signed weight, separation, gradient vector)] of source z at target x."""
        sign, w = source_weight(route, z, w)
        out = [(sign * w, math.dist(x, z), sub(x, z))]
        img, a = images(route, z)
        if img is not None:
            out.append((-w, a * math.dist(x, img), [a * a * c for c in sub(x, img)]))
        elif route == "ball_image":
            out.append((-w, RADIUS, [0.0] * d))
        return out

    sums, scales = [], []
    for x in targets:
        s, m = [0.0] * d, 0.0
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
        dist = x[0] if route == "hs_image" else RADIUS - math.sqrt(dot(x, x))
        return smoothstep(max(dist, 0.0) / P.zeta)[0]
    return 1.0


# -- clouds ----------------------------------------------------------------------

ROUTES = {
    # route: (domain class, kind, frame, hard_sign)
    "hs_whole": (HalfSpace, GreenKind.WHOLE_SPACE, Frame.PROBLEM_A, False),
    "hs_image": (HalfSpace, GreenKind.HALF_SPACE_IMAGE, Frame.PROBLEM_A, False),
    "mollified": (HalfSpace, GreenKind.HALF_SPACE_MOLLIFIED, Frame.PROBLEM_A, False),
    "b_smooth": (HalfSpace, GreenKind.WHOLE_SPACE, Frame.PROBLEM_B, False),
    "b_hard": (HalfSpace, GreenKind.WHOLE_SPACE, Frame.PROBLEM_B, True),
    "ball_whole": (Ball, GreenKind.WHOLE_SPACE, Frame.PROBLEM_A, False),
    "ball_image": (Ball, GreenKind.BALL_IMAGE, Frame.PROBLEM_A, False),
}

# (route, d), named by the route in d = 3 and "<route>-d4" in d = 4
CASES = [pytest.param(route, d, id=route if d == 3 else f"{route}-d{d}")
         for d in (3, 4) for route in sorted(ROUTES)]


def route_domain(route, d):
    cls = ROUTES[route][0]
    return HalfSpace(d) if cls is HalfSpace else Ball(d, RADIUS)


def route_model(route, d):
    _, kind, frame, hard = ROUTES[route]
    return field_model(route_domain(route, d), kind, frame, P, hard)


grid = st.integers(-20, 20).map(lambda k: k / 16.0)
tag = st.sampled_from(["free", "wall", "copy"])


def place(domain, raw, placed):
    coords, kind = raw
    x = np.array(coords)
    if kind == "copy" and placed:
        return placed[-1].copy()
    if isinstance(domain, HalfSpace):
        x[0] = 0.0 if kind == "wall" else abs(x[0])
        return x
    x = 0.75 * x
    norm = np.linalg.norm(x)
    if norm > 0 and (kind == "wall" or norm > domain.radius):
        x = domain.project_boundary(x)
    return x


@st.composite
def clouds(draw, route, d):
    domain, frame = route_domain(route, d), ROUTES[route][2]
    point = st.tuples(st.lists(grid, min_size=d, max_size=d), tag)
    raws = draw(st.lists(point, min_size=1, max_size=6))
    xs = []
    for raw in raws:
        xs.append(place(domain, raw, xs))
    n = len(xs)
    w = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))) / 8.0
    alive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alive[0] = True
    e = Ensemble(x=np.array(xs), v=np.zeros((n, d)), w=w, domain=domain, alive=alive)
    if frame is Frame.PROBLEM_B:
        e = symmetrize(e)
    extra = [place(domain, raw, []) for raw in draw(st.lists(point, max_size=3))]
    targets = np.array(list(e.x) + extra)
    return e, targets


# the rows pairs.c takes together, one per vector lane; the rows after the
# last full block go together as one shorter block
BLOCK = 32


@st.composite
def block_targets(draw, route, d, e, m):
    """m targets that cycle through a drawn pattern of up to 8: free and wall
    points, copies of the sources, and sources pulled in by 2^-40 of their
    size (a Kelvin separation of a wall point that rounds below 0).  So the
    lanes of one block take different branches of the row loop, and the
    short pattern leaves the shrinker few values to work on."""
    domain = route_domain(route, d)
    kinds = st.sampled_from(["free", "wall", "copy", "near"])
    point = st.tuples(st.lists(grid, min_size=d, max_size=d), kinds)
    pattern = []
    for raw in draw(st.lists(point, min_size=1, max_size=8)):
        if raw[1] in ("copy", "near"):
            source = e.x[draw(st.integers(0, len(e.x) - 1))]
            pattern.append(source * (1.0 if raw[1] == "copy" else 1.0 - 2.0**-40))
        else:
            pattern.append(place(domain, raw, []))
    return np.array([pattern[i % len(pattern)] for i in range(m)])


def bitwise_equal(a, b):
    # to the bit: -0.0 and 0.0 differ, as they do in the CSVs
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# the bitwise properties report their first failing examples unshrunk: when
# the kernel breaks, shrinking the cloud and block-target draws takes minutes
no_shrink = settings(phases=[phase for phase in Phase if phase is not Phase.shrink])


@pytest.mark.parametrize("route, d", CASES)
@given(data=st.data())
def test_model_matches_pair_reference(route, d, data):
    e, targets = data.draw(clouds(route, d))
    model = route_model(route, d)
    ws = list(e.w * e.alive)
    s_ref, scale, pot_ref, pot_scale = reference(route, e.x.tolist(), ws, targets.tolist())

    s = model.bind(e).pre_cutoff_sum(targets)
    assert np.all(np.isfinite(s))
    err = np.abs(s - s_ref).max(axis=1)
    assert np.all(err <= RTOL * scale), (err, scale)

    field = model.bind(e)(targets)
    assert np.all(np.isfinite(field))
    f_ref = np.array([-factor(route, list(x)) * si for x, si in zip(targets, s_ref)])
    assert np.all(np.abs(field - f_ref).max(axis=1) <= RTOL * scale)

    pot = model.potential(e)
    assert np.isfinite(pot)
    assert abs(pot - pot_ref) <= RTOL * pot_scale


def test_validation_runs_when_the_model_is_built():
    with pytest.raises(ValueError, match="collar"):
        field_model(Ball(3, 0.2), GreenKind.BALL_IMAGE, Frame.PROBLEM_A, P)


@pytest.mark.parametrize("route, d", CASES)
@given(data=st.data(), tile=st.sampled_from([1, 2, 256]))
@no_shrink
def test_sweep_is_bitwise_the_separate_passes(route, d, data, tile):
    # one fused pass gives exactly the field, the pre-cutoff sum and the
    # potential that the three separate passes give, whatever the tiling
    e, _ = data.draw(clouds(route, d))
    model = route_model(route, d)
    with mock.patch.object(fields, "_CHUNK_TARGETS", tile):
        bound = model.bind(e)
        sweep = bound.sweep
    assert bound.sweep is sweep  # made on first use, once
    assert bitwise_equal(sweep.field, model.bind(e)(e.x))
    assert bitwise_equal(sweep.pre_cutoff, model.bind(e).pre_cutoff_sum(e.x))
    assert model.energy(e, sweep.phi) == model.potential(e)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler: numpy is the only path")
@pytest.mark.parametrize("route, d", CASES)
@given(data=st.data(), tile=st.sampled_from([1, 7, 256]))
@no_shrink
def test_kernel_and_numpy_path_are_bitwise_equal(route, d, data, tile):
    # the numpy path is the reference: same float operations, same per-row order
    assert fields._load_kernel() is not None
    e, targets = data.draw(clouds(route, d))
    model = route_model(route, d)
    cloud = model.bind(e).cloud
    modes = [(True, False), (False, True), (True, True)]
    with mock.patch.object(fields, "_CHUNK_TARGETS", tile):
        compiled = [model._sums(cloud, targets, *mode) for mode in modes]
        with mock.patch.object(fields, "_load_kernel", lambda: None):
            reference = [model._sums(cloud, targets, *mode) for mode in modes]
    for got, want in zip(compiled, reference):
        for a, b in zip(got, want):
            assert (a is None and b is None) or bitwise_equal(a, b)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler: numpy is the only path")
@pytest.mark.parametrize("route, d", CASES)
@pytest.mark.parametrize("tile", [1, 256])
def test_kernel_and_numpy_path_agree_on_a_large_cloud(route, d, tile):
    # hundreds of sources per row: long enough for numpy's pairwise blocks,
    # which the numpy path must not use
    domain, frame = route_domain(route, d), ROUTES[route][2]
    rng = np.random.default_rng(7)
    x = np.array([place(domain, (c, "free"), []) for c in rng.uniform(-1.25, 1.25, (300, d))])
    e = Ensemble(x=x, v=np.zeros_like(x), w=rng.uniform(0.0, 1.0, len(x)), domain=domain)
    if frame is Frame.PROBLEM_B:
        e = symmetrize(e)
    model = route_model(route, d)
    cloud = model.bind(e).cloud
    with mock.patch.object(fields, "_CHUNK_TARGETS", tile):
        compiled = model._sums(cloud, e.x, True, True)
        with mock.patch.object(fields, "_load_kernel", lambda: None):
            reference = model._sums(cloud, e.x, True, True)
    assert bitwise_equal(compiled[0], reference[0])
    assert bitwise_equal(compiled[1], reference[1])


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler: numpy is the only path")
@pytest.mark.parametrize("route, d", CASES)
@given(data=st.data(), m=st.sampled_from([3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
@no_shrink
def test_lane_blocks_are_bitwise_the_numpy_rows(route, d, data, m):
    # target counts on both sides of the block width, and a partial block the
    # size of an event round; one block mixes free points, wall points, copies
    # of sources (sep = 0: the delta clamp) and dead sources, so its lanes
    # take different branches
    e, _ = data.draw(clouds(route, d))
    targets = data.draw(block_targets(route, d, e, m))
    model = route_model(route, d)
    cloud = model.bind(e).cloud
    for mode in [(True, False), (False, True), (True, True)]:
        compiled = model._sums(cloud, targets, *mode)
        with mock.patch.object(fields, "_load_kernel", lambda: None):
            reference = model._sums(cloud, targets, *mode)
        for a, b in zip(compiled, reference):
            assert (a is None and b is None) or bitwise_equal(a, b)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@pytest.mark.parametrize("route", ["hs_image", "ball_image", "b_smooth"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_targets_of_another_dimension_raise(route, shift, compiled):
    model = route_model(route, 3)
    x = np.full((2, 3), 0.5)
    x[:, 0] = [0.25, -0.25] if route == "b_smooth" else 0.25
    e = Ensemble(x=x, v=np.zeros_like(x), w=np.ones(2), domain=route_domain(route, 3),
                 frame=ROUTES[route][2])
    loader = fields._load_kernel if compiled else (lambda: None)
    with mock.patch.object(fields, "_load_kernel", loader):
        with pytest.raises(ValueError, match="dimension"):
            model.bind(e)(np.full((1, 3 + shift), 0.1))
