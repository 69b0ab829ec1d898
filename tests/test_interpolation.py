"""interpolate_pairs against one-point reference interpolations.

Each reference below is the one-point interpolation each space had
before interpolation was batched, kept here verbatim in substance (math.*
scalars, one branch per call).  The batched rows must equal it bit for
bit, so reports computed from interpolated points cannot move.
"""

import math

import numpy as np
import pytest

from warpcurv import model, spaces
from warpcurv.comparison import sample_comparisons
from warpcurv.constructions import ConeSpace, ScaledSpace, SuspensionSpace
from warpcurv.spaces import fiber_coords, rng


def _ref_lerp(space, x, y, t):
    return (1.0 - t) * float(x) + t * float(y)


def _ref_circle(space, x, y, t):
    L = space.length
    x = float(x) % L
    y = float(y) % L
    delta = (y - x) % L
    if delta > L / 2.0:
        delta -= L
    return (x + t * delta) % L


def _ref_disk(space, x, y, t):
    def unembed(v):
        if space.kappa == 0:
            return np.array([math.hypot(v[0], v[1]), math.atan2(v[1], v[0]) % (2 * math.pi)])
        if space.kappa > 0:
            R = 1.0 / math.sqrt(space.kappa)
            r = R * math.acos(min(max(v[2] / R, -1.0), 1.0))
            return np.array([r, math.atan2(v[1], v[0]) % (2 * math.pi)])
        R = 1.0 / math.sqrt(-space.kappa)
        r = R * math.acosh(max(v[0] / R, 1.0))
        return np.array([r, math.atan2(v[2], v[1]) % (2 * math.pi)])

    if not space.convex:
        return None
    ex = space._embed([x])[0]
    ey = space._embed([y])[0]
    if space.kappa == 0:
        return unembed((1.0 - t) * ex + t * ey)
    d = space.distance(x, y)
    if d < 1e-15:
        return np.asarray(x, float).reshape(2)
    sd = model.sn(space.kappa, d)
    v = (ey - model.cs(space.kappa, d) * ex) / sd
    p = model.cs(space.kappa, t * d) * ex + model.sn(space.kappa, t * d) * v
    return unembed(p)


def _ref_cone(space, x, y, t):
    x = np.asarray(x, float).reshape(2)
    y = np.asarray(y, float).reshape(2)
    fiber = space.fiber
    df = float(fiber.distance(fiber_coords(fiber, x[1]), fiber_coords(fiber, y[1])))
    delta = space.a * df
    r1, r2 = x[0], y[0]
    if delta >= math.pi - 1e-12 or _ref(fiber, x[1], y[1], 0.5) is None:
        total = r1 + r2
        s = t * total
        if s <= r1:
            return np.array([r1 - s, x[1]])
        return np.array([s - r1, y[1]])
    p1 = np.array([r1, 0.0])
    p2 = np.array([r2 * math.cos(delta), r2 * math.sin(delta)])
    q = (1.0 - t) * p1 + t * p2
    r = float(np.hypot(q[0], q[1]))
    if r < 1e-15:
        return np.array([0.0, x[1]])
    alpha = math.atan2(q[1], q[0])
    u = min(max(alpha / delta, 0.0), 1.0) if delta > 1e-15 else 0.0
    return np.array([r, float(_ref(fiber, x[1], y[1], u))])


def _ref_suspension(space, x, y, t):
    x = np.asarray(x, float).reshape(2)
    y = np.asarray(y, float).reshape(2)
    fiber = space.fiber
    df = float(fiber.distance(fiber_coords(fiber, x[1]), fiber_coords(fiber, y[1])))
    delta = min(df, math.pi)
    if _ref(fiber, x[1], y[1], 0.5) is None and df > 1e-12:
        return None
    p1 = np.array([math.sin(x[0]), 0.0, math.cos(x[0])])
    p2 = np.array([math.sin(y[0]) * math.cos(delta), math.sin(y[0]) * math.sin(delta),
                   math.cos(y[0])])
    d = float(space.distance(x, y))
    if d < 1e-15:
        return x.copy()
    v = (p2 - math.cos(d) * p1) / math.sin(d)
    q = math.cos(t * d) * p1 + math.sin(t * d) * v
    tt = math.acos(min(max(q[2], -1.0), 1.0))
    az = math.atan2(q[1], q[0])
    u = min(max(az / delta, 0.0), 1.0) if delta > 1e-15 else 0.0
    fib = _ref(fiber, x[1], y[1], u) if df > 1e-15 else x[1]
    return np.array([tt, float(fib)])


_REFS = {
    spaces.Interval: _ref_lerp,
    spaces.Ray: _ref_lerp,
    spaces.Circle: _ref_circle,
    spaces.PointSpace: lambda space, x, y, t: 0.0,
    spaces.FiniteMetric: lambda space, x, y, t: None,
    spaces.ModelDisk: _ref_disk,
    ConeSpace: _ref_cone,
    SuspensionSpace: _ref_suspension,
    ScaledSpace: lambda space, x, y, t: _ref(space.space, x, y, t),
}


def _ref(space, x, y, t):
    return _REFS[type(space)](space, x, y, t)


def _ref_rows(space, xs, ys, ts):
    rows = [_ref(space, x, y, float(t)) for x, y, t in zip(xs, ys, ts)]
    width = np.shape(space._batch(xs))[1:]
    return np.array([np.full(width, np.nan) if p is None else p for p in rows], dtype=float)


def _assert_matches(space, xs, ys, ts):
    xs, ys = space._batch(xs), space._batch(ys)
    ts = np.asarray(ts, float)
    got = space.interpolate_pairs(xs, ys, ts)
    want = _ref_rows(space, xs, ys, ts)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # interpolate() is the one-row wrapper
    for i in (0, len(xs) // 2, len(xs) - 1):
        one = space.interpolate(xs[i], ys[i], float(ts[i]))
        if np.isnan(want[i]).any():
            assert one is None
        else:
            assert np.array_equal(one, want[i])
    return got


def _random_pairs(space, n, seed):
    pts = space._batch(space.sample(2 * n, seed))
    return pts[0::2], pts[1::2], rng(seed, stream=3).random(n)


def test_one_dimensional_spaces():
    for space in (spaces.Interval(-1.0, 2.0), spaces.Ray(3.0), spaces.PointSpace()):
        _assert_matches(space, *_random_pairs(space, 300, 1))


def test_circle_wraps_and_half_length():
    c = spaces.Circle(4.0)
    xs, ys, ts = _random_pairs(c, 300, 2)
    # wrap-around, coordinates off [0, L), delta == L/2 both ways, t at the ends
    xs = np.concatenate([xs, [3.9, 0.1, -0.5, 7.5, 0.5, 2.5, 0.0, 1.0]])
    ys = np.concatenate([ys, [0.1, 3.9, 9.0, -3.25, 2.5, 0.5, 2.0, 3.0]])
    ts = np.concatenate([ts, [0.5, 0.25, 0.75, 0.5, 0.5, 0.5, 1.0, 0.0]])
    got = _assert_matches(c, xs, ys, ts)
    assert got[-8] == pytest.approx(0.0) and got[-7] == pytest.approx(0.05)


@pytest.mark.parametrize("space", [spaces.ModelDisk(0.0, 1.0), spaces.ModelDisk(1.0, 1.2),
                                   spaces.ModelDisk(-1.0, 1.5), spaces.ModelDisk(1.0, 2.0)],
                         ids=repr)
def test_model_disks(space):
    xs, ys, ts = _random_pairs(space, 200, 3)
    # coincident endpoints (d < 1e-15) and short pairs down to 1e-7
    xs[:3] = ys[:3]
    ys[3:60] = xs[3:60] + np.stack([np.geomspace(1e-7, 1e-3, 57), np.zeros(57)], axis=1)
    got = _assert_matches(space, xs, ys, ts)
    assert np.isnan(got).all() == (not space.convex)


def test_cone_apex_and_fibers():
    cone = ConeSpace(spaces.Circle(2.0 * math.pi * 1.15), a=1.0)
    xs, ys, ts = _random_pairs(cone, 300, 4)
    extra_x = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 1.0], [0.0, 1.0], [0.7, 2.0]]
    extra_y = [[0.8, math.pi], [0.8, math.pi - 1e-13], [0.8, 3.0], [0.0, 2.0], [0.6, 2.0],
               [0.7, 2.0]]
    extra_t = [0.3, 0.6, 0.5, 0.5, 0.0, 0.4]
    got = _assert_matches(cone, np.concatenate([xs, extra_x]), np.concatenate([ys, extra_y]),
                          np.concatenate([ts, extra_t]))
    # fiber distance pi (- 1e-13): radial pieces through the apex
    assert np.allclose(got[-6], [0.11, 0.0]) and np.allclose(got[-5], [0.28, math.pi - 1e-13])
    # r < 1e-15 keeps the first fiber coordinate
    assert np.array_equal(got[-3], [0.0, 1.0]) and np.array_equal(got[-2], [0.0, 1.0])
    tri = ConeSpace(spaces.tripod(), a=1.0)
    _assert_matches(tri, *_random_pairs(tri, 200, 5))


def test_suspension_degenerate_rows():
    susp = SuspensionSpace(spaces.Circle(2.0 * math.pi))
    xs, ys, ts = _random_pairs(susp, 300, 6)
    # d < 1e-15, then df <= 1e-15 with distinct polar coordinates
    xs[:2] = ys[:2]
    ys[2:5, 1] = xs[2:5, 1]
    got = _assert_matches(susp, xs, ys, ts)
    assert np.array_equal(got[:2], xs[:2])
    assert np.array_equal(got[2:5, 1], xs[2:5, 1])
    lune = SuspensionSpace(spaces.Interval(0.0, 2.0))
    _assert_matches(lune, *_random_pairs(lune, 200, 7))


def test_suspension_over_tripod_marks_missing_rows():
    susp = SuspensionSpace(spaces.tripod(0.6))
    xs, ys, ts = _random_pairs(susp, 300, 8)
    got = _assert_matches(susp, xs, ys, ts)
    gap = xs[:, 1] != ys[:, 1]
    assert gap.any() and (~gap).any()
    assert np.array_equal(spaces.missing_rows(got), gap)


def test_scaled_space_and_finite_metric():
    scaled = ScaledSpace(spaces.Circle(3.0), 2.5)
    _assert_matches(scaled, *_random_pairs(scaled, 100, 9))
    t = spaces.tripod()
    got = _assert_matches(t, *_random_pairs(t, 50, 10))
    assert np.isnan(got).all()


def test_geodesic_is_one_batch_of_interpolations():
    susp = SuspensionSpace(spaces.Circle(2.0 * math.pi))
    x, y = np.array([0.4, 0.3]), np.array([2.2, 2.9])
    poly = susp.geodesic(x, y, 0.05)
    ts = np.linspace(0.0, 1.0, len(poly))
    want = _ref_rows(susp, np.repeat(x[None], len(ts), 0), np.repeat(y[None], len(ts), 0), ts)
    assert np.array_equal(poly.points, want)


@pytest.mark.parametrize("space", [
    spaces.Interval(0.0, 1.0), spaces.Ray(), spaces.Circle(4.0), spaces.PointSpace(),
    spaces.tripod(), spaces.ModelDisk(0.0, 1.0), spaces.ModelDisk(1.0, 1.2),
    spaces.ModelDisk(-1.0, 1.5), spaces.ModelDisk(1.0, 2.0),
    ConeSpace(spaces.Circle(6.0)), ConeSpace(spaces.tripod()),
    SuspensionSpace(spaces.Circle(2.0 * math.pi)), SuspensionSpace(spaces.tripod(0.6)),
    ScaledSpace(spaces.Circle(3.0), 2.5)], ids=repr)
def test_empty_batches(space):
    empty = space._batch(space.sample(0, 0))
    got = space.interpolate_pairs(empty, empty, np.zeros(0))
    assert len(got) == 0
    assert spaces.missing_rows(got).shape == (0,)


@pytest.mark.parametrize("space", [spaces.Circle(6.28), ConeSpace(spaces.Circle(6.0)),
                                   SuspensionSpace(spaces.Circle(2.0 * math.pi)),
                                   SuspensionSpace(spaces.tripod(0.6))], ids=repr)
def test_small_samples_bend_no_quadruple(space):
    # n <= 10 leaves one or two adversarial quadruples, so none is bent
    for n in range(3, 11):
        assert sample_comparisons(space, 1.0, "CAT", n, seed=0).n_tested == n
