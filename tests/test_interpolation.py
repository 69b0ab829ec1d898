"""interpolate_pairs against one-point reference interpolations.

Each reference below is a one-point interpolation (math.* scalars, one
branch per call): for most spaces the one each had before interpolation
was batched, and for a KappaCone the model disk's reference at the
sector's polar rows with the fiber's own reference.  The batched rows
must equal it bit for bit, so reports computed from interpolated points
cannot move.
"""

import math

import numpy as np
import pytest

from warpcurv import model, spaces
from warpcurv.comparison import sample_comparisons
from warpcurv.constructions import ConeSpace, KappaCone, ScaledSpace, SuspensionSpace
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

    ex = space._embed([x])[0]
    ey = space._embed([y])[0]
    if space.kappa == 0:
        return unembed((1.0 - t) * ex + t * ey)
    # a short model arc that enters the cap of a non-convex disk is no geodesic
    if not space.convex and _ref_arc_leaves(space, x, y):
        return None
    d = float(space.distance(x, y))
    if d < 1e-15:
        return np.asarray(x, float).reshape(2)
    sd = model.sn(space.kappa, d)
    v = (ey - model.cs(space.kappa, d) * ex) / sd
    p = model.cs(space.kappa, t * d) * ex + model.sn(space.kappa, t * d) * v
    return unembed(p)


def _ref_arc_leaves(space, x, y):
    """Whether the short great-circle arc from x to y enters the cap r > R of
    a spherical disk: its lowest point is that of the whole circle, the unit
    projection of -e_z on the circle's plane, where that lies on the arc."""
    s = math.sqrt(space.kappa)
    p, q = (np.array([math.sin(s * r) * math.cos(th), math.sin(s * r) * math.sin(th),
                      math.cos(s * r)]) for r, th in (x, y))
    z_low = min(p[2], q[2])
    n = np.cross(p, q)
    if np.linalg.norm(n) > 1e-12:
        n = n / np.linalg.norm(n)
        low = np.array([0.0, 0.0, -1.0]) + n[2] * n
        low = low / np.linalg.norm(low)
        if np.dot(np.cross(p, low), n) >= 0 and np.dot(np.cross(low, q), n) >= 0:
            z_low = low[2]
    return z_low < math.cos(s * space.radius)


def _ref_around_cap(space, r1, r2, angle):
    """Tangent arcs to the rim of a spherical disk, and the rim between them."""
    s = math.sqrt(space.kappa)
    rim = s * space.radius
    total = math.sin(rim) * angle
    for r in (r1, r2):
        total += (math.acos(min(max(math.cos(s * r) / math.cos(rim), -1.0), 1.0))
                  - math.sin(rim) * math.acos(min(max(math.tan(rim) / math.tan(s * r), -1.0),
                                                  1.0)))
    return total / s


def _ref_kappa_cone(space, x, y, t):
    """The model disk's point in the sector (r1, 0) -> (r2, delta), with the
    fiber's own point at fraction theta / delta, or an end through the apex."""
    x = np.asarray(x, float).reshape(2)
    y = np.asarray(y, float).reshape(2)
    fiber = space.fiber
    ell = float(fiber.distance(fiber_coords(fiber, x[1]), fiber_coords(fiber, y[1])))
    if isinstance(fiber, spaces.FiniteMetric) and ell > 0:
        ell = math.inf
    wind = space.a * ell
    delta = min(wind, math.pi)
    disk, r1, r2 = space.disk, x[0], y[0]
    if (not disk.convex and wind >= math.pi and r1 + r2 > model.varpi(disk.kappa)):
        # past the far pole: the apex path if the rim path is no shorter
        if r1 + r2 > _ref_around_cap(disk, r1, r2, wind):
            return None
        s = t * (r1 + r2)
        p = np.array([abs(s - r1), 0.0 if s <= r1 else math.pi])
    else:
        p = _ref_disk(disk, [r1, 0.0], [r2, delta], t)
    if p is None:
        return None
    theta = p[1] - 2.0 * math.pi if p[1] > math.pi else p[1]
    if delta == 0:
        u = 0.0
    elif delta < math.pi:
        u = min(max(theta / delta, 0.0), 1.0)
    else:
        u = float(theta > 0.5 * math.pi)
    fib = x[1] if u == 0 else y[1] if u == 1 else _ref(fiber, x[1], y[1], u)
    return None if fib is None else np.array([p[0], float(fib)])


_REFS = {
    spaces.Interval: _ref_lerp,
    spaces.Ray: _ref_lerp,
    spaces.Circle: _ref_circle,
    spaces.PointSpace: lambda space, x, y, t: 0.0,
    spaces.FiniteMetric: lambda space, x, y, t: None,
    spaces.ModelDisk: _ref_disk,
    KappaCone: _ref_kappa_cone,
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
    # nan exactly where the short model arc leaves the disk (the reference's rows)
    assert spaces.missing_rows(got).any() == (not space.convex)


def test_nonconvex_disk_interpolates_inside_arcs():
    disk = spaces.ModelDisk(1.0, 2.0)
    # the short arc stays in the disk: its slerp point, on the arc
    x, y = np.array([0.5, 0.0]), np.array([0.6, 1.0])
    m = disk.interpolate(x, y, 0.5)
    assert m is not None
    assert disk.distance(x, m) == pytest.approx(0.5 * disk.distance(x, y), rel=0, abs=1e-12)
    assert disk.distance(m, y) == pytest.approx(0.5 * disk.distance(x, y), rel=0, abs=1e-12)
    # the short arc enters the cap: the path goes around it, not sampled
    x, y = np.array([1.9, 0.0]), np.array([1.9, 3.0])
    assert _ref_arc_leaves(disk, x, y)
    assert disk.distance(x, y) > model.side_from_angle(1.0, 1.9, 1.9, 3.0) + 0.1
    assert disk.interpolate(x, y, 0.5) is None


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


def test_suspension_over_tripod_glues_at_the_poles():
    susp = SuspensionSpace(spaces.tripod(0.6))
    xs, ys, ts = _random_pairs(susp, 300, 8)
    got = _assert_matches(susp, xs, ys, ts)
    gap = xs[:, 1] != ys[:, 1]
    assert gap.any() and (~gap).any()
    assert not spaces.missing_rows(got).any()
    # distinct leaves meet only at the poles r = 0 and r = pi: the distance
    # is the shorter way through one, and each point lies on an end's leaf
    r1, r2 = xs[gap, 0], ys[gap, 0]
    d = susp.dist_pairs(xs[gap], ys[gap])
    assert np.allclose(d, np.minimum(r1 + r2, 2.0 * math.pi - r1 - r2), rtol=0, atol=1e-12)
    m = got[gap]
    assert np.all((m[:, 1] == xs[gap, 1]) | (m[:, 1] == ys[gap, 1]))
    assert np.allclose(susp.dist_pairs(xs[gap], m) + susp.dist_pairs(m, ys[gap]), d,
                       rtol=0, atol=1e-12)
    # the glued distance between two leaves at the equator is pi, not 2 * 0.6
    x, y = [0.5 * math.pi, 1.0], [0.5 * math.pi, 2.0]
    assert susp.distance(x, y) == pytest.approx(math.pi, rel=0, abs=1e-15)
    assert susp.interpolate(x, y, 0.5)[0] in (0.0, math.pi)


def test_wide_sectors_of_a_nonconvex_cap():
    # a ell >= pi and r1 + r2 > pi on [0, 2] x_sin: through the apex where
    # that is the shorter path, and nan where the path winds around the rim
    base = spaces.Interval(0.0, 2.0)
    for cone, extra in ((KappaCone(base, spaces.Circle(2.0 * math.pi), 1.0, 2.0), 1.6),
                        (KappaCone(base, spaces.tripod(0.6), 1.0, 1.0), None)):
        xs, ys, ts = _random_pairs(cone, 400, 9)
        if extra:
            # 3.2 wide: around the rim
            xs, ys, ts = (np.concatenate([xs, [[1.9, 0.0]]]),
                          np.concatenate([ys, [[1.9, extra]]]), np.append(ts, 0.5))
        got = _assert_matches(cone, xs, ys, ts)
        ell = cone.fiber.dist_pairs(fiber_coords(cone.fiber, xs[:, 1]),
                                    fiber_coords(cone.fiber, ys[:, 1]))
        if isinstance(cone.fiber, spaces.FiniteMetric):
            ell = np.where(ell > 0, math.inf, 0.0)
        wide = (cone.a * ell >= math.pi) & (xs[:, 0] + ys[:, 0] > math.pi)
        missing = spaces.missing_rows(got)
        assert wide.any() and missing[wide].any() == bool(extra) and not missing[wide].all()
        apex = wide & ~missing
        m = got[apex]
        assert np.all((m[:, 1] == xs[apex, 1]) | (m[:, 1] == ys[apex, 1]))
        d = cone.dist_pairs(xs[apex], ys[apex])
        assert np.array_equal(d, xs[apex, 0] + ys[apex, 0])
        assert np.allclose(cone.dist_pairs(xs[apex], m) + cone.dist_pairs(m, ys[apex]), d,
                           rtol=0, atol=1e-12)


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


# cones and suspensions are named by the constructor they were built with
CONE = pytest.param(ConeSpace(spaces.Circle(6.0)), id="ConeSpace(a=1, fiber=Circle(6))")
TRIPOD_CONE = pytest.param(ConeSpace(spaces.tripod()), id="ConeSpace(a=1, fiber=FiniteMetric(n=4))")
SPHERE = pytest.param(SuspensionSpace(spaces.Circle(2.0 * math.pi)),
                      id="SuspensionSpace(fiber=Circle(6.28319))")
TRIPOD_SUSPENSION = pytest.param(SuspensionSpace(spaces.tripod(0.6)),
                                 id="SuspensionSpace(fiber=FiniteMetric(n=4))")


@pytest.mark.parametrize("space", [
    spaces.Interval(0.0, 1.0), spaces.Ray(), spaces.Circle(4.0), spaces.PointSpace(),
    spaces.tripod(), spaces.ModelDisk(0.0, 1.0), spaces.ModelDisk(1.0, 1.2),
    spaces.ModelDisk(-1.0, 1.5), spaces.ModelDisk(1.0, 2.0), CONE, TRIPOD_CONE, SPHERE,
    TRIPOD_SUSPENSION, ScaledSpace(spaces.Circle(3.0), 2.5)], ids=repr)
def test_empty_batches(space):
    empty = space._batch(space.sample(0, 0))
    got = space.interpolate_pairs(empty, empty, np.zeros(0))
    assert len(got) == 0
    assert spaces.missing_rows(got).shape == (0,)


@pytest.mark.parametrize("space", [spaces.Circle(6.28), CONE, SPHERE, TRIPOD_SUSPENSION],
                         ids=repr)
def test_small_samples_bend_no_quadruple(space):
    # n <= 10 leaves one or two adversarial quadruples, so none is bent
    for n in range(3, 11):
        assert sample_comparisons(space, 1.0, "CAT", n, seed=0).n_tested == n
