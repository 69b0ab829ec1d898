"""Catalog space and metric-axiom tests."""

import math

import numpy as np
import pytest

from warpcurv import constructions, spaces


CATALOG = [
    spaces.Interval(0.0, 2.0),
    spaces.Ray(sample_extent=3.0),
    spaces.Circle(5.0),
    spaces.tripod(1.0),
    spaces.ModelDisk(0.0, 1.0),
    spaces.ModelDisk(1.0, 1.2),
    spaces.ModelDisk(-1.0, 1.5),
    spaces.ModelDisk(1.0, math.pi / 2),
    spaces.ModelDisk(1.0, 2.0),
    spaces.ModelDisk(4.0, 0.9),
    spaces.ModelDisk(1.0, 1.7),
    spaces.ModelDisk(1.0, 3.0),
]


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: repr(s))
def test_metric_axioms(space):
    passed, witness, worst = spaces.verify_metric_axioms(space, 64, seed=3)
    assert passed, "axiom violation %r worst=%g" % (witness, worst)


def test_interval_distances():
    iv = spaces.Interval(-1.0, 2.0)
    assert iv.distance(-1.0, 2.0) == 3.0
    assert iv.interpolate(0.0, 2.0, 0.25) == pytest.approx(0.5)
    assert not iv.contains(2.5)


def test_circle_distances():
    c = spaces.Circle(6.0)
    assert c.distance(0.0, 3.0) == 3.0
    assert c.distance(0.5, 5.5) == pytest.approx(1.0)
    # interpolation follows the shorter arc
    assert c.interpolate(0.5, 5.5, 0.5) == pytest.approx(0.0)


def test_finite_metric_and_tripod():
    t = spaces.tripod(1.0)
    # leaves are at mutual distance 2 through the branch point
    assert t.distance(1, 2) == pytest.approx(2.0)
    assert t.distance(0, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spaces.FiniteMetric([[0.0, 5.0], [4.0, 0.0]])
    with pytest.raises(ValueError):
        spaces.FiniteMetric([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])


def test_finite_metric_from_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
    fm = spaces.FiniteMetric.from_file(str(p))
    assert fm.distance(0, 2) == 2.0


def test_disk_distances_flat():
    d = spaces.ModelDisk(0.0, 1.0)
    # polar points: (r, theta)
    assert d.distance([0.5, 0.0], [0.5, math.pi]) == pytest.approx(1.0, abs=1e-9)
    assert d.distance([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
    mid = d.interpolate([0.5, 0.0], [0.5, math.pi], 0.5)
    assert np.asarray(mid)[0] == pytest.approx(0.0, abs=1e-9)


def test_disk_distances_spherical():
    d = spaces.ModelDisk(1.0, 1.0)
    # two points on the same meridian circle
    x, y = [0.8, 0.0], [0.8, math.pi / 2]
    # spherical law of cosines oracle
    expect = math.acos(math.cos(0.8) ** 2 + math.sin(0.8) ** 2 * math.cos(math.pi / 2))
    assert d.distance(x, y) == pytest.approx(expect, abs=1e-9)


def test_geodesic_polyline_speeds():
    iv = spaces.Interval(0.0, 1.0)
    poly = iv.geodesic(0.0, 1.0, resolution=0.1)
    assert poly.total_length == pytest.approx(1.0)
    assert np.all(np.diff(poly.params) > 0)


def test_rng_streams_independent():
    a = spaces.rng(1, stream=0).random(4)
    b = spaces.rng(1, stream=1).random(4)
    c = spaces.rng(1, stream=0).random(4)
    assert np.allclose(a, c)
    assert not np.allclose(a, b)


# ModelDisk(1, 2) is not convex (R > varpi / 2): it is the sphere less
# the cap r > R.  Values pinned from the closed form; the last rows are
# near-antipodal pairs whose short arcs enter the cap, so their paths go
# around it on tangent arcs and the rim.
NONCONVEX_DISK_GOLDEN = [
    ((0.5, 0.0), (1.5, 2.0), 1.7081618252223747),
    ((1.2, 0.7), (1.9, 3.5), 2.8182414379976697),
    ((0.3, 5.0), (1.0, 1.9), 1.2997767957323516),
    ((1.6, 2.2), (1.4, 5.4), 2.9885564753040317),
    ((0.9, 4.0), (1.99, 0.9), 2.8875262253357223),
    ((1.8, 0.0), (1.8, 3.1), 2.9215027488456977),
    ((1.95, 1.0), (1.7, 4.1), 2.9152017360313662),
    ((2.0, 0.3), (2.0, 3.44), 2.8551939202326406),
]


def test_nonconvex_disk_golden():
    disk = spaces.ModelDisk(1.0, 2.0)
    xs = np.array([x for x, _, _ in NONCONVEX_DISK_GOLDEN])
    ys = np.array([y for _, y, _ in NONCONVEX_DISK_GOLDEN])
    got = disk.dist_pairs(xs, ys)
    assert got == pytest.approx([d for _, _, d in NONCONVEX_DISK_GOLDEN], rel=1e-12, abs=0)
    # no path inside the disk beats the spherical law of cosines
    law = np.arccos(np.cos(xs[:, 0]) * np.cos(ys[:, 0])
                    + np.sin(xs[:, 0]) * np.sin(ys[:, 0]) * np.cos(ys[:, 1] - xs[:, 1]))
    assert np.all(got >= law - 1e-12)
    assert np.all(got[-3:] > law[-3:] + 0.2)


# Spherical disks past the hemisphere, as (kappa, R): the cap r > R is
# removed.  Oracles below work on the unit sphere, in code of their own.
NONCONVEX = [(1.0, 2.0), (4.0, 0.9), (1.0, 1.7), (1.0, 3.0)]


def _unit(kappa, pts):
    """Polar points of a spherical disk as unit vectors, the pole at +z."""
    a = math.sqrt(kappa) * np.asarray(pts, float)[:, 0]
    th = np.asarray(pts, float)[:, 1]
    return np.stack([np.sin(a) * np.cos(th), np.sin(a) * np.sin(th), np.cos(a)], axis=1)


def _angle(p, q):
    """Angle between unit rows p and q."""
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    return np.arctan2(np.linalg.norm(np.cross(p, q), axis=1), np.sum(p * q, axis=1))


def _sphere_law(kappa, xs, ys):
    return _angle(_unit(kappa, xs), _unit(kappa, ys)) / math.sqrt(kappa)


def _arc_low(p, q, n=4001):
    """Least height z on the short great arc between unit rows p and q, from n samples."""
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    w = _angle(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        vz = np.where(w > 1e-15, (q[:, 2] - np.cos(w) * p[:, 2]) / np.sin(w), 0.0)
    t = np.linspace(0.0, 1.0, n)[None, :] * w[:, None]
    return np.min(np.cos(t) * p[:, 2:3] + np.sin(t) * vz[:, None], axis=1)


def _rim_minimum(kappa, radius, x, y):
    """Shortest path from x to y through the rim, found on the rim itself.

    A path around the cap leaves x on a great arc to a rim point it sees
    (the arc stays in the disk), runs along the rim, and reaches y the
    same way.  Moving the first rim point on in the direction of travel
    shortens the path (a great arc is no longer than the rim arc it
    replaces) for as long as x still sees it, so it sits at the last
    rim point x sees, found by bisection with sampled arcs; likewise at y.
    Both directions of travel are tried.
    """
    s = math.sqrt(kappa)
    rim = s * radius
    p, q = _unit(kappa, [x])[0], _unit(kappa, [y])[0]

    def at(th):
        return _unit(1.0, [[rim, th]])[0]

    def sees(v, th):
        return _arc_low(v, at(th))[0] >= math.cos(rim) - 1e-13

    best = math.inf
    for sign in (1.0, -1.0):
        ends = []
        for v, th0, step in ((p, x[1], sign), (q, y[1], -sign)):
            lo, hi = 0.0, math.pi
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if sees(v, th0 + step * mid) else (lo, mid)
            ends.append(th0 + step * lo)
        gap = (sign * (ends[1] - ends[0])) % (2.0 * math.pi)
        length = _angle(p, at(ends[0]))[0] + math.sin(rim) * gap + _angle(q, at(ends[1]))[0]
        best = min(best, length)
    return best / s


def _pairs(disk, n, seed):
    return disk.sample(n, seed), disk.sample(n, seed + 1)


@pytest.mark.parametrize("kappa,radius", NONCONVEX)
def test_nonconvex_disk_against_arc_sampling_and_the_rim(kappa, radius):
    disk = spaces.ModelDisk(kappa, radius)
    assert not disk.convex
    xs, ys = _pairs(disk, 600, 11)
    got = disk.dist_pairs(xs, ys)
    low = _arc_low(_unit(kappa, xs), _unit(kappa, ys))
    edge = math.cos(math.sqrt(kappa) * radius)
    inside, around = low >= edge + 1e-6, low < edge - 1e-6
    assert inside.sum() + around.sum() >= 597 and around.sum() >= 5
    # the closed form's inside test agrees with the sampled arcs
    leaves = disk._arc_leaves(xs[:, 0], ys[:, 0], _sphere_law(kappa, xs, ys))
    assert np.array_equal(leaves[inside | around], around[inside | around])
    assert np.allclose(got[inside], _sphere_law(kappa, xs[inside], ys[inside]),
                       rtol=0, atol=1e-12)
    for i in np.flatnonzero(around)[:25]:
        assert got[i] == pytest.approx(_rim_minimum(kappa, radius, xs[i], ys[i]), rel=0, abs=1e-8)
    assert np.all(got[around] > _sphere_law(kappa, xs[around], ys[around]))


@pytest.mark.parametrize("kappa,radius", NONCONVEX)
def test_nonconvex_disk_identity_is_exact(kappa, radius):
    disk = spaces.ModelDisk(kappa, radius)
    rim = np.column_stack([np.full(8, radius), np.linspace(0.0, 6.0, 8)])
    for pts in (disk.sample(50, 4), rim, np.zeros((3, 2))):
        assert np.all(disk.dist_pairs(pts, pts) == 0.0)


@pytest.mark.parametrize("kappa,radius", NONCONVEX)
def test_nonconvex_disk_continuous_across_the_switch(kappa, radius):
    disk = spaces.ModelDisk(kappa, radius)
    s = math.sqrt(kappa)
    # halfway between the equator and the rim
    r = (radius + 0.5 * math.pi / s) / 2.0
    # y runs along the circle of radius r, from beside x to opposite it
    th = np.linspace(0.01, math.pi, 20001)
    xs = np.tile([r, 0.0], (len(th), 1))
    ys = np.column_stack([np.full(len(th), r), th])
    d = disk.dist_pairs(xs, ys)
    leaves = disk._arc_leaves(xs[:, 0], ys[:, 0], _sphere_law(kappa, xs, ys))
    assert not leaves[0] and leaves[-1]
    # each step moves y by at most sin(s r) / s * dtheta
    step = math.sin(s * r) / s * (th[1] - th[0])
    assert np.all(np.abs(np.diff(d)) <= step * (1.0 + 1e-9) + 1e-12)


@pytest.mark.parametrize("kappa,radius", NONCONVEX)
def test_nonconvex_disk_batch_equals_pairs(kappa, radius):
    disk = spaces.ModelDisk(kappa, radius)
    xs, ys = _pairs(disk, 200, 21)
    got = disk.dist_pairs(xs, ys)
    assert np.array_equal(got, [disk.distance(x, y) for x, y in zip(xs, ys)])


def test_hemisphere_is_convex():
    disk = spaces.ModelDisk(1.0, math.pi / 2)
    assert disk.convex
    xs, ys = _pairs(disk, 300, 31)
    assert np.allclose(disk.dist_pairs(xs, ys), _sphere_law(1.0, xs, ys), rtol=0, atol=1e-12)
    # two rim points: the short arc runs along the rim's great circle
    x, y = [math.pi / 2, 0.0], [math.pi / 2, 2.5]
    assert disk.distance(x, y) == pytest.approx(2.5, rel=0, abs=1e-12)
    poly = disk.geodesic([1.5, 0.0], [1.5, 3.0], 0.1)
    assert poly is not None
    assert poly.total_length == pytest.approx(_sphere_law(1.0, [[1.5, 0.0]], [[1.5, 3.0]])[0],
                                              rel=0, abs=1e-12)


def _rim_scan(disk, x, y, arcs, n=200001):
    """min over a dense grid of rim points p of d(x, p) + d(p, y), then a
    golden-section search on the best grid interval."""
    best = math.inf
    for lo, hi in arcs:
        th = np.linspace(lo, hi, n)
        rim = np.stack([np.full(n, disk.radius), th], axis=1)
        g = disk.dist_pairs(np.repeat([x], n, axis=0), rim) + disk.dist_pairs(rim,
                                                                             np.repeat([y], n,
                                                                                       axis=0))
        k = int(np.argmin(g))
        a, b = th[max(k - 1, 0)], th[min(k + 1, n - 1)]

        def total(t):
            p = [disk.radius, t]
            return float(disk.distance(x, p) + disk.distance(p, y))
        for _ in range(80):
            m1, m2 = b - 0.618 * (b - a), a + 0.618 * (b - a)
            a, b = (a, m2) if total(m1) < total(m2) else (m1, b)
        best = min(best, g[k], total(0.5 * (a + b)))
    return best


@pytest.mark.parametrize("glue", [[(0.0, 2 * math.pi)], [(0.0, 2.0)]], ids=["full", "partial"])
@pytest.mark.parametrize("disk", [spaces.ModelDisk(0.0, 1.0), spaces.ModelDisk(1.0, 1.2),
                                  spaces.ModelDisk(1.0, 2.0)], ids=repr)
def test_doubled_disk_cross_sheet_against_a_rim_scan(disk, glue):
    doubled = constructions.DoubledDisk(disk, glue)
    pts = disk.sample(12, 5)
    xs = np.column_stack([np.zeros(6), pts[:6]])
    ys = np.column_stack([np.ones(6), pts[6:]])
    got = np.concatenate([doubled.dist_pairs(xs, ys), doubled.dist_pairs(ys, xs)])
    want = [_rim_scan(disk, x[1:], y[1:], glue) for x, y in zip(xs, ys)]
    assert np.max(np.abs(got[:6] - want)) <= 1e-9
    assert np.array_equal(got[:6], got[6:])
    assert np.array_equal(got[:6], [doubled.distance(x, y) for x, y in zip(xs, ys)])


def test_geodesic_samples_interpolate():
    c = spaces.Circle(6.0)
    poly = c.geodesic(0.5, 5.5, resolution=0.25)
    assert len(poly) == 5 and poly.total_length == pytest.approx(1.0)
    assert poly.points[2] == pytest.approx(0.0)
    # on a non-convex disk interpolate() is None exactly where the short
    # model arc enters the cap, and so is the geodesic
    disk = spaces.ModelDisk(1.0, 2.0)
    poly = disk.geodesic([0.5, 0.0], [0.5, 1.0], 0.1)
    assert poly.total_length == pytest.approx(disk.distance([0.5, 0.0], [0.5, 1.0]))
    assert disk.geodesic([1.9, 0.0], [1.9, 3.0], 0.1) is None
    assert spaces.tripod().geodesic(1, 2, 0.1) is None
    assert len(spaces.PointSpace().geodesic(0.0, 0.0, 0.1)) == 2


def test_fiber_coords_round_finite_metric_indices():
    t = spaces.tripod()
    got = spaces.fiber_coords(t, np.array([0.9999999, 2.4, 2.6]))
    assert got.dtype.kind == "i" and list(got) == [1, 2, 3]
    col = np.array([0.9999999])
    assert spaces.fiber_coords(spaces.Circle(1.0), col) is col
