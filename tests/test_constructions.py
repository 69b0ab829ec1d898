"""Cone, suspension, scaling, and doubling tests."""

import math

import numpy as np
import pytest

from warpcurv import constructions, spaces
from warpcurv.comparison import sample_comparisons
from warpcurv.constructions import (ConeSpace, SuspensionSpace, make_doubled,
                                    scale_space)
from warpcurv.convexity import sinusoidal_test
from warpcurv.warped import WarpFunction, WarpedTriple, domain, warped_distance


def test_cone_law_over_circle():
    c = ConeSpace(spaces.Circle(2 * math.pi), 1.0)
    # boundary case: through the apex
    assert c.distance([1.0, 0.0], [1.0, math.pi]) == pytest.approx(2.0, abs=1e-12)
    assert c.distance([1.0, 0.0], [1.0, math.pi / 2]) == pytest.approx(
        math.sqrt(2.0), abs=1e-12)
    # apex distance is the radius
    assert c.distance([0.0, 2.0], [1.3, 0.5]) == pytest.approx(1.3, abs=1e-12)


def test_cone_two_point_fiber():
    two = spaces.FiniteMetric([[0.0, 3.0], [3.0, 0.0]])
    c = ConeSpace(two, 1.0)
    # discrete fiber: two rays glued at the apex, distance r + s
    assert c.distance([1.5, 0], [2.5, 1]) == pytest.approx(4.0, abs=1e-12)
    assert c.distance([1.5, 0], [2.5, 0]) == pytest.approx(1.0, abs=1e-12)


def test_cone_matches_grid_engine():
    fiber = spaces.Circle(2 * math.pi)
    cone = ConeSpace(fiber, 1.0)
    triple = WarpedTriple(spaces.Ray(sample_extent=2.0), WarpFunction.linear(1.0), fiber)
    g = spaces.rng(8, stream=41)
    for _ in range(4):
        r1, r2 = g.uniform(0.3, 1.5, 2)
        s1, s2 = g.uniform(0.0, 2 * math.pi, 2)
        exact = cone.distance([r1, s1], [r2, s2])
        approx = warped_distance(triple, (r1, s1), (r2, s2), tol=1e-3)
        assert approx == pytest.approx(exact, abs=3e-3)


def test_suspension_sphere_values():
    s = SuspensionSpace(spaces.Circle(2 * math.pi))
    assert s.distance([0.0, 0.0], [math.pi, 1.0]) == pytest.approx(math.pi, abs=1e-12)
    # equator quarter turn
    q = math.pi / 2
    assert s.distance([q, 0.0], [q, q]) == pytest.approx(q, abs=1e-12)
    # lune fiber: antipodal equator points of the lune
    lune = SuspensionSpace(spaces.Interval(0.0, math.pi))
    assert lune.distance([q, 0.0], [q, math.pi]) == pytest.approx(math.pi, abs=1e-12)


def test_suspension_midpoint_consistency():
    s = SuspensionSpace(spaces.Circle(2 * math.pi))
    x, y = [1.0, 0.0], [2.0, 1.2]
    m = s.interpolate(x, y, 0.5)
    assert s.distance(x, m) == pytest.approx(s.distance(x, y) / 2, abs=1e-9)
    assert s.distance(m, y) == pytest.approx(s.distance(x, y) / 2, abs=1e-9)


def test_scale_space():
    c = scale_space(spaces.Circle(3.0), 2.0)
    assert c.distance(0.0, 1.0) == pytest.approx(2.0)
    ident = scale_space(spaces.Interval(0.0, 1.0), 1.0)
    assert ident.distance(0.0, 1.0) == pytest.approx(1.0)


def test_scaling_covariance_of_warped_product():
    # distances in lam*(B x_f F) match (lam*B) x_{lam * f(x/lam)} F
    lam = 2.0
    f1 = WarpFunction.from_expression("1.0 + 0.5*t", 0.5)
    t1 = WarpedTriple(spaces.Interval(0.0, 2.0), f1, spaces.Circle(8.0))
    f2 = WarpFunction.from_expression("2.0 * (1.0 + 0.25*t)", 0.5)
    t2 = WarpedTriple(spaces.Interval(0.0, 4.0), f2, spaces.Circle(8.0))
    d1 = warped_distance(t1, (0.2, 0.0), (1.8, 1.1), tol=1e-3)
    d2 = warped_distance(t2, (0.4, 0.0), (3.6, 1.1), tol=1e-3)
    assert d2 == pytest.approx(lam * d1, abs=5e-3)


def test_doubled_interval_cos():
    base = spaces.Interval(0.0, math.pi / 2)
    f = WarpFunction.from_expression("cos(t)", 1.0, zeros=(math.pi / 2,))
    doubled, fdag = make_doubled(base, f)
    assert isinstance(doubled, spaces.Interval)
    assert (doubled.a, doubled.b) == pytest.approx((-math.pi / 2, math.pi / 2))
    ts = np.linspace(-math.pi / 2, math.pi / 2, 33)
    assert np.allclose(fdag(ts), np.cos(ts), atol=1e-12)
    v = sinusoidal_test(fdag, doubled, 1.0, mode="concave", seed=1)
    assert v.passed


def test_doubled_interval_constant():
    base = spaces.Interval(0.0, 1.0)
    doubled, fdag = make_doubled(base, WarpFunction.constant(1.0))
    assert isinstance(doubled, spaces.Circle)
    assert doubled.length == pytest.approx(2.0)
    assert float(fdag(1.7)) == pytest.approx(1.0)


def test_doubled_interval_identity():
    base = spaces.Interval(0.0, 1.0)
    f = WarpFunction.linear(1.0)
    doubled, fdag = make_doubled(base, f)
    assert isinstance(doubled, spaces.Interval)
    assert (doubled.a, doubled.b) == pytest.approx((0.0, 2.0))
    xs = np.linspace(0.0, 2.0, 33)
    assert np.allclose(fdag(xs), np.minimum(xs, 2.0 - xs), atol=1e-12)


def test_doubled_z_equals_boundary_is_identity():
    base = spaces.Interval(0.0, math.pi)
    f = WarpFunction.sin()
    doubled, fdag = make_doubled(base, f)
    assert doubled is base
    assert fdag is f


# the warps of make_doubled as closures before they were expressions: the
# fold of the double onto B, then f
OLD_FOLDS = {
    "circle": lambda x, a, b, L: a + np.where(np.mod(x, L) <= b - a, np.mod(x, L),
                                              L - np.mod(x, L)),
    "reflect_a": lambda x, a, b, L: a + np.abs(x - a),
    "reflect_b": lambda x, a, b, L: b - np.abs(x - b),
    "line": lambda x, a, b, L: np.abs(x),
}


@pytest.mark.parametrize("base, expr, zeros, fold", [
    (spaces.Interval(0.3, 1.7), "1 + 0.5*sin(3*t)", (), "circle"),
    (spaces.Interval(-0.4, 1.3), "1.3 - t + 0.1*(t - 1.3)**2", (1.3,), "reflect_a"),
    (spaces.Interval(-0.4, 1.3), "(t + 0.4)*exp(-t)", (-0.4,), "reflect_b"),
    (spaces.Ray(2.0), "1 + t**2 + 0.2*abs(t - 1)", (), "line"),
], ids=list(OLD_FOLDS))
def test_doubled_warp_is_an_expression_equal_to_the_old_closure(base, expr, zeros, fold):
    f = WarpFunction.from_expression(expr, 5.0, zeros=zeros)
    doubled, fdag = make_doubled(base, f)
    again = WarpFunction.from_expression(fdag.expr, fdag.lipschitz)
    xs = np.linspace(*domain(doubled), 4097)
    if isinstance(doubled, spaces.Circle):
        # the coordinates [0, L) of the circle
        xs = xs[:-1]
    a, b = (base.a, base.b) if isinstance(base, spaces.Interval) else (0.0, 0.0)
    old = f(OLD_FOLDS[fold](xs, a, b, 2.0 * (b - a)))
    assert fdag(xs).tobytes() == again(xs).tobytes() == old.tobytes()


def test_doubled_rejects_interior_zero():
    base = spaces.Interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        make_doubled(base, WarpFunction.abs_t())


def test_doubled_disk_sheets():
    disk = spaces.ModelDisk(0.0, 1.0)
    f = WarpFunction.from_expression("1.0 + 0.0*r", 0.0, arity=2)
    doubled, fdag = make_doubled(disk, f)
    assert fdag is f
    x = np.array([0.0, 0.5, 0.0])   # (sheet, r, theta)
    y = np.array([1.0, 0.5, 0.0])
    # crossing the rim: 0.5 out plus 0.5 back on the other sheet
    assert doubled.distance(x, y) == pytest.approx(1.0, abs=1e-9)
    # sheet-swap isometry
    pts = doubled.sample(6, seed=2)
    swapped = doubled.swap_sheets(pts)
    d1 = doubled.dist_pairs(pts[:3], pts[3:])
    d2 = doubled.dist_pairs(swapped[:3], swapped[3:])
    assert np.allclose(d1, d2, atol=1e-9)


def test_cone_duality_at_sample_scale():
    # verdicts of cone CAT(0) and fiber CAT(1) flip together across 2 pi
    for L, expect in ((2 * math.pi * 0.9, False), (2 * math.pi * 1.1, True)):
        cone = ConeSpace(spaces.Circle(L), 1.0)
        cone_v = sample_comparisons(cone, 0.0, "CAT", 1500, seed=9)
        fiber_v = sample_comparisons(spaces.Circle(L), 1.0, "CAT", 1500, seed=9)
        assert cone_v.passed == fiber_v.passed == expect


# Cross-sheet distances on the full double of the flat unit disk: the least
# |x - p| + |p - y| over rim points p, which the test recomputes by a dense
# rim scan.  Rows: (sheet, r, theta) pairs and the distance.
CROSS_SHEET_GOLDEN = [
    ((0, 0.2, 0.0), (1, 0.9, 1.0), 1.005767416295854),
    ((0, 0.5, 1.5), (1, 0.5, 1.5), 1.0),
    ((0, 0.0, 0.0), (1, 0.0, 0.0), 2.0),
    ((0, 0.8, 3.0), (1, 0.3, 6.0), 1.4975473188975823),
    ((1, 0.95, 2.0), (0, 0.95, 5.1), 1.9995675283787138),
    ((0, 1.0, 0.5), (1, 1.0, 0.5), 0.0),    # one glued rim point on both sheets
    ((0, 0.6, 4.4), (1, 0.7, 0.1), 1.6120068730015464),
    ((1, 0.25, 1.0), (0, 0.75, 3.9), 1.4937654495367687),
]


def _flat_rim_scan(x, y, n=400001):
    """min over rim points p of |x - p| + |p - y| on the flat unit disk:
    a dense scan, then a golden-section search on its best interval."""
    px, py = (np.array([r * math.cos(t), r * math.sin(t)]) for r, t in (x, y))

    def total(t):
        p = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return np.linalg.norm(p - px, axis=-1) + np.linalg.norm(p - py, axis=-1)
    th = np.linspace(0.0, 2 * math.pi, n)
    k = int(np.argmin(total(th)))
    a, b = th[max(k - 1, 0)], th[min(k + 1, n - 1)]
    for _ in range(80):
        m1, m2 = b - 0.618 * (b - a), a + 0.618 * (b - a)
        a, b = (a, m2) if total(m1) < total(m2) else (m1, b)
    return float(total(0.5 * (a + b)))


def test_doubled_disk_cross_sheet_golden():
    doubled = constructions.DoubledDisk(spaces.ModelDisk(0.0, 1.0), [(0.0, 2 * math.pi)])
    xs = np.array([x for x, _, _ in CROSS_SHEET_GOLDEN], float)
    ys = np.array([y for _, y, _ in CROSS_SHEET_GOLDEN], float)
    got = doubled.dist_pairs(xs, ys)
    assert got == pytest.approx([d for _, _, d in CROSS_SHEET_GOLDEN], rel=1e-12, abs=1e-15)
    for x, y, d in zip(xs, ys, got):
        if x[1] < 1.0:
            assert d == pytest.approx(_flat_rim_scan(x[1:], y[1:]), rel=0, abs=1e-9)
    # every cross-sheet path touches the rim
    assert np.all(got >= (1.0 - xs[:, 1]) + (1.0 - ys[:, 1]) - 1e-15)


def test_doubled_disk_glued_rim_is_one_point():
    # glue set: the rim arc 0 <= theta <= 2
    doubled = constructions.DoubledDisk(spaces.ModelDisk(0.0, 1.0), [(0.0, 2.0)])
    thetas = np.array([0.0, 0.5, 1.3, 2.0])
    rim = np.column_stack([np.zeros(4), np.ones(4), thetas])
    copy = doubled.swap_sheets(rim)
    assert np.all(doubled.dist_pairs(rim, copy) == 0.0)
    # a glued rim point is as far from either sheet's copy of another point
    other = np.array([[0.0, 0.4, 4.0]] * 4)
    for pts in (rim, copy):
        d = doubled.dist_pairs(pts, other)
        assert np.array_equal(d, doubled.dist_pairs(other, pts))
        assert np.array_equal(d, doubled.dist_pairs(pts, doubled.swap_sheets(other)))
    # off the glue set the rim copies stay apart
    off = np.array([[0.0, 1.0, 4.0]])
    assert doubled.dist_pairs(off, doubled.swap_sheets(off))[0] > 0.1
