"""Clairaut solve on 1-D bases: exact laws, boundary arcs, kinks, batching."""

import json
import math
import pathlib
import re

import numpy as np
import pytest

from warpcurv import spaces, warped
from warpcurv.certify import certify
from warpcurv.warped import (GridWarpedOracle, WarpFunction, WarpedTriple, clairaut_solve,
                             reduced_distance, warped_distance, warped_geodesic)

TWO_PI = 2 * math.pi
CIRCLE = spaces.Circle(TWO_PI)


def triple(base, expr, lip, zeros=(), fiber=CIRCLE):
    return WarpedTriple(base, WarpFunction.from_expression(expr, lip, zeros=zeros), fiber)


def spherical(t1, t2, ell):
    return math.acos(max(-1.0, min(1.0, math.cos(t1) * math.cos(t2)
                                   + math.sin(t1) * math.sin(t2) * math.cos(ell))))


def cone(a):
    """Cone of slope a: unroll to a sector of angle a * ell."""
    def law(r1, r2, ell):
        if a * ell >= math.pi:
            return r1 + r2
        return math.sqrt(max(0.0, r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(a * ell)))
    return law


def hyperbolic(r1, r2, ell):
    return math.acosh(max(1.0, math.cosh(r1) * math.cosh(r2)
                          - math.sinh(r1) * math.sinh(r2) * math.cos(ell)))


def product(b1, b2, ell):
    return math.hypot(b1 - b2, 0.8 * ell)


EXACT = [
    ("spherical", triple(spaces.Interval(0.0, math.pi), "sin(t)", 1.0, (0.0, math.pi)),
     spherical, (0.05, math.pi - 0.05)),
    ("cone_1", triple(spaces.Ray(2.5), "t", 1.0, (0.0,)), cone(1.0), (0.05, 2.4)),
    ("cone_0.4", triple(spaces.Ray(2.5), "0.4*t", 0.4, (0.0,)), cone(0.4), (0.05, 2.4)),
    ("hyperbolic", triple(spaces.Ray(3.0), "sinh(t)", math.cosh(3.0), (0.0,)),
     hyperbolic, (0.05, 2.9)),
    ("product", triple(spaces.Interval(0.0, 2.0), "0.8", 0.0), product, (0.0, 2.0)),
]


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("name,t,law,window", EXACT, ids=[e[0] for e in EXACT])
def test_random_queries_against_exact_laws(name, t, law, window, tol):
    g = np.random.default_rng([int(1 / tol), len(name)])
    b1, b2 = g.uniform(*window, size=(2, 40))
    ell = g.uniform(0.0, math.pi, 40)
    sol = clairaut_solve(t, b1, b2, ell, tol=tol)
    expect = np.array([law(*q) for q in zip(b1, b2, ell)])
    assert np.max(np.abs(sol.value - expect)) <= tol


def test_hyperbolic_turning_scan_starts_at_the_endpoint():
    # a turning scan that starts one grid step past bp misses this root
    # and returns the through-Z value 1.8245
    t = EXACT[3][1]
    q = (0.5122, 1.3123, 1.0006)
    assert reduced_distance(t, *q) == pytest.approx(hyperbolic(*q), abs=1e-9)


@pytest.mark.parametrize("ell", [1.0, 2.0, 4.0])
def test_boundary_arc_of_one_plus_t(ell):
    # from b = 0.5 the smooth geodesics of f = 1 + t on [0, 2] reach a fiber
    # advance of at most 2 acos(2/3); beyond it the geodesic rides b = 0
    t = triple(spaces.Interval(0.0, 2.0), "1 + t", 1.0)
    ell_in = 2 * math.acos(2 / 3)
    got = reduced_distance(t, 0.5, 0.5, ell, tol=1e-6)
    if ell >= ell_in:
        assert got == pytest.approx(2 * math.sqrt(1.25) + ell - ell_in, abs=1e-9)
    else:
        assert got < 0.5 * 2 + 1.0 * ell    # shorter than to the wall and along it
        assert got < 1.5 * ell              # and than the leaf at bp


def tent(peak):
    """Monotone arc of slope-1 pieces of f over a kink at a maximum of height peak."""
    def law(f1, f2, c):
        ell = 2 * math.acos(c / peak) - math.acos(c / f1) - math.acos(c / f2)
        length = (2 * math.sqrt(peak ** 2 - c ** 2) - math.sqrt(f1 ** 2 - c ** 2)
                  - math.sqrt(f2 ** 2 - c ** 2))
        return ell, length
    return law


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_tent_law_across_a_kink_at_a_maximum(tol):
    # 2 - |t - 1| is a cone of slope 1 on either side of its peak; an arc
    # from b1 < 1 to b2 > 1 crosses the kink, which splits its quadrature
    t = triple(spaces.Interval(0.0, 2.0), "2 - abs(t - 1)", 1.0)
    g = np.random.default_rng(11)
    b1, b2 = g.uniform(0.05, 0.95, 25), g.uniform(1.05, 1.95, 25)
    f1, f2 = 2 - np.abs(b1 - 1), 2 - np.abs(b2 - 1)
    c = np.minimum(f1, f2) * g.uniform(0.0, 1.0, 25)
    ell, expect = np.array([tent(2.0)(*q) for q in zip(f1, f2, c)]).T
    sol = clairaut_solve(t, b1, b2, ell, tol=tol)
    assert np.max(np.abs(sol.value - expect)) <= tol


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_circle_seam_against_the_tent_law(tol):
    # 2 + |t - pi| on a circle peaks at the seam t = 0 = 2 pi; pairs on
    # either side of it are joined by arcs across the seam
    t = triple(CIRCLE, "2 + abs(t - pi)", 1.0, fiber=spaces.Interval(0.0, 3.0))
    g = np.random.default_rng(12)
    b1, b2 = TWO_PI - g.uniform(0.05, 1.0, 25), g.uniform(0.05, 1.0, 25)
    f1, f2 = 2 + np.abs(b1 - math.pi), 2 + np.abs(b2 - math.pi)
    c = np.minimum(f1, f2) * g.uniform(0.0, 1.0, 25)
    ell, expect = np.array([tent(2 + math.pi)(*q) for q in zip(f1, f2, c)]).T
    sol = clairaut_solve(t, b1, b2, ell, tol=tol)
    assert np.max(np.abs(sol.value - expect)) <= tol


LONG_FIBER = spaces.Interval(0.0, 10.0)
KINK_RIDES = [
    # past the monotone arcs' fiber advance 2 acos(2/3) the geodesic rides
    # the kink of f at its minimum
    (triple(spaces.Interval(0.0, 2.0), "1 + abs(t - 1)", 1.0, fiber=LONG_FIBER),
     (0.5, 1.5, 2.5), 2 * math.sqrt(1.25) + 2.5 - 2 * math.acos(2 / 3)),
    # the same kink, where f falls again to 0.5 at the Interval's end
    (triple(spaces.Interval(0.0, 4.0), "1 + abs(t - 1) - 1.75*max(t - 2, 0*t)", 2.75,
            fiber=LONG_FIBER),
     (0.5, 1.5, 5.0), 2 * math.sqrt(1.25) + 5.0 - 2 * math.acos(2 / 3)),
    # a kink beyond both ends: a cone of slope 1 whose circle r = 1 is ridden
    (triple(spaces.Interval(0.0, 3.0), "1 + abs(t - 2)", 1.0, fiber=LONG_FIBER),
     (1.0, 1.0, 3.0), 2 * math.sqrt(3) + 3.0 - 2 * math.pi / 3),
    # f = 2 on [0, 1] and 2t beyond: the flat bottom is ridden at its near end
    (triple(spaces.Interval(0.0, 2.0), "1 + t + abs(t - 1)", 2.0, fiber=LONG_FIBER),
     (1.3432, 1.769, 3.1472), math.sqrt(1.3432 ** 2 - 1) + math.sqrt(1.769 ** 2 - 1)
     + 2 * 3.1472 - math.acos(1 / 1.3432) - math.acos(1 / 1.769)),
]


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("t,query,exact", KINK_RIDES, ids=["min", "min_and_end", "beyond",
                                                            "flat"])
def test_rides_over_a_kink_are_solved(t, query, exact, tol):
    oracle = GridWarpedOracle(t, tol=tol)
    d = oracle.dist_pairs([[query[0], 0.0]], [[query[1], query[2]]])
    assert oracle.solved == 1
    assert d[0] == pytest.approx(exact, abs=1e-9)


SIN_KINKS = triple(spaces.Interval(0.0, 3.0), "1 + abs(sin(3*t))", 3.0)


def test_kinks_inside_arcs_are_solved():
    # the arc of the first pair crosses the kinks of |sin 3t| at pi / 3 and
    # 2 pi / 3; split there, it is solved to tol, and its geodesic, sampled
    # piece by piece, agrees
    oracle = GridWarpedOracle(SIN_KINKS, tol=1e-6)
    q = (0.9355, 2.9098, 0.7653)
    d = oracle.dist_pairs([[q[0], 0.0], [0.5, 0.0]], [[q[1], q[2]], [0.6, 0.2]])
    assert oracle.solved == 2
    win = clairaut_solve(SIN_KINKS, *q).winner[0]
    assert win[0] == "arc" and min(win[1:3]) < 2 * math.pi / 3 < max(win[1:3])
    poly = warped_geodesic(SIN_KINKS, (q[0], 0.0), (q[1], q[2]), resolution=1e-6)
    assert poly.total_length == pytest.approx(d[0], abs=1e-5)


def test_geodesics_across_kinks_match_the_distance():
    # the arcs of 1 + |sin 3t| are sampled piece by piece between the kinks
    # that the solve split them at
    g = spaces.rng(7, 1)
    for _ in range(20):
        b1, b2 = g.uniform(0.0, 3.0, 2)
        ell = g.uniform(0.0, math.pi)
        d = warped_distance(SIN_KINKS, (b1, 0.0), (b2, ell), tol=1e-6)
        poly = warped_geodesic(SIN_KINKS, (b1, 0.0), (b2, ell), resolution=1e-6)
        assert abs(poly.total_length - d) <= 1e-6


def hyperbolic_plane(b1, b2, ell):
    """exp(t) on a Ray is the half plane y = e^-t <= 1 of H^2."""
    y1, y2 = math.exp(-b1), math.exp(-b2)
    return math.acosh(1 + (ell ** 2 + (y1 - y2) ** 2) / (2 * y1 * y2))


def test_steep_warp_on_a_ray_caps_the_scan():
    # windows of exp(t) past b = 3.6 reach beyond 16 times the domain's
    # scan, so those pairs are scanned at a doubled spacing; the pairs are
    # kept where their H^2 geodesic stays below y = 0.95, inside the Ray
    warp = WarpFunction.from_expression("exp(t)", math.exp(4.0))
    sizes = []
    counted = WarpFunction(lambda x: sizes.append(np.size(x)) or warp.fn(x), warp.lipschitz,
                           expr=warp.expr)
    t = WarpedTriple(spaces.Ray(4.0), counted, CIRCLE)
    g = np.random.default_rng(13)
    (b1, b2), ell = g.uniform(3.6, 4.0, (2, 200)), g.uniform(1.2, 1.8, 200)
    y1, y2 = np.exp(-b1), np.exp(-b2)
    x0 = (ell ** 2 + y2 ** 2 - y1 ** 2) / (2 * ell)
    top = np.where((x0 > 0) & (x0 < ell), np.hypot(x0, y1), np.maximum(y1, y2))
    b1, b2, ell = (v[top < 0.95][:30] for v in (b1, b2, ell))
    reach = warped._window(t, b1, b2, ell)[1]
    h = 4.0 / (warped.SCAN_POINTS - 1)
    assert np.count_nonzero(reach > h * (warped.RAY_SCAN_CAP - 1)) >= 10
    expect = [hyperbolic_plane(*q) for q in zip(b1, b2, ell)]
    for tol in (1e-3, 1e-6):
        sizes.clear()
        single = [reduced_distance(t, *q, tol=tol) for q in zip(b1, b2, ell)]
        assert max(sizes) <= warped.RAY_SCAN_CAP
        assert np.max(np.abs(np.subtract(single, expect))) <= tol
        assert clairaut_solve(t, b1, b2, ell, tol=tol).value.tolist() == single


BATCH = [
    triple(spaces.Interval(0.0, 3.0), "1.5 + sin(2*t)", 2.0),
    triple(spaces.Ray(3.0), "sinh(t)", math.cosh(3.0), (0.0,)),
    triple(CIRCLE, "0.3 + 0.1*cos(t)", 0.1, fiber=spaces.Interval(0.0, 3.0)),
    SIN_KINKS,
]


@pytest.mark.parametrize("t", BATCH, ids=["sin2t", "ray", "circle", "kinks"])
def test_dist_pairs_equals_per_pair_reduced_distance(t):
    oracle = GridWarpedOracle(t, tol=1e-3)
    xs, ys = oracle.sample(40, seed=5), oracle.sample(40, seed=6)
    xs[:3, 0] = ys[:3, 0]
    batch = oracle.dist_pairs(xs, ys)
    fiber = t.fiber
    single = [reduced_distance(t, x[0], y[0], fiber.distance(x[1], y[1]), tol=1e-3)
              for x, y in zip(xs, ys)]
    assert np.array_equal(batch, single)
    assert oracle.solved == 40


ANCHORS = [
    (EXACT[0][1], (0.8, 2.1, 1.9)),
    (EXACT[0][1], (0.5, math.pi - 0.55, math.pi - 0.05)),
    (EXACT[0][1], (0.2446, 2.3958, 2.8675)),
    (triple(spaces.Ray(2.5), "t", 1.0, (0.0,)), (0.7, 1.6, 1.2)),
    (EXACT[3][1], (0.5, 1.3, 1.0)),
    (EXACT[4][1], (0.3, 1.5, 2.0)),
    (BATCH[0], (0.4, 2.5, 1.1)),
    (triple(CIRCLE, "2 + cos(t)", 1.0), (0.5, 4.0, 0.8)),
    # rides over a kink, beyond the ends and between them
    KINK_RIDES[2][:2],
    KINK_RIDES[0][:2],
    # arcs across kinks
    (SIN_KINKS, (0.9355, 2.9098, 0.7653)),
    # bp = bq at the minimum of f: the leaf path wins
    (triple(spaces.Interval(0.0, 2.0), "1 + (t - 1)**2", 2.0), (1.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("t,query", ANCHORS)
def test_geodesic_length_matches_distance(t, query):
    b1, b2, ell = query
    d = warped_distance(t, (b1, 0.0), (b2, ell), tol=1e-3)
    poly = warped_geodesic(t, (b1, 0.0), (b2, ell), resolution=1e-3)
    assert abs(poly.total_length - d) <= 1e-3


def test_leaf_winner_is_the_leaf_path():
    t = ANCHORS[-1][0]
    poly = warped_geodesic(t, (1.0, 0.0), (1.0, 1.0), resolution=1e-3)
    assert poly.total_length == 1.0
    assert np.all(poly.base_points == 1.0)


def test_certify_reports_engine_counts():
    doc = {"side": "CAT", "kappa": 0.0, "base": {"kind": "interval", "params": [0.0, 2.0]},
           "warp": {"expr": "1 + 0.3*t**2", "lipschitz": 1.2, "zeros": []},
           "fiber": {"kind": "circle", "params": [3.0]}, "budget": {"quadruples": 5},
           "tol": 1e-3, "seed": 1}
    rep = certify(doc)
    lines = [ln for ln in rep.human_text().splitlines() if "distance engine" in ln]
    assert len(lines) == 1
    assert re.fullmatch(r"  info: distance engine: [1-9]\d* pairs solved by the Clairaut "
                        r"relation", lines[0])
    assert "engine" not in rep.machine_text()


GOLDEN_TRIPLES = {
    "sin_cap": triple(spaces.Interval(0.0, 2.0), "sin(t)", 1.0, (0.0,)),
    "sinh_ray": triple(spaces.Ray(1.5), "sinh(t)", math.cosh(1.5), (0.0,)),
    "circle_seam": triple(CIRCLE, "0.3 + 0.1*cos(t)", 0.1),
    "kinked": triple(spaces.Interval(0.0, 3.0), "1 + abs(sin(3*t))", 3.0),
}
# 64 pairs per triple (uniform pairs, leaf pairs bp = bq, base pairs ell =
# 0, pairs near both ends or either side of the seam, and pairs at a zero
# or a local minimum of f) with their distances and winner kinds at two
# tols, as hex floats, recorded from the solve that built its scan nodes
# in a loop over pairs; the array build must reproduce them bit for bit
GOLDEN = json.loads((pathlib.Path(__file__).parent / "clairaut_golden.json").read_text())


@pytest.mark.parametrize("tol", ["0.001", "1e-06"])
@pytest.mark.parametrize("name", sorted(GOLDEN_TRIPLES))
def test_clairaut_golden(name, tol):
    rows = GOLDEN[name]
    bp, bq, ell = np.array([[float.fromhex(x) for x in q] for q in rows["pairs"]]).T
    sol = clairaut_solve(GOLDEN_TRIPLES[name], bp, bq, ell, tol=float(tol))
    assert [float(v).hex() for v in sol.value] == rows[tol]["value"]
    assert [sol.winner[i][0] for i in range(len(bp))] == rows[tol]["kind"]
