"""Clairaut solve on 1-D bases: exact laws, boundary arcs, fallback, batching."""

import math
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
    assert not sol.fallback.any()


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


def test_circle_base_against_the_lattice_engine():
    t = triple(CIRCLE, "2 + cos(t)", 1.0)
    g = np.random.default_rng(3)
    for b1, b2, ell in zip(*g.uniform(0.0, TWO_PI, size=(2, 4)), g.uniform(0.2, 3.0, 4)):
        sol = clairaut_solve(t, b1, b2, ell, tol=1e-4)
        lattice = warped._lattice_distance(t, b1, b2, ell, 1e-4, None, 8)[0]
        assert not sol.fallback[0]
        assert sol.value[0] <= lattice + 1e-7
        assert sol.value[0] == pytest.approx(lattice, abs=1e-4)


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
    assert (oracle.solved, oracle.fallbacks) == (1, 0)
    assert d[0] == pytest.approx(exact, abs=1e-9)


def test_kinks_inside_arcs_fall_back_and_are_counted():
    # arcs across the kinks of |sin 3t| at its minima converge too slowly
    # for tol / 2, so the lattice answers that pair
    t = triple(spaces.Interval(0.0, 3.0), "1 + abs(sin(3*t))", 3.0)
    oracle = GridWarpedOracle(t, tol=1e-3)
    q = (0.9355, 2.9098, 0.7653)
    d = oracle.dist_pairs([[q[0], 0.0], [0.5, 0.0]], [[q[1], q[2]], [0.6, 0.2]])
    assert (oracle.solved, oracle.fallbacks) == (1, 1)
    assert d[0] == pytest.approx(warped._lattice_distance(t, *q, 1e-5, None, 10)[0], abs=1e-3)


def test_steep_warp_on_a_ray_caps_the_scan():
    # the window of (3.5, 4, pi) reaches past 4 + e^4 pi: more scan points
    # than RAY_SCAN_CAP, so that pair goes to the lattice
    warp = WarpFunction.from_expression("exp(t)", math.exp(4.0))
    sizes = []
    counted = WarpFunction(lambda x: sizes.append(np.size(x)) or warp.fn(x), warp.lipschitz,
                           expr=warp.expr)
    t = WarpedTriple(spaces.Ray(4.0), counted, CIRCLE)
    pairs = ([3.5, 0.2], [4.0, 0.5], [math.pi, 1.0])
    sol = clairaut_solve(t, *pairs)
    assert sol.fallback.tolist() == [True, False]
    assert max(sizes) <= warped.RAY_SCAN_CAP
    assert sol.value.tolist() == [reduced_distance(t, *q) for q in zip(*pairs)]
    assert sol.value[0] == warped._lattice_distance(t, 3.5, 4.0, math.pi, 1e-3, None, 8)[0]


BATCH = [
    triple(spaces.Interval(0.0, 3.0), "1.5 + sin(2*t)", 2.0),
    triple(spaces.Ray(3.0), "sinh(t)", math.cosh(3.0), (0.0,)),
    triple(CIRCLE, "0.3 + 0.1*cos(t)", 0.1, fiber=spaces.Interval(0.0, 3.0)),
]


@pytest.mark.parametrize("t", BATCH, ids=["sin2t", "ray", "circle"])
def test_dist_pairs_equals_per_pair_reduced_distance(t):
    oracle = GridWarpedOracle(t, tol=1e-3)
    xs, ys = oracle.sample(40, seed=5), oracle.sample(40, seed=6)
    xs[:3, 0] = ys[:3, 0]
    batch = oracle.dist_pairs(xs, ys)
    fiber = t.fiber
    single = [reduced_distance(t, x[0], y[0], fiber.distance(x[1], y[1]), tol=1e-3)
              for x, y in zip(xs, ys)]
    assert np.array_equal(batch, single)
    assert oracle.solved == 40 and oracle.fallbacks == 0


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
                        r"relation, 0 lattice fallbacks", lines[0])
    assert "engine" not in rep.machine_text()
