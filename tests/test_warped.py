"""Warped-product distance engine tests."""

import math
import warnings

import numpy as np
import pytest

from warpcurv import radial, spaces, warped
from warpcurv.warped import (WarpFunction, WarpedTriple, clairaut_check,
                             recover_warp, warped_distance, warped_geodesic)


def cone_triple(extent=2.0):
    base = spaces.Ray(sample_extent=extent)
    f = WarpFunction.linear(1.0)
    return WarpedTriple(base, f, spaces.Circle(2 * math.pi))


def suspension_triple():
    base = spaces.Interval(0.0, math.pi)
    f = WarpFunction.sin()
    return WarpedTriple(base, f, spaces.Circle(2 * math.pi))


def product_triple(c=1.0):
    base = spaces.Interval(0.0, 4.0)
    return WarpedTriple(base, WarpFunction.constant(c), spaces.Circle(20.0))


def unrolled_cone(r1, r2, dtheta):
    """Flat-cone oracle by unrolling into the plane."""
    if dtheta >= math.pi:
        return r1 + r2
    return math.sqrt(r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(dtheta))


def test_warp_function_validation():
    with pytest.raises(ValueError):
        WarpedTriple(spaces.Interval(0, 1), WarpFunction.constant(0.0),
                     spaces.Circle(1.0))
    f = WarpFunction.from_expression("sin(t)", 1.0, zeros=(0.0, math.pi))
    assert f(math.pi / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        WarpFunction.from_expression("__import__('os')", 1.0)


# every warp expression of the tests and of bench/workloads.py
WARP_EXPRESSIONS = [
    "t", "t*t", "0.4*t", "0.7", "0.8", "2.0", "1 + t", "1.0 + 0.5*t", "1.0 + t - 300*t*t",
    "2.0 * (1.0 + 0.25*t)", "1 + 0.3*t**2", "1 + (t - 1)**2", "t*t*t - t", "abs(t)",
    "abs(t - 0.5)", "abs(t - 1.5)", "abs(t - 3)", "abs(t*(t - 1.5))", "1 + abs(t - 1)",
    "1 + abs(t - 2)", "2 - abs(t - 1)", "1 + t + abs(t - 1)", "2 + abs(t - pi)",
    "1 + abs(t - 1) - 1.75*max(t - 2, 0*t)", "max(t - 1, 0*t)", "max(sin(t), 0*t)",
    "sin(t)", "cos(t)", "2 + cos(t)", "2.0 + sin(t)", "0.3 + 0.1*cos(t)", "1.5 + sin(2*t)",
    "1 + abs(sin(3*t))", "1 - cos(2*pi*t/5)", "2.0 + cos(2*pi*t/5.0)", "sinh(t)", "cosh(t)",
    "cosh(t) - 0.2*t*t*t", "exp(t)",
]
DISK_EXPRESSIONS = ["cos(r)", "1.5 - r", "0.8 + 0*r", "1.2 + 0*r", "1.0 + 0.0*r", "1 + 0.3*r",
                    "1 + 0.3*r*cos(theta)", "1.0 + 0.3*r*cos(theta)"]
WARP_INPUTS = [0.7, np.array(1.3), np.linspace(-0.5, 3.5, 41),
               np.linspace(-0.5, 3.5, 42).reshape(6, 7)]


def _numpy_warp(expr, *coords):
    """expr evaluated by plain numpy, broadcast to the first coordinate's shape."""
    names = dict(zip(("t",) if len(coords) == 1 else ("r", "theta"), coords))
    out = eval(expr, {"__builtins__": {}}, dict(warped._SAFE_ENV, **names))
    return np.broadcast_to(np.asarray(out, dtype=float), np.shape(coords[0]))


@pytest.mark.parametrize("expr", WARP_EXPRESSIONS + DISK_EXPRESSIONS)
def test_compiled_warp_is_bit_identical_to_numpy(expr):
    arity = 2 if expr in DISK_EXPRESSIONS else 1
    fn = WarpFunction.from_expression(expr, 1.0, arity=arity).fn
    for x in WARP_INPUTS:
        coords = (x,) if arity == 1 else (x, np.multiply(x, 2.0))
        got = fn(*coords)
        assert isinstance(got, np.ndarray) and got.dtype == float
        assert got.shape == np.shape(x)
        assert got.tobytes() == np.ascontiguousarray(_numpy_warp(expr, *coords)).tobytes()


def test_compiled_warp_broadcasts_and_copies():
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    for expr in ("0.7", "pi", "2.0 * 3"):
        out = WarpFunction.from_expression(expr, 0.0).fn(x)
        assert out.shape == (3, 4) and np.all(out == out.flat[0])
    out = WarpFunction.from_expression("t", 1.0).fn(x)
    assert np.array_equal(out, x) and not np.shares_memory(out, x)
    out[0, 0] = 99.0
    assert x[0, 0] == 0.0
    theta = WarpFunction.from_expression("theta", 1.0, arity=2).fn(x, x + 1.0)
    assert theta.shape == (3, 4) and theta[0, 0] == 1.0


@pytest.mark.parametrize("expr", ["t), (t", "t.__class__", "lambda: 1", "__import__('os')",
                                  "sin(t, out=t)", "[t, t]", "'t'"])
def test_warp_expression_rejects_everything_but_arithmetic(expr):
    with pytest.raises(ValueError):
        WarpFunction.from_expression(expr, 1.0)


def test_cone_basic_distances():
    t = cone_triple()
    assert warped_distance(t, (1.0, 0.0), (1.0, math.pi / 2), tol=1e-3) == pytest.approx(
        math.sqrt(2.0), abs=2e-3)
    # through the apex
    assert warped_distance(t, (1.0, 0.0), (2.0, math.pi), tol=1e-3) == pytest.approx(
        3.0, abs=2e-3)
    # apex itself: fiber coordinate is immaterial
    assert warped_distance(t, (0.0, 1.0), (1.5, 2.0), tol=1e-3) == pytest.approx(
        1.5, abs=1e-9)


def test_cone_against_unrolling():
    t = cone_triple()
    g = spaces.rng(3, stream=31)
    for _ in range(5):
        r1, r2 = g.uniform(0.3, 1.8, 2)
        s1, s2 = g.uniform(0.0, 2 * math.pi, 2)
        dth = abs(s1 - s2)
        dth = min(dth, 2 * math.pi - dth)
        expect = unrolled_cone(r1, r2, dth)
        got = warped_distance(t, (r1, s1), (r2, s2), tol=1e-3)
        assert got == pytest.approx(expect, abs=3e-3)


def test_product_pythagoras():
    t = product_triple(1.0)
    d = warped_distance(t, (0.0, 0.0), (3.0, 4.0), tol=1e-3)
    assert d == pytest.approx(5.0, abs=2e-3)


def test_suspension_matches_sphere():
    t = suspension_triple()
    # poles
    assert warped_distance(t, (0.0, 0.0), (math.pi, 1.0), tol=1e-3) == pytest.approx(
        math.pi, abs=2e-3)
    # generic pair vs the spherical law of cosines
    t1, t2, dphi = 1.1, 2.0, 1.3
    expect = math.acos(math.cos(t1) * math.cos(t2)
                       + math.sin(t1) * math.sin(t2) * math.cos(dphi))
    got = warped_distance(t, (t1, 0.0), (t2, dphi), tol=1e-3)
    assert got == pytest.approx(expect, abs=3e-3)


def spherical_law(t1, t2, dphi):
    return math.acos(math.cos(t1) * math.cos(t2)
                     + math.sin(t1) * math.sin(t2) * math.cos(dphi))


# a near-antipodal query, and a pair whose geodesic grazes the pole t = pi,
# where a path that settles on the pole would give the through-Z value
ROADMAP_QUERY = (0.2446, 2.3958, 2.8675)
POLE_GRAZING = (2.988346479567784, 2.259677075984764, 2.5626991003635142)
# great circles passing 0.061 from t = pi and 0.030 from t = 0, where a
# path that settles on the pole would give the through-Z value
NEAR_SOUTH_POLE = (1.5362121631693724, 3.0485883642240674, 2.4369057379950423)
NEAR_NORTH_POLE = (1.268385764481704, 0.3199367073107595, 3.0405214951131048)


@pytest.mark.parametrize("query", [ROADMAP_QUERY, POLE_GRAZING, NEAR_SOUTH_POLE,
                                   NEAR_NORTH_POLE],
                         ids=["near_antipodal", "pole_grazing", "near_south_pole",
                              "near_north_pole"])
def test_suspension_error_within_tol(query):
    t1, t2, ell = query
    got = warped.reduced_distance(suspension_triple(), t1, t2, ell, tol=1e-3)
    assert abs(got - spherical_law(t1, t2, ell)) <= 1e-3


@pytest.mark.parametrize("resolution", [1e-3, 1e-6])
@pytest.mark.parametrize("query", [ROADMAP_QUERY, POLE_GRAZING, NEAR_SOUTH_POLE,
                                   NEAR_NORTH_POLE],
                         ids=["near_antipodal", "pole_grazing", "near_south_pole",
                              "near_north_pole"])
def test_suspension_geodesic_is_the_great_circle(query, resolution):
    t1, t2, ell = query
    poly = warped_geodesic(suspension_triple(), (t1, 0.0), (t2, ell), resolution=resolution)
    assert abs(poly.total_length - spherical_law(t1, t2, ell)) <= 0.05 * resolution
    bs = np.asarray(poly.base_points, float)
    assert np.all((bs >= 0.0) & (bs <= math.pi))


def test_equator_winner_rides_all_of_ell():
    # ell(c) jumps from 0 at c = f(pi / 2) = 1 to pi below it, so the root
    # bracketed there never reaches ell: its arcs never leave pi / 2, and
    # the winner rides the equator for all of ell, which its value charges
    sol = warped.clairaut_solve(suspension_triple(), math.pi / 2, math.pi / 2, 0.4)
    assert sol.value[0] == 0.4
    assert sol.winner[0] == ("arc", math.pi / 2, math.pi / 2, math.pi / 2, 1.0, 0.4)
    assert repr(sol.winner) == repr([sol.winner[0]])


def test_equator_geodesic_is_the_leaf_path():
    # the winner's arcs start, turn and end at the maximum pi / 2 of f, so
    # _arc_path samples its ride: the equator itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = warped_geodesic(suspension_triple(), (math.pi / 2, 0.0), (math.pi / 2, 0.4),
                               resolution=1e-3)
    assert np.all(np.asarray(poly.base_points) == math.pi / 2)
    assert poly.total_length == pytest.approx(0.4, abs=1e-12)
    assert len(poly) >= 8


def test_equator_geodesic_of_a_ride_within_the_error_bar():
    # at ell = 1e-13 the ride's charge is within the floor of the root's
    # error bar, so the winner reports ride 0; its geodesic is still the leaf
    sol = warped.clairaut_solve(suspension_triple(), math.pi / 2, math.pi / 2, 1e-13)
    assert sol.winner[0][0] == "arc" and sol.winner[0][5] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = warped_geodesic(suspension_triple(), (math.pi / 2, 0.0), (math.pi / 2, 1e-13),
                               resolution=1e-3)
    assert np.all(np.asarray(poly.base_points) == math.pi / 2)
    assert poly.total_length <= 1e-13


def test_two_piece_through_zero():
    base = spaces.Interval(-1.0, 1.0)
    t = WarpedTriple(base, WarpFunction.abs_t(), spaces.Circle(2 * math.pi))
    # opposite fiber points: the join passes through Z = {0}
    d = warped_distance(t, (-1.0, 0.0), (1.0, math.pi), tol=1e-3)
    assert d == pytest.approx(2.0, abs=2e-3)


def test_thresholding_warning_recorded_once():
    f = WarpFunction.from_expression("abs(t - 0.5)", 1.0)
    t = WarpedTriple(spaces.Interval(0.0, 1.0), f, spaces.Circle(6.0))
    for u, v in (((0.1, 0.0), (0.9, 1.0)), ((0.2, 0.5), (0.8, 2.0)), ((0.3, 0.0), (0.6, 3.0))):
        warped_distance(t, u, v, tol=1e-2)
    assert t.warnings == ["zero set detected by thresholding f < 1e-10 without a hint"]


def test_zero_warp_endpoint_collapses_fiber():
    t = suspension_triple()
    # f vanishes at the pole: distance ignores the fiber there exactly
    d1 = warped_distance(t, (0.0, 0.0), (1.0, 2.0), tol=1e-3)
    d2 = warped_distance(t, (0.0, 5.0), (1.0, 2.0), tol=1e-3)
    assert d1 == d2 == pytest.approx(1.0, abs=1e-9)


def test_horizontal_leaf_is_base_distance():
    t = suspension_triple()
    # same fiber point: distance equals the base distance exactly
    assert warped_distance(t, (0.4, 1.0), (2.0, 1.0), tol=1e-3) == pytest.approx(
        1.6, abs=1e-9)


def test_symmetry_and_bounds():
    t = suspension_triple()
    u, v = (0.7, 0.3), (2.2, 2.9)
    d_uv = warped_distance(t, u, v, tol=1e-3)
    d_vu = warped_distance(t, v, u, tol=1e-3)
    assert d_uv == pytest.approx(d_vu, abs=1e-6)
    d_B = abs(u[0] - v[0])
    ell = t.fiber.distance(u[1], v[1])
    fmin = min(float(t.warp(u[0])), float(t.warp(v[0])))
    assert d_uv >= d_B - 1e-12
    assert d_uv <= d_B + fmin * ell + 1e-12


def test_circle_base_seam():
    base = spaces.Circle(2 * math.pi)
    f = WarpFunction.from_expression("2.0 + sin(t)", 1.0)
    t = WarpedTriple(base, f, spaces.Circle(2 * math.pi))
    # same fiber point across the seam
    d = warped_distance(t, (0.2, 1.0), (2 * math.pi - 0.2, 1.0), tol=1e-3)
    assert d == pytest.approx(0.4, abs=1e-9)


def test_fiber_independence():
    # fibers with matched endpoint separation give identical distances
    base = spaces.Interval(0.0, 2.0)
    f = WarpFunction.from_expression("1.0 + 0.5*t", 0.5)
    ell = 1.3
    ds = []
    for fiber, u, v in [
        (spaces.Interval(0.0, 2.0), 0.0, ell),
        (spaces.Circle(10.0), 1.0, 1.0 + ell),
        (spaces.FiniteMetric([[0.0, ell], [ell, 0.0]]), 0, 1),
    ]:
        t = WarpedTriple(base, f, fiber)
        ds.append(warped_distance(t, (0.3, u), (1.7, v), tol=1e-3))
    assert max(ds) - min(ds) <= 2e-3


def test_geodesic_and_clairaut():
    t = cone_triple()
    theta0 = 2.0
    poly = warped_geodesic(t, (1.0, 0.0), (1.0, theta0), resolution=1e-3)
    # unrolled chord length
    assert poly.total_length == pytest.approx(2 * math.sin(theta0 / 2), abs=2e-3)
    rep = clairaut_check(poly, t)
    # Clairaut constant of the unrolled chord is the apex distance
    assert rep.constant_estimate == pytest.approx(math.cos(theta0 / 2), abs=1e-3)
    assert rep.max_drift <= 1e-3
    assert rep.speed_residual <= 2e-3
    # minimum base coordinate equals the Clairaut constant (f = id)
    assert float(np.min(poly.base_points)) == pytest.approx(
        math.cos(theta0 / 2), abs=2e-3)


def test_vertical_geodesic_zero_clairaut_speed():
    # purely radial geodesic: fiber parameter constant, c = 0
    t = cone_triple()
    poly = warped_geodesic(t, (0.2, 1.0), (1.8, 1.0), resolution=1e-3)
    rep = clairaut_check(poly, t)
    assert abs(rep.constant_estimate) <= 1e-9
    assert np.allclose(poly.fiber_params, poly.fiber_params[0])


def test_recover_warp():
    eps = 1e-2
    t = product_triple(2.0)
    assert recover_warp(t, 1.5, 0.0, eps) == pytest.approx(2.0, abs=3 * eps)
    t = cone_triple()
    assert recover_warp(t, 1.0, 0.0, eps) == pytest.approx(1.0, abs=3 * eps)
    t = suspension_triple()
    assert recover_warp(t, math.pi / 2, 1.0, eps) == pytest.approx(1.0, abs=3 * eps)


def test_leaf_extrinsic_curvature_cone():
    t = cone_triple()
    a_est = warped.leaf_extrinsic_curvature(t, 1.0, max_scale=0.4)
    assert a_est == pytest.approx(1.0, abs=0.05)


def test_leaf_extrinsic_curvature_product_flat():
    t = product_triple(1.0)
    a_est = warped.leaf_extrinsic_curvature(t, 2.0, max_scale=0.4)
    assert abs(a_est) <= 0.05


def test_convergence_error_reports_bracket():
    t = suspension_triple()
    with pytest.raises(warped.ConvergenceError) as info:
        warped.reduced_distance(t, 0.3, 2.8, math.pi, tol=1e-13)
    lo, hi = info.value.bracket
    assert lo <= spherical_law(0.3, 2.8, math.pi) <= hi


def test_grid_oracle_sampling_interface():
    t = product_triple(1.0)
    oracle = warped.GridWarpedOracle(t, tol=1e-2)
    pts = oracle.sample(6, seed=4)
    d = oracle.distance(pts[0], pts[1])
    assert d >= 0.0
    assert oracle.distance(pts[0], pts[0]) == pytest.approx(0.0, abs=1e-9)


def _constant_disk_triple(kappa, c, fiber):
    warp = WarpFunction.from_expression("%r + 0*r" % c, 0.0, arity=2)
    return WarpedTriple(spaces.ModelDisk(kappa, 1.0), warp, fiber, check=False)


# Disk-base distances for constant warps: the product law hypot(d_B, c ell),
# which the test recomputes.  Rows: base point, fiber point of u, then of v,
# and the value.
DISK_ENGINE_GOLDEN = [
    (-1.0, 0.8, spaces.Circle(2 * math.pi), [
        ((0.3, 0.4), 0.0, (0.8, 2.2), 0.7, 1.0815633366835307),
        ((0.0, 0.0), 1.0, (1.0, 3.0), 1.25, 1.019803902718557),
        ((0.95, 5.9), 2.0, (0.9, 0.3), 2.08, 0.702113529870658),
        ((0.5, 1.0), 3.0, (0.55, 1.1), 3.03, 0.07800130226930989)]),
    (0.0, 1.2, spaces.Interval(0.0, 2.0), [
        ((0.6, 1.0), 0.1, (0.5, 3.5), 0.8, 1.340256008875976),
        ((1.0, 0.0), 0.0, (1.0, 3.14), 0.25, 2.0223742144952004),
        ((0.2, 4.0), 1.5, (0.7, 5.0), 1.58, 0.6228413556893287),
        ((0.0, 2.0), 2.0, (0.05, 2.0), 1.97, 0.06161168720299747)]),
]


@pytest.mark.parametrize("kappa,c,fiber,rows", DISK_ENGINE_GOLDEN,
                         ids=["hyperbolic", "flat"])
def test_disk_engine_golden(kappa, c, fiber, rows):
    triple = _constant_disk_triple(kappa, c, fiber)
    for bu, fu, bv, fv, expect in rows:
        got = warped_distance(triple, (np.array(bu), fu), (np.array(bv), fv))
        law = math.hypot(triple.base.distance(bu, bv), c * fiber.distance(fu, fv))
        assert expect == pytest.approx(law, rel=1e-15, abs=1e-15)
        assert got == pytest.approx(expect, rel=0, abs=1e-9)


# ---------------------------------------------------------------- radial warps on disks

def s3_triple():
    """ModelDisk(1, pi/2) x_{cos r} Circle(2 pi): the round S^3 as the join of
    two great circles."""
    warp = WarpFunction.from_expression("cos(r)", 1.0, arity=2)
    return WarpedTriple(spaces.ModelDisk(1.0, math.pi / 2), warp, spaces.Circle(2 * math.pi),
                        check=False)


def s3_law(x, y, ell):
    cos_d = (math.cos(x[0]) * math.cos(y[0]) * math.cos(ell)
             + math.sin(x[0]) * math.sin(y[0]) * math.cos(x[1] - y[1]))
    return math.acos(min(1.0, max(-1.0, cos_d)))


def s3_pairs():
    """Uniform pairs of S^3, pairs within 1e-3 .. 1e-1 of antipodal, and
    pairs at fiber distance pi, whose geodesics pass through Z = {r = pi/2}."""
    g = np.random.default_rng(17)

    def radius():
        return 0.5 * math.acos(1.0 - 2.0 * g.random())
    pairs = [((radius(), 2 * math.pi * g.random()), (radius(), 2 * math.pi * g.random()),
              math.pi * g.random()) for _ in range(24)]
    for _ in range(8):
        r, th, eps = radius(), 2 * math.pi * g.random(), 10 ** g.uniform(-3, -1)
        pairs.append(((r, th), (abs(min(r + eps * g.normal(), math.pi / 2)),
                                th + math.pi + eps * g.normal()), math.pi - abs(eps * g.normal())))
    pairs += [((radius(), 2 * math.pi * g.random()), (radius(), 2 * math.pi * g.random()),
               math.pi) for _ in range(4)]
    return pairs


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_s3_law_on_the_disk_join(tol):
    t = s3_triple()
    pairs = s3_pairs()
    sol = [radial.radial_solve(t, np.array(x), np.array(y), ell, tol=tol) for x, y, ell in pairs]
    err = [abs(s.value[0] - s3_law(x, y, ell)) for s, (x, y, ell) in zip(sol, pairs)]
    assert max(err) <= tol
    # at fiber distance pi the path through the rim, where cos r = 0, wins
    assert all(s.winner[0][0] == "z" for s in sol[-4:])
    kinds = {s.winner[0][1] for s in sol[:-4] if s.winner[0][0] == "arc"}
    assert kinds == {"monotone", "inner", "outer", "both"}


@pytest.mark.parametrize("kappa,radius", [(-1.0, 1.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0)],
                         ids=["hyperbolic", "flat", "spherical", "nonconvex"])
def test_constant_disk_warp_is_pythagorean(kappa, radius):
    warp = WarpFunction.from_expression("0.8 + 0*r", 0.0, arity=2)
    t = WarpedTriple(spaces.ModelDisk(kappa, radius), warp, spaces.Circle(2 * math.pi),
                     check=False)
    pts = t.base.sample(24, 9)
    ell = np.random.default_rng(9).uniform(0.0, 2.5, 12)
    law = np.hypot(t.base.dist_pairs(pts[:12], pts[12:]), 0.8 * ell)
    for tol in (1e-3, 1e-6):
        got = radial.radial_solve(t, pts[:12], pts[12:], ell, tol=tol).value
        assert np.max(np.abs(got - law)) <= tol
        one = [warped.reduced_distance(t, x, y, e, tol=tol) for x, y, e in zip(pts[:12], pts[12:],
                                                                               ell)]
        assert np.max(np.abs(got - one)) <= 1e-12


def test_non_radial_disk_warp_is_rejected():
    warp = WarpFunction.from_expression("1 + 0.3*r*cos(theta)", 0.3, arity=2)
    t = WarpedTriple(spaces.ModelDisk(0.0, 1.0), warp, spaces.Circle(2 * math.pi), check=False)
    with pytest.raises(ValueError, match="radial"):
        warped_distance(t, (np.array([0.2, 0.0]), 0.0), (np.array([0.5, 1.0]), 1.0))
    assert WarpFunction.from_expression("1 + 0.3*r", 0.3, arity=2).radial


def test_check_hints_rejects_a_disk_base():
    warp = WarpFunction.from_expression("0.8 + 0*r", 0.0, arity=2)
    t = WarpedTriple(spaces.ModelDisk(-1.0, 1.0), warp, spaces.Circle(2 * math.pi))
    with pytest.raises(ValueError, match="1-D bases"):
        t.check_hints()


@pytest.mark.parametrize("bp, bq, want", [(0.1, 0.6, 0.5), (0.25, 0.35, 0.1)])
def test_zero_between_scan_points_is_found(bp, bq, want):
    # 0.3 is no scan point of [0, 2]; the scan's dip there zooms to the root
    f = WarpFunction.from_expression("abs(t - 0.3)", 1.0)
    t = WarpedTriple(spaces.Interval(0.0, 2.0), f, spaces.Circle(10.0))
    kind, roots = warped.zero_set(f, t.base)
    assert kind == "points" and len(roots) == 1 and abs(roots[0] - 0.3) < 1e-12
    assert abs(warped.reduced_distance(t, bp, bq, 3.0, tol=1e-6) - want) <= 1e-6
