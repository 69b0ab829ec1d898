"""Warped-product distance engine tests."""

import math

import numpy as np
import pytest

from warpcurv import spaces, warped
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
# great circles passing 0.061 from t = pi and 0.030 from t = 0: polish
# steps toward such a pole overshoot it, and a path clipped onto the pole
# stalls at the through-Z value
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


def _discrete_length_gradient(b, ell):
    """dE/db of E = sum sqrt(db^2 + (sin(mid) ds)^2), with the exact f'."""
    ds = ell / (len(b) - 1)
    db = np.diff(b)
    mid = 0.5 * (b[:-1] + b[1:])
    seg = np.sqrt(db ** 2 + (np.sin(mid) * ds) ** 2)
    t_u = db / seg
    t_m = 0.5 * np.sin(mid) * np.cos(mid) * ds * ds / seg
    grad = np.zeros(len(b))
    grad[:-1] += t_m - t_u
    grad[1:] += t_m + t_u
    return grad[1:-1]


def test_newton_polish_stationary_and_start_independent():
    t = suspension_triple()
    t1, t2, ell = POLE_GRAZING
    n = int(np.clip(4.0 * ell / math.sqrt(1e-3), 129, 20001))
    chord = warped._polish_path(t, np.array([t1, t2]), np.array([0.0, ell]),
                                ell, 0.0, math.pi, False, n)
    # the exact great circle, sampled as (colatitude, longitude)
    p = np.array([math.sin(t1), 0.0, math.cos(t1)])
    q = np.array([math.sin(t2) * math.cos(ell), math.sin(t2) * math.sin(ell), math.cos(t2)])
    w = math.acos(float(p @ q))
    tau = np.linspace(0.0, 1.0, 4001)[:, None]
    xyz = (np.sin((1 - tau) * w) * p + np.sin(tau * w) * q) / math.sin(w)
    circle = warped._polish_path(t, np.arccos(np.clip(xyz[:, 2], -1, 1)),
                                 np.arctan2(xyz[:, 1], xyz[:, 0]), ell, 0.0, math.pi,
                                 False, n)
    for _, b, _ in (chord, circle):
        grad = _discrete_length_gradient(b, ell)
        free = (b[1:-1] > 0.0) & (b[1:-1] < math.pi)
        assert np.max(np.abs(grad[free])) <= 1e-9
    assert chord[0] == pytest.approx(circle[0], abs=1e-9)
    assert abs(chord[0] - spherical_law(t1, t2, ell)) <= 1e-4


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


# Disk-base engine values for constant warps, pinned from the engine's
# own per-query graph builder before it moved onto the shared polar
# lattice.  Rows: base point, fiber point of u, then of v, and the value.
DISK_ENGINE_GOLDEN = [
    (-1.0, 0.8, spaces.Circle(2 * math.pi), [
        ((0.3, 0.4), 0.0, (0.8, 2.2), 0.7, 1.1664067683532344),
        ((0.0, 0.0), 1.0, (1.0, 3.0), 1.25, 1.0735641935939635),
        ((0.95, 5.9), 2.0, (0.9, 0.3), 2.08, 0.7135751782170086),
        ((0.5, 1.0), 3.0, (0.55, 1.1), 3.03, 0.09822469544821127)]),
    (0.0, 1.2, spaces.Interval(0.0, 2.0), [
        ((0.6, 1.0), 0.1, (0.5, 3.5), 0.8, 1.4431864388791353),
        ((1.0, 0.0), 0.0, (1.0, 3.14), 0.25, 2.1405720075670662),
        ((0.2, 4.0), 1.5, (0.7, 5.0), 1.58, 0.6862972303431599),
        ((0.0, 2.0), 2.0, (0.05, 2.0), 1.97, 0.07182585153805056)]),
]


@pytest.mark.parametrize("kappa,c,fiber,rows", DISK_ENGINE_GOLDEN,
                         ids=["hyperbolic", "flat"])
def test_disk_engine_golden(kappa, c, fiber, rows):
    triple = _constant_disk_triple(kappa, c, fiber)
    for bu, fu, bv, fv, expect in rows:
        got = warped_distance(triple, (np.array(bu), fu), (np.array(bv), fv))
        assert got == pytest.approx(expect, rel=1e-12, abs=0)
        assert got >= triple.base.distance(bu, bv) - 1e-12
