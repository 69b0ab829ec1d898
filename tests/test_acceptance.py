"""Acceptance criteria.

Each test prints exactly one line ACCEPTANCE <nn> <name> PASS|FAIL and
then asserts, so the criterion outcomes are scannable from the log.
"""

import math
import time

import numpy as np
import pytest

from warpcurv import comparison, constructions, convexity, model, spaces, warped
from warpcurv.certify import TripleSpec, certify
from warpcurv.cli import main as cli_main
from warpcurv.comparison import sample_comparisons
from warpcurv.spaces import rng
from warpcurv.warped import (WarpFunction, WarpedTriple, clairaut_check,
                             recover_warp, warped_distance, warped_geodesic)


def _verdict(num, name, ok):
    print("ACCEPTANCE %02d %s %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, name)


def cone_doc(side, L):
    return {
        "side": side, "kappa": 0.0,
        "base": {"kind": "ray", "params": [2.0]},
        "warp": {"expr": "t", "lipschitz": 1.0, "zeros": [0.0]},
        "fiber": {"kind": "circle", "params": [L]},
        "budget": {"quadruples": 10000, "grid": 512},
        "tol": 1e-3, "seed": 7,
    }


def suspension_triple():
    return WarpedTriple(spaces.Interval(0.0, math.pi), WarpFunction.sin(),
                        spaces.Circle(2 * math.pi))


def cone_triple():
    return WarpedTriple(spaces.Ray(2.0), WarpFunction.linear(1.0),
                        spaces.Circle(2 * math.pi))


def test_01_model_trigonometry():
    start = time.time()
    ok = True
    for kappa in (-1.0, 0.0, 1.0):
        g = rng(42, stream=11)
        hi = 1.2 if kappa > 0 else 3.0
        a = g.uniform(0.01, hi, 10000)
        b = g.uniform(0.01, hi, 10000)
        ang = g.uniform(0.01, math.pi - 0.01, 10000)
        c = model.side_from_angle(kappa, a, b, ang)
        back = model.angle_from_sides(kappa, a, b, c)
        ok &= bool(np.all(np.isfinite(back)))
        ok &= float(np.max(np.abs(back - ang))) <= 1e-9
        if kappa == 1.0:
            lo_m = model.angle_from_sides(-1.0, a, b, c)
            mid = model.angle_from_sides(0.0, a, b, c)
            ok &= bool(np.all(lo_m <= mid + 1e-12))
            ok &= bool(np.all(mid <= back + 1e-12))
    ok &= (time.time() - start) < 5.0
    _verdict(1, "model-trigonometry", ok)


def test_02_cone_duality():
    ok = True
    outcomes = {}
    for L in (2 * math.pi * 0.9, 2 * math.pi * 1.1):
        for side in ("CAT", "CBB"):
            start = time.time()
            rep = certify(cone_doc(side, L))
            ok &= rep.consistent
            ok &= (time.time() - start) < 120.0
            outcomes[(side, L > 2 * math.pi)] = rep.product_passed
    ok &= outcomes[("CAT", False)] is False and outcomes[("CAT", True)] is True
    ok &= outcomes[("CBB", False)] is True and outcomes[("CBB", True)] is False
    _verdict(2, "cone-duality", ok)


def test_03_suspension_is_sphere():
    start = time.time()
    t = suspension_triple()
    g = rng(12, stream=62)
    worst = 0.0
    for _ in range(100):
        t1, t2 = g.uniform(0.1, math.pi - 0.1, 2)
        dphi = g.uniform(0.0, math.pi)
        expect = math.acos(max(-1.0, min(1.0,
                 math.cos(t1) * math.cos(t2)
                 + math.sin(t1) * math.sin(t2) * math.cos(dphi))))
        got = warped_distance(t, (t1, 0.0), (t2, dphi), tol=1e-3)
        worst = max(worst, abs(got - expect))
    ok = worst <= 1e-2
    susp = constructions.SuspensionSpace(spaces.Circle(2 * math.pi))
    ok &= sample_comparisons(susp, 1.0, "CBB", 10000, seed=1).passed
    ok &= sample_comparisons(susp, 1.0, "CAT", 10000, seed=1).passed
    ok &= (time.time() - start) < 300.0
    _verdict(3, "suspension-is-sphere", ok)


def test_04_clairaut():
    g = rng(10, stream=61)
    ok = True
    ratios = []
    for name, t in (("cone", cone_triple()), ("susp", suspension_triple())):
        for _ in range(20):
            if name == "cone":
                r1, r2 = g.uniform(0.5, 1.5, 2)
                u, v = (r1, 0.0), (r2, g.uniform(0.5, 2.5))
            else:
                t1, t2 = g.uniform(0.7, 2.4, 2)
                u, v = (t1, 0.0), (t2, g.uniform(0.5, 2.5))
            p1 = warped_geodesic(t, u, v, resolution=1e-3)
            rep1 = clairaut_check(p1, t)
            a2 = rep1.speed ** 2
            ok &= rep1.max_drift <= 1e-3 * a2
            ok &= rep1.speed_residual <= 2e-3
            p2 = warped_geodesic(t, u, v, resolution=5e-4)
            rep2 = clairaut_check(p2, t)
            ratios.append(rep2.max_drift / max(rep1.max_drift, 1e-300))
    med = float(np.median(ratios))
    ok &= 0.4 <= med <= 0.6
    _verdict(4, "clairaut", ok)


def test_05_two_piece_property():
    base = spaces.Interval(-1.0, 1.0)
    t = WarpedTriple(base, WarpFunction.abs_t(), spaces.Circle(2 * math.pi))
    g = rng(13, stream=63)
    tol = 1e-3
    h = 2.0 / 64  # coarsest engine spacing at the default level
    ok = True
    for _ in range(10):
        b1 = g.uniform(-1.0, -0.1)
        b2 = g.uniform(0.1, 1.0)
        s1 = g.uniform(0.0, 2 * math.pi)
        sep = g.uniform(0.5, math.pi)
        d = warped_distance(t, (b1, s1), (b2, s1 + sep), tol=tol)
        # the through-Z candidate is computed exactly, so this is tight
        ok &= abs(d - (abs(b1) + abs(b2))) <= 2 * tol
        poly = warped_geodesic(t, (b1, s1), (b2, s1 + sep), resolution=tol)
        bs = np.asarray(poly.base_points, float)
        # base projection: two geodesics meeting at 0
        k0 = int(np.argmin(np.abs(bs)))
        ok &= abs(bs[k0]) <= 2 * h
        ok &= bool(np.all(np.diff(bs[:k0 + 1]) >= -2 * h))
        ok &= bool(np.all(np.diff(bs[k0:]) >= -2 * h))
    _verdict(5, "two-piece-property", ok)


def test_06_fiber_independence():
    g = rng(14, stream=64)
    tol = 1e-3
    ok = True
    for _ in range(50):
        L = g.uniform(1.0, 3.0)
        alpha = g.uniform(0.1, 0.9)
        base = spaces.Interval(0.0, L)
        f = WarpFunction.from_expression("1.0 + %r*sin(t)" % alpha, lipschitz=alpha)
        b1, b2 = sorted(g.uniform(0.05, L - 0.05, 2))
        ell = g.uniform(0.2, 2.0)
        ds = []
        for fiber, u, v in [
            (spaces.Interval(0.0, max(2.5, ell + 0.1)), 0.0, ell),
            (spaces.Circle(3 * ell + 1.0), 0.5, 0.5 + ell),
            (spaces.FiniteMetric([[0.0, ell], [ell, 0.0]]), 0, 1),
        ]:
            triple = WarpedTriple(base, f, fiber)
            ds.append(warped_distance(triple, (b1, u), (b2, v), tol=tol))
        ok &= (max(ds) - min(ds)) <= 2 * tol
    _verdict(6, "fiber-independence", ok)


def test_07_kappa_f_formulas():
    ok = True
    for a in (0.5, 1.0, 2.0):
        triple = WarpedTriple(spaces.Ray(2.0), WarpFunction.linear(a),
                              spaces.Circle(6.0))
        for side in ("CAT", "CBB"):
            rep = convexity.kappa_F(side, triple, 0.0)
            ok &= abs(rep.kappa_foot - a * a) <= 1e-6
            ok &= abs(rep.gradient_form - a * a) <= 5e-3
    rep = convexity.kappa_F("CAT", suspension_triple(), 1.0)
    ok &= abs(rep.kappa_foot - 1.0) <= 5e-3
    ok &= abs(rep.kappa_far - 1.0) <= 5e-3
    _verdict(7, "kappa-f-formulas", ok)


def test_08_warp_recovery():
    eps = 1e-2
    grid_err = 5e-3
    ok = True
    prod = WarpedTriple(spaces.Interval(0.0, 4.0), WarpFunction.constant(1.0),
                        spaces.Circle(20.0))
    ok &= abs(recover_warp(prod, 1.5, 0.0, eps) - 1.0) <= 2 * eps + grid_err
    cone = cone_triple()
    ok &= abs(recover_warp(cone, 1.0, 0.0, eps) - 1.0) <= 2 * eps + grid_err
    susp = suspension_triple()
    ok &= abs(recover_warp(susp, math.pi / 2, 1.0, eps) - 1.0) <= 2 * eps + grid_err
    _verdict(8, "warp-recovery", ok)


def test_09_gluing():
    g = rng(15, stream=65)
    ok = True

    # cos on [0, pi/2]: reflected interval, f-dagger concave at kappa=1
    base = spaces.Interval(0.0, math.pi / 2)
    f = WarpFunction.from_expression("cos(t)", 1.0, zeros=(math.pi / 2,))
    doubled, fdag = constructions.make_doubled(base, f)
    expect = spaces.Interval(-math.pi / 2, math.pi / 2)
    xs = g.uniform(expect.a, expect.b, 1000)
    ys = g.uniform(expect.a, expect.b, 1000)
    ok &= bool(np.max(np.abs(doubled.dist_pairs(xs, ys)
                             - expect.dist_pairs(xs, ys))) <= 1e-6)
    ok &= bool(np.max(np.abs(np.asarray(fdag(xs), float) - np.cos(xs))) <= 1e-6)
    ok &= convexity.sinusoidal_test(fdag, doubled, 1.0, mode="concave",
                                    seed=1).passed

    # constant on [0,1]: full double is Circle(2), f-dagger constant
    doubled, fdag = constructions.make_doubled(spaces.Interval(0.0, 1.0),
                                               WarpFunction.constant(1.0))
    expect = spaces.Circle(2.0)
    xs = g.uniform(0.0, 2.0, 1000)
    ys = g.uniform(0.0, 2.0, 1000)
    ok &= isinstance(doubled, spaces.Circle)
    ok &= bool(np.max(np.abs(doubled.dist_pairs(xs, ys)
                             - expect.dist_pairs(xs, ys))) <= 1e-6)
    ok &= convexity.sinusoidal_test(fdag, doubled, 0.0, mode="concave",
                                    seed=1).passed

    # identity on [0,1]: reflection to [0,2] with the tent warp
    doubled, fdag = constructions.make_doubled(spaces.Interval(0.0, 1.0),
                                               WarpFunction.linear(1.0))
    expect = spaces.Interval(0.0, 2.0)
    xs = g.uniform(0.0, 2.0, 1000)
    ys = g.uniform(0.0, 2.0, 1000)
    ok &= bool(np.max(np.abs(doubled.dist_pairs(xs, ys)
                             - expect.dist_pairs(xs, ys))) <= 1e-6)
    ok &= bool(np.max(np.abs(np.asarray(fdag(xs), float)
                             - np.minimum(xs, 2.0 - xs))) <= 1e-6)
    # the tent is concave but not convex at kappa = 0
    ok &= convexity.sinusoidal_test(fdag, doubled, 0.0, mode="concave",
                                    seed=1).passed
    ok &= not convexity.sinusoidal_test(fdag, doubled, 0.0, mode="convex",
                                        seed=1).passed
    _verdict(9, "gluing", ok)


def test_10_extrinsic_curvature():
    t = cone_triple()
    a_est = warped.leaf_extrinsic_curvature(t, 1.0, max_scale=0.4)
    ok = abs(a_est - 1.0) <= 0.05
    # Gauss inequality: the vertical leaf has curvature <= kappa + A^2,
    # checked by CAT quadruple sampling on the leaf at A_est^2 + margin
    kappa_leaf = a_est ** 2 + 0.05
    leaf = constructions.scale_space(spaces.Circle(2 * math.pi),
                                     float(t.warp(1.0)))
    ok &= sample_comparisons(leaf, kappa_leaf, "CAT", 3000, seed=2).passed
    _verdict(10, "extrinsic-curvature", ok)


def test_11_determinism(tmp_path, capsys):
    spec = (
        "side: CBB\nkappa: 1.0\n"
        "base: {kind: interval, params: [0.0, 3.141592653589793]}\n"
        "warp: {expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}\n"
        "fiber: {kind: circle, params: [6.283185307179586]}\n"
        "budget: {quadruples: 2000, grid: 256}\ntol: 1.0e-3\nseed: 3\n")
    p = tmp_path / "s.yaml"
    p.write_text(spec)
    outs = []
    for _ in range(2):
        cli_main(["certify", str(p)])
        outs.append(capsys.readouterr().out)
    ok = outs[0] == outs[1]
    for cmd in (["sample", "circle:6.0", "--kind", "CAT", "--kappa", "0",
                 "-n", "500", "--seed", "4"],
                ["distance", str(p), "--from", "1.0,0", "--to", "2.0,1.5"]):
        pair = []
        for _ in range(2):
            try:
                cli_main(cmd)
            except SystemExit:
                pass
            pair.append(capsys.readouterr().out)
        ok &= pair[0] == pair[1]
    _verdict(11, "determinism", ok)
