"""Every a sn_kappa warp is one KappaCone: the engine against its law, and
the warps build_product recognises."""

import math

import numpy as np
import pytest

from warpcurv import spaces, warped
from warpcurv.certify import TripleSpec, build_product, build_triple
from warpcurv.constructions import KappaCone
from warpcurv.warped import WarpFunction, WarpedTriple, clairaut_solve

CIRCLE = spaces.Circle(2.0 * math.pi)

# (base, warp expression, Lipschitz constant, kappa, a)
FAMILIES = {
    "cap": (spaces.Interval(0.0, 1.2), "sin(t)", 1.0, 1.0, 1.0),
    "nonconvex_cap": (spaces.Interval(0.0, 2.0), "sin(t)", 1.0, 1.0, 1.0),
    # a ell reaches past pi on the non-convex cap: the apex path or the rim
    "wide_cap": (spaces.Interval(0.0, 2.0), "2*sin(t)", 2.0, 1.0, 2.0),
    "rim_cap": (spaces.Interval(0.0, 2.0), "1.05*sin(t)", 1.05, 1.0, 1.05),
    "h2": (spaces.Ray(1.5), "sinh(t)", math.cosh(1.5), -1.0, 1.0),
    "cone": (spaces.Ray(2.0), "0.7*t", 0.7, 0.0, 0.7),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engine_matches_the_kappa_cone_law(family, tol):
    base, expr, lip, kappa, a = FAMILIES[family]
    cone = KappaCone(base, CIRCLE, kappa, a)
    triple = WarpedTriple(base, WarpFunction.from_expression(expr, lip, zeros=(0.0,)), CIRCLE)
    pts = cone.sample(24, 17)
    # and a pair through the apex, and one whose short model arc on the
    # non-convex cap enters the cap, so that its path goes around it (the
    # rim of the sector 1.05 * 3 wide, or through the apex where it is 2 * 3)
    hi = warped.domain(base)[1]
    xs = np.concatenate([pts[0::2], [[0.4 * hi, 0.0], [0.95 * hi, 0.0]]])
    ys = np.concatenate([pts[1::2], [[0.55 * hi, math.pi], [0.95 * hi, 3.0]]])
    ell = CIRCLE.dist_pairs(xs[:, 1], ys[:, 1])
    got = clairaut_solve(triple, xs[:, 0], ys[:, 0], ell, tol=tol).value
    assert np.max(np.abs(got - cone.dist_pairs(xs, ys))) <= tol


def test_wide_sectors_of_a_nonconvex_cap():
    base = spaces.Interval(0.0, 2.0)
    x, y = [1.9, 0.0], [1.9, 3.0]
    # the sector is 6 wide: through the apex, not around the rim past the far pole
    wide = KappaCone(base, CIRCLE, 1.0, 2.0)
    assert wide.distance(x, y) == 3.8
    assert wide.disk._around_cap(np.array([1.9]), np.array([1.9]), np.array([6.0]))[0] > 5.4
    # 3.15 wide: the rim path is the shorter
    rim = KappaCone(base, CIRCLE, 1.0, 1.05)
    assert rim.distance(x, y) == pytest.approx(2.9025478904988, rel=0, abs=1e-12)
    # tripod leaves on the cap meet only at the apex
    tripod = _product(("interval", [0.0, 2.0]), "sin(t)", 1.0, [0.0], ("tripod", [0.6, 3]))
    assert isinstance(tripod, KappaCone)
    assert tripod.distance([1.9, 1.0], [1.9, 2.0]) == 3.8
    m = tripod.interpolate([1.9, 1.0], [1.9, 2.0], 0.75)
    assert np.allclose(m, [0.95, 2.0], rtol=0, atol=1e-15)


def _spec(base, expr, lip, zeros, fiber=("circle", [2.0 * math.pi])):
    return TripleSpec.from_dict({
        "side": "CBB", "kappa": 1.0, "base": {"kind": base[0], "params": base[1]},
        "warp": {"expr": expr, "lipschitz": lip, "zeros": zeros},
        "fiber": {"kind": fiber[0], "params": fiber[1]}})


def _product(*args, **kwargs):
    spec = _spec(*args, **kwargs)
    return build_product(spec, build_triple(spec))


@pytest.mark.parametrize("args, kappa, a, exact", [
    ((("ray", [2.0]), "t", 1.0, [0.0], ("circle", [5.6])), 0.0, 1.0, True),
    ((("interval", [0.0, math.pi]), "sin(t)", 1.0, [0.0, math.pi]), 1.0, 1.0, True),
    ((("interval", [0.0, math.pi]), "sin(t)", 1.0, [0.0, math.pi], ("interval", [0.0, 2.0])),
     1.0, 1.0, True),
    ((("interval", [0.0, 1.2]), "sin(t)", 1.0, [0.0]), 1.0, 1.0, False),
    ((("interval", [0.0, 2.0]), "sin(t)", 1.0, [0.0]), 1.0, 1.0, False),
    ((("ray", [1.5]), "sinh(t)", math.cosh(1.5), [0.0]), -1.0, 1.0, False),
    ((("ray", [2.0]), "0.7*t", 0.7, [0.0]), 0.0, 0.7, True),
    # the whole sphere of radius 1/2, at the rounding of the kappa read off
    ((("interval", [0.0, 0.5 * math.pi]), "sin(2*t)", 2.0, [0.0, 0.5 * math.pi]), 4.0, 2.0,
     False),
], ids=["cone", "suspension", "lune", "cap_cbb", "cap_cat0", "h2", "cone_0.7", "sin2t"])
def test_build_product_reads_kappa_and_a(args, kappa, a, exact):
    prod = _product(*args)
    assert isinstance(prod, KappaCone)
    if exact:
        assert (prod.kappa, prod.a) == (kappa, a)
    else:
        assert prod.kappa == pytest.approx(kappa, rel=0, abs=1e-12)
        assert prod.a == pytest.approx(a, rel=0, abs=1e-12)


@pytest.mark.parametrize("args", [
    (("circle", [2.0 * math.pi]), "0.3 + 0.1*cos(t)", 0.1, [], ("interval", [0.0, 3.0])),
    (("interval", [0.0, math.pi]), "2.0 + sin(t)", 1.0, []),
    (("interval", [0.0, 2.0]), "1 + 0.3*t**2", 1.2, []),
    (("interval", [0.0, 2.0]), "t + 0.1*t**2", 1.4, [0.0]),
], ids=["seam", "2+sin", "1+0.3t^2", "t+0.1t^2"])
def test_build_product_leaves_other_warps_to_the_engine(args):
    assert isinstance(_product(*args), warped.GridWarpedOracle)


def test_kappa_cone_rejects_what_is_no_kappa_cone():
    for base, kappa, a in ((spaces.Ray(2.0), 1.0, 1.0), (spaces.Interval(0.0, 3.5), 1.0, 1.0),
                           (spaces.Interval(0.5, 1.0), 0.0, 1.0), (spaces.Circle(3.0), 0.0, 1.0),
                           (spaces.Interval(0.0, 1.0), 0.0, 0.0)):
        with pytest.raises(ValueError):
            KappaCone(base, CIRCLE, kappa, a)
