"""Model-surface trigonometry tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from warpcurv import comparison, model
from warpcurv.spaces import rng

EPS = np.finfo(float).eps


def test_varpi():
    assert model.varpi(1.0) == math.pi
    assert model.varpi(4.0) == math.pi / 2.0
    assert model.varpi(0.0) == math.inf
    assert model.varpi(-1.0) == math.inf


def test_sn_cs_basic():
    assert model.sn(0.0, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert model.sn(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert model.sn(-1.0, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-12)
    assert model.cs(1.0, math.pi) == pytest.approx(-1.0, abs=1e-12)
    # sin and sinh near zero
    for k in (1.0, -1.0):
        t = 1e-5
        exact = math.sin(t) if k > 0 else math.sinh(t)
        assert model.sn(k, t) == pytest.approx(exact, rel=1e-12)


def test_known_angles():
    # equilateral Euclidean
    assert model.angle_from_sides(0.0, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-12)
    # spherical octant: all angles right
    q = math.pi / 2
    assert model.angle_from_sides(1.0, q, q, q) == pytest.approx(q, abs=1e-12)
    # 3-4-5 right angle
    assert model.angle_from_sides(0.0, 3.0, 4.0, 5.0) == pytest.approx(math.pi / 2, abs=1e-12)


def test_degenerate_angles_exact():
    # collinear: apex angle pi, base angles 0, with exact values
    assert model.angle_from_sides(0.0, 1.0, 2.0, 3.0) == math.pi
    assert model.angle_from_sides(0.0, 1.0, 3.0, 2.0) == 0.0
    assert model.angle_from_sides(0.0, 2.0, 3.0, 1.0) == 0.0
    tri = model.ModelTriangle(0.0, (3.0, 1.0, 2.0))
    assert tri.angle(0) == math.pi
    assert tri.angle(1) == 0.0


def test_undefined_cases():
    # triangle inequality failure
    assert math.isnan(model.angle_from_sides(0.0, 1.0, 1.0, 3.0))
    # kappa > 0 perimeter at least 2 varpi
    assert math.isnan(model.angle_from_sides(1.0, 2.0, 2.0, 2.4))
    # side exceeding varpi
    assert math.isnan(model.angle_from_sides(1.0, 3.2, 1.0, 2.5))
    assert not model.ModelTriangle(1.0, (2.0, 2.0, 2.4)).is_defined()
    assert model.ModelTriangle(1.0, (2.0, 2.0, 2.2)).is_defined()


def test_strict_flag():
    # a perimeter between varpi and 2 varpi is defined: only 2 varpi bounds it
    tri = model.ModelTriangle(1.0, (1.5, 1.5, 1.5))
    assert tri.is_defined()


def _random_triples(kappa, n, seed):
    g = rng(seed, stream=11)
    if kappa > 0:
        # two sides and the enclosed angle stay safely inside the sphere
        a = g.uniform(0.01, 1.2, n)
        b = g.uniform(0.01, 1.2, n)
    else:
        a = g.uniform(0.01, 3.0, n)
        b = g.uniform(0.01, 3.0, n)
    ang = g.uniform(0.01, math.pi - 0.01, n)
    c = model.side_from_angle(kappa, a, b, ang)
    return a, b, c, ang


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
def test_roundtrip(kappa):
    a, b, c, ang = _random_triples(kappa, 10000, seed=42)
    back = model.angle_from_sides(kappa, a, b, c)
    assert np.all(np.isfinite(back))
    assert np.max(np.abs(back - ang)) <= 1e-9


def test_angle_monotone_in_kappa():
    a, b, c, _ = _random_triples(1.0, 2000, seed=7)
    lo = model.angle_from_sides(-1.0, a, b, c)
    mid = model.angle_from_sides(0.0, a, b, c)
    hi = model.angle_from_sides(1.0, a, b, c)
    assert np.all(lo <= mid + 1e-12)
    assert np.all(mid <= hi + 1e-12)


def test_model_distance_charts():
    # Euclidean
    assert model.model_distance(0.0, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    # sphere of curvature 1: north pole to equator point is pi/2
    d = model.model_distance(1.0, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    assert d == pytest.approx(math.pi / 2, abs=1e-12)
    # hyperboloid: distance along a line of the model
    t = 0.8
    p = [1.0, 0.0, 0.0]
    q = [math.cosh(t), math.sinh(t), 0.0]
    assert model.model_distance(-1.0, p, q) == pytest.approx(t, abs=1e-12)
    with pytest.raises(ValueError):
        model.model_distance(1.0, [0.0, 0.0, 2.0], [1.0, 0.0, 0.0])


def test_side_from_angle_limits():
    # angle 0 and pi reduce to |a-b| and a+b
    assert model.side_from_angle(0.0, 2.0, 1.5, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert model.side_from_angle(0.0, 2.0, 1.5, math.pi) == pytest.approx(3.5, abs=1e-12)
    assert model.side_from_angle(1.0, 1.0, 1.0, math.pi) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("kappa", [1.0, 4.0])
def test_side_from_angle_is_exact_at_antipodes(kappa):
    # sides a and varpi - a at angle pi span a half great circle
    a = rng(3, stream=13).uniform(0.0, model.varpi(kappa), 10000)
    c = model.side_from_angle(kappa, a, model.varpi(kappa) - a, math.pi)
    assert np.max(np.abs(c - model.varpi(kappa))) <= 1e-12


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0, 4.0])
def test_triangle_angles_match_angle_from_sides(kappa):
    g = rng(8, stream=12)
    x, y, z = g.uniform(0.0, 2.0, (3, 500))
    x[:20], y[:20], z[:20] = 0.25, 0.5, 0.75      # collinear: exact 0 and pi
    x[20:30] = 0.0                                # degenerate sides
    got = model.triangle_angles(kappa, x, y, z)
    assert got.shape == (3, 500)
    for out, args in zip(got, ((y, z, x), (z, x, y), (x, y, z))):
        assert np.array_equal(out, model.angle_from_sides(kappa, *args), equal_nan=True)
    assert np.array_equal(got[:, 0], [0.0, 0.0, math.pi])


def _mixed_scales(g, n):
    """n lengths, each 1e-9 to 5e-7 or 0.1 to 1 at random."""
    return np.where(g.random(n) < 0.5, g.uniform(1e-9, 5e-7, n), g.uniform(0.1, 1.0, n))


def _plane_sides(g, n, k):
    """Pairwise distances of n random k-point planar sets of mixed scales, (n, k, k)."""
    pts = g.uniform(0.0, 1.0, (n, k, 2)) * _mixed_scales(g, n)[:, None, None]
    return np.linalg.norm(pts[:, :, None] - pts[:, None, :], axis=-1)


@pytest.mark.parametrize("kappa", [1.0, -1.0, 4.0])
def test_each_element_equals_its_own_call(kappa):
    g = rng(9, stream=13)
    n = 1000
    t = _mixed_scales(g, n)
    a, b = _mixed_scales(g, n), _mixed_scales(g, n)
    angle = g.uniform(0.0, math.pi, n)
    tri = _plane_sides(g, n, 3)
    x, y, z = tri[:, 1, 2], tri[:, 0, 2], tri[:, 0, 1]
    D = _plane_sides(g, n, 4)
    # (function of an index into the stack, axis of the stack in its value)
    cases = [
        (lambda i: model.sn(kappa, t[i]), 0),
        (lambda i: model.cs(kappa, t[i]), 0),
        (lambda i: model.side_from_angle(kappa, a[i], b[i], angle[i]), 0),
        (lambda i: model.triangle_angles(kappa, x[i], y[i], z[i]), 1),
        (lambda i: comparison.batch_1plus3(D[i], kappa), 0),
        (lambda i: comparison.batch_2plus2(D[i], kappa), 0),
    ]
    for fn, axis in cases:
        each = np.concatenate([fn(slice(i, i + 1)) for i in range(n)], axis=axis)
        assert np.array_equal(fn(slice(None)), each, equal_nan=True)


@pytest.mark.parametrize("kappa", [1.0, -1.0, 4.0, -3.0, 1e-12, -1e-12])
def test_sn_cs_agree_with_their_series(kappa):
    # where |kappa| t^2 < 1e-8 the series below is exact to far below an
    # ulp; it is summed in rationals, and the relative error of sn and cs
    # must stay within 2 eps
    t = np.geomspace(1e-12, math.sqrt(1e-8 / abs(kappa)), 200, endpoint=False)
    t = np.concatenate([t, -t])
    k = Fraction(kappa)
    for ti, sn, cs in zip(t, model.sn(kappa, t), model.cs(kappa, t)):
        kt2 = k * Fraction(ti) ** 2
        for got, want in ((sn, Fraction(ti) * (1 - kt2 / 6 + kt2 * kt2 / 120)),
                          (cs, 1 - kt2 / 2 + kt2 * kt2 / 24)):
            assert abs(Fraction(got) - want) <= 2.0 * EPS * abs(want)
