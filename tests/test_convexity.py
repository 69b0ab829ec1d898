"""Sinusoidal convexity, gradient norm, and kappa_F tests."""

import math

import numpy as np
import pytest

from warpcurv import convexity, model, spaces
from warpcurv.convexity import (dist_Z, dist_Z_realizers, gradient_norm,
                                kappa_F, sinusoidal_test, zero_set)
from warpcurv.warped import (SCAN_POINTS, WarpFunction, WarpedTriple, warped_distance,
                             zero_runs)


def test_parabola_is_convex_only():
    f = WarpFunction.from_expression("t*t", 2.0)
    base = spaces.Interval(-1.0, 1.0)
    v = sinusoidal_test(f, base, 0.0, mode="convex", seed=1)
    assert v.classification == "kappa-convex"
    assert v.passed
    v = sinusoidal_test(f, base, 0.0, mode="concave", seed=1)
    assert not v.passed


def test_sin_is_concave_at_kappa_1():
    f = WarpFunction.sin()
    base = spaces.Interval(0.0, math.pi)
    v = sinusoidal_test(f, base, 1.0, mode="concave", seed=2)
    # sin solves the equality case: both directions hold
    assert v.classification == "both"


def test_cosh_is_convex_at_kappa_minus_1():
    f = WarpFunction.from_expression("cosh(t)", 4.0)
    base = spaces.Interval(-2.0, 2.0)
    v = sinusoidal_test(f, base, -1.0, mode="convex", seed=3)
    assert v.classification == "both"


def test_constant_at_kappa_1_is_convex():
    # y'' + y = const > 0: a positive constant is kappa-convex at kappa=1
    f = WarpFunction.constant(1.0)
    base = spaces.Interval(0.0, 2.0)
    v = sinusoidal_test(f, base, 1.0, mode="convex", seed=4)
    assert v.passed
    v = sinusoidal_test(f, base, 1.0, mode="concave", seed=4)
    assert not v.passed


def test_abs_t_neither_at_kappa_0():
    f = WarpFunction.abs_t()
    base = spaces.Interval(-1.0, 1.0)
    assert sinusoidal_test(f, base, 0.0, mode="convex", seed=5).passed
    assert not sinusoidal_test(f, base, 0.0, mode="concave", seed=5).passed


def test_long_geodesics_skipped_at_positive_kappa():
    f = WarpFunction.constant(1.0)
    base = spaces.Interval(0.0, 10.0)
    v = sinusoidal_test(f, base, 1.0, mode="convex", seed=6)
    assert v.skipped > 0


def _reference_sinusoidal(f, base, kappa, mode, seed, lengths, n_geodesics=24, n_sub=12,
                          tol=1e-9):
    """sinusoidal_test as a loop over geodesics and subintervals, one support at a time.

    Appends the length of every support to lengths.
    """
    xs = base._batch(base.sample(2 * n_geodesics, seed))
    geos = []
    for k in range(n_geodesics):
        x, y = xs[2 * k], xs[2 * k + 1]
        d = float(base.distance(x, y))
        if d < 1e-9 or (isinstance(base, spaces.Circle) and d > base.length / 2.0 - 1e-9):
            continue
        ts = np.linspace(0.0, 1.0, 65)
        geos.append((d * ts, np.array([base.interpolate(x, y, t) for t in ts], dtype=float)))

    def support(s, f1, f2):
        L = s[-1]
        lengths.append(L)
        snl = float(model.sn(kappa, L))
        if kappa > 0 and (L >= model.varpi(kappa) - 1e-12 or abs(snl) < 1e-12):
            return None
        beta = (f2 - f1 * float(model.cs(kappa, L))) / snl
        return f1 * model.cs(kappa, s) + beta * model.sn(kappa, s)

    worst_cv = worst_cc = 0.0
    skipped = 0
    g = spaces.rng(seed, stream=5)
    for s, pts in geos:
        vals = convexity._eval_f(f, base, pts)
        n = len(s)
        subs = [(0, n - 1)]
        for _ in range(n_sub):
            i1, i2 = sorted(g.integers(0, n, size=2))
            if i2 - i1 >= 2:
                subs.append((int(i1), int(i2)))
        for i1, i2 in subs:
            ss = s[i1:i2 + 1] - s[i1]
            y = support(ss, vals[i1], vals[i2])
            if y is None:
                skipped += 1
                continue
            inner = vals[i1:i2 + 1][1:-1]
            worst_cv = max(worst_cv, float(np.max(inner - y[1:-1], initial=0.0)))
            worst_cc = max(worst_cc, float(np.max(y[1:-1] - inner, initial=0.0)))
    cv_ok, cc_ok = worst_cv <= tol, worst_cc <= tol
    classification = {(True, True): "both", (True, False): "kappa-convex",
                      (False, True): "kappa-concave", (False, False): "neither"}[cv_ok, cc_ok]
    return (classification, worst_cv if mode == "convex" else worst_cc, len(geos),
            worst_cv, worst_cc, skipped)


@pytest.mark.parametrize("kappa, base, expr", [
    (0.0, spaces.Interval(-1.0, 2.0), "t*t*t - t"),
    (1.0, spaces.Interval(0.0, 4.0), "1.5 + sin(2*t)"),
    (1.0, spaces.Interval(0.0, 1e-3), "1.0 + t - 300*t*t"),
    (-1.0, spaces.Circle(5.0), "2.0 + cos(2*pi*t/5.0)"),
    (-1.0, spaces.Ray(3.0), "cosh(t) - 0.2*t*t*t"),
    (1.0, spaces.ModelDisk(1.0, 1.2), "1.0 + 0.3*r*cos(theta)"),
], ids=["flat", "skips", "series", "circle", "ray", "disk"])
def test_sinusoidal_test_matches_reference_loop(kappa, base, expr):
    arity = 2 if isinstance(base, spaces.ModelDisk) else 1
    f = WarpFunction.from_expression(expr, 10.0, arity=arity)
    for mode, seed in (("convex", 3), ("concave", 4)):
        lengths = []
        want = _reference_sinusoidal(f, base, kappa, mode, seed, lengths)
        v = sinusoidal_test(f, base, kappa, mode=mode, seed=seed)
        assert (v.classification, v.worst_violation, v.geodesics_tested,
                v.worst_convex, v.worst_concave, v.skipped) == want
    lengths = np.array(lengths)
    series = np.abs(kappa) * lengths ** 2 < 1e-8
    if expr.startswith("1.0 + t"):
        # short supports on both sides of |kappa| L^2 = 1e-8, where sn and
        # cs agree with their series
        assert series.any() and not series.all()
    if expr.startswith("1.5"):
        assert want[-1] > 0 and want[3] > 0


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
def test_supports_match_one_support_at_a_time(kappa):
    g = spaces.rng(11, stream=7)
    # lengths from 1e-6 to 4, singular ones included at kappa = 1
    L = np.concatenate([g.uniform(1e-6, 1e-3, 30), g.uniform(0.1, 4.0, 30)])
    n = 17
    length = g.integers(3, n + 1, size=len(L))
    ss = np.minimum(np.arange(n), length[:, None] - 1) * (L / (length - 1))[:, None]
    ss[:, -1] = L
    f1, f2 = g.uniform(0.5, 2.0, (2, len(L)))
    kept, y = convexity._supports(kappa, ss, f1, f2)
    want_kept = []
    for i in range(len(L)):
        s = ss[i, :length[i]]
        snl = float(model.sn(kappa, L[i]))
        want_kept.append(not (kappa > 0 and (L[i] >= math.pi - 1e-12 or abs(snl) < 1e-12)))
        if want_kept[-1]:
            beta = (f2[i] - f1[i] * float(model.cs(kappa, L[i]))) / snl
            row = y[int(np.count_nonzero(kept[:i]))]
            assert np.array_equal(row[:length[i]],
                                  f1[i] * model.cs(kappa, s) + beta * model.sn(kappa, s))
    assert list(kept) == want_kept
    assert all(kept) == (kappa <= 0)


def test_gradient_norm_values():
    base = spaces.Ray(sample_extent=2.0)
    f = WarpFunction.linear(1.0)
    assert gradient_norm(f, base, 0.0, side="up").value == pytest.approx(1.0, abs=1e-6)
    base = spaces.Interval(0.0, math.pi)
    f = WarpFunction.sin()
    assert gradient_norm(f, base, math.pi / 2, side="up").value == pytest.approx(
        0.0, abs=1e-5)
    assert gradient_norm(f, base, 0.0, side="up").value == pytest.approx(1.0, abs=1e-6)


def test_gradient_norm_on_disks():
    f = WarpFunction.from_expression("1 + 0.3*r*cos(theta)", 0.3, arity=2)
    # on the flat unit disk f = 1 + 0.3 x, so |grad f| = 0.3; the 17 sampled
    # directions, 16 toward the rim and one toward the centre, see a little less
    est = gradient_norm(f, spaces.ModelDisk(0.0, 1.0), np.array([0.5, 0.5]))
    assert est.directions_sampled == 17 and 0.28 <= est.value <= 0.3
    # a non-convex disk has no interpolation to step along
    with pytest.raises(ValueError, match=r"ModelDisk\(kappa=1, R=2\)"):
        gradient_norm(f, spaces.ModelDisk(1.0, 2.0), np.array([1.0, 0.5]))


def test_gradient_norm_on_a_disk_counts_the_inward_direction():
    # f = 1.5 - r grows fastest toward the centre, at slope 1: only the
    # inward direction sees it, the rim directions at most 0.9981
    f = WarpFunction("1.5 - r", 1.0, arity=2)
    est = gradient_norm(f, spaces.ModelDisk(0.0, 1.0), (0.5, 0.3), "up")
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_zero_runs():
    ts = np.linspace(0.0, 4.096, SCAN_POINTS)
    base = spaces.Interval(0.0, 4.096)
    # isolated roots are runs of one; adjacent scan points make one run
    first, last = zero_runs(ts[[500, 1000, 1001, 1002, 2000]], base)
    assert list(first) == list(ts[[500, 1000, 2000]])
    assert list(last) == list(ts[[500, 1002, 2000]])
    assert [len(e) for e in zero_runs([], base)] == [0, 0]
    # on a circle the runs at both ends of the window stay apart; the
    # footpoints join them across the seam
    f = WarpFunction.from_expression("max(sin(t), 0*t)", 1.0)
    circle = spaces.Circle(2 * math.pi)
    roots = zero_set(f, circle)[1]
    first, last = zero_runs(roots, circle)
    assert list(first) == [0.0, roots[1]] and list(last) == [0.0, 2 * math.pi]
    assert convexity._footpoints(f, circle, roots) == [(0.0, (1,)), (roots[1], (-1,))]


def test_zero_set_and_dist_Z():
    base = spaces.Interval(0.0, math.pi)
    f = WarpFunction.sin()
    kind, roots = zero_set(f, base)
    assert kind == "points"
    assert sorted(round(r, 9) for r in roots) == [0.0, round(math.pi, 9)]
    assert dist_Z(f, base, 1.0) == pytest.approx(1.0)
    assert dist_Z(f, base, 2.5) == pytest.approx(math.pi - 2.5)


def test_zero_set_thresholding_warns():
    base = spaces.Interval(0.0, 1.0)
    f = WarpFunction.from_expression("abs(t - 0.5)", 1.0, zeros=())
    warn = []
    kind, roots = zero_set(f, base, warn=warn)
    assert kind == "points" and len(roots) >= 1
    assert warn


@pytest.mark.parametrize("base, f", [
    (spaces.Interval(0.0, math.pi), WarpFunction.sin()),
    (spaces.Ray(3.0), WarpFunction.from_expression("abs(t*(t - 1.5))", 10.0, zeros=(0.0, 1.5))),
    (spaces.Circle(5.0), WarpFunction.from_expression("1 - cos(2*pi*t/5)", 2.0)),
], ids=["interval", "ray", "circle-scanned"])
def test_dist_Z_batch_matches_scalar_loop(base, f):
    kind, roots = zero_set(f, base)
    assert kind == "points" and len(roots) == 2
    pts = np.concatenate([base.sample(200, 9), [0.0, roots[0], roots[1]]])
    want = np.array([min(float(base.distance(p, z)) for z in roots) for p in pts])
    assert np.array_equal([dist_Z(f, base, p) for p in pts], want)
    assert np.array_equal(dist_Z(f, base, pts), want)
    assert np.array_equal(dist_Z(f, base, pts, zeros=(kind, roots)), want)


def test_engine_window_reaches_hinted_zero_past_ray_extent():
    # the through-Z candidate uses the zero at 3, outside Ray(2)'s sample window
    f = WarpFunction.from_expression("abs(t - 3)", 1.0, zeros=(3.0,))
    triple = WarpedTriple(spaces.Ray(2.0), f, spaces.Circle(30.0))
    assert zero_set(f, triple.base) == ("points", [])
    assert warped_distance(triple, (1.8, 0.0), (1.9, 10.0)) == 2.3


def boundary_disk():
    f = WarpFunction.from_expression("1.5 - r", 1.0, zeros="boundary", arity=2)
    return spaces.ModelDisk(0.0, 1.5), f


def test_boundary_hint_on_disk():
    disk, f = boundary_disk()
    assert zero_set(f, disk) == ("boundary", None)
    pts = disk.sample(50, 4)
    assert [dist_Z(f, disk, p) for p in pts] == list(1.5 - pts[:, 0])
    reals = dist_Z_realizers(f, disk)
    assert len(reals) == 8
    assert all(d == pytest.approx(1.0, abs=1e-6) for _, _, d in reals)


def test_dist_Z_batch_on_disk_with_boundary_hint():
    disk, f = boundary_disk()
    pts = disk.sample(50, 4)
    assert np.array_equal(dist_Z(f, disk, pts), 1.5 - pts[:, 0])


def test_hinted_roots_outside_window_are_dropped():
    f = WarpFunction.from_expression("abs(t)", 1.0, zeros=(-0.5, -1e-13, 1.0 + 1e-13, 1.5))
    base = spaces.Interval(0.0, 1.0)
    assert zero_set(f, base) == ("points", [-1e-13, 1.0 + 1e-13])
    assert dist_Z(f, base, 0.25) == 0.25 + 1e-13


def test_zero_set_on_an_explicit_window():
    f = WarpFunction.from_expression("abs(t)", 1.0, zeros=(-0.5, 1.5, 3.0))
    assert zero_set(f, spaces.Ray(1.0), -1.0, 2.0) == ("points", [-0.5, 1.5])
    f = WarpFunction.from_expression("abs(t - 1.5)", 1.0)
    assert zero_set(f, spaces.Ray(1.0), 0.0, 2.0) == ("points", [1.5])


def test_kappa_F_scans_the_zero_set_once(monkeypatch):
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return zero_set(*a, **k)
    monkeypatch.setattr(convexity, "zero_set", counting)
    triple = WarpedTriple(spaces.Interval(0.0, math.pi), WarpFunction.sin(),
                          spaces.Circle(2 * math.pi))
    for side in ("CAT", "CBB"):
        calls.clear()
        kappa_F(side, triple, 1.0)
        assert len(calls) == 1


def test_realizer_derivatives_cone_a():
    for a in (0.5, 1.0, 2.0):
        base = spaces.Ray(sample_extent=2.0)
        f = WarpFunction.linear(a)
        reals = dist_Z_realizers(f, base)
        assert all(d == pytest.approx(a, abs=1e-9) for _, _, d in reals)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_kappa_F_cone_a(a):
    base = spaces.Ray(sample_extent=2.0)
    triple = WarpedTriple(base, WarpFunction.linear(a), spaces.Circle(6.0))
    for side in ("CAT", "CBB"):
        rep = kappa_F(side, triple, 0.0)
        assert rep.kappa_foot == pytest.approx(a * a, abs=1e-6)
        assert rep.gradient_form == pytest.approx(a * a, abs=5e-3)


def test_kappa_F_suspension():
    base = spaces.Interval(0.0, math.pi)
    triple = WarpedTriple(base, WarpFunction.sin(), spaces.Circle(2 * math.pi))
    rep = kappa_F("CAT", triple, 1.0)
    assert rep.kappa_foot == pytest.approx(1.0, abs=5e-3)
    assert rep.kappa_far == pytest.approx(1.0, abs=5e-3)
    assert rep.kappa_F == pytest.approx(1.0, abs=5e-3)
    rep = kappa_F("CBB", triple, 1.0)
    assert rep.kappa_F == pytest.approx(1.0, abs=5e-3)


def test_kappa_F_z_empty():
    base = spaces.Interval(0.0, 1.0)
    triple = WarpedTriple(base, WarpFunction.constant(0.5), spaces.Circle(3.0))
    rep = kappa_F("CAT", triple, -1.0)
    assert rep.branch == "Z-empty"
    assert rep.kappa_F == pytest.approx(-0.25)


def test_gradient_shells_converge():
    # CAT branch reports the shell sequence for the liminf cross-check
    base = spaces.Interval(0.0, math.pi)
    triple = WarpedTriple(base, WarpFunction.sin(), spaces.Circle(2 * math.pi))
    rep = kappa_F("CAT", triple, 1.0)
    finite = [s for s in rep.shells if s < math.inf]
    assert finite
    assert finite[-1] == pytest.approx(1.0, abs=5e-3)
    assert rep.cross_check_diff is not None and rep.cross_check_diff <= 5e-3


def test_realizers_of_a_scanned_zero_interval_leave_it(monkeypatch):
    # Z = [0, 1] is scanned as a run of 2049 roots; only its end at 1 has a
    # realizer that leaves Z, with slope 1
    f = WarpFunction.from_expression("max(t - 1, 0*t)", 1.0)
    triple = WarpedTriple(spaces.Interval(0.0, 2.0), f, spaces.Circle(6.0))
    reals = dist_Z_realizers(f, triple.base)
    assert [(float(z), step(0.5)) for z, step, _ in reals] == [(1.0, 1.5)]
    feet = []
    derivative = convexity._one_sided_derivative
    monkeypatch.setattr(convexity, "_one_sided_derivative",
                        lambda f, base, p, *a: feet.append(float(p)) or derivative(f, base, p, *a))
    cbb = kappa_F("CBB", triple, 0.0)
    # one derivative for the realizer, two for the gradient at its footpoint
    assert feet == [1.0, 1.0, 1.0]
    assert cbb.kappa_F == 1.0000000000663931
    assert kappa_F("CAT", triple, 0.0).kappa_foot == pytest.approx(1.0, abs=1e-6)


def test_realizers_of_scanned_roots_across_a_circle_seam():
    # Z = [pi, 2 pi] and the scan point 0: one run across the seam
    f = WarpFunction.from_expression("max(sin(t), 0*t)", 1.0)
    reals = dist_Z_realizers(f, spaces.Circle(2 * math.pi))
    assert [(float(z), round(step(0.5), 6)) for z, step, _ in reals] == [
        (0.0, 0.5), (math.pi, round(math.pi - 0.5, 6))]
