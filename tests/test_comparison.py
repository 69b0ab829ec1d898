"""Quadruple comparison tests."""

import functools
import itertools
import math

import numpy as np
import pytest

from warpcurv import comparison, model, spaces
from warpcurv.certify import ProductSpace
from warpcurv.comparison import Quadruple, sample_comparisons
from warpcurv.constructions import ConeSpace, DoubledDisk, SuspensionSpace
from warpcurv.spaces import rng
from warpcurv.warped import GridWarpedOracle, WarpedTriple, WarpFunction


def _plane_quadruples(n, seed):
    g = rng(seed, stream=21)
    pts = g.uniform(-1.0, 1.0, (n, 4, 2))
    D = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)
    return D


def test_plane_passes_both():
    D = _plane_quadruples(10000, seed=1)
    assert float(np.min(comparison.batch_1plus3(D, 0.0))) >= -1e-9
    assert float(np.min(comparison.batch_2plus2(D, 0.0))) >= -1e-9


def test_interval_margins_exact():
    iv = spaces.Interval(0.0, 3.0)
    for kind in ("CBB", "CAT"):
        v = sample_comparisons(iv, 0.0, kind, 500, seed=2)
        assert v.passed
        assert v.margin >= 0.0


def test_circle_never_cat0():
    for L in (2 * math.pi - 0.1, 2 * math.pi + 0.1, 3.0):
        v = sample_comparisons(spaces.Circle(L), 0.0, "CAT", 800, seed=3)
        assert not v.passed
        assert v.witness is not None
        # witness still violates after shrinking
        ok, m = comparison.test_2plus2(v.witness, 0.0)
        assert not ok and m < -1e-9


def test_circle_cat1_flips_at_2pi():
    short = sample_comparisons(spaces.Circle(2 * math.pi * 0.9), 1.0, "CAT", 2000, seed=4)
    long = sample_comparisons(spaces.Circle(2 * math.pi * 1.1), 1.0, "CAT", 2000, seed=4)
    assert not short.passed
    assert long.passed


def test_tripod_fails_cbb0():
    v = sample_comparisons(spaces.tripod(1.0), 0.0, "CBB", 400, seed=5)
    assert not v.passed
    # branch point quadruple margin is -pi
    assert v.margin == pytest.approx(-math.pi, abs=1e-9)


def test_disks_directional():
    hyp = spaces.ModelDisk(-1.0, 1.0)
    sph = spaces.ModelDisk(1.0, 1.0)
    assert sample_comparisons(hyp, 0.0, "CAT", 300, seed=6).passed
    assert not sample_comparisons(hyp, 0.0, "CBB", 300, seed=6).passed
    assert not sample_comparisons(sph, 0.0, "CAT", 300, seed=7).passed
    assert sample_comparisons(sph, 0.0, "CBB", 300, seed=7).passed
    assert sample_comparisons(sph, 1.0, "CAT", 300, seed=8).passed


def test_labeling_invariance():
    D = _plane_quadruples(50, seed=9)
    m13 = comparison.batch_1plus3(D, 0.5)
    m22 = comparison.batch_2plus2(D, 0.5)
    for perm in itertools.permutations(range(4)):
        P = D[:, perm][:, :, perm]
        assert np.allclose(comparison.batch_1plus3(P, 0.5), m13, atol=1e-9)
        assert np.allclose(comparison.batch_2plus2(P, 0.5), m22, atol=1e-9)


def test_margin_monotone_in_kappa():
    # CBB margins shrink as kappa grows; CAT margins grow
    D = _plane_quadruples(200, seed=10)
    lo = comparison.batch_1plus3(D, -1.0)
    hi = comparison.batch_1plus3(D, 1.0)
    finite = np.isfinite(lo) & np.isfinite(hi)
    assert np.all(hi[finite] <= lo[finite] + 1e-9)
    lo2 = comparison.batch_2plus2(D, -1.0)
    hi2 = comparison.batch_2plus2(D, 1.0)
    finite = np.isfinite(lo2) & np.isfinite(hi2)
    assert np.all(lo2[finite] <= hi2[finite] + 1e-9)


def test_vacuous_quadruple_is_inf():
    # all distances exceed varpi at kappa=1: every labeling undefined
    d = 3.2
    m = np.full((4, 4), d) - d * np.eye(4)
    assert comparison.batch_1plus3(m[None], 1.0)[0] == math.inf
    assert comparison.batch_2plus2(m[None], 1.0)[0] == math.inf


def test_quadruple_validation():
    with pytest.raises(ValueError):
        Quadruple(np.zeros((3, 3)))
    m = np.zeros((4, 4))
    m[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        Quadruple(m)


def test_point_side_test_on_interval():
    iv = spaces.Interval(0.0, 2.0)
    poly = iv.geodesic(0.0, 2.0, resolution=0.25)
    ok, margin = comparison.point_side_test(iv, 0.0, "CBB", 1.0, poly)
    assert ok and margin >= -1e-9
    ok, margin = comparison.point_side_test(iv, 0.0, "CAT", 1.0, poly)
    assert ok and margin >= -1e-9


def test_witness_shrinks_toward_anchor():
    c = spaces.Circle(6.0)
    v = sample_comparisons(c, 0.0, "CAT", 500, seed=11)
    assert not v.passed
    w = v.witness
    # the shrunk witness is still a genuine quadruple of the space
    assert np.max(w.dmat) <= 3.0 + 1e-9


def test_witness_over_non_interpolable_fiber():
    # the fiber has no paths between its points, so distinct tripod leaves
    # of the suspension meet only through a pole; the shrink and the
    # near-midpoint bending move along those glued paths
    from warpcurv.constructions import SuspensionSpace
    space = SuspensionSpace(spaces.tripod(0.6, 3))
    v = sample_comparisons(space, 1.0, "CBB", 50, 0)
    assert not v.passed
    assert all(p is not None for p in v.witness.points)
    assert not comparison.test_1plus3(v.witness, 1.0)[0]


# Reference margins: one angle_from_sides call per (vertex, pair), summed
# in the order of the per-angle loop the shared-triangle kernel replaced.
def _ref_angle(kappa, D, v, p, q):
    return model.angle_from_sides(kappa, D[..., v, p], D[..., v, q], D[..., p, q])


def _ref_1plus3(D, kappa):
    margins = np.full(D.shape[:-2], np.inf)
    for i in range(4):
        j, k, l = [x for x in range(4) if x != i]
        total = (_ref_angle(kappa, D, i, j, k) + _ref_angle(kappa, D, i, k, l)
                 + _ref_angle(kappa, D, i, l, j))
        m_i = comparison.TWO_PI - total
        margins = np.minimum(margins, np.where(np.isnan(m_i), np.inf, m_i))
    return margins


def _ref_2plus2(D, kappa):
    margins = np.full(D.shape[:-2], np.inf)
    for u, w in itertools.combinations(range(4), 2):
        p, q = [x for x in range(4) if x not in (u, w)]
        a_u = (_ref_angle(kappa, D, u, p, w) + _ref_angle(kappa, D, u, w, q)
               - _ref_angle(kappa, D, u, p, q))
        a_w = (_ref_angle(kappa, D, w, p, u) + _ref_angle(kappa, D, w, u, q)
               - _ref_angle(kappa, D, w, p, q))
        split = np.fmax(a_u, a_w)
        margins = np.minimum(margins, np.where(np.isnan(split), np.inf, split))
    return margins


def _space_stack(space, m, seed):
    pts = space._batch(space.sample(4 * m, seed))
    return comparison._dmat_stack(space, pts.reshape((m, 4) + pts.shape[1:]))


def _plane_stack(pts):
    return np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)


@functools.lru_cache(maxsize=None)
def _stack(name):
    m = comparison.BLOCK + 1
    g = rng(31, stream=22)
    if name == "interval":
        return _space_stack(spaces.Interval(0.0, 3.0), m, 12)
    if name == "circle":
        return _space_stack(spaces.Circle(5.0), m, 13)
    if name == "suspension":
        return _space_stack(SuspensionSpace(spaces.Circle(2 * math.pi)), m, 14)
    if name == "cone":
        return _space_stack(ConeSpace(spaces.Circle(7.0), 1.0, r_max=2.0), m, 15)
    if name == "duplicates":
        pts = g.uniform(-1.0, 1.0, (m, 4, 2))
        pts[:, 1] = pts[:, 0]
        pts[::2, 3] = pts[::2, 2]
        return _plane_stack(pts)
    assert name == "tiny"
    # scaled so that at kappa = 4 the median largest perimeter of a
    # triangle slot has kappa * perimeter^2 = 1e-14: near-degenerate
    # triangles far below the scale of the other stacks
    D = _plane_stack(g.uniform(-1.0, 1.0, (m, 4, 2)))
    big = np.array([np.max(D[:, i, j] + D[:, j, k] + D[:, i, k])
                    for i, j, k in itertools.combinations(range(4), 3)])
    D *= math.sqrt(1e-14 / 4.0) / np.median(big)
    assert np.max(D) < 1e-6
    return D


@pytest.mark.parametrize("name", ["interval", "circle", "suspension", "cone", "duplicates", "tiny"])
@pytest.mark.parametrize("kappa", [-1.0, 0.0, 0.5, 1.0, 4.0])
def test_batch_margins_match_per_angle_reference(name, kappa):
    full = _stack(name)
    for size in (0, 1, comparison.BLOCK - 1, comparison.BLOCK + 1):
        D = full[:size]
        for batch, ref in ((comparison.batch_1plus3, _ref_1plus3),
                           (comparison.batch_2plus2, _ref_2plus2)):
            got, want = batch(D, kappa), ref(D, kappa)
            assert got.shape == want.shape == (size,)
            assert np.array_equal(got, want), (name, kappa, size, batch.__name__)


def _grid_oracle():
    warp = WarpFunction.from_expression("0.3 + 0.1*cos(t)", 0.1)
    return GridWarpedOracle(WarpedTriple(spaces.Circle(2 * math.pi), warp,
                                         spaces.Interval(0.0, 3.0)))


STACK_SPACES = {
    "interval": lambda: spaces.Interval(0.0, 3.0),
    "circle": lambda: spaces.Circle(5.0),
    "cone": lambda: ConeSpace(spaces.Circle(7.0), 1.0, r_max=2.0),
    "suspension": lambda: SuspensionSpace(spaces.Circle(2 * math.pi)),
    "product": lambda: ProductSpace(spaces.Interval(0.0, 2.0), 0.7, spaces.Circle(2 * math.pi)),
    "doubled": lambda: DoubledDisk(spaces.ModelDisk(0.0, 1.0), [(0.0, 2.0)]),
    "grid": _grid_oracle,
}


@pytest.mark.parametrize("name", sorted(STACK_SPACES))
def test_dmat_stack_is_one_call_per_block(name, monkeypatch):
    if name == "grid":
        # a Clairaut solve over 6 (BLOCK + 1) pairs takes seconds; a small
        # block exercises the same block boundaries
        monkeypatch.setattr(comparison, "BLOCK", 16)
    block = comparison.BLOCK
    space = STACK_SPACES[name]()
    calls = []
    dist_pairs = space.dist_pairs
    monkeypatch.setattr(space, "dist_pairs", lambda xs, ys: calls.append(len(xs))
                        or dist_pairs(xs, ys))
    pts = space._batch(space.sample(4 * (block + 1), seed=9))
    for m in (1, block, block + 1):
        groups = pts[:4 * m].reshape((m, 4) + pts.shape[1:])
        calls.clear()
        D = comparison._dmat_stack(space, groups)
        assert len(calls) == math.ceil(m / block)
        ref = np.zeros((m, 4, 4))
        for i, j in itertools.combinations(range(4), 2):
            ref[:, i, j] = ref[:, j, i] = dist_pairs(groups[:, i], groups[:, j])
        assert np.array_equal(D, ref), (name, m)


def test_pool_combos_table():
    # the sampler's adversarial index table is built once per pool size and
    # shared read-only; its rows are itertools' lexicographic 4-subsets
    for m in (8, 21):
        table = comparison._pool_combos(m)
        assert table is comparison._pool_combos(m)
        assert not table.flags.writeable
        assert table.tolist() == [list(c) for c in itertools.combinations(range(m), 4)]
    # 100 adversarial quadruples are the first 100 rows of the 126 for m = 9:
    # the margin is the one the table rebuilt on every call gave
    v = sample_comparisons(spaces.ModelDisk(1.0, 2.0), 0.0, "CBB", 400, seed=3)
    assert v.margin == 0.018775732288958125
