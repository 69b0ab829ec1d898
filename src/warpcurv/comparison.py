"""Distance-only curvature comparisons.

(1+3)-point and (2+2)-point kappa-comparisons, a sampling harness that
certifies or refutes CBB/CAT empirically with shrunk witnesses, and the
point-side comparison along explicit geodesics.

Undefined model angles make a comparison hold vacuously; a vacuous
quadruple contributes margin +inf.

Both batch margins read the upper triangle of each 4x4 distance matrix.
A quadruple has 4 triangles and 12 (vertex, pair) angles, and one call
of model.triangle_angles per block of BLOCK quadruples evaluates each
triangle once; the (1+3) angle sums and the (2+2) splits are then read
from that (triangle x vertex) angle table.  The model takes one branch
per sign of kappa, so a quadruple's margin does not depend on its batch.

The distance stack takes one space.dist_pairs call per block of BLOCK
quadruples, its six pair columns concatenated; a one-quadruple margin,
and so each witness-shrink trial, is one call.  The sampler bends its
near-collinear quadruples with one space.interpolate_pairs call for all
of them.
"""

import functools
import itertools
import math

import numpy as np

from .model import angle_from_sides, side_from_angle, triangle_angles
from .spaces import missing_rows, rng

TWO_PI = 2.0 * math.pi
# quadruples per call of the angle kernel and of space.dist_pairs: large
# enough to amortize the per-call overhead, small enough that their
# temporaries stay in cache
BLOCK = 1024
# a quadruple of exact distances passes with a margin down to -EXACT_SLACK
EXACT_SLACK = 1e-9


class Quadruple:
    """Four points with their six pairwise distances (4x4 matrix)."""

    def __init__(self, dmat, points=None):
        d = np.asarray(dmat, dtype=float)
        if d.shape != (4, 4):
            raise ValueError("distance matrix must be 4x4")
        if not np.allclose(d, d.T, atol=1e-9) or np.any(d < 0) or np.any(np.abs(np.diag(d)) > 1e-12):
            raise ValueError("invalid quadruple distances")
        self.dmat = d
        self.points = points

    def __repr__(self):
        return "Quadruple(dmat=%s)" % np.array2string(self.dmat, precision=6)


class ComparisonVerdict:
    def __init__(self, passed, witness, margin, n_tested, slack_used):
        self.passed = bool(passed)
        self.witness = witness
        self.margin = float(margin)
        self.n_tested = int(n_tested)
        self.slack_used = float(slack_used)

    def __repr__(self):
        return ("ComparisonVerdict(passed=%s, margin=%.6g, n_tested=%d, slack=%.3g)"
                % (self.passed, self.margin, self.n_tested, self.slack_used))


def _others(*vs):
    return [x for x in range(4) if x not in vs]


# Triangle t of a quadruple omits vertex t and lists the other three.
_TRIANGLES = tuple(_others(t) for t in range(4))
_PAIRS = list(itertools.combinations(range(4), 2))


def _row(v, t):
    """Row of the angle at vertex v of triangle t in the (12, m) angle table."""
    return _TRIANGLES[t].index(v) * 4 + t


# side r of triangle t is opposite its vertex r, as an index into _PAIRS
_SIDES = np.array([[_PAIRS.index(tuple(_others(t, _TRIANGLES[t][r]))) for t in range(4)]
                   for r in range(3)])
_IU, _JU = np.array(_PAIRS).T
# (1+3) at vertex i: the angles at i in the triangles omitting l, j, k
_CBB_ROWS = np.array([[_row(i, t) for t in (l, j, k)]
                      for i in range(4) for j, k, l in [_others(i)]]).T
# (2+2) with distinguished pair (u, w): angles at u, then at w, each as
# (left + right) - across
_CAT_ROWS = np.array([[_row(v, t) for v, t in ((u, q), (u, p), (u, w), (w, q), (w, p), (w, u))]
                      for u, w in _PAIRS for p, q in [_others(u, w)]]).T


def _margins(D, kappa, margin):
    """Apply margin(angle table) to each quadruple of a (..., 4, 4) stack.

    Sides come from the upper triangle of D.  The kernel runs once per
    block of BLOCK quadruples.
    """
    D = np.asarray(D, dtype=float)
    d = D.reshape((-1, 4, 4))
    out = np.empty(len(d))
    for lo in range(0, len(d), BLOCK):
        sides = d[lo:lo + BLOCK, _IU, _JU].T[_SIDES]
        out[lo:lo + BLOCK] = margin(triangle_angles(kappa, *sides).reshape(12, -1))
    return out.reshape(D.shape[:-2])


def _margin_1plus3(ang):
    r = _CBB_ROWS
    m = TWO_PI - ((ang[r[0]] + ang[r[1]]) + ang[r[2]])
    return np.min(np.where(np.isnan(m), np.inf, m), axis=0)


def _margin_2plus2(ang):
    r = _CAT_ROWS
    split = np.fmax((ang[r[0]] + ang[r[1]]) - ang[r[2]],
                    (ang[r[3]] + ang[r[4]]) - ang[r[5]])    # fmax ignores one-sided nan
    return np.min(np.where(np.isnan(split), np.inf, split), axis=0)


def batch_1plus3(D, kappa):
    """Margins of the (1+3)-point comparison for a (m,4,4) distance stack.

    Margin of one labeling is 2*pi minus the angle sum at the
    distinguished point; undefined angles make the labeling vacuous
    (margin +inf); the quadruple margin is the min over the 4 labelings.
    """
    return _margins(D, kappa, _margin_1plus3)


def batch_2plus2(D, kappa):
    """Margins of the (2+2)-point comparison for a (m,4,4) distance stack.

    For each of the 6 choices of distinguished pair, the split margin is
    the better of the two disjunct slacks; any undefined angle makes the
    split vacuous.  The quadruple margin is the min over splits.
    """
    return _margins(D, kappa, _margin_2plus2)


def test_1plus3(q, kappa):
    """CBB-side quadruple test. Returns (passed, margin)."""
    m = float(batch_1plus3(q.dmat[None], kappa)[0])
    return m >= -EXACT_SLACK, m


def test_2plus2(q, kappa):
    """CAT-side quadruple test. Returns (passed, margin)."""
    m = float(batch_2plus2(q.dmat[None], kappa)[0])
    return m >= -EXACT_SLACK, m


def _batch_for(kind):
    if kind == "CBB":
        return batch_1plus3
    if kind == "CAT":
        return batch_2plus2
    raise ValueError("kind must be CBB or CAT")


@functools.lru_cache(maxsize=4)
def _pool_combos(pool_m):
    """The 4-subsets of range(pool_m) in lexicographic order, read-only."""
    combos = np.array(list(itertools.combinations(range(pool_m), 4)))
    combos.setflags(write=False)
    return combos


def _dmat_stack(space, groups):
    """Distance stack for point groups of shape (m, 4) in batch encoding.

    One space.dist_pairs call per block of BLOCK quadruples answers the
    block's six pair columns, concatenated pair-major, so an engine with
    per-call set-up pays it once per block instead of six times.  The
    stack is not answered in one call: the temporaries of a call over all
    6 m pairs outgrow the cache and slow the closed forms down.
    """
    m = len(groups)
    D = np.zeros((m, 4, 4))
    for lo in range(0, m, BLOCK):
        g = groups[lo:lo + BLOCK]
        xs, ys = (np.swapaxes(g[:, ends], 0, 1).reshape((-1,) + g.shape[2:])
                  for ends in (_IU, _JU))
        d = np.asarray(space.dist_pairs(xs, ys), float).reshape(len(_PAIRS), len(g)).T
        D[lo:lo + BLOCK, _IU, _JU] = d
        D[lo:lo + BLOCK, _JU, _IU] = d
    return D


def _quadruple_margin(space, pts, kappa, kind):
    batch = _batch_for(kind)
    g = space._batch(pts)
    g = g.reshape((1, 4) + g.shape[1:])
    return float(batch(_dmat_stack(space, g), kappa)[0])


def shrink_witness(space, pts, kappa, kind, slack):
    """Greedy bisection of a violating quadruple toward its first point.

    Each accepted move halves a point's distance to the anchor while the
    quadruple still violates; stops when no move preserves the violation,
    or after 20 rounds.
    """
    cur = [p for p in pts]
    if space.interpolate(cur[0], cur[0], 0.5) is None:
        return cur
    # a move must keep a fixed fraction of the original violation, so
    # shrinking cannot decay a real witness into a roundoff artifact
    m0 = _quadruple_margin(space, cur, kappa, kind)
    floor = min(-slack, 0.25 * m0)
    for _ in range(20):
        moved = False
        for i in range(1, 4):
            cand = space.interpolate(cur[i], cur[0], 0.5)
            if cand is None:
                continue
            trial = list(cur)
            trial[i] = cand
            if _quadruple_margin(space, trial, kappa, kind) < floor:
                cur = trial
                moved = True
        if not moved:
            break
    return cur


def sample_comparisons(space, kappa, kind, n, seed, slack=EXACT_SLACK):
    """Quadruple comparison battery on a sampled space.

    Draws n quadruples: a uniform part (independent points) and an
    adversarial quarter built from exhaustive combinations over a small
    point pool plus near-collinear configurations along geodesics.  When
    the space interpolates, the first third of the adversarial quadruples
    get their third point moved to a near-midpoint of the first two, in
    one interpolate_pairs batch; rows without a geodesic stay unbent.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    n_adv = int(round(n * 0.25))
    n_uni = n - n_adv

    groups = []
    if n_uni > 0:
        pts = space._batch(space.sample(4 * n_uni, seed))
        groups.append(pts.reshape((n_uni, 4) + pts.shape[1:]))

    if n_adv > 0:
        # exhaustive quadruples over a pool: catches structured violations
        # (apex configurations, antipodal midpoints) that independent
        # sampling hits only with tiny probability
        pool_m = 8
        while math.comb(pool_m, 4) < n_adv and pool_m < 64:
            pool_m += 1
        pool = space._batch(space.sample(pool_m, seed + 1))
        adv = pool[_pool_combos(pool_m)[:n_adv]]
        # bend a third of them toward collinearity when the space can
        # interpolate: replace the 3rd point by a near-midpoint of 1-2
        probe = space.interpolate(pool[0], pool[1], 0.5)
        if probe is not None:
            k = len(adv) // 3
            us = 0.45 + 0.1 * rng(seed + 2).random(k)
            mids = space.interpolate_pairs(adv[:k, 0], adv[:k, 1], us)
            bent = np.flatnonzero(~missing_rows(mids))
            adv[bent, 2] = mids[bent]
        groups.append(adv)

    groups = np.concatenate(groups, axis=0) if len(groups) > 1 else groups[0]
    D = _dmat_stack(space, groups)
    batch = _batch_for(kind)
    margins = batch(D, kappa)

    overall = float(np.min(margins)) if len(margins) else np.inf
    passed = overall >= -slack
    witness = None
    if not passed:
        first = int(np.argmax(margins < -slack))
        pts = [groups[first][i] for i in range(4)]
        pts = shrink_witness(space, pts, kappa, kind, slack)
        g = space._batch(pts).reshape((1, 4) + space._batch(pts).shape[1:])
        witness = Quadruple(_dmat_stack(space, g)[0], points=pts)
    return ComparisonVerdict(passed, witness, overall, len(groups), slack)


def point_side_test(space, kappa, kind, x1, polyline):
    """Compare distances from x1 to geodesic nodes against the model.

    CBB requires actual >= model, CAT requires actual <= model; an
    undefined model triangle passes vacuously with margin +inf.
    """
    x2 = polyline.points[0]
    x3 = polyline.points[-1]
    d12 = space.distance(x1, x2)
    d13 = space.distance(x1, x3)
    d23 = space.distance(x2, x3)
    ang2 = float(angle_from_sides(kappa, d12, d23, d13))
    if math.isnan(ang2):
        return True, math.inf
    ts = polyline.params - polyline.params[0]
    margin = math.inf
    for t, node in zip(ts, polyline.points):
        actual = space.distance(x1, node)
        modeld = float(side_from_angle(kappa, d12, float(t), ang2))
        diff = actual - modeld
        if kind == "CAT":
            diff = -diff
        margin = min(margin, diff)
    return margin >= -EXACT_SLACK, margin
