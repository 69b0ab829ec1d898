"""Distances on a ModelDisk base with a radial warp f(r).

On dr^2 + sn(r)^2 dtheta^2 + f(r)^2 ds^2 both theta and the fiber
parameter s are cyclic, so a = sn^2 dtheta/dt and c = f^2 ds/dt are
conserved, and the angle advance, fiber advance and length of an arc are
1-D integrals in r, on the cosine-mapped rules of warpcurv.warped.
radial_solve takes, for a batch of pairs, the shortest of the candidate
curves and an error bar for each; warped.reduced_distance calls it for a
disk base.
"""

import functools
import math

import numpy as np

from . import model, spaces
from .warped import (CLAIRAUT_NODES, ZERO_THRESHOLD, ClairautSolution, ConvergenceError,
                     WarpedTriple, _contest, _cos_map_rule, clairaut_solve, zero_runs,
                     zero_set)


# Gauss-Legendre nodes per piece of a radial arc in the bracket scan; a
# value takes CLAIRAUT_NODES per piece, and its error bar twice as many
RADIAL_SCAN_NODES = 24
# points of each bracket scan along its radial or ride axis and its angle
# axis, and Newton steps per seed
RADIAL_SCAN = (13, 25)
RADIAL_NEWTON = 16
# half-width of the window of y = log tan psi that the scan covers
RADIAL_Y = 8.0
# 1 - V at an end below which its end piece is valued as linear in 1 - V,
# and below which the middle piece runs on to the turning point beyond it
END_SPEED2 = 1e-8
EXTEND_SPEED2 = 0.05
# radial families, and how often each traverses the inner and outer pieces
RADIAL_FAMILIES = ("monotone", "inner", "outer", "both", "rim")
RADIAL_IN = np.array([0.0, 2.0, 0.0, 2.0, 0.0])
RADIAL_OUT = np.array([0.0, 0.0, 2.0, 2.0, 2.0])


def _potential(prof, kappa, a, c, r):
    """V = a^2 / sn(r)^2 + c^2 / f(r)^2, a and c broadcast over r; inf at a
    pole (sn = 0 with a > 0, f = 0 with c > 0)."""
    sn, f = model.sn(kappa, r), prof(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(a != 0, (a / sn) ** 2, 0.0) + np.where(c != 0, (c / f) ** 2, 0.0))


def _turning(prof, kappa, a, c, start, stop):
    """First r from start toward stop where V = 1, per row; start itself
    where V(start) rounds to 1 or more, nan where V stays below 1 up to stop.

    V is scanned at start + (stop - start) (j / 16)^2, j = 1..16, and the
    first crossing is refined by up to 40 Newton steps on central
    differences, kept inside the shrinking bracket (bisecting where a
    step leaves it or an end of it is a pole of V), on the rows not yet
    at V = 1; a row still open then takes its bracket's end with V < 1.
    """
    r = start[:, None] + (stop - start)[:, None] * (np.arange(1, 17) / 16) ** 2
    hit = ~(_potential(prof, kappa, a[:, None], c[:, None], r) < 1.0)
    at_start = ~(_potential(prof, kappa, a, c, start) < 1.0 - 1e-14)
    out = np.where(at_start, start, math.nan)
    live = np.flatnonzero(hit.any(axis=1) & ~at_start)
    j = np.argmax(hit[live], axis=1)
    inner = np.where(j > 0, r[live, np.maximum(j - 1, 0)], start[live])
    outer = r[live, j]
    x = 0.5 * (inner + outer)
    for _ in range(40):
        if not len(live):
            break
        h = 1e-7 * np.abs(outer - inner) + 1e-300
        v = _potential(prof, kappa, a[live], c[live], np.stack([x - h, x, x + h])) - 1.0
        below = v[1] < 0
        inner, outer = np.where(below, x, inner), np.where(below, outer, x)
        with np.errstate(invalid="ignore", divide="ignore"):
            x_new = x - v[1] * 2.0 * h / (v[2] - v[0])
        done = np.abs(v[1]) <= 1e-15
        out[live[done]] = x[done]
        keep = ~done
        x = np.where(np.isfinite(x_new) & ((x_new - inner) * (x_new - outer) < 0), x_new,
                     0.5 * (inner + outer))[keep]
        live, inner, outer = live[keep], inner[keep], outer[keep]
    # rows still open take the end of their bracket with V < 1
    out[live] = inner
    return out


def _radial_pieces(prof, kappa, rho0, lo, hi, rho1, s0, s1, a, c, n):
    """Angle advance, fiber advance, length and action of the pieces rho0 ->
    lo, s0 -> s1 and hi -> rho1, per row: an array (4, rows, 3).

    On dr^2 + sn(r)^2 dtheta^2 + f(r)^2 ds^2 the constants a = sn^2 theta'
    and c = f^2 s' are conserved, and r'^2 = 1 - V.  A piece advances
    theta by int a / sn^2 / sqrt(1 - V) dr, s by int c / f^2 / sqrt(1 -
    V) dr, has length int dr / sqrt(1 - V) and action int sqrt(1 - V) dr.
    A curve of such pieces that meets its ends has length a Theta + c ell
    + action, a value stationary in (a, c), whose roundoff stays small
    where that of the advances, near a turning point, does not.  Each
    piece takes the cosine-mapped rule of n nodes; a piece with V >= 1 at
    a node is inf.  rho0 and rho1 are turning points (V = 1), where the
    rule is exact for the inverse square root; s0 is lo or rho0 and s1 is
    hi or rho1 (_RadialProblem.combine).
    """
    u, w = _cos_map_rule(n)
    start = np.stack([rho0, s0, hi], axis=1)[:, :, None]
    stop = np.stack([lo, s1, rho1], axis=1)[:, :, None]
    r = start + (stop - start) * u
    ww = np.abs(stop - start) * w
    sn, f = model.sn(kappa, r), prof(r)
    aa, cc = a[:, None, None], c[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(aa != 0, aa / (sn * sn), 0.0)
        tc = np.where(cc != 0, cc / (f * f), 0.0)
        root = np.sqrt(1.0 - ta * aa - tc * cc)
        inv = np.where(ww > 0, ww / root, 0.0)
        out = np.stack([np.sum(ta * inv, axis=2), np.sum(tc * inv, axis=2),
                        np.sum(inv, axis=2), np.sum(np.where(ww > 0, ww * root, 0.0), axis=2)])
        # an end piece whose end has 1 - V = v^2 below END_SPEED2 is too short
        # for the rule, as 1 - V at its nodes is below its roundoff: there
        # 1 - V is linear, and the piece of span d advances g 2 d / v
        # (g = a / sn^2, c / f^2, 1) with action 2 d v / 3, at the end's g
        ends = np.stack([lo, hi], axis=1)
        sn_e, f_e = model.sn(kappa, ends), prof(ends)
        g = np.stack([np.where(a[:, None] != 0, a[:, None] / (sn_e * sn_e), 0.0),
                      np.where(c[:, None] != 0, c[:, None] / (f_e * f_e), 0.0),
                      np.ones_like(ends)])
        v2 = 1.0 - g[0] * a[:, None] - g[1] * c[:, None]
        v = np.sqrt(np.maximum(v2, 0.0))
        span = np.abs(np.stack([lo - rho0, rho1 - hi], axis=1))
        short = v2 < END_SPEED2
        lin = np.where(v > 0, 2.0 * span / v, 0.0)
        for k, j in ((0, 0), (1, 2)):
            rows = short[:, k]
            out[:3, rows, j] = (g[:, :, k] * lin[:, k])[:, rows]
            out[3, rows, j] = (2.0 / 3.0 * span[:, k] * v[:, k])[rows]
    out[:, ~np.all(np.isfinite(out), axis=0)] = math.inf
    return out


@functools.lru_cache(maxsize=None)
def _radial_nodes():
    """Fractions of [lo, hi] where a radial arc keeps V < 1: its ends and
    the nodes of both rules."""
    return np.concatenate([[0.0, 1.0], _cos_map_rule(CLAIRAUT_NODES)[0],
                           _cos_map_rule(RADIAL_SCAN_NODES)[0]])


def _fiber_angle(y):
    """cos and sin of psi = atan(e^y), without overflow."""
    return np.exp(-np.logaddexp(0.0, 2.0 * y) / 2.0), np.exp(-np.logaddexp(0.0, -2.0 * y) / 2.0)


class _RadialProblem:
    """The pairs of one radial_solve and the arcs of their families.

    Arcs between lo and hi take (a, c) from (u, y): c = (min f) sin psi,
    psi = atan(e^y), and a = (1 - u^2) amax(c), amax(c) the least sn sqrt(1
    - c^2/f^2) over the nodes of [lo, hi]; so V < 1 there for u in (0, 1],
    and u = 0 is where the arc starts to turn at lo or hi.  Its turning
    points are the first radii past lo and hi with V = 1 (_turning); the
    square of u makes the advances smooth in u where they meet lo or hi,
    as they grow like the square root of the distance, and y makes the
    fiber advance, which can grow like 1 / cos psi, about e^y.  The rim
    family takes (a, c) = (sn cos psi, f sin psi) at R, V(R) = 1, from p1
    = y, and rides the rim for p2; it is the outer family stopped at the
    rim and continued along it.
    """

    def __init__(self, prof, kappa, radius, lo, hi, z_in, z_out):
        self.prof, self.kappa, self.radius = prof, kappa, radius
        self.lo, self.hi, self.z_in, self.z_out = lo, hi, z_in, z_out

    def constants(self, i, u, y):
        """(a, c) of (u, y) on the rows i, as in the class docstring."""
        s = self.lo[i, None] + (self.hi - self.lo)[i, None] * _radial_nodes()
        sn_s, f_s = model.sn(self.kappa, s), self.prof(s)
        c = np.min(f_s, axis=1) * _fiber_angle(y)[1]
        with np.errstate(invalid="ignore", divide="ignore"):
            amax = np.min(sn_s * np.sqrt(np.maximum(1.0 - (c[:, None] / f_s) ** 2, 0.0)),
                          axis=1)
        return (1.0 - u * u) * amax, c

    def turning(self, i, a, c, inner, outer):
        """Inner turning points of the rows inner, outer ones of the rows
        outer, in one _turning pass; an inner one is 0 where an arc reaches
        the centre with a = 0, and either is nan where an arc reaches none."""
        rows = np.concatenate([np.flatnonzero(inner), np.flatnonzero(outer)])
        k = len(np.flatnonzero(inner))
        j = i[rows]
        start = np.concatenate([self.lo[j[:k]], self.hi[j[k:]]])
        stop = np.concatenate([self.z_in[j[:k]], self.z_out[j[k:]]])
        r = _turning(self.prof, self.kappa, a[rows], c[rows], start, stop)
        r[:k] = np.where(np.isnan(r[:k]) & (stop[:k] == 0.0) & (a[rows[:k]] == 0.0), 0.0, r[:k])
        r0, r1 = np.full(len(i), math.nan), np.full(len(i), math.nan)
        r0[rows[:k]], r1[rows[k:]] = r[:k], r[k:]
        return r0, r1

    def velocities(self, i, phi, z):
        """(a, c) and family of signed radial speeds (v_lo, v_hi) at lo and
        hi along the direction phi.

        V(lo) = 1 - v_lo^2 and V(hi) = 1 - v_hi^2 fix (a^2, c^2), each
        linear in |v|^2 along phi; |v|^2 = lo2 + (hi2 - lo2) e^z, z <= 0,
        spans the range [lo2, hi2] where both are >= 0 and |v_lo|, |v_hi|
        <= 1, so every point is feasible and z = 0 is where a, c or a
        speed reaches its bound.  A speed below 0 means the arc passes that
        end, turns and comes back, so the four quadrants are the four
        families, and the advances are smooth across the axes, where the
        other parametrisation folds.  nan where the range is empty.
        """
        cos2, sin2 = np.cos(phi) ** 2, np.sin(phi) ** 2
        ends = np.concatenate([self.lo[i], self.hi[i]])
        with np.errstate(divide="ignore", invalid="ignore"):
            p_lo, p_hi = np.split(model.sn(self.kappa, ends) ** -2.0, 2)
            q_lo, q_hi = np.split(self.prof(ends) ** -2.0, 2)
            det = p_lo * q_hi - q_lo * p_hi
            # a^2 = a0 - |v|^2 a1 and c^2 = c0 - |v|^2 c1
            terms = [((q_hi - q_lo) / det, (cos2 * q_hi - sin2 * q_lo) / det),
                     ((p_lo - p_hi) / det, (sin2 * p_lo - cos2 * p_hi) / det)]
            lo2 = np.zeros(len(i))
            hi2 = 1.0 / np.maximum(cos2, sin2)
            empty = np.zeros(len(i), dtype=bool)
            for x0, x1 in terms:
                hi2 = np.where(x1 > 0, np.minimum(hi2, x0 / x1), hi2)
                lo2 = np.where(x1 < 0, np.maximum(lo2, x0 / x1), lo2)
                empty |= (x1 == 0) & (x0 < 0)
            r2 = lo2 + (hi2 - lo2) * np.exp(z)
            aa, cc = (np.maximum(x0 - r2 * x1, 0.0) for x0, x1 in terms)
        empty |= ~(lo2 <= hi2)
        a = np.where(empty, math.nan, np.sqrt(aa))
        c = np.where(empty, math.nan, np.sqrt(cc))
        return a, c, (np.cos(phi) < 0) * 1 + (np.sin(phi) < 0) * 2

    def parameters(self, fam, i, p1, p2):
        """(a, c) and family of each row's parameters (p1, p2): (u, y) for
        families 0-3, (y, ride) for the rim, signed speeds for family 5."""
        a, c, fam = np.empty(len(i)), np.empty(len(i)), fam.copy()
        uy, rim, vel = fam < 4, fam == 4, fam == 5
        if uy.any():
            a[uy], c[uy] = self.constants(i[uy], p1[uy], p2[uy])
        if rim.any():
            cos_psi, sin_psi = _fiber_angle(p1[rim])
            a[rim] = model.sn(self.kappa, self.radius) * cos_psi
            c[rim] = self.prof(np.array([self.radius]))[0] * sin_psi
        if vel.any():
            a[vel], c[vel], fam[vel] = self.velocities(i[vel], p1[vel], p2[vel])
        return a, c, fam

    def arcs(self, fam, i, p1, p2, n):
        """(angle, fiber, length, action, a, c, rho0, rho1, ride, family) of
        family arcs at parameters (p1, p2), per row."""
        rim = fam == 4
        a, c, fam = self.parameters(fam, i, p1, p2)
        # turning points where the family turns, or the end is slow enough
        # for the middle piece to run on to one (pieces)
        slow = 1.0 - _potential(self.prof, self.kappa, a[:, None], c[:, None],
                                np.stack([self.lo[i], self.hi[i]], axis=1)) < EXTEND_SPEED2
        rho0, rho1 = self.turning(i, a, c, (self.lo[i] > self.z_in[i])
                                  & ((RADIAL_IN[fam] > 0) | slow[:, 0]),
                                  (self.z_out[i] > self.hi[i]) & ~rim
                                  & ((RADIAL_OUT[fam] > 0) | slow[:, 1]))
        rho1 = np.where(rim, self.radius, rho1)
        ride = np.where(rim, p2, 0.0)
        return self.combine(fam, i, a, c, rho0, rho1, ride, n) + (fam,)

    def pieces(self, i, a, c, rho0, rho1, n):
        """_radial_pieces at the turning points rho0 and rho1 (nan where
        there is none), and for each end whether the middle piece runs on
        to its turning point.

        Where 1 - V at lo or hi is below EXTEND_SPEED2, the rule on lo ->
        hi would not resolve the near-singular end, so the middle piece
        runs from the turning point beyond it instead, and the end piece
        is subtracted: that is smooth as the end's speed passes 0.
        """
        lo, hi = self.lo[i], self.hi[i]
        a, c = np.nan_to_num(a), np.nan_to_num(c)
        r0 = np.where(np.isnan(rho0), lo, rho0)
        r1 = np.where(np.isnan(rho1), hi, rho1)
        v2 = 1.0 - _potential(self.prof, self.kappa, a[:, None], c[:, None],
                              np.stack([lo, hi], axis=1))
        ext = (v2 < EXTEND_SPEED2) & ~np.isnan(np.stack([rho0, rho1], axis=1))
        s0, s1 = np.where(ext[:, 0], r0, lo), np.where(ext[:, 1], r1, hi)
        return _radial_pieces(self.prof, self.kappa, r0, lo, hi, r1, s0, s1, a, c, n), ext

    def combine(self, fam, i, a, c, rho0, rho1, ride, n, pieces=None):
        """Sums of the pieces each family traverses, given the turning points
        rho0 and rho1 (nan where there is none); pieces, if given, are
        self.pieces at them."""
        use_in, use_out = RADIAL_IN[fam] > 0, RADIAL_OUT[fam] > 0
        missing = (use_in & np.isnan(rho0)) | (use_out & np.isnan(rho1)) | np.isnan(a + c)
        if pieces is None:
            pieces = self.pieces(i, a, c, rho0, rho1, n)
        pieces, ext = pieces
        a, c = np.nan_to_num(a), np.nan_to_num(c)
        r0 = np.where(np.isnan(rho0), self.lo[i], rho0)
        r1 = np.where(np.isnan(rho1), self.hi[i], rho1)
        # a family that turns at an end traverses that end piece twice, and
        # a middle piece run on to a turning point has it once too many
        counts = np.stack([RADIAL_IN[fam] - ext[:, 0], np.ones(len(fam)),
                           RADIAL_OUT[fam] - ext[:, 1]], axis=1)
        with np.errstate(invalid="ignore"):
            out = np.sum(pieces * counts, axis=2)
            # an arc down to the centre passes through it: theta turns by pi there
            out[0] += np.where(use_in & (r0 <= 0.0), math.pi, 0.0)
            # the rim ride, along V(R) = 1: a / sn^2 and c / f^2 per unit length
            sn1, f1 = model.sn(self.kappa, r1), self.prof(r1)
            out[0] += np.where(ride > 0, ride * a / (sn1 * sn1), 0.0)
            out[1] += np.where(ride > 0, ride * c / (f1 * f1), 0.0)
            out[2] += ride
        out[:, missing | ~np.all(np.isfinite(out), axis=0)] = math.inf
        return out, a, c, rho0, rho1, ride


def _enclosing(p1, p2, ft, fs):
    """Seeds of the roots of (ft, fs) on grids (problems, G1, G2): each grid
    triangle whose residuals enclose the origin gives the point its
    barycentric coordinates pick.  Returns (problem, p1, p2)."""
    seeds = []
    for corners in (((0, 0), (1, 0), (0, 1)), ((1, 1), (0, 1), (1, 0))):
        sl = [(slice(i, p1.shape[1] - 1 + i), slice(j, p1.shape[2] - 1 + j)) for i, j in corners]
        F = [np.stack([ft[:, a, b], fs[:, a, b]]) for a, b in sl]
        P = [np.stack([p1[:, a, b], p2[:, a, b]]) for a, b in sl]
        with np.errstate(divide="ignore", invalid="ignore"):
            e1, e2 = F[1] - F[0], F[2] - F[0]
            det = e1[0] * e2[1] - e1[1] * e2[0]
            l1 = (-F[0][0] * e2[1] + F[0][1] * e2[0]) / det
            l2 = (-e1[0] * F[0][1] + e1[1] * F[0][0]) / det
            inside = ((l1 >= -1e-9) & (l2 >= -1e-9) & (l1 + l2 <= 1.0 + 1e-9)
                      & np.isfinite(det) & (det != 0))
            seed = P[0] + l1 * (P[1] - P[0]) + l2 * (P[2] - P[0])
        k = np.nonzero(inside)
        seeds.append((k[0], seed[0][k], seed[1][k]))
    return tuple(np.concatenate(v) for v in zip(*seeds))


def radial_solve(triple, bp, bq, ell, tol=1e-3):
    """Distances in B x_f [0, ell] from (bp, 0) to (bq, ell), B a ModelDisk, per row.

    f must be radial (an expression in r with no theta).  With a = sn^2
    theta' and c = f^2 s' conserved (_radial_pieces), the candidates are:
      - the base geodesic where ell = 0 or f vanishes at an end (exact);
      - the leaf path d_B + min(f(bp), f(bq)) ell;
      - through each zero circle r = z of f: ModelDisk.via_circle;
      - arcs monotone in r, turning once inside or outside the pair's
        radii, or at both, and arcs that ride the rim where it is not
        convex.
    theta is folded to [0, pi], so a >= 0.  At theta = 0 folding theta
    away shortens every curve, so the pair is solved by clairaut_solve on
    the radius [0, R].  A zero circle between the pair's radii makes the
    through-Z value exact; otherwise turning points stay between the
    zeros nearest the pair.  The families are scanned on a grid of (u, y)
    and one of signed radial speeds (_RadialProblem), the rim family on
    (y, ride); each grid triangle whose residual (angle advance - theta,
    fiber advance - ell) encloses 0 seeds Newton's method.  A root is
    valued a theta + c ell + action with 2x the nodes; its error bar is the
    change of the action, and of the advances times a and c, from the base
    rule, plus the residual times the change in (a, c) one more Newton
    step would make.  A point so near the centre that its angle is moot
    (sn(r) theta <= tol / 4) takes theta = 0 and sn(r) theta more error.
    A pair with no family root and no zero circle, or whose best
    candidates have a bar above tol / 2, raises ConvergenceError with a
    bracket.
    """
    base = triple.base
    if not isinstance(base, spaces.ModelDisk):
        raise ValueError("unsupported base for distances: %r" % (base,))
    if not triple.warp.radial:
        raise ValueError("a disk base needs a radial warp: an expression in r with no theta")
    # f(r) as a warp of t = r, and on float arrays
    radius_warp = triple.warp.compose("t")
    prof = radius_warp.fn
    kappa, radius = base.kappa, base.radius
    bp, bq = base._batch(bp), base._batch(bq)
    npair = len(bp)
    ell = np.broadcast_to(np.asarray(ell, float).ravel(), (npair,)).copy()
    r1, r2 = np.clip(bp[:, 0], 0.0, radius), np.clip(bq[:, 0], 0.0, radius)
    lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
    theta = np.abs(bp[:, 1] - bq[:, 1]) % (2.0 * math.pi)
    theta = np.minimum(theta, 2.0 * math.pi - theta)
    d_base = np.atleast_1d(np.asarray(base.dist_pairs(bp, bq), float))
    f1, f2 = prof(r1), prof(r2)
    value = d_base.copy()
    winner = [("base",)] * npair
    live = np.flatnonzero((ell > 0) & (f1 > ZERO_THRESHOLD) & (f2 > ZERO_THRESHOLD))
    for i in np.flatnonzero(ell > 0):
        if i not in live:
            winner[i] = ("z", r1[i] if f1[i] <= ZERO_THRESHOLD else r2[i])
    if not len(live):
        return ClairautSolution(value, winner)
    cand = []       # (pair, value, error bar, winner)
    leaf = d_base + np.minimum(f1, f2) * ell
    for i in live:
        cand.append((i, leaf[i], 0.0, ("leaf", r1[i] if f1[i] <= f2[i] else r2[i])))
    # the radius [0, R] as a 1-D base, for the zero circles and the theta = 0 pairs
    ray = WarpedTriple(spaces.Interval(0.0, radius), radius_warp, triple.fiber, check=False)
    # of each run of adjacent scan points, only its ends
    zeros = np.unique(zero_set(ray.warp, ray.base)[1])
    zeros = np.unique(np.concatenate(zero_runs(zeros, ray.base)))
    z_in = np.array([np.max(zeros[zeros <= x], initial=0.0) for x in lo])
    z_out = np.array([np.min(zeros[zeros >= x], initial=radius) for x in hi])
    crossed = np.array([np.any((zeros >= x) & (zeros <= y)) for x, y in zip(lo, hi)])
    for z in zeros:
        via, at = base.via_circle(bp[live], bq[live], z)
        cand += [(i, via[k], 0.0, ("z", z, at[k])) for k, i in enumerate(live)]
    found = np.zeros(npair, dtype=bool)
    # a point near the centre takes theta = 0 at the cost of the arc that turns it
    sn_lo = model.sn(kappa, lo)
    snapped = sn_lo * theta <= 0.25 * tol
    snap = np.where(snapped, sn_lo * theta, 0.0)
    theta = np.where(snapped, 0.0, theta)
    flat = np.array([i for i in live if theta[i] == 0.0 and not crossed[i]], int)
    if len(flat):
        sol = clairaut_solve(ray, r1[flat], r2[flat], ell[flat], tol=0.5 * tol)
        cand += [(i, sol.value[k], snap[i], sol.winner[k]) for k, i in enumerate(flat)]
        found[flat] = True
    rows = np.array([i for i in live if theta[i] > 0.0 and not crossed[i]], int)
    if len(rows):
        found |= _radial_candidates(triple, prof, rows, lo, hi, z_in, z_out, theta, ell,
                                    d_base, leaf, snap, cand)
    _, cval, best, worst, best_of = _contest(*list(zip(*cand))[:3], npair)
    solves = found | (len(zeros) > 0)
    for i in live:
        if not solves[i] or not worst[i] <= tol / 2.0:
            bar = worst[i] if solves[i] else max(worst[i], best[i] - d_base[i])
            raise ConvergenceError("no radial candidate resolves (%.12g, %.12g) -> (%.12g, "
                                   "%.12g), ell = %.12g to tol=%g" % (
                                       bp[i, 0], bp[i, 1], bq[i, 0], bq[i, 1], ell[i], tol),
                                   bracket=(float(best[i] - bar), float(best[i] + bar)))
    for i in live:
        value[i] = cval[best_of[i]]
        winner[i] = cand[best_of[i]][3]
    return ClairautSolution(value, winner)


def _radial_candidates(triple, prof, rows, lo, hi, z_in, z_out, theta, ell, d_base, leaf,
                       snap, cand):
    """Family roots of the pairs rows, appended to cand; True for each pair with one."""
    base = triple.base
    kappa, radius = base.kappa, base.radius
    prob = _RadialProblem(prof, kappa, radius, lo, hi, z_in, z_out)
    f1, f2 = prof(lo), prof(hi)
    # the product geodesic's fiber angle centres the windows of y, and its
    # radial speed that of log |v|
    y0 = np.log(np.clip(np.sqrt(f1 * f2) * ell / np.maximum(d_base, 1e-300), 1e-120, 1e120))
    z_lo = 2.0 * (np.log(np.clip(d_base / np.hypot(d_base, np.sqrt(f1 * f2) * ell), 1e-120,
                                 1.0)) - RADIAL_Y)
    one = np.ones(len(lo))
    # per chart, each pair's box (p1 lo, p1 hi, p2 lo, p2 hi): (u, y) for the
    # families 0-3, (y, ride) for the rim, signed speeds for family 5
    boxes = {0: np.stack([0 * one, one, y0 - RADIAL_Y, y0 + RADIAL_Y], axis=1),
             4: np.stack([y0 - RADIAL_Y, y0 + RADIAL_Y, 0 * one, leaf], axis=1),
             5: np.stack([-math.pi * one, math.pi * one, z_lo, -1e-9 * one], axis=1)}
    G1, G2 = RADIAL_SCAN

    def grid(chart, r):
        # the angle axis, y or phi, takes G2 points, the other G1
        n1, n2 = (G1, G2) if chart == 0 else (G2, G1)
        t1, t2 = np.linspace(0.0, 1.0, n1), np.linspace(0.0, 1.0, n2)
        b = boxes[chart][r]
        p1 = b[:, 0, None, None] + (b[:, 1] - b[:, 0])[:, None, None] * t1[:, None]
        p2 = b[:, 2, None, None] + (b[:, 3] - b[:, 2])[:, None, None] * t2
        if chart == 5:
            # log-spaced speeds up to half the range, then evenly to its
            # end, where a family may cease to exist
            p2 = np.concatenate([b[:, 2, None] + (math.log(0.5) - b[:, 2, None]) * t2[:n2 - 4]
                                 / t2[n2 - 5], np.broadcast_to(np.log(
                                     [0.65, 0.8, 0.92, 1.0 - 1e-9]), (len(r), 4))], axis=1)
            p2 = p2[:, None, :]
        p1, p2 = np.broadcast_arrays(p1, p2)
        return p1, p2, np.repeat(r, G1 * G2)

    def seeds_of(fam, r, p1, p2, out, i):
        k, s1, s2 = _enclosing(p1, p2, (out[0] - theta[i]).reshape(p1.shape),
                               (out[1] - ell[i]).reshape(p1.shape))
        return np.full(len(k), fam), r[k], s1, s2

    # one (u, y) grid per pair serves the four families between the zeros
    u, y, i = grid(0, rows)
    a, c = prob.constants(i, u.ravel(), y.ravel())
    r0, r1 = prob.turning(i, a, c, lo[i] > z_in[i], z_out[i] > hi[i])
    pieces = prob.pieces(i, a, c, r0, r1, RADIAL_SCAN_NODES)
    seeds = []
    for fam in range(4):
        out = prob.combine(np.full(len(i), fam), i, a, c, r0, r1, np.zeros(len(i)),
                           RADIAL_SCAN_NODES, pieces)[0]
        seeds.append(seeds_of(fam, rows, u, y, out, i))
    # a rim along which neither sn nor f decreases outward is convex: no
    # shortest path rides it
    f_rim, f_in = prof(np.array([radius, radius * (1.0 - 1e-6)]))
    convex = model.cs(kappa, radius) >= 0.0 and f_rim >= f_in
    charts = [(4, rows[(z_out[rows] == radius) & (f_rim > ZERO_THRESHOLD) & (not convex)]),
              (5, rows[hi[rows] > lo[rows]])]
    for chart, r in charts:
        if len(r):
            p1, p2, i = grid(chart, r)
            out = prob.arcs(np.full(len(i), chart), i, p1.ravel(), p2.ravel(),
                            RADIAL_SCAN_NODES)[0]
            seeds.append(seeds_of(chart, r, p1, p2, out, i))
    fam, i, p1, p2 = (np.concatenate(v) for v in zip(*seeds))
    found = np.zeros(len(lo), dtype=bool)
    if not len(fam):
        return found
    # Newton may carry phi across +-pi and |v| below the scanned window
    box = np.select([fam[:, None] == 4, fam[:, None] == 5],
                    [boxes[4][i], np.stack([-4.0 * one, 4.0 * one, -600.0 * one, -1e-9 * one],
                                           axis=1)[i]], boxes[0][i])
    scale = 1.0 + theta[i] + ell[i]

    def residual(k, q1, q2):
        out = prob.arcs(fam[k], i[k], q1, q2, CLAIRAUT_NODES)[0]
        return out[0] - theta[i[k]], out[1] - ell[i[k]]

    p, F, step = _radial_newton(residual, box, p1, p2, scale)
    ok = np.abs(F).sum(axis=1) <= 1e-6 * scale
    fam, i, p, F, step = fam[ok], i[ok], p[ok], F[ok], step[ok]
    out, a, c, rho0, rho1, ride, kind = prob.arcs(fam, i, p[:, 0], p[:, 1], CLAIRAUT_NODES)
    out2 = prob.combine(kind, i, a, c, rho0, rho1, ride, 2 * CLAIRAUT_NODES)[0]
    # the value is stationary at the root: a residual F costs about F
    # times the change in (a, c) that one more Newton step would make
    a_next, c_next, _ = prob.parameters(fam, i, p[:, 0] - step[:, 0], p[:, 1] - step[:, 1])
    with np.errstate(invalid="ignore"):
        est = a * theta[i] + c * ell[i] + out2[3]
        # the action's change, the advances' change times the constants
        # they pair with, and the residual's share
        err = (np.abs(out2[3] - out[3]) + np.abs(a * (out2[0] - out[0]))
               + np.abs(c * (out2[1] - out[1])) + snap[i] + np.abs(F[:, 0] * (a_next - a))
               + np.abs(F[:, 1] * (c_next - c)))
    keep = np.isfinite(est) & np.isfinite(err) & (est >= 0)
    found[i[keep]] = True
    for k in np.flatnonzero(keep):
        cand.append((i[k], est[k], err[k], ("arc", RADIAL_FAMILIES[kind[k]], a[k], c[k],
                                            rho0[k], rho1[k], ride[k])))
    return found


def _radial_newton(residual, box, p1, p2, scale):
    """Newton's method on residual(k, p1, p2) = 0 from each seed k, in its box.

    The Jacobian comes from forward differences of 1e-7 of the box, taken
    backward at its upper edge; a step that does not lower |F| is undone
    and the next is 4x shorter.  Stops after RADIAL_NEWTON steps, or once
    every |F| is below 1e-11 scale or has twice in a row not been lowered,
    as at the roundoff of the advances.  Returns the points, their
    residuals and the Newton steps J^-1 F there.
    """
    p = np.stack([p1, p2], axis=1)
    lo_b, hi_b = box[:, [0, 2]], box[:, [1, 3]]
    h = 1e-7 * (hi_b - lo_b)
    k = len(p)
    idx = np.tile(np.arange(k), 3)
    F = J = step = None
    damp = np.ones(k)
    trial = p
    for _ in range(RADIAL_NEWTON + 1):
        hh = np.where(trial + h <= hi_b, h, -h)
        q1 = np.concatenate([trial[:, 0], trial[:, 0] + hh[:, 0], trial[:, 0]])
        q2 = np.concatenate([trial[:, 1], trial[:, 1], trial[:, 1] + hh[:, 1]])
        ft, fs = residual(idx, q1, q2)
        Ft = np.stack([ft[:k], fs[:k]], axis=1)
        with np.errstate(invalid="ignore"):
            Jt = np.stack([(np.stack([ft[k:2 * k], fs[k:2 * k]], axis=1) - Ft) / hh[:, :1],
                           (np.stack([ft[2 * k:], fs[2 * k:]], axis=1) - Ft) / hh[:, 1:]],
                          axis=2)
        if F is None:
            F, J = Ft, Jt
        else:
            better = np.all(np.isfinite(Ft), axis=1) & (np.abs(Ft).sum(axis=1)
                                                         < np.abs(F).sum(axis=1))
            p[better], F[better], J[better] = trial[better], Ft[better], Jt[better]
            damp = np.where(better, np.minimum(1.0, 2.0 * damp), 0.25 * damp)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            step = np.stack([J[:, 1, 1] * F[:, 0] - J[:, 0, 1] * F[:, 1],
                             J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]], axis=1) / det[:, None]
        step = np.where(np.isfinite(step), step, 0.0)
        if np.all((np.abs(F).sum(axis=1) <= 1e-11 * scale) | (damp < 0.1)):
            break
        trial = np.clip(p - damp[:, None] * step, lo_b, hi_b)
    return p, F, step
