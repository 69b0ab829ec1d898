"""Distances on a ModelDisk base with a radial warp f(r).

On dr^2 + sn(r)^2 dtheta^2 + f(r)^2 ds^2 both theta and the fiber
parameter s are cyclic, so a = sn^2 dtheta/dt and c = f^2 ds/dt are
conserved, and the angle advance, fiber advance and length of an arc are
1-D integrals in r, on the cosine-mapped rules of warpcurv.warped.
radial_solve takes, for a batch of pairs, the shortest of the candidate
curves and an error bar for each; warped.reduced_distance calls it for a
disk base.
"""

import math

import numpy as np

from . import model, spaces
from .warped import (CLAIRAUT_NODES, ZERO_THRESHOLD, ClairautSolution, ConvergenceError,
                     WarpedTriple, _bracket_root, _contest, _cos_map_rule, clairaut_solve,
                     zero_runs, zero_set)


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


def _inverse_squares(sn, f):
    """P = 1 / sn^2 and Q = 1 / f^2, inf at a pole of either."""
    with np.errstate(divide="ignore"):
        return 1.0 / (sn * sn), 1.0 / (f * f)


def _potential(a, c, P, Q):
    """V = a^2 P + c^2 Q, broadcast; a zero constant drops its pole."""
    with np.errstate(invalid="ignore"):
        return np.where(a != 0, a * a * P, 0.0) + np.where(c != 0, c * c * Q, 0.0)


def _turning(prof, kappa, a, c, start, stop):
    """First r from start toward stop where V = 1, per row; start itself
    where V(start) rounds to 1 or more, nan where V stays below 1 up to stop.

    sn and f are scanned once per distinct (start, stop): at start + (stop
    - start) (j / 16)^2, j < 16, at 24 radii each 4x nearer stop, where V
    may have a pole, and at stop.  The first crossing is solved by
    _bracket_root on w = V^(-1/2) - 1, finite at a pole and about linear
    in sn or f next to one, to the end of least |w| once that is at most
    eps (V within about 2 ulps of 1) or the bracket is at most 2 ulps wide.
    """
    ends, k = np.unique(start + 1j * stop, return_inverse=True)
    t0, t1 = ends.real[:, None], ends.imag[:, None]
    r = np.concatenate([t0 + (t1 - t0) * (np.arange(16) / 16) ** 2,
                        t1 + (t0 - t1) * (31 / 256) * 4.0 ** -np.arange(1, 25), t1], axis=1)
    # V's poles are at stop: elsewhere its terms need no guard
    a2, c2 = a * a, c * c
    P, Q = _inverse_squares(model.sn(kappa, r), prof(r))
    v = a2[:, None] * P[k, :-1] + c2[:, None] * Q[k, :-1]
    v = np.column_stack([v, _potential(a, c, P[k, -1], Q[k, -1])])
    hit = ~(v[:, 1:] < 1.0)
    out = np.where(~(v[:, 0] < 1.0 - 1e-14), start, math.nan)
    live = np.flatnonzero(hit.any(axis=1) & np.isnan(out))
    j = np.argmax(hit[live], axis=1)
    a2, c2 = a2[live], c2[live]

    def w(x, rows):
        P, Q = _inverse_squares(model.sn(kappa, x), prof(x))
        return 1.0 / np.sqrt(a2[rows] * P + c2[rows] * Q) - 1.0
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore"):
        w0, w1 = 1.0 / np.sqrt(v[live, j]) - 1.0, 1.0 / np.sqrt(v[live, j + 1]) - 1.0
    (out[live], _), _ = _bracket_root(
        w, r[k[live], j], r[k[live], j + 1], w0[None], w1[None],
        lambda y0, y1: np.minimum(np.abs(y0[0]), np.abs(y1[0])) <= eps)
    return out


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
        # sn, f, P and Q at lo and hi and at the nodes of each rule on [lo, hi]
        ns = (RADIAL_SCAN_NODES, CLAIRAUT_NODES, 2 * CLAIRAUT_NODES)
        s = lo[:, None] + (hi - lo)[:, None] * np.concatenate([[0.0, 1.0]] + [
            _cos_map_rule(n)[0] for n in ns])
        sn, f = model.sn(kappa, s), prof(s)
        P, Q = _inverse_squares(sn, f)
        ends = np.cumsum((2,) + ns)
        self.ends, self.rim = (P[:, :2], Q[:, :2]), _inverse_squares(
            model.sn(kappa, radius), prof(np.array([radius])))
        self.middle = {n: (P[:, j - n:j], Q[:, j - n:j]) for n, j in zip(ns, ends[1:])}
        # the ends and nodes where an arc between lo and hi keeps V < 1
        self.sn_s, self.f_s = sn[:, :ends[2]], f[:, :ends[2]]

    def constants(self, i, u, y):
        """(a, c) of (u, y) on the rows i, as in the class docstring; i, u
        and y broadcast."""
        f_s = self.f_s[i]
        c = np.min(f_s, axis=-1) * _fiber_angle(y)[1]
        with np.errstate(invalid="ignore", divide="ignore"):
            amax = np.min(self.sn_s[i] * np.sqrt(np.maximum(1.0 - (c[..., None] / f_s) ** 2, 0.0)),
                          axis=-1)
        return (1.0 - u * u) * amax, c

    def speeds2(self, i, a, c):
        """1 - V at lo and hi, per row: an array (rows, 2)."""
        return 1.0 - _potential(a[:, None], c[:, None], self.ends[0][i], self.ends[1][i])

    def turning(self, i, a, c, inner, outer):
        """Inner turning points of the rows inner, outer ones of the rows
        outer, in one _turning pass; an inner one is 0 where an arc reaches
        the centre with a = 0, and either is nan where an arc reaches none."""
        k = np.count_nonzero(inner)
        rows = np.concatenate([np.flatnonzero(inner), np.flatnonzero(outer)])
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
        (p_lo, p_hi), (q_lo, q_hi) = self.ends[0][i].T, self.ends[1][i].T
        with np.errstate(divide="ignore", invalid="ignore"):
            det = p_lo * q_hi - q_lo * p_hi
            # a^2 = a0 - |v|^2 a1 and c^2 = c0 - |v|^2 c1
            terms = [((q_hi - q_lo) / det, (cos2 * q_hi - sin2 * q_lo) / det),
                     ((p_lo - p_hi) / det, (sin2 * p_lo - cos2 * p_hi) / det)]
            lo2, empty = np.zeros(len(i)), np.zeros(len(i), dtype=bool)
            hi2 = 1.0 / np.maximum(cos2, sin2)
            for x0, x1 in terms:
                hi2 = np.where(x1 > 0, np.minimum(hi2, x0 / x1), hi2)
                lo2 = np.where(x1 < 0, np.maximum(lo2, x0 / x1), lo2)
                empty |= (x1 == 0) & (x0 < 0)
            r2 = lo2 + (hi2 - lo2) * np.exp(z)
            aa, cc = (np.maximum(x0 - r2 * x1, 0.0) for x0, x1 in terms)
        empty |= ~(lo2 <= hi2)
        a, c = (np.where(empty, math.nan, np.sqrt(v)) for v in (aa, cc))
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
        """Rows (angle, fiber, length, action, a, c, rho0, rho1, ride,
        family) of family arcs at parameters (p1, p2), per column."""
        rim = fam == 4
        a, c, fam = self.parameters(fam, i, p1, p2)
        # turning points where the family turns, or the end is slow enough
        # for the middle piece to run on to one (pieces)
        slow = self.speeds2(i, a, c) < EXTEND_SPEED2
        rho0, rho1 = self.turning(i, a, c, (self.lo[i] > self.z_in[i])
                                  & ((RADIAL_IN[fam] > 0) | slow[:, 0]),
                                  (self.z_out[i] > self.hi[i]) & ~rim
                                  & ((RADIAL_OUT[fam] > 0) | slow[:, 1]))
        rho1 = np.where(rim, self.radius, rho1)
        ride = np.where(rim, p2, 0.0)
        out = self.combine(fam, i, a, c, rho0, rho1, ride, n)
        return np.vstack([out, np.fmax(a, 0.0), np.fmax(c, 0.0), rho0, rho1, ride, fam])

    def pieces(self, i, a, c, rho0, rho1, n):
        """Angle advance, fiber advance, length and action of the pieces rho0
        -> lo, s0 -> s1 and hi -> rho1 of the rows i, an array (4, rows, 3),
        at the turning points rho0 and rho1 (V = 1, nan where there is none),
        and for each end whether the middle piece runs on to its turning point.

        With a = sn^2 theta' and c = f^2 s' conserved, r'^2 = 1 - V, so a piece
        advances theta by int a P / sqrt(1 - V) dr, s by int c Q / sqrt(1 - V)
        dr, has length int dr / sqrt(1 - V) and action int sqrt(1 - V) dr.  A
        curve of such pieces that meets its ends has length a Theta + c ell +
        action, stationary in (a, c), whose roundoff stays small where that of
        the advances, near a turning point, does not.  Each piece takes the
        cosine-mapped rule of n nodes, exact for the inverse square root at a
        turning point; a piece with V >= 1 at a node is inf.  Where 1 - V at lo
        or hi is below EXTEND_SPEED2 the middle piece runs on to the turning
        point beyond it (s0 = rho0 or s1 = rho1, else lo and hi), and combine
        subtracts the end piece: smooth as the end's speed passes 0.
        """
        lo, hi = self.lo[i], self.hi[i]
        r0, r1 = np.where(np.isnan(rho0), lo, rho0), np.where(np.isnan(rho1), hi, rho1)
        v2 = self.speeds2(i, a, c)
        ext = (v2 < EXTEND_SPEED2) & ~np.isnan(np.stack([rho0, rho1], axis=1))
        start = np.stack([r0, np.where(ext[:, 0], r0, lo), hi], axis=1)
        stop = np.stack([lo, np.where(ext[:, 1], r1, hi), r1], axis=1)
        # the rule on each piece of nonzero span; on the middle piece, P and Q
        # come from the pair's table where it is [lo, hi]
        rows, k = np.nonzero(stop != start)
        u, w = _cos_map_rule(n)
        span = np.abs(stop - start)[rows, k, None]
        table = (k == 1) & ~ext[rows].any(axis=1)
        P, Q = np.empty((len(rows), n)), np.empty((len(rows), n))
        P[table], Q[table] = self.middle[n][0][i[rows[table]]], self.middle[n][1][i[rows[table]]]
        x = start[rows, k, None][~table] + (stop - start)[rows, k, None][~table] * u
        P[~table], Q[~table] = _inverse_squares(model.sn(self.kappa, x), self.prof(x))
        out = np.zeros((4, len(i), 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(1.0 - (a * a)[rows, None] * P - (c * c)[rows, None] * Q)
            inv = span * w / root
            out[:, rows, k] = [a[rows] * (P * inv).sum(axis=1), c[rows] * (Q * inv).sum(axis=1),
                               inv.sum(axis=1), (span * w * root).sum(axis=1)]
            # an end piece whose end has 1 - V = v^2 below END_SPEED2 is too short
            # for the rule, as 1 - V at its nodes is below its roundoff: there
            # 1 - V is linear, and the piece of span d advances g 2 d / v
            # (g = a / sn^2, c / f^2, 1) with action 2 d v / 3, at the end's g
            g = np.stack([a[:, None] * self.ends[0][i], c[:, None] * self.ends[1][i],
                          np.ones(v2.shape)])
            v = np.sqrt(np.maximum(v2, 0.0))
            d = np.abs(np.stack([lo - r0, r1 - hi], axis=1))
            lin = np.concatenate([g * np.where(v > 0, 2.0 * d / v, 0.0), [2.0 / 3.0 * d * v]])
            out[:, :, ::2] = np.where(v2 < END_SPEED2, lin, out[:, :, ::2])
        out[:, ~np.all(np.isfinite(out), axis=0)] = math.inf
        return out, ext

    def combine(self, fam, i, a, c, rho0, rho1, ride, n, pieces=None):
        """Angle, fiber, length and action, an array (4, rows), of the pieces
        each family traverses between the turning points rho0 and rho1 (nan
        where there is none); pieces, if given, are self.pieces there."""
        use_in, use_out = RADIAL_IN[fam] > 0, RADIAL_OUT[fam] > 0
        missing = (use_in & np.isnan(rho0)) | (use_out & np.isnan(rho1)) | np.isnan(a + c)
        # a, c >= 0, and nan where a family has no arc
        a, c = np.fmax(a, 0.0), np.fmax(c, 0.0)
        pieces, ext = self.pieces(i, a, c, rho0, rho1, n) if pieces is None else pieces
        # a family that turns at an end traverses that end piece twice, and
        # a middle piece run on to a turning point has it once too many
        counts = np.stack([RADIAL_IN[fam] - ext[:, 0], np.ones(len(fam)),
                           RADIAL_OUT[fam] - ext[:, 1]], axis=1)
        with np.errstate(invalid="ignore"):
            out = np.sum(pieces * counts, axis=2)
            # an arc down to the centre passes through it: theta turns by pi there
            out[0] += np.where(use_in & (rho0 <= 0.0), math.pi, 0.0)
            # the rim ride, along V(R) = 1: a / sn^2 and c / f^2 per unit length
            out[0] += np.where(ride > 0, ride * a * self.rim[0], 0.0)
            out[1] += np.where(ride > 0, ride * c * self.rim[1], 0.0)
            out[2] += ride
        out[:, missing | ~np.all(np.isfinite(out), axis=0)] = math.inf
        return out


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
    theta' and c = f^2 s' conserved (_RadialProblem.pieces), the candidates are:
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
    bracket; with a zero circle, a family root the scan misses goes
    unnoticed, as the through-Z value bounds the distance from above.
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
    open_f = (f1 > ZERO_THRESHOLD) & (f2 > ZERO_THRESHOLD)
    live = np.flatnonzero((ell > 0) & open_f)
    # an end on a zero of f: the base geodesic passes through Z there
    at_z = np.where(f1 <= ZERO_THRESHOLD, r1, r2)
    for i in np.flatnonzero((ell > 0) & ~open_f):
        winner[i] = ("z", at_z[i])
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
    z_in = np.max(np.where(zeros <= lo[:, None], zeros, 0.0), axis=1, initial=0.0)
    z_out = np.min(np.where(zeros >= hi[:, None], zeros, radius), axis=1, initial=radius)
    crossed = np.any((zeros >= lo[:, None]) & (zeros <= hi[:, None]), axis=1)
    for z in zeros:
        via, at = base.via_circle(bp[live], bq[live], z)
        cand += [(i, via[k], 0.0, ("z", z, at[k])) for k, i in enumerate(live)]
    found = np.zeros(npair, dtype=bool)
    # a point near the centre takes theta = 0 at the cost of the arc that turns it
    sn_lo = model.sn(kappa, lo)
    snapped = sn_lo * theta <= 0.25 * tol
    snap = np.where(snapped, sn_lo * theta, 0.0)
    theta = np.where(snapped, 0.0, theta)
    between = live[~crossed[live]]
    flat, rows = between[theta[between] == 0.0], between[theta[between] > 0.0]
    if len(flat):
        sol = clairaut_solve(ray, r1[flat], r2[flat], ell[flat], tol=0.5 * tol)
        cand += [(i, sol.value[k], snap[i], sol.winner[k]) for k, i in enumerate(flat)]
        found[flat] = True
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
        if chart == 0 and prof(np.zeros(1))[0] <= ZERO_THRESHOLD:
            # f(0) = 0 puts both poles of V at the centre, and as (a, c) -> 0
            # an inner arc's advances turn through every direction inside
            # the last u cell: 1 - u^2 there is split at 1/4, 1/16 and 1/64
            t1 = np.insert(t1, -1, np.sqrt(1.0 - (1.0 - t1[-2] ** 2) / 4.0 ** np.arange(1, 4)))
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
        return p1, p2, np.repeat(r, p1[0].size)

    def seeds_of(fams, r, p1, p2, out):
        # fams and r per grid, out's columns in grid order
        t = np.repeat(r, p1[0].size)
        k, s1, s2 = _enclosing(p1, p2, (out[0] - theta[t]).reshape(p1.shape),
                               (out[1] - ell[t]).reshape(p1.shape))
        return fams[k], r[k], s1, s2

    # one (u, y) grid per pair serves the four families between the zeros:
    # they share (a, c), which varies with y alone up to the factor 1 - u^2,
    # turning points and pieces, and are summed in one stacked pass
    u, y, i = grid(0, rows)
    a, c = (np.broadcast_to(v, u.shape).ravel()
            for v in prob.constants(rows[:, None, None], u[:, :, :1], y[:, :1]))
    r0, r1 = prob.turning(i, a, c, lo[i] > z_in[i], z_out[i] > hi[i])
    pieces, ext = prob.pieces(i, a, c, r0, r1, RADIAL_SCAN_NODES)
    fams = np.arange(4).repeat(len(rows))
    out = prob.combine(fams.repeat(u[0].size), *(np.tile(v, 4) for v in (i, a, c, r0, r1)),
                       np.zeros(4 * len(i)), RADIAL_SCAN_NODES,
                       (np.tile(pieces, (1, 4, 1)), np.tile(ext, (4, 1))))
    seeds = [seeds_of(fams, np.tile(rows, 4), *(np.tile(v, (4, 1, 1)) for v in (u, y)), out)]
    # families meet in pairs at the fold u = 0, V = 1 at lo (fam ^ 1) or hi
    # (fam ^ 2): a seed next to it also seeds both families across it
    fold = seeds[0][2] < u[0, 1, 0]
    seeds += [(seeds[0][0][fold] ^ m,) + tuple(v[fold] for v in seeds[0][1:]) for m in (1, 2)]
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
                            RADIAL_SCAN_NODES)
            seeds.append(seeds_of(np.full(len(r), chart), r, p1, p2, out))
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
        arcs = prob.arcs(fam[k], i[k], q1, q2, CLAIRAUT_NODES)
        return arcs[0] - theta[i[k]], arcs[1] - ell[i[k]], arcs

    # the arcs at Newton's points value the roots
    p, F, step, arcs = _radial_newton(residual, box, p1, p2, scale)
    ok = np.abs(F).sum(axis=1) <= 1e-6 * scale
    fam, i, p, F, step, arcs = fam[ok], i[ok], p[ok], F[ok], step[ok], arcs[:, ok]
    out, (a, c, rho0, rho1, ride, kind) = arcs[:4], arcs[4:]
    kind = kind.astype(int)
    out2 = prob.combine(kind, i, a, c, rho0, rho1, ride, 2 * CLAIRAUT_NODES)
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
    """Newton's method on the first two outputs of residual(k, p1, p2) = 0
    from each seed k, in its box.

    The Jacobian comes from forward differences of 1e-7 of the box, taken
    backward at its upper edge; a step that does not lower |F| is undone
    and the next is 4x shorter.  Stops after RADIAL_NEWTON steps, or once
    every |F| is below 1e-11 scale or has twice in a row not been lowered,
    as at the roundoff of the advances.  Returns the points, their
    residuals, the Newton steps J^-1 F there and the columns of
    residual's third output, an array, at the points.
    """
    p = np.stack([p1, p2], axis=1)
    lo_b, hi_b = box[:, [0, 2]], box[:, [1, 3]]
    h = 1e-7 * (hi_b - lo_b)
    k, trial, damp = len(p), p, np.ones(len(p))
    idx, F, J, step, out = np.tile(np.arange(k), 3), None, None, None, None
    for _ in range(RADIAL_NEWTON + 1):
        hh = np.where(trial + h <= hi_b, h, -h)
        q1 = np.concatenate([trial[:, 0], trial[:, 0] + hh[:, 0], trial[:, 0]])
        q2 = np.concatenate([trial[:, 1], trial[:, 1], trial[:, 1] + hh[:, 1]])
        ft, fs, out_t = residual(idx, q1, q2)
        Ft = np.stack([ft[:k], fs[:k]], axis=1)
        with np.errstate(invalid="ignore"):
            Jt = np.stack([(np.stack([ft[k:2 * k], fs[k:2 * k]], axis=1) - Ft) / hh[:, :1],
                           (np.stack([ft[2 * k:], fs[2 * k:]], axis=1) - Ft) / hh[:, 1:]],
                          axis=2)
        if F is None:
            F, J, out = Ft, Jt, out_t[:, :k]
        else:
            better = np.all(np.isfinite(Ft), axis=1) & (np.abs(Ft).sum(axis=1)
                                                         < np.abs(F).sum(axis=1))
            p[better], F[better], J[better] = trial[better], Ft[better], Jt[better]
            out[:, better] = out_t[:, :k][:, better]
            damp = np.where(better, np.minimum(1.0, 2.0 * damp), 0.25 * damp)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            step = np.stack([J[:, 1, 1] * F[:, 0] - J[:, 0, 1] * F[:, 1],
                             J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]], axis=1) / det[:, None]
        step = np.where(np.isfinite(step), step, 0.0)
        if np.all((np.abs(F).sum(axis=1) <= 1e-11 * scale) | (damp < 0.1)):
            break
        trial = np.clip(p - damp[:, None] * step, lo_b, hi_b)
    return p, F, step, out
