"""Kappa-cones, constant-warp products, scalings, and the
partial-boundary double B-dagger.

Every warp a sn_kappa on an interval or ray base is one KappaCone, with
the closed-form law of a model disk (the grid engine agrees with it to
its tolerance); cones and suspensions are two of them.  Doubling
produces explicit catalog spaces for 1-D bases and a two-sheet oracle
for disks.
"""

import math

import numpy as np

from . import spaces
from .model import varpi
from .spaces import MetricOracle, fiber_coords, rng
from .warped import domain, zero_set


class KappaCone(MetricOracle):
    """base x_{a sn_kappa} F over an Interval [0, R] or a Ray (R = inf).

    The kappa-cone over F scaled by a, cut at R (Bridson-Haefliger I.5):
    two points at fiber distance ell span a model sector of angle a ell,
    so their distance is that of (r1, 0) and (r2, delta), delta =
    min(a ell, pi), in ModelDisk(kappa, R), and a geodesic runs through
    the sector.  Distinct points of a FiniteMetric fiber have no path
    between them but through the apex: a ell = inf.  On a non-convex cap
    a sector of angle a ell >= pi has no arc through the far pole, so
    where r1 + r2 > varpi (_wide) the distance is the apex path or the
    path that winds a ell around the rim, whichever is shorter.  Points
    are rows (r, fiber coordinate).
    """

    def __init__(self, base, fiber, kappa, a):
        R = base.b if isinstance(base, spaces.Interval) else math.inf
        if (a <= 0 or not isinstance(base, (spaces.Interval, spaces.Ray))
                or domain(base)[0] != 0 or R > varpi(kappa) * (1.0 + 1e-12)):
            raise ValueError("a kappa-cone needs a > 0 and a base [0, R], R <= varpi")
        self.base = base
        self.fiber = fiber
        self.kappa = float(kappa)
        self.a = float(a)
        # R may exceed varpi by the rounding of a kappa read off a warp
        self.disk = spaces.ModelDisk(kappa, min(R, varpi(kappa)))

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def _sector(self, xs, ys):
        """Polar rows (r1, 0), (r2, delta) of the model sector of each pair, and a ell."""
        xs, ys = self._batch(xs), self._batch(ys)
        fiber = self.fiber
        ell = np.asarray(fiber.dist_pairs(fiber_coords(fiber, xs[:, 1]),
                                          fiber_coords(fiber, ys[:, 1])), float)
        if isinstance(fiber, spaces.FiniteMetric):
            ell = np.where(ell > 0, math.inf, 0.0)
        wind = self.a * ell
        return (np.stack([xs[:, 0], np.zeros(len(xs))], axis=1),
                np.stack([ys[:, 0], np.minimum(wind, math.pi)], axis=1), wind)

    def _wide(self, px, py, wind):
        """Rows of angle a ell >= pi on a non-convex cap whose model arc at
        theta = pi runs through the far pole, with their apex and rim paths."""
        r1, r2 = px[:, 0], py[:, 0]
        wide = (not self.disk.convex) & (wind >= math.pi) & (r1 + r2 > varpi(self.kappa))
        apex = r1[wide] + r2[wide]
        if not wide.any():
            return wide, apex, apex
        return wide, apex, self.disk._around_cap(r1[wide], r2[wide], wind[wide])

    def dist_pairs(self, xs, ys):
        px, py, wind = self._sector(xs, ys)
        d = self.disk.dist_pairs(px, py)
        wide, apex, rim = self._wide(px, py, wind)
        d[wide] = np.minimum(apex, rim)
        return d

    def sample(self, n, seed):
        lo, hi = domain(self.base)
        rs = lo + (hi - lo) * rng(seed).random(n)
        fs = np.asarray(self.fiber.sample(n, seed + 10), float)
        return np.stack([rs, fs], axis=1)

    def interpolate_pairs(self, xs, ys, ts):
        xs, ys = self._batch(xs), self._batch(ys)
        px, py, wind = self._sector(xs, ys)
        delta = py[:, 1]
        p = self.disk.interpolate_pairs(px, py, ts)
        # a wide row runs on the radii theta = 0 and pi through the apex where
        # that is shorter; the path around the rim is not sampled
        wide, apex, rim = self._wide(px, py, wind)
        r1, s = px[wide, 0], np.broadcast_to(ts, (len(xs),))[wide] * apex
        p[wide] = np.where((apex <= rim)[:, None],
                           np.stack([np.abs(s - r1), np.where(s <= r1, 0.0, math.pi)], axis=1),
                           np.nan)
        # the sector is theta in [0, delta]; rounding can put a point just
        # below 2 pi.  Through the apex a point takes the end of its half.
        theta = np.where(p[:, 1] > math.pi, p[:, 1] - 2.0 * math.pi, p[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(delta < math.pi, spaces.clip01(theta / delta), theta > 0.5 * math.pi)
        u = np.where(delta > 0, u, 0.0)
        inner = self.fiber.interpolate_pairs(xs[:, 1], ys[:, 1], u)
        fib = np.where(u == 0, xs[:, 1], np.where(u == 1, ys[:, 1], inner))
        out = np.stack([p[:, 0], fib], axis=1)
        out[spaces.missing_rows(out)] = np.nan
        return out

    def __repr__(self):
        return "KappaCone(%r x_{%g sn_%g} %r)" % (self.base, self.a, self.kappa, self.fiber)


def ConeSpace(fiber, a=1.0, r_max=2.0):
    """The Euclidean cone Ray x_{a t} F, sampled on [0, r_max]."""
    return KappaCone(spaces.Ray(r_max), fiber, 0.0, a)


def SuspensionSpace(fiber):
    """The spherical suspension [0, pi] x_sin F."""
    return KappaCone(spaces.Interval(0.0, math.pi), fiber, 1.0, 1.0)


class ProductSpace(MetricOracle):
    """B x_c F for constant warp c > 0: the scaled product metric."""

    def __init__(self, base, c, fiber):
        self.base = base
        self.c = float(c)
        self.fiber = fiber

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(len(pts), -1)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        db = self.base.dist_pairs(xs[:, :-1].squeeze(-1) if xs.shape[1] == 2 else xs[:, :-1],
                                  ys[:, :-1].squeeze(-1) if ys.shape[1] == 2 else ys[:, :-1])
        df = self.fiber.dist_pairs(xs[:, -1], ys[:, -1])
        return np.sqrt(np.asarray(db, float) ** 2 + (self.c * np.asarray(df, float)) ** 2)

    def sample(self, n, seed):
        bs = np.atleast_2d(self.base._batch(self.base.sample(n, seed)))
        if bs.shape[0] == 1 and n > 1:
            bs = bs.T
        bs = bs.reshape(n, -1)
        fs = np.asarray(self.fiber._batch(self.fiber.sample(n, seed + 1)), float).reshape(n, -1)
        return np.hstack([bs, fs[:, :1]])

    def __repr__(self):
        return "ProductSpace(%r, c=%g, %r)" % (self.base, self.c, self.fiber)


class ScaledSpace(MetricOracle):
    """All distances of the wrapped space multiplied by lam."""

    def __init__(self, space, lam):
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        self.space = space
        self.lam = float(lam)
        self.tol_metric = space.tol_metric * self.lam

    def _batch(self, pts):
        return self.space._batch(pts)

    def dist_pairs(self, xs, ys):
        return self.lam * self.space.dist_pairs(xs, ys)

    def sample(self, n, seed):
        return self.space.sample(n, seed)

    def interpolate_pairs(self, xs, ys, ts):
        return self.space.interpolate_pairs(xs, ys, ts)

    def geodesic(self, x, y, resolution):
        g = self.space.geodesic(x, y, resolution / self.lam)
        if g is None:
            return None
        return spaces.GeodesicPolyline(self.lam * g.params, g.points,
                                       total_length=self.lam * g.total_length)

    def __repr__(self):
        return "ScaledSpace(%g, %r)" % (self.lam, self.space)


def scale_space(space, lam):
    if lam == 1.0:
        return space
    return ScaledSpace(space, lam)


class DoubledDisk(MetricOracle):
    """Two copies of a model disk glued along boundary arcs.

    Points are rows (sheet, r, theta).  A rim point on the glue set is one
    point on both sheets.  Two points on one sheet are as far apart as in
    the disk, since folding a path onto one sheet keeps its length.  A
    path between the sheets meets the glue set at a first point p, and
    folding the rest onto the disk shows that it is at least d(x, p) +
    d(p, y); so the distance across the sheets is the least such sum over
    the glue arcs (ModelDisk.via_circle), for any disk, convex or not.
    """

    def __init__(self, disk, glue_arcs):
        self.disk = disk
        self.glue_arcs = tuple(glue_arcs)  # list of (theta_lo, theta_hi)
        self.tol_metric = 1e-9

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 3)

    def _on_glue(self, pts):
        """True for each rim point in the glue set: the same point on both sheets."""
        th = pts[:, 2] % (2.0 * math.pi)
        glued = np.zeros(len(pts), dtype=bool)
        for lo, hi in self.glue_arcs:
            glued |= (lo - 1e-12 <= th) & (th <= hi + 1e-12)
        return glued & (pts[:, 1] >= self.disk.radius - 1e-12)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        out = np.atleast_1d(np.asarray(self.disk.dist_pairs(xs[:, 1:], ys[:, 1:]), float))
        cross = ((np.round(xs[:, 0]) != np.round(ys[:, 0]))
                 & ~self._on_glue(xs) & ~self._on_glue(ys))
        if cross.any():
            out[cross] = (self.disk.via_circle(xs[cross, 1:], ys[cross, 1:], self.disk.radius,
                                               self.glue_arcs)[0] if self.glue_arcs else math.inf)
        return out

    def sample(self, n, seed):
        g = rng(seed)
        sheets = g.integers(0, 2, size=n).astype(float)
        pts = self.disk.sample(n, seed + 1)
        return np.column_stack([sheets, pts])

    def swap_sheets(self, pts):
        pts = self._batch(pts).copy()
        pts[:, 0] = 1.0 - pts[:, 0]
        return pts

    def __repr__(self):
        return "DoubledDisk(%r, arcs=%r)" % (self.disk, self.glue_arcs)


def make_doubled(base, f):
    """Double B along cl(boundary - Z) with the tautological warp f-dagger.

    1-D bases produce explicit catalog spaces; disks produce a two-sheet
    oracle.  Z must be contained in the boundary of B.  On a 1-D base
    f-dagger is f composed with the fold of the double onto B (for the
    circle of a full double, on its coordinates [0, L)); on a disk it is f.
    """
    kind, roots = zero_set(f, base)

    if isinstance(base, spaces.Interval):
        a, b = base.a, base.b
        roots = sorted(set(round(float(z), 12) for z in (roots or [])))
        at_a = any(abs(z - a) < 1e-9 for z in roots)
        at_b = any(abs(z - b) < 1e-9 for z in roots)
        if any(not (abs(z - a) < 1e-9 or abs(z - b) < 1e-9) for z in roots):
            raise ValueError("Z is not contained in the boundary of B")
        if at_a and at_b:
            # Z = boundary: glue set empty, B-dagger = B by convention
            return base, f
        if not roots:
            # full double: circle of length 2(b - a)
            L = 2.0 * (b - a)
            return spaces.Circle(L), f.compose("%r + min(t, %r - t)" % (a, L))
        if at_b:
            # glue at a: reflect across a
            return (spaces.Interval(2.0 * a - b, b),
                    f.compose("%r + abs(t - %r)" % (a, a), zeros=(2.0 * a - b, b)))
        # at_a: glue at b, reflect across b
        return (spaces.Interval(a, 2.0 * b - a),
                f.compose("%r - abs(t - %r)" % (b, b), zeros=(a, 2.0 * b - a)))

    if isinstance(base, spaces.Ray):
        roots = sorted(set(float(z) for z in (roots or [])))
        if any(abs(z) > 1e-9 for z in roots):
            raise ValueError("Z is not contained in the boundary of B")
        if roots:
            # Z = {0} = boundary: B-dagger = B
            return base, f
        # full double of the ray: the line, truncated to the sample window
        L = base.sample_extent
        return spaces.Interval(-L, L), f.compose("abs(t)")

    if isinstance(base, spaces.ModelDisk):
        if kind == "boundary":
            return base, f
        if roots:
            raise ValueError("disk doubling supports Z empty or Z = boundary")
        return DoubledDisk(base, [(0.0, 2.0 * math.pi)]), f

    raise ValueError("unsupported base for doubling: %r" % (base,))
