"""Cones, suspensions, constant-warp products, scalings, and the
partial-boundary double B-dagger.

Cone and suspension oracles use closed-form distance laws (the grid
engine agrees with them within grid error); doubling produces explicit
catalog spaces for 1-D bases and a two-sheet oracle for disks.
"""

import math

import numpy as np

from . import spaces
from .spaces import MetricOracle, fiber_coords, rng
from .warped import WarpFunction, zero_set


class ConeSpace(MetricOracle):
    """Cone over a fiber: R>=0 x_{a*id} F with the closed-form cone law.

    Points are rows (r, fiber coordinate).
    """

    def __init__(self, fiber, a=1.0, r_max=2.0):
        if a <= 0:
            raise ValueError("slope a must be positive")
        self.fiber = fiber
        self.a = float(a)
        self.r_max = float(r_max)
        self.tol_metric = 1e-9

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        df = self.fiber.dist_pairs(fiber_coords(self.fiber, xs[:, 1]),
                                   fiber_coords(self.fiber, ys[:, 1]))
        delta = np.minimum(self.a * np.asarray(df, float), math.pi)
        if isinstance(self.fiber, spaces.FiniteMetric):
            # discrete fibers carry no rectifiable fiber paths: distinct
            # fiber points connect through the apex only (glued rays)
            delta = np.where(np.asarray(df, float) > 0, math.pi, 0.0)
        r1, r2 = xs[:, 0], ys[:, 0]
        d2 = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * np.cos(delta)
        return np.sqrt(np.maximum(d2, 0.0))

    def sample(self, n, seed):
        g = rng(seed)
        rs = self.r_max * g.random(n)
        fs = np.asarray(self.fiber.sample(n, seed + 10), float)
        return np.stack([rs, fs], axis=1)

    def interpolate_pairs(self, xs, ys, ts):
        xs = self._batch(xs)
        ys = self._batch(ys)
        fiber = self.fiber
        df = fiber.dist_pairs(fiber_coords(fiber, xs[:, 1]), fiber_coords(fiber, ys[:, 1]))
        delta = self.a * np.asarray(df, float)
        r1, r2 = xs[:, 0], ys[:, 0]
        # through the apex (or fiber not interpolable): radial pieces
        s = ts * (r1 + r2)
        out = np.where((s <= r1)[:, None], np.stack([r1 - s, xs[:, 1]], axis=1),
                       np.stack([s - r1, ys[:, 1]], axis=1))
        planar = ~((delta >= math.pi - 1e-12)
                   | spaces.missing_rows(fiber.interpolate_pairs(xs[:, 1], ys[:, 1], 0.5)))
        # unroll into the plane
        q0 = (1.0 - ts) * r1 + ts * (r2 * spaces.COS(delta))
        q1 = (1.0 - ts) * 0.0 + ts * (r2 * spaces.SIN(delta))
        r = np.hypot(q0, q1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(delta > 1e-15, spaces.clip01(spaces.ATAN2(q1, q0) / delta), 0.0)
        fib = fiber.interpolate_pairs(xs[:, 1], ys[:, 1], u)
        out[planar] = np.stack([r, fib], axis=1)[planar]
        apex = planar & (r < 1e-15)
        out[apex, 0] = 0.0
        out[apex, 1] = xs[apex, 1]
        return out

    def __repr__(self):
        return "ConeSpace(a=%g, fiber=%r)" % (self.a, self.fiber)


class SuspensionSpace(MetricOracle):
    """Spherical suspension [0, pi] x_sin F via the law of cosines."""

    def __init__(self, fiber):
        self.fiber = fiber
        self.diameter_hint = math.pi
        self.tol_metric = 1e-9

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        df = self.fiber.dist_pairs(fiber_coords(self.fiber, xs[:, 1]),
                                   fiber_coords(self.fiber, ys[:, 1]))
        delta = np.minimum(np.asarray(df, float), math.pi)
        t1, t2 = xs[:, 0], ys[:, 0]
        cosd = np.cos(t1) * np.cos(t2) + np.sin(t1) * np.sin(t2) * np.cos(delta)
        return np.arccos(np.clip(cosd, -1.0, 1.0))

    def sample(self, n, seed):
        g = rng(seed)
        ts = math.pi * g.random(n)
        fs = np.asarray(self.fiber.sample(n, seed + 10), float)
        return np.stack([ts, fs], axis=1)

    def interpolate_pairs(self, xs, ys, ts):
        xs = self._batch(xs)
        ys = self._batch(ys)
        fiber = self.fiber
        df = np.asarray(fiber.dist_pairs(fiber_coords(fiber, xs[:, 1]),
                                         fiber_coords(fiber, ys[:, 1])), float)
        delta = np.minimum(df, math.pi)
        # slerp on the unit sphere in lune coordinates (polar t, azimuth)
        t1, t2 = xs[:, 0], ys[:, 0]
        sin, cos = spaces.SIN, spaces.COS
        p1 = np.stack([sin(t1), np.zeros(len(xs)), cos(t1)])
        p2 = np.stack([sin(t2) * cos(delta), sin(t2) * sin(delta), cos(t2)])
        d = self.dist_pairs(xs, ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = (p2 - cos(d) * p1) / sin(d)
            q = cos(ts * d) * p1 + sin(ts * d) * v
            u = np.where(delta > 1e-15,
                         spaces.clip01(spaces.ATAN2(q[1], q[0]) / delta), 0.0)
        tt = spaces.ACOS(np.minimum(np.maximum(q[2], -1.0), 1.0))
        fib = np.where(df > 1e-15, fiber.interpolate_pairs(xs[:, 1], ys[:, 1], u), xs[:, 1])
        out = np.stack([tt, fib], axis=1)
        near = d < 1e-15
        out[near] = xs[near]
        # distinct points of a fiber without geodesics: no geodesic in between
        gap = spaces.missing_rows(fiber.interpolate_pairs(xs[:, 1], ys[:, 1], 0.5)) & (df > 1e-12)
        out[gap] = np.nan
        return out

    def __repr__(self):
        return "SuspensionSpace(fiber=%r)" % (self.fiber,)


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
        if space.diameter_hint is not None:
            self.diameter_hint = self.lam * space.diameter_hint
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
        self.diameter_hint = 4.0 * disk.radius
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
    oracle.  Z must be contained in the boundary of B.
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
            circ = spaces.Circle(L)

            def fd(x, a=a, b=b, L=L):
                x = np.mod(np.asarray(x, float), L)
                folded = np.where(x <= (b - a), x, L - x)
                return np.asarray(f(a + folded), float)
            fdag = WarpFunction(fd, f.lipschitz, zeros=(),
                                expr="double(%s)" % (f.expr or "f"))
            return circ, fdag
        if at_b:
            # glue at a: reflect across a
            dom = spaces.Interval(2.0 * a - b, b)

            def fd(x, a=a):
                return np.asarray(f(a + np.abs(np.asarray(x, float) - a)), float)
            zeros = (2.0 * a - b, b)
            fdag = WarpFunction(fd, f.lipschitz, zeros=zeros,
                                expr="reflect(%s)" % (f.expr or "f"))
            return dom, fdag
        # at_a: glue at b, reflect across b
        dom = spaces.Interval(a, 2.0 * b - a)

        def fd(x, b=b):
            return np.asarray(f(b - np.abs(np.asarray(x, float) - b)), float)
        zeros = (a, 2.0 * b - a)
        fdag = WarpFunction(fd, f.lipschitz, zeros=zeros,
                            expr="reflect(%s)" % (f.expr or "f"))
        return dom, fdag

    if isinstance(base, spaces.Ray):
        roots = sorted(set(float(z) for z in (roots or [])))
        if any(abs(z) > 1e-9 for z in roots):
            raise ValueError("Z is not contained in the boundary of B")
        if roots:
            # Z = {0} = boundary: B-dagger = B
            return base, f
        # full double of the ray: the line, truncated to the sample window
        L = base.sample_extent

        def fd(x):
            return np.asarray(f(np.abs(np.asarray(x, float))), float)
        fdag = WarpFunction(fd, f.lipschitz, zeros=(),
                            expr="double(%s)" % (f.expr or "f"))
        return spaces.Interval(-L, L), fdag

    if isinstance(base, spaces.ModelDisk):
        if kind == "boundary":
            return base, f
        if roots:
            raise ValueError("disk doubling supports Z empty or Z = boundary")
        dd = DoubledDisk(base, [(0.0, 2.0 * math.pi)])

        def fd(sheet_r, theta):
            return np.asarray(f(sheet_r, theta), float)
        fdag = WarpFunction(fd, f.lipschitz, zeros=(), arity=2,
                            expr="double(%s)" % (f.expr or "f"))
        return dd, fdag

    raise ValueError("unsupported base for doubling: %r" % (base,))
