"""Metric oracle interface and the catalog of concrete spaces.

Points are encoded per kind: a real for 1-D spaces, an integer index
for finite metrics, polar (r, theta) pairs for model disks.  Batch
points are numpy arrays with one row (or entry) per point, so that
pairwise distances vectorize.
"""

import math

import numpy as np

from . import model


def rng(seed, stream=0):
    """Deterministic counter-based generator; identical on every platform."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


def _libm(fn, nin):
    """math.fn elementwise over arrays.

    numpy's arctan2, arccos, arccosh and hypot differ from libm in the
    last place on some inputs, and its sin and cos may on some CPUs;
    going through math keeps a batch of interpolations bit-identical to
    one-point calls on every platform.
    """
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


ATAN2 = _libm(math.atan2, 2)
ACOS = _libm(math.acos, 1)
ACOSH = _libm(math.acosh, 1)
HYPOT = _libm(math.hypot, 2)


def clip01(x):
    """min(max(x, 0), 1) elementwise, signed zeros as in the builtins."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def missing_rows(pts):
    """True for each row of an interpolate_pairs batch that has no point."""
    nan = np.isnan(np.asarray(pts, dtype=float))
    return nan.any(axis=tuple(range(1, nan.ndim)))


class GeodesicPolyline:
    """Discrete curve with per-node parameter and optional speed data.

    params are strictly increasing.  For warped-product curves the
    nodes carry (base point, fiber parameter) and per-node speed
    estimates v_B and v_F-bar.
    """

    def __init__(self, params, points, base_points=None, fiber_params=None,
                 speed_base=None, speed_fiber=None, total_length=None):
        self.params = np.asarray(params, dtype=float)
        if np.any(np.diff(self.params) <= 0):
            raise ValueError("params must be strictly increasing")
        self.points = points
        self.base_points = base_points
        self.fiber_params = fiber_params
        self.speed_base = speed_base
        self.speed_fiber = speed_fiber
        self.total_length = total_length

    def __len__(self):
        return len(self.params)


class MetricOracle:
    """Uniform distance-oracle interface."""

    tol_metric = 1e-9

    def distance(self, x, y):
        return float(self.dist_pairs(self._batch([x]), self._batch([y]))[0])

    def dist_pairs(self, xs, ys):
        """Elementwise distances between two equal-length point batches."""
        raise NotImplementedError

    def sample(self, n, seed):
        raise NotImplementedError

    def geodesic(self, x, y, resolution):
        """interpolate_pairs at spacing <= resolution; None where any node is missing."""
        d = self.distance(x, y)
        m = max(2, int(math.ceil(d / max(resolution, 1e-12))) + 1)
        ts = np.linspace(0.0, 1.0, m)
        pts = self.interpolate_pairs(np.repeat(self._batch([x]), m, axis=0),
                                     np.repeat(self._batch([y]), m, axis=0), ts)
        if missing_rows(pts).any():
            return None
        return GeodesicPolyline(ts * max(d, 1e-300), pts, total_length=d)

    def interpolate_pairs(self, xs, ys, ts):
        """Row i: the point at fraction ts[i] along some geodesic xs[i] -> ys[i].

        Batches are shaped like those of dist_pairs.  A row with no
        interpolation is all nan; a space without geodesics returns only
        such rows.
        """
        return np.full(np.shape(self._batch(xs)), np.nan)

    def interpolate(self, x, y, t):
        """Point at fraction t along some geodesic x -> y, or None."""
        p = self.interpolate_pairs(self._batch([x]), self._batch([y]), np.array([t], float))
        return None if missing_rows(p)[0] else p[0]

    def contains(self, x):
        return True

    def _batch(self, pts):
        return np.asarray(pts, dtype=float)

    def pdist_matrix(self, pts):
        pts = self._batch(pts)
        n = len(pts)
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return self.dist_pairs(pts[i.ravel()], pts[j.ravel()]).reshape(n, n)


class Interval(MetricOracle):
    kind = "Interval"

    def __init__(self, a, b):
        if not a < b:
            raise ValueError("need a < b")
        self.a = float(a)
        self.b = float(b)

    def contains(self, x):
        return self.a - 1e-12 <= float(x) <= self.b + 1e-12

    def dist_pairs(self, xs, ys):
        return np.abs(np.asarray(xs, float) - np.asarray(ys, float))

    def sample(self, n, seed):
        return self.a + (self.b - self.a) * rng(seed).random(n)

    def interpolate_pairs(self, xs, ys, ts):
        return (1.0 - ts) * np.asarray(xs, float) + ts * np.asarray(ys, float)

    def __repr__(self):
        return "Interval(%g, %g)" % (self.a, self.b)


class Ray(MetricOracle):
    """The half line [0, inf); samples are drawn from [0, sample_extent]."""

    kind = "Ray"

    def __init__(self, sample_extent=2.0):
        self.sample_extent = float(sample_extent)

    def contains(self, x):
        return float(x) >= -1e-12

    def dist_pairs(self, xs, ys):
        return np.abs(np.asarray(xs, float) - np.asarray(ys, float))

    def sample(self, n, seed):
        return self.sample_extent * rng(seed).random(n)

    def interpolate_pairs(self, xs, ys, ts):
        return (1.0 - ts) * np.asarray(xs, float) + ts * np.asarray(ys, float)

    def __repr__(self):
        return "Ray()"


class Circle(MetricOracle):
    """Circle of length L, coordinates taken mod L."""

    kind = "Circle"

    def __init__(self, length):
        if not length > 0:
            raise ValueError("circle length must be positive")
        self.length = float(length)

    def dist_pairs(self, xs, ys):
        d = np.abs(np.asarray(xs, float) - np.asarray(ys, float)) % self.length
        return np.minimum(d, self.length - d)

    def sample(self, n, seed):
        return self.length * rng(seed).random(n)

    def interpolate_pairs(self, xs, ys, ts):
        x = np.asarray(xs, float) % self.length
        y = np.asarray(ys, float) % self.length
        delta = (y - x) % self.length
        delta = np.where(delta > self.length / 2.0, delta - self.length, delta)
        return (x + ts * delta) % self.length

    def __repr__(self):
        return "Circle(%g)" % self.length


class PointSpace(MetricOracle):
    kind = "Point"

    def dist_pairs(self, xs, ys):
        return np.zeros(len(np.atleast_1d(xs)))

    def sample(self, n, seed):
        return np.zeros(n)

    def interpolate_pairs(self, xs, ys, ts):
        return np.zeros(len(np.atleast_1d(xs)))

    def __repr__(self):
        return "PointSpace()"


class FiniteMetric(MetricOracle):
    """Finite metric space given by its distance matrix; points are indices."""

    kind = "FiniteMetric"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        if np.any(np.abs(np.diag(m)) > 1e-12) or np.any(m < 0):
            raise ValueError("matrix must have zero diagonal and be nonnegative")
        if np.any(m[:, :, None] > m[:, None, :] + m[None, :, :] + 1e-12):
            raise ValueError("matrix violates the triangle inequality")
        self.matrix = m
        self.n = m.shape[0]

    @classmethod
    def from_file(cls, path):
        """Plain text: first line n, then n lines of n space-separated reals."""
        with open(path) as fh:
            tokens = fh.read().split()
        if not tokens:
            raise ValueError("empty matrix file")
        n = int(tokens[0])
        vals = [float(t) for t in tokens[1:]]
        if len(vals) != n * n:
            raise ValueError("expected %d matrix entries, got %d" % (n * n, len(vals)))
        return cls(np.array(vals).reshape(n, n))

    def contains(self, x):
        return 0 <= int(x) < self.n

    def _batch(self, pts):
        return np.asarray(pts, dtype=int)

    def dist_pairs(self, xs, ys):
        return self.matrix[np.asarray(xs, int), np.asarray(ys, int)]

    def sample(self, n, seed):
        return rng(seed).integers(0, self.n, size=n)

    def __repr__(self):
        return "FiniteMetric(n=%d)" % self.n


def fiber_coords(fiber, col):
    """Fiber coordinates stored as floats, in the fiber's own encoding.

    FiniteMetric indices are rounded to the nearest int (truncation
    would turn 0.9999999 into 0); every other fiber takes them as is.
    """
    if isinstance(fiber, FiniteMetric):
        return np.asarray(np.round(col), dtype=int)
    return col


def tripod(leg=1.0, n_leaves=3):
    """Star metric: center index 0 plus leaves at distance leg."""
    n = n_leaves + 1
    m = np.full((n, n), 2.0 * leg)
    m[0, :] = leg
    m[:, 0] = leg
    np.fill_diagonal(m, 0.0)
    return FiniteMetric(m)


# angles per full turn of a via_circle scan, points of each zoom grid, zoom passes
CIRCLE_SCAN = 64
CIRCLE_ZOOM = 17
CIRCLE_PASSES = 8


class ModelDisk(MetricOracle):
    """Closed metric disk of radius R about a point of the model surface.

    Points are polar pairs (r, theta).  For kappa > 0 the disk must
    have R <= varpi, and R = varpi is the whole sphere; distances use the
    ambient model metric, which is intrinsic whenever the disk is convex
    (R <= varpi/2 or R = varpi for kappa > 0).  A spherical disk with
    varpi/2 < R < varpi is the sphere less the convex cap r > R: its
    distance is the model law where the short model arc stays in the disk
    (_arc_leaves), and the tangent-rim-tangent path around the cap
    elsewhere (_around_cap).  Its interpolation is the model arc's where
    that arc stays in the disk, and a nan row elsewhere.
    via_circle minimises d(x, p) + d(p, y) over the points p of arcs of a
    circle r = rho: the cross-sheet distance of a DoubledDisk, and the
    path through a zero circle of a radial warp.
    """

    kind = "ModelDisk"

    def __init__(self, kappa, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if kappa > 0 and radius > model.varpi(kappa):
            raise ValueError("spherical disk radius must be <= varpi")
        self.kappa = float(kappa)
        self.radius = float(radius)
        self.convex = not (kappa > 0 and model.varpi(kappa) / 2.0 < radius < model.varpi(kappa))

    def contains(self, x):
        r = float(np.asarray(x, float).reshape(2)[0])
        return -1e-12 <= r <= self.radius + 1e-12

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        d, dth, around = self._model_law(xs, ys)
        if around.any():
            d[around] = self._around_cap(xs[around, 0], ys[around, 0], dth[around])
        return d

    def _model_law(self, xs, ys):
        """Model-law distances of polar rows, their theta gaps folded to
        [0, pi], and the rows whose short model arc leaves the disk."""
        dth = np.abs(xs[:, 1] - ys[:, 1]) % (2.0 * math.pi)
        dth = np.minimum(dth, 2.0 * math.pi - dth)
        d = np.atleast_1d(np.asarray(model.side_from_angle(self.kappa, xs[:, 0], ys[:, 0], dth),
                                     float))
        around = (self._arc_leaves(xs[:, 0], ys[:, 0], d) if not self.convex
                  else np.zeros(len(d), dtype=bool))
        return d, dth, around

    # The two helpers below work on the unit sphere: a = sqrt(kappa) r,
    # A = sqrt(kappa) R, and a point's height is z = cos a.

    def _arc_leaves(self, r1, r2, d):
        """True for each pair whose short model arc, of length d, enters the cap r > R.

        Along the arc of length w from the first point the height is
        z(t) = z1 cos t + u_z sin t, u_z = (z2 - z1 cos w) / sin w.  It is
        lowest at t = atan2(u_z, z1) + pi (mod 2 pi) if that lies on the
        arc, else at an end; the arc leaves the disk where that is below
        cos A.
        """
        s = math.sqrt(self.kappa)
        w = s * d
        z1, z2 = np.cos(s * r1), np.cos(s * r2)
        sw = np.sin(w)
        uz = np.divide(z2 - z1 * np.cos(w), sw, out=np.zeros_like(w), where=sw > 0)
        t_low = (np.arctan2(uz, z1) + math.pi) % (2.0 * math.pi)
        z_low = np.where((t_low > 0) & (t_low < w), -np.hypot(z1, uz), np.minimum(z1, z2))
        return z_low < math.cos(s * self.radius)

    def _around_cap(self, r1, r2, dth):
        """Length of the shortest path around the cap r > R, for pairs whose
        short arc enters it; dth is their difference in theta, folded to
        [0, pi].

        The path runs on tangent arcs t_i = acos(cos a_i / cos A) to the
        rim, which touch it beta_i = acos(tan A / tan a_i) in theta from
        their ends, and along the rim, of length sin A per radian of theta,
        between them.
        """
        s = math.sqrt(self.kappa)
        rim = s * self.radius
        a = np.stack([s * r1, s * r2])
        t = np.arccos(np.clip(np.cos(a) / math.cos(rim), -1.0, 1.0))
        beta = np.arccos(np.clip(math.tan(rim) / np.tan(a), -1.0, 1.0))
        return (t.sum(axis=0) + math.sin(rim) * (dth - beta.sum(axis=0))) / s

    def via_circle(self, xs, ys, rho, arcs=((0.0, 2.0 * math.pi),)):
        """Least d(x, p) + d(p, y) over p = (rho, theta), theta on the arcs, per pair.

        Returns the values and the minimising thetas.  Each arc (lo, hi),
        lo <= hi <= lo + 2 pi, is scanned at CIRCLE_SCAN angles per turn,
        its ends, and the angles of x and y where they lie on it, so that
        the dip of a point near the circle is sampled at its bottom.  Every
        local minimum of the scan is refined by CIRCLE_PASSES zooms on a
        CIRCLE_ZOOM-point grid over its two neighbouring intervals.  Each
        value is d(x, p) + d(p, y) at a point p of the arcs.
        """
        xs, ys = self._batch(xs), self._batch(ys)
        n = len(xs)

        def total(pair, theta):
            p = np.stack([np.full(theta.size, float(rho)), theta.ravel()], axis=1)
            d = self.dist_pairs(xs[pair.ravel()], p) + self.dist_pairs(p, ys[pair.ravel()])
            return d.reshape(theta.shape)

        pair, lo_b, hi_b = [], [], []
        for lo, hi in arcs:
            grid = np.linspace(lo, hi, max(2, int(math.ceil(CIRCLE_SCAN * (hi - lo)
                                                            / (2.0 * math.pi)))) + 1)
            own = lo + (np.stack([xs[:, 1], ys[:, 1]], axis=1) - lo) % (2.0 * math.pi)
            own = np.where(own <= hi, own, lo)
            th = np.sort(np.concatenate([np.broadcast_to(grid, (n, len(grid))), own], axis=1),
                         axis=1)
            g = total(np.repeat(np.arange(n)[:, None], th.shape[1], axis=1), th)
            pad = np.full((n, 1), math.inf)
            left = np.concatenate([pad, g[:, :-1]], axis=1)
            right = np.concatenate([g[:, 1:], pad], axis=1)
            i, j = np.nonzero((g <= left) & (g <= right))
            pair.append(i)
            lo_b.append(th[i, np.maximum(j - 1, 0)])
            hi_b.append(th[i, np.minimum(j + 1, th.shape[1] - 1)])
        pair, lo_b, hi_b = (np.concatenate(v) for v in (pair, lo_b, hi_b))
        r = np.arange(len(pair))
        for _ in range(CIRCLE_PASSES):
            th = lo_b[:, None] + (hi_b - lo_b)[:, None] * np.linspace(0.0, 1.0, CIRCLE_ZOOM)
            g = total(np.repeat(pair[:, None], CIRCLE_ZOOM, axis=1), th)
            j = np.argmin(g, axis=1)
            lo_b = th[r, np.maximum(j - 1, 0)]
            hi_b = th[r, np.minimum(j + 1, CIRCLE_ZOOM - 1)]
        best = np.full(n, math.inf)
        np.minimum.at(best, pair, g[r, j])
        theta = np.full(n, math.nan)
        win = g[r, j] == best[pair]
        theta[pair[win]] = th[r, j][win]
        return best, theta

    def _embed(self, pts):
        """Chart embedding of polar points for interpolation."""
        pts = self._batch(pts)
        r, th = pts[:, 0], pts[:, 1]
        if self.kappa == 0:
            return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        if self.kappa > 0:
            s = math.sqrt(self.kappa)
            R = 1.0 / s
            return np.stack([
                R * np.sin(s * r) * np.cos(th),
                R * np.sin(s * r) * np.sin(th),
                R * np.cos(s * r),
            ], axis=1)
        s = math.sqrt(-self.kappa)
        R = 1.0 / s
        return np.stack([
            R * np.cosh(s * r),
            R * np.sinh(s * r) * np.cos(th),
            R * np.sinh(s * r) * np.sin(th),
        ], axis=1)

    def _unembed(self, v):
        """Polar rows of chart points, the inverse of _embed."""
        if self.kappa == 0:
            return np.stack([HYPOT(v[:, 0], v[:, 1]), ATAN2(v[:, 1], v[:, 0]) % (2 * math.pi)],
                            axis=1)
        if self.kappa > 0:
            s = math.sqrt(self.kappa)
            R = 1.0 / s
            r = R * ACOS(np.minimum(np.maximum(v[:, 2] / R, -1.0), 1.0))
            return np.stack([r, ATAN2(v[:, 1], v[:, 0]) % (2 * math.pi)], axis=1)
        s = math.sqrt(-self.kappa)
        R = 1.0 / s
        r = R * ACOSH(np.maximum(v[:, 0] / R, 1.0))
        return np.stack([r, ATAN2(v[:, 2], v[:, 1]) % (2 * math.pi)], axis=1)

    def interpolate_pairs(self, xs, ys, ts):
        xs = self._batch(xs)
        ys = self._batch(ys)
        ts = np.broadcast_to(np.asarray(ts, float), (len(xs),))
        ex = self._embed(xs)
        ey = self._embed(ys)
        if self.kappa == 0:
            return self._unembed((1.0 - ts)[:, None] * ex + ts[:, None] * ey)
        d, _, around = self._model_law(xs, ys)
        # slerp on the sphere / hyperboloid through sn/cs coefficients
        k = self.kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            v = (ey - model.cs(k, d)[:, None] * ex) / model.sn(k, d)[:, None]
            p = model.cs(k, ts * d)[:, None] * ex + model.sn(k, ts * d)[:, None] * v
        out = self._unembed(p)
        near = d < 1e-15
        out[near] = xs[near]
        out[around] = np.nan
        return out

    def sample(self, n, seed):
        g = rng(seed)
        r = self.radius * np.sqrt(g.random(n))
        th = 2.0 * math.pi * g.random(n)
        return np.stack([r, th], axis=1)

    def boundary_point(self, theta):
        """Boundary parameterized by angle."""
        return np.array([self.radius, theta % (2.0 * math.pi)])

    def __repr__(self):
        return "ModelDisk(kappa=%g, R=%g)" % (self.kappa, self.radius)


def verify_metric_axioms(space, n_samples, seed):
    """Check symmetry, identity and the triangle inequality on a sample.

    Returns (passed, witness, worst) where witness is the first
    violating triple of points, or None.
    """
    if n_samples < 3:
        raise ValueError("need at least 3 samples")
    pts = space.sample(n_samples, seed)
    d = space.pdist_matrix(pts)
    tol = space.tol_metric
    n = len(d)
    worst = 0.0

    asym = np.abs(d - d.T)
    if asym.max() > tol:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        return False, (pts[i], pts[j], None), float(asym.max())
    diag = np.abs(np.diag(d))
    if diag.max() > tol:
        i = int(np.argmax(diag))
        return False, (pts[i], pts[i], None), float(diag.max())
    # triangle: d[i,j] <= d[i,k] + d[k,j]
    viol = d[:, None, :] - (d[:, :, None] + d.T[None, :, :])
    # viol[i,k,j] = d[i,j] - d[i,k] - d[k,j]
    worst = float(viol.max())
    if worst > tol:
        i, k, j = np.unravel_index(np.argmax(viol), viol.shape)
        return False, (pts[i], pts[k], pts[j]), worst
    return True, None, max(worst, float(asym.max()), float(diag.max()))
