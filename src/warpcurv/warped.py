"""Warped products B x_f F as metric oracles.

Distances minimize the warped length functional: by fiber independence
every query reduces to an interval fiber [0, ell] with ell the fiber
distance of the endpoints.

On a 1-D base (Interval, Ray, Circle) a geodesic is determined by its
Clairaut constant c = f^2 ds/dt: an arc with constant c advances
ell(c) = int c db / (f sqrt(f^2 - c^2)) along the fiber and has length
L(c) = int f db / sqrt(f^2 - c^2).  clairaut_solve takes, for a whole
batch of pairs at once, the shortest of the candidate curves: through
the zero set Z, the leaf path, monotone arcs, arcs with one turning
point beyond either endpoint, and, where such a family's fiber advance
stops short of ell at its limit point (a kink of f at a minimum, an
Interval end, a Ray's 0), the family's last arcs followed by a ride
along the leaf over that point.  The integrals use Gauss-Legendre nodes
under b = x0 + (x1 - x0)(1 - cos theta)/2 on each piece of an arc, the
arc split at the kinks of f that the scan profile shows; the map absorbs
the square-root singularity of a turning point, and of a kink where
f = c.  The roots ell(c) = ell of every family are bracketed on a scan
and refined together, and each value carries an error bar; a pair whose
best candidate's bar exceeds tol / 2 raises ConvergenceError.

The polish minimizes the discrete length
E(b) = sum_k sqrt((b_{k+1} - b_k)^2 + (f(m_k) ds)^2) over the interior
nodes of a graph b(s) by trust-region Newton: the Hessian of E is
tridiagonal, so each step is one banded solve.  f' and f'' at the
midpoints m_k come from central differences.  A base bound where f
vanishes is a pole of the polar-like coordinates (b, s); steps across it
are reflected instead of clipped, since E has a kink on {f = 0} where a
clipped path would stall.  Geodesics seed it with the winning curve.

Disk bases keep a coarse lattice engine of their own.
"""

import functools
import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import OptimizeResult, minimize
# unused here, but bench/tracer.py hooks warped.coo_matrix and warped.dijkstra by name
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from . import spaces
from .spaces import GeodesicPolyline

ZERO_THRESHOLD = 1e-10


class ConvergenceError(RuntimeError):
    """A distance could not be resolved to tol; carries the value bracket."""

    def __init__(self, message, bracket):
        super().__init__(message)
        self.bracket = bracket


_SAFE_ENV = {
    "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
    "tan": np.tan, "tanh": np.tanh, "exp": np.exp, "sqrt": np.sqrt,
    "abs": np.abs, "min": np.minimum, "max": np.maximum,
    "pi": math.pi, "e": math.e,
}


class WarpFunction:
    """Nonnegative warping function with declared Lipschitz data.

    fn is a vectorized callable of the base coordinates (one argument
    for 1-D bases, (r, theta) for disk bases).  zeros is the hinted
    zero set: exact root coordinates for 1-D bases, or the string
    "boundary" for disk bases.
    """

    def __init__(self, fn, lipschitz, zeros=(), expr=None, arity=1):
        self.fn = fn
        self.lipschitz = float(lipschitz)
        self.zeros = zeros if isinstance(zeros, str) else tuple(float(z) for z in zeros)
        self.expr = expr
        self.arity = int(arity)

    def __call__(self, *coords):
        out = np.asarray(self.fn(*[np.asarray(c, dtype=float) for c in coords]), dtype=float)
        return out if out.ndim else float(out)

    @classmethod
    def constant(cls, c):
        c = float(c)
        if c < 0:
            raise ValueError("warping function must be nonnegative")
        return cls(lambda t: np.full_like(np.asarray(t, float), c), 0.0,
                   zeros=(), expr="%g" % c)

    @classmethod
    def linear(cls, a=1.0):
        a = float(a)
        return cls(lambda t: a * np.asarray(t, float), abs(a), zeros=(0.0,),
                   expr="%g*t" % a)

    @classmethod
    def sin(cls):
        return cls(np.sin, 1.0, zeros=(0.0, math.pi), expr="sin(t)")

    @classmethod
    def abs_t(cls):
        return cls(np.abs, 1.0, zeros=(0.0,), expr="abs(t)")

    @classmethod
    def from_expression(cls, expr, lipschitz, zeros=(), arity=1):
        """Build from a restricted expression in t (or r, theta)."""
        code = compile(expr, "<warp>", "eval")
        for name in code.co_names:
            if name not in _SAFE_ENV and name not in ("t", "r", "theta"):
                raise ValueError("unknown name in warp expression: %s" % name)

        if arity == 1:
            def fn(t):
                env = dict(_SAFE_ENV)
                env["t"] = t
                return np.broadcast_to(np.asarray(eval(code, {"__builtins__": {}}, env),
                                                  dtype=float), np.shape(t)).copy()
        else:
            def fn(r, theta):
                env = dict(_SAFE_ENV)
                env["r"] = r
                env["theta"] = theta
                return np.broadcast_to(np.asarray(eval(code, {"__builtins__": {}}, env),
                                                  dtype=float), np.shape(r)).copy()
        return cls(fn, lipschitz, zeros=zeros, expr=expr, arity=arity)


class WarpedPoint:
    def __init__(self, base_point, fiber_point):
        self.base = base_point
        self.fiber = fiber_point

    def __iter__(self):
        yield self.base
        yield self.fiber

    def __repr__(self):
        return "WarpedPoint(%r, %r)" % (self.base, self.fiber)


def as_warped_point(p):
    if isinstance(p, WarpedPoint):
        return p
    b, f = p
    return WarpedPoint(b, f)


class ClairautReport:
    def __init__(self, constant_estimate, max_drift, speed_residual, speed):
        self.constant_estimate = float(constant_estimate)
        self.max_drift = float(max_drift)
        self.speed_residual = float(speed_residual)
        self.speed = float(speed)

    def __repr__(self):
        return ("ClairautReport(c=%.6g, max_drift=%.3g, speed_residual=%.3g, a=%.6g)"
                % (self.constant_estimate, self.max_drift, self.speed_residual, self.speed))


class WarpedTriple:
    """WP-triple (B, f, F)."""

    def __init__(self, base, warp, fiber, check=True):
        self.base = base
        self.warp = warp
        self.fiber = fiber
        self.warnings = []
        if check:
            self._validate()

    def _validate(self):
        if isinstance(self.fiber, spaces.PointSpace):
            raise ValueError("fiber must not be a single point")
        _, vals = warp_profile(self.warp, self.base, VALIDATION_POINTS)
        if np.min(vals) < -1e-9:
            raise ValueError("warping function is negative on the base")
        if np.max(vals) <= ZERO_THRESHOLD:
            raise ValueError("warping function vanishes identically (Z = B)")

    def check_hints(self):
        """Raise ValueError unless the declared hints hold for f (1-D bases).

        Every declared zero must have f <= ZERO_THRESHOLD, and the declared
        Lipschitz constant, with relative slack 1e-9, must bound every
        difference quotient of f on the validation grid.
        """
        for z in self.warp.zeros:
            fz = float(self.warp(z))
            if fz > ZERO_THRESHOLD:
                raise ValueError("declared zero %.12g is not a zero of the warp (f = %.6g)"
                                 % (z, fz))
        ts, vals = warp_profile(self.warp, self.base, VALIDATION_POINTS)
        slope = float(np.max(np.abs(np.diff(vals)) / np.diff(ts)))
        if slope > self.warp.lipschitz * (1.0 + 1e-9):
            raise ValueError("declared Lipschitz constant %.12g is below the slope %.12g "
                             "of the warp" % (self.warp.lipschitz, slope))


def domain(base):
    """Bounded window [lo, hi] of a base coordinate, the radius on a disk."""
    if isinstance(base, spaces.Interval):
        return base.a, base.b
    if isinstance(base, spaces.Ray):
        return 0.0, base.sample_extent
    if isinstance(base, spaces.Circle):
        return 0.0, base.length
    if isinstance(base, spaces.ModelDisk):
        return 0.0, base.radius
    raise ValueError("unsupported base kind: %r" % base)


# points of the validation grid and of the zero-set and inf f scan of a
# 1-D window; a disk takes the polar grid of DISK_SCAN_POINTS per axis
VALIDATION_POINTS = 2049
SCAN_POINTS = 4097
DISK_SCAN_POINTS = 257


def warp_profile(f, base, n=SCAN_POINTS, lo=None, hi=None):
    """Grid points of a base window and the values of f there.

    A 1-D window [lo, hi], domain(base) by default, takes linspace(lo, hi,
    n).  A disk takes the polar grid of DISK_SCAN_POINTS radii in [0, R]
    by as many angles in [0, 2 pi], rows (r, theta), r-major.
    """
    if lo is None:
        lo, hi = domain(base)
    if isinstance(base, spaces.ModelDisk):
        rr, tt = np.meshgrid(np.linspace(lo, hi, DISK_SCAN_POINTS),
                             np.linspace(0, 2 * math.pi, DISK_SCAN_POINTS), indexing="ij")
        pts = np.stack([rr.ravel(), tt.ravel()], axis=1)
        return pts, np.asarray(f(pts[:, 0], pts[:, 1]), float)
    ts = np.linspace(lo, hi, n)
    return ts, np.asarray(f(ts), float)


def zero_set(f, base, lo=None, hi=None, warn=None, profile=None):
    """Roots of f on a base window, domain(base) by default.

    Returns ("boundary", None) for a hinted boundary zero set on disks,
    else ("points", [roots]).  Hinted roots on a 1-D base are filtered to
    the window; otherwise the roots are the scan points where f <
    ZERO_THRESHOLD, at most 64 on a disk, and a scan that finds roots
    without hints adds its warning to the list warn, once.  profile is
    the scan (points, values), warp_profile on the window when omitted.
    """
    hints = getattr(f, "zeros", ())
    if hints == "boundary":
        return "boundary", None
    if lo is None:
        lo, hi = domain(base)
    disk = isinstance(base, spaces.ModelDisk)
    if hints and not disk:
        return "points", [z for z in hints if lo - 1e-12 <= z <= hi + 1e-12]
    pts, vals = profile if profile is not None else warp_profile(f, base, lo=lo, hi=hi)
    roots = list(pts[vals < ZERO_THRESHOLD])
    if disk:
        roots = roots[:64]
    msg = "zero set detected by thresholding f < %g without a hint" % ZERO_THRESHOLD
    if roots and not hints and warn is not None and msg not in warn:
        warn.append(msg)
    return "points", roots


def _one_dim(base):
    return isinstance(base, (spaces.Interval, spaces.Ray, spaces.Circle))


def _window(triple, bp, bq, ell):
    """Base window that certainly contains every candidate geodesic.

    On a Ray the upper end is per pair when bp, bq and ell are arrays.
    """
    b = triple.base
    lo, hi = domain(b)
    if isinstance(b, spaces.Ray):
        # the geodesic never goes past the endpoints by more than an
        # upper bound on the distance
        ub = np.abs(bp - bq) + np.minimum(triple.warp(bp), triple.warp(bq)) * ell
        hi = np.maximum(bp, bq) + ub + 1e-9
    return lo, hi, isinstance(b, spaces.Circle)


# central-difference step for f' and f'' in the polish Hessian
POLISH_FD_STEP = 1e-4


def _tridiagonal_newton(fun, x0, hess, bounds, radius, xtol, reflect, **unused):
    """Trust-region Newton method for a tridiagonal Hessian.

    A custom ``method`` for ``scipy.optimize.minimize``: ``hess(x)``
    returns the gradient and the Hessian, the latter in the (3, n) form
    of ``scipy.linalg.solve_banded``; ``bounds`` is one ``(lo, hi)`` pair
    for every variable, or None.  Variables on a bound whose gradient
    points outward are held fixed (projected Newton), and a step that
    crosses a bound flagged in ``reflect`` is mirrored back across it.
    A failed solve or a non-descent direction gets a Levenberg shift.
    The infinity norm of each step is capped by the trust radius, which
    starts at ``radius``, doubles on an accepted step and shrinks by 4
    on a rejected one; only steps that lower ``fun`` are accepted.
    Stops after 200 steps, when the free gradient is below 1e-12, after
    an accepted step no longer than ``xtol``, when the radius falls below
    ``xtol``, or when the predicted decrease is below the roundoff of
    ``fun``; that last step is taken unless it raises ``fun`` measurably.
    """
    lo, hi = bounds if bounds is not None else (-np.inf, np.inf)
    x = np.clip(np.asarray(x0, float), lo, hi)
    e = fun(x)
    nfev, nit = 1, 0
    noise = 64.0 * np.finfo(float).eps * abs(e)
    moved = True
    while nit < 200 and radius > xtol:
        if moved:
            g, ab = hess(x)
            fixed = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
            g = np.where(fixed, 0.0, g)
            if not len(x) or np.max(np.abs(g)) <= 1e-12 \
                    or not (np.all(np.isfinite(g)) and np.all(np.isfinite(ab))):
                break
            ab = ab.copy()
            ab[1, fixed] = 1.0
            ab[0, 1:][fixed[1:] | fixed[:-1]] = 0.0
            ab[2, :-1][fixed[1:] | fixed[:-1]] = 0.0
            shift = 0.0
            while True:
                shifted = ab.copy()
                shifted[1] += shift
                try:
                    newton = solve_banded((1, 1), shifted, -g)
                except (np.linalg.LinAlgError, ValueError):
                    newton = None
                if newton is not None and np.all(np.isfinite(newton)) and g @ newton < 0:
                    break
                shift = max(10.0 * shift, 1e-10 * (1.0 + np.max(np.abs(ab[1]))))
        nit += 1
        step = min(radius, np.max(np.abs(newton)))
        p = newton * (step / np.max(np.abs(newton)))
        # model decrease -(g.p + p.H.p / 2), H tridiagonal
        hp = ab[1] * p
        hp[:-1] += ab[0, 1:] * p[1:]
        hp[1:] += ab[2, :-1] * p[:-1]
        predicted = -(g @ p + 0.5 * (p @ hp))
        x_new = x + p
        # a step across a reflecting bound is mirrored back into the box
        if reflect[0]:
            x_new = np.where(x_new < lo, 2.0 * lo - x_new, x_new)
        if reflect[1]:
            x_new = np.where(x_new > hi, 2.0 * hi - x_new, x_new)
        x_new = np.clip(x_new, lo, hi)
        e_new = fun(x_new)
        nfev += 1
        if predicted <= noise:
            # below the roundoff of fun: take the step unless it is worse
            if e_new <= e + noise:
                x, e = x_new, e_new
            break
        moved = e_new < e
        if moved:
            x, e = x_new, e_new
            if step <= xtol:
                break
        radius = 2.0 * radius if moved else 0.25 * radius
    return OptimizeResult(x=x, fun=e, nit=nit, nfev=nfev, success=True)


def _polish_path(triple, bs, ss, ell, lo, hi, wrap, n_nodes, wrap_length=None):
    """Variational refinement of a seed path (bs, ss) as a graph b(s).

    Resamples the seed on n_nodes fiber values and minimizes the discrete
    warped length E over the interior base values (see the module
    docstring); the geodesic of a Clairaut-arc winner is polished so.
    """
    warp = triple.warp
    if wrap:
        # unwrap the base coordinate so the path is continuous
        L = wrap_length
        db = np.diff(bs)
        db = np.where(db > L / 2, db - L, np.where(db < -L / 2, db + L, db))
        bs = np.concatenate([[bs[0]], bs[0] + np.cumsum(db)])

    s_mono = np.maximum.accumulate(ss)
    s_grid = np.linspace(0.0, ell, n_nodes)
    # collapse duplicate s values so np.interp sees increasing knots
    keep = np.concatenate([[True], np.diff(s_mono) > 1e-15])
    b_init = np.interp(s_grid, s_mono[keep], bs[keep])
    # pin the endpoints: paths with base movement at constant fiber
    # parameter (through-Z candidates) are not graphs over s, and the
    # interpolation above would otherwise lose an endpoint
    b_init[0] = bs[0]
    b_init[-1] = bs[-1]
    ds = ell / (n_nodes - 1)
    b0, b1 = b_init[0], b_init[-1]
    h = POLISH_FD_STEP

    def feval(x):
        return np.asarray(warp(np.mod(x, wrap_length) if wrap else x), float)

    def path(binter):
        b = np.concatenate([[b0], binter, [b1]])
        return b, 0.5 * (b[:-1] + b[1:])

    def energy(binter):
        b, mid = path(binter)
        return float(np.sum(np.sqrt(np.diff(b) ** 2 + (feval(mid) * ds) ** 2)))

    def derivatives(binter):
        """Gradient and banded Hessian, from one warp call at mid-h, mid, mid+h."""
        b, mid = path(binter)
        fl, fm, fr = feval(np.concatenate([mid - h, mid, mid + h])).reshape(3, -1)
        d1 = (fr - fl) / (2.0 * h)
        d2 = (fr - 2.0 * fm + fl) / (h * h)
        # segment length s(u, m) = sqrt(u^2 + ds^2 f(m)^2), u = b_{k+1} - b_k
        u = np.diff(b)
        g2 = (fm * ds) ** 2
        s = np.maximum(np.sqrt(u * u + g2), 1e-12 * ds)
        s_u = u / s
        s_m = ds * ds * fm * d1 / s
        s_uu = g2 / s ** 3
        s_um = -s_u * s_m / s
        s_mm = (ds * ds * (d1 * d1 + fm * d2) - s_m * s_m) / s
        # chain rule through u = b_{k+1} - b_k and m = (b_k + b_{k+1}) / 2
        grad = np.zeros(n_nodes)
        grad[:-1] += 0.5 * s_m - s_u
        grad[1:] += 0.5 * s_m + s_u
        diag = np.zeros(n_nodes)
        diag[:-1] += s_uu - s_um + 0.25 * s_mm
        diag[1:] += s_uu + s_um + 0.25 * s_mm
        off = 0.25 * s_mm - s_uu
        ab = np.zeros((3, n_nodes - 2))
        ab[0, 1:] = off[1:-1]
        ab[1] = diag[1:-1]
        ab[2, :-1] = off[1:-1]
        return grad[1:-1], ab

    res = minimize(energy, b_init[1:-1], method=_tridiagonal_newton, hess=derivatives,
                   bounds=None if wrap else (lo, hi),
                   options={"radius": 0.05 * (hi - lo), "xtol": 1e-9 * (hi - lo),
                            "reflect": (feval(lo) <= ZERO_THRESHOLD,
                                        feval(hi) <= ZERO_THRESHOLD)})
    b = np.concatenate([[b0], res.x, [b1]])
    return res.fun, b, s_grid


def _polish_nodes(ell, tol):
    """Node count of a polished path: the midpoint rule's error then stays below tol."""
    return int(np.clip(4.0 * ell / math.sqrt(tol), 129, 20001))


# Gauss-Legendre nodes of the Clairaut quadrature; a candidate's error bar
# compares its value with the one from twice as many nodes
CLAIRAUT_NODES = 48
# nodes of the monotone family's scan, and the clustered share of a turning scan
CLAIRAUT_SCAN = 24
# relative floating-point floor of every error bar: a tol below it is
# unattainable, and such pairs raise ConvergenceError
CLAIRAUT_FLOOR = 1e-12
# pairs per array pass of clairaut_solve
CLAIRAUT_CHUNK = 64
# most points of a Ray's scan profile; a longer window is scanned at a
# spacing doubled until it fits
RAY_SCAN_CAP = 16 * (SCAN_POINTS - 1) + 1
# a kink's second differences stand this many times above their neighbours'
KINK_RATIO = 64
# an arc is not split at a kink closer than this many scan spacings to its ends
KINK_GAP = 1e-6


@functools.lru_cache(maxsize=None)
def _cos_map_rule(n):
    """Gauss-Legendre rule for int_0^1 g(u) du under u = (1 - cos theta) / 2.

    The map clusters nodes at both ends of the arc, where it turns the
    inverse square root of a turning point into a smooth integrand.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * math.pi * (1.0 + t)
    return 0.5 * (1.0 - np.cos(theta)), 0.25 * math.pi * w * np.sin(theta)


def _feval(triple):
    """f on base coordinates, unwrapped coordinates taken mod L on a circle."""
    warp, base = triple.warp, triple.base
    if isinstance(base, spaces.Circle):
        return lambda x: np.asarray(warp(np.mod(x, base.length)), float)
    return lambda x: np.asarray(warp(x), float)


def _kinks(feval, prof, lo, h, periodic):
    """Kinks of f seen on the scan profile prof = f(lo + i h): positions, grid indices.

    A kink inside [x_i, x_i+1] puts its slope jump times h into the sum
    |d2_i| + |d2_i+1| of second differences, where a smooth f puts about
    f'' h^2 as it does into |d2_i-1| + |d2_i+2|; a kink is a local maximum
    of that sum KINK_RATIO times above its neighbours'.  Only indices i
    with the stencil i - 2 .. i + 3 on the profile count, unless it is
    periodic.  A kink is placed where the one-sided lines meet: through
    the grid points first, then through points e and 2e either side of
    the estimate, e shrinking 8-fold per pass.
    """
    n = len(prof)
    # d2[i + 2] is the second difference at i, the profile taken periodic
    ext = np.concatenate([prof[-3:], prof, prof[:3]])
    d2 = ext[:-2] - 2.0 * ext[1:-1] + ext[2:]
    a = np.abs(d2)
    pair = a[:-1] + a[1:]
    kink = ((pair[2:n + 2] > KINK_RATIO * (a[1:n + 1] + a[4:n + 4]) + 1e-11 * np.abs(prof))
            & (pair[2:n + 2] >= pair[1:n + 1]) & (pair[2:n + 2] > pair[3:n + 3]))
    i = np.flatnonzero(kink if periodic else kink[:n - 3])
    if not periodic:
        i = i[i >= 2]
    if not len(i):
        return np.empty(0), i
    x = lo + (i + np.clip(d2[i + 3] / (d2[i + 2] + d2[i + 3]), 0.0, 1.0)) * h
    e = 0.25 * h
    for _ in range(4):
        fl2, fl1, fr1, fr2 = feval(x + e * np.array([-2.0, -1.0, 1.0, 2.0])[:, None])
        # lines fl1 + sl (t + 1) and fr1 + sr (t - 1) meet at x + e t
        sl, sr = fl1 - fl2, fr2 - fr1
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (fr1 - fl1 - sl - sr) / (sl - sr)
        x = x + e * np.clip(np.nan_to_num(t), -1.0, 1.0)
        e *= 0.125
    return x, i


def _arc_terms(feval, xstar, c, x_lo, x_hi, n=CLAIRAUT_NODES, kinks=None, gap=0.0):
    """Quadrature nodes b and per-node fiber advance and length terms of the
    Clairaut arcs from x* to x_lo and to x_hi, each of shape (len(c), 2, P n).

    kinks, one row of positions per arc pair (nan-padded), splits each arc
    at the kinks strictly inside it, more than gap from its ends, into
    pieces of n nodes, ordered from x* outward; P is the most pieces of
    any arc, and an arc with fewer ends in pieces of length 0.
    """
    u, w = _cos_map_rule(n)
    ends = np.stack([x_lo, x_hi], axis=1)[:, :, None]
    cuts = [np.broadcast_to(xstar[:, None, None], ends.shape)]
    if kinks is not None:
        k = kinks[:, None, :]
        x0 = xstar[:, None, None]
        inside = ((k - x0) * (k - ends) < 0) & (np.abs(k - x0) > gap) & (np.abs(k - ends) > gap)
        order = np.argsort(np.where(inside, np.abs(k - x0), math.inf), axis=2)
        inside = np.take_along_axis(inside, order, axis=2)
        m = int(inside.sum(axis=2).max(initial=0))
        k = np.take_along_axis(np.broadcast_to(k, inside.shape), order, axis=2)
        cuts.append(np.where(inside, k, ends)[:, :, :m])
    cuts.append(ends)
    cuts = np.concatenate(cuts, axis=2)
    span = (cuts[:, :, 1:] - cuts[:, :, :-1])[..., None]
    b = cuts[:, :, :-1, None] + span * u
    f = feval(b)
    cc = c[:, None, None, None]
    ww = np.abs(span) * w
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt((f - cc) * (f + cc))
        advance = np.where(ww > 0, ww * cc / (f * root), 0.0)
        length = np.where(ww > 0, ww * f / root, 0.0)
    shape = (len(c), 2, -1)
    return b.reshape(shape), advance.reshape(shape), length.reshape(shape)


def _arcs(feval, xstar, c, x_lo, x_hi, n=CLAIRAUT_NODES, kinks=None, gap=0.0):
    """Fiber advance and length of the Clairaut arcs from x* to x_lo and to x_hi.

    An arc with constant c advances ell = int c db / (f sqrt(f^2 - c^2))
    along the fiber and has length L = int f db / sqrt(f^2 - c^2).  Both
    are inf where f <= c inside an arc, or at an end that is no simple
    turning point.  The sum runs piece by piece, both arcs' j-th pieces
    together, so that pieces of length 0 leave a row's value unchanged.
    """
    sums = []
    for terms in _arc_terms(feval, xstar, c, x_lo, x_hi, n, kinks, gap)[1:]:
        pieces = terms.reshape(len(c), 2, -1, n).transpose(0, 2, 1, 3)
        pieces = pieces.reshape(len(c), -1, 2 * n).sum(axis=2)
        total = pieces[:, 0]
        for j in range(1, pieces.shape[1]):
            total = total + pieces[:, j]
        sums.append(total)
    advance, length = sums
    bad = ~(np.isfinite(advance) & np.isfinite(length))
    advance[bad] = math.inf
    length[bad] = math.inf
    return advance, length


def _family_point(feval, p, turn, xm):
    """Split point x* and constant c of family parameter p.

    A turning family is parametrised by its turning point (x* = p, c =
    f(p)); a monotone one by c = p, its arc split at the minimum xm of f.
    """
    x = np.where(turn, p, xm)
    return x, np.where(turn, feval(x), p)


def _illinois(evaluate, a, b, goal, max_iter=100):
    """Regula falsi with the Illinois rule on every bracket at once.

    a and b are lists [p, h, c, L] of arrays at the two ends of each
    bracket, h = ell(p) - ell of opposite signs (inf counts as positive).
    evaluate(p, rows) gives (h, c, L) at parameters p of the given rows.
    A bracket stops once |c_a - c_b| * min(|h_a|, |h_b|), which bounds
    the error of the linearised value at the better end, is at most goal;
    while an end has an infinite h the step bisects.
    """
    wa, wb = a[1].copy(), b[1].copy()
    last = np.zeros(len(a[0]), int)
    for _ in range(max_iter):
        bound = np.abs(a[2] - b[2]) * np.minimum(np.abs(a[1]), np.abs(b[1]))
        rows = np.flatnonzero(~(bound <= goal))
        if not len(rows):
            break
        pa, pb, ha, hb = a[0][rows], b[0][rows], wa[rows], wb[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (pa * hb - pb * ha) / (hb - ha)
        p = np.where(np.isfinite(p) & ((p - pa) * (p - pb) < 0), p, 0.5 * (pa + pb))
        new = evaluate(p, rows)
        to_a = (new[0] <= 0) == (a[1][rows] <= 0)
        for end, own, other, side, sel in ((a, wa, wb, 1, to_a), (b, wb, wa, -1, ~to_a)):
            r = rows[sel]
            for arr, val in zip(end, (p,) + tuple(new)):
                arr[r] = val[sel]
            own[r] = new[0][sel]
            # Illinois: the end that stays put twice in a row has its weight halved
            other[r] *= np.where(last[r] == side, 0.5, 1.0)
            last[r] = side
    return a, b


def _records(vals, m):
    """Positions of the running-minimum records of vals below m, f > 0.

    A record falls below every earlier value by more than a relative
    1e-12, so the roundoff of f on a flat stretch makes none.
    """
    prev = np.minimum.accumulate(np.concatenate([[m], vals]))[:-1]
    return np.flatnonzero((vals < prev - 1e-12 * np.abs(prev)) & (vals > ZERO_THRESHOLD))


def _argmin_zoom(feval, lo, hi, iters=12, k=17):
    """Minimum of f on each segment from lo to hi, by zooming on a k-point grid.

    Each pass keeps the first grid point from lo within a relative 1e-12
    of the least value, and its neighbours: the bracket narrows 8-fold, so
    the default pins a kink to about 1e-11 of |hi - lo|, well inside the
    first node of a ride's arcs, and a flat bottom to its end nearest lo.
    """
    r = np.arange(len(lo))
    for _ in range(iters):
        xs = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, k)
        fx = feval(xs)
        j = np.argmax(fx <= fx.min(axis=1, keepdims=True) * (1.0 + 1e-12), axis=1)
        lo, hi = xs[r, np.maximum(j - 1, 0)], xs[r, np.minimum(j + 1, k - 1)]
    return xs[r, j], fx[r, j]


def _crossing(feval, above, below, level, iters=48):
    """Bisection for the point between above (f >= level) and below (f < level)."""
    for _ in range(iters):
        mid = 0.5 * (above + below)
        low = feval(mid) < level
        below = np.where(low, mid, below)
        above = np.where(low, above, mid)
    return below


class ClairautSolution:
    """Per-pair results of clairaut_solve.

    value holds the distances.  winner[i] is the curve behind value[i]:
    ("base",) for no fiber advance, ("z", z) through the zero z, ("leaf",
    b) along the leaf over the endpoint b, or ("arc", start, end, x, c,
    ride) for Clairaut arcs start -> x -> end with constant c and a ride
    of fiber length ride along the leaf over x.
    """

    def __init__(self, value, winner):
        self.value = value
        self.winner = winner


def clairaut_solve(triple, bp, bq, ell, tol=1e-3):
    """Distances in B x_f [0, ell] from (bp, 0) to (bq, ell), 1-D bases, per row.

    Every candidate below is the length of a curve; the value is their
    minimum:
      - through a zero z of f: d(bp, z) + d(z, bq);
      - the leaf path d_B + min(f(bp), f(bq)) * ell;
      - monotone Clairaut arcs, c in (0, min f on [bp, bq]);
      - arcs with one turning point x* beyond either endpoint, c = f(x*),
        x* ranging over each stretch of running-minimum records of f
        outward, from where f falls to the minimum before it to the
        least f near the stretch's end (or an Interval end or a Ray's 0);
      - rides: where a family's fiber advance at its limit point x (c =
        min f, or a stretch's end) stops short of ell, the arcs of c = f(x)
        and then the leaf over x for the rest of ell.
    A circle base unwraps bq to bq + kL, k in {-1, 0, 1}.  Arcs are split
    at the kinks of f on the scan profile (_kinks).  Each family is
    scanned for sign changes of ell(c) - ell, all brackets are refined
    together, and a root or ride is valued L + c (ell - ell(c)), with an
    error bar: the change from 2x the quadrature nodes, the bracket bound
    and a floating-point floor.  A pair raises ConvergenceError with the
    bracket best -+ bar when no family solves it, when a ride is not
    confirmed by 2x the nodes, or when a candidate within its error bar of
    the best has a bar above tol / 2.  A batch gives the values of its
    pairs solved one at a time, bit for bit.
    """
    base = triple.base
    feval = _feval(triple)
    bp, bq, ell = (np.atleast_1d(np.asarray(x, float)).ravel() for x in (bp, bq, ell))
    if isinstance(base, spaces.Interval):
        bp, bq = np.clip(bp, base.a, base.b), np.clip(bq, base.a, base.b)
    elif isinstance(base, spaces.Ray):
        bp, bq = np.maximum(bp, 0.0), np.maximum(bq, 0.0)
    fp, fq = feval(bp), feval(bq)
    d_base = np.asarray(base.dist_pairs(bp, bq), float)
    value = d_base.copy()
    winner = [("base",)] * len(bp)
    for i in np.flatnonzero(ell > 0):
        if min(fp[i], fq[i]) <= ZERO_THRESHOLD:
            winner[i] = ("z", bp[i] if fp[i] <= ZERO_THRESHOLD else bq[i])
    live = np.flatnonzero((ell > 0) & (fp > ZERO_THRESHOLD) & (fq > ZERO_THRESHOLD))
    # scan profile: f on the grid lo + i h of the domain, extended on a Ray
    # to every pair's window and taken periodic on a circle.  A Ray window
    # that needs more than RAY_SCAN_CAP points is scanned at h 2^k instead,
    # k the least that fits, from that pair's window alone
    lo, hi = domain(base)
    h = (hi - lo) / (SCAN_POINTS - 1)
    reach = np.broadcast_to(_window(triple, bp[live], bq[live], ell[live])[1], live.shape)
    level = np.zeros(len(live), int)
    if isinstance(base, spaces.Ray):
        while True:
            over = np.ceil((reach - lo) / (h * 2.0 ** level)) >= RAY_SCAN_CAP
            if not over.any():
                break
            level += over
    for k in np.unique(level):
        sub, hk, reach_k = live[level == k], h * 2.0 ** k, reach[level == k]
        count = SCAN_POINTS
        if isinstance(base, spaces.Circle):
            count -= 1
        elif isinstance(base, spaces.Ray):
            count = max(count, int(math.ceil(float(np.max(reach_k)) / hk)) + 1)
        grid_pts = lo + hk * np.arange(count)
        prof = feval(grid_pts)
        zeros = np.asarray(zero_set(triple.warp, base, lo, grid_pts[-1], warn=triple.warnings,
                                    profile=(grid_pts, prof))[1] or [], float)
        kinks = _kinks(feval, prof, lo, hk, isinstance(base, spaces.Circle))
        for s in range(0, len(sub), CLAIRAUT_CHUNK):
            _solve_chunk(triple, feval, prof, lo, hk, zeros, kinks, sub[s:s + CLAIRAUT_CHUNK],
                         bp, bq, ell, d_base, reach_k[s:s + CLAIRAUT_CHUNK], tol, value, winner)
    return ClairautSolution(value, winner)


def _arc_minimum(feval, at, lo, h, x_lo, x_hi):
    """Where f is least on each [x_lo, x_hi], that least value, f(x_lo), f(x_hi).

    The minimum is at the lower end, or at the lowest scan point inside
    refined by _argmin_zoom.
    """
    f_lo, f_hi = feval(x_lo), feval(x_hi)
    xm, m = np.where(f_lo <= f_hi, x_lo, x_hi), np.minimum(f_lo, f_hi)
    zoom = []
    for k in range(len(x_lo)):
        inner = np.arange(int(math.floor((x_lo[k] - lo) / h)) + 1,
                          int(math.ceil((x_hi[k] - lo) / h)))
        if len(inner):
            j = inner[np.argmin(at(inner))]
            if at(j) < m[k]:
                zoom.append((k, lo + j * h))
    if zoom:
        ks, g = (np.array(v) for v in zip(*zoom))
        x, fx = _argmin_zoom(feval, np.maximum(g - h, x_lo[ks]), np.minimum(g + h, x_hi[ks]))
        low = fx < m[ks]
        xm[ks[low]], m[ks[low]] = x[low], fx[low]
    return xm, m, f_lo, f_hi


def _solve_chunk(triple, feval, prof, lo, h, zeros, kinks, rows, bp, bq, ell, d_base, reach,
                 tol, value, winner):
    """clairaut_solve on the pairs rows; fills value and winner there.

    kinks is _kinks of prof.  reach is the upper end of each pair's
    _window (a Ray's scans, zeros and kinks stop there).
    """
    base = triple.base
    circle = isinstance(base, spaces.Circle)
    npair, n = len(rows), len(prof)
    # problems: one per pair, three per pair on a circle (bq unwrapped)
    if circle:
        L = base.length
        start = np.mod(bp[rows], L)
        delta = np.mod(bq[rows] - start + 0.5 * L, L) - 0.5 * L
        shifts = (0.0, -L, L)
    else:
        start, delta, shifts = bp[rows], bq[rows] - bp[rows], (0.0,)
    pair = np.tile(np.arange(npair), len(shifts))
    start = np.tile(start, len(shifts))
    end = start + np.tile(delta, len(shifts)) + np.repeat(shifts, npair)
    x_lo, x_hi = np.minimum(start, end), np.maximum(start, end)
    target = ell[rows][pair]

    def at(i):
        return prof[np.mod(i, n)] if circle else prof[i]

    xm, m, f_lo, f_hi = _arc_minimum(feval, at, lo, h, x_lo, x_hi)
    # outward grid indices past each end, first to last: to the window end,
    # or less than a full turn on a circle
    first = (np.ceil((x_lo - lo) / h).astype(int) - 1, np.floor((x_hi - lo) / h).astype(int) + 1)
    if circle:
        last = (np.floor((x_hi - L - lo) / h).astype(int) + 1,
                np.ceil((x_lo + L - lo) / h).astype(int) - 1)
    elif isinstance(base, spaces.Ray):
        last = (np.zeros_like(pair),
                np.minimum(n - 1, np.floor((reach[pair] - lo) / h).astype(int)))
    else:
        last = (np.zeros_like(pair), np.full_like(pair, n - 1))
    # the kinks that split arcs: every copy on the unwrapped circle, and on a
    # Ray those that the profile of the pair's own window shows
    kx, ki = kinks
    kmat = None
    if len(kx):
        if circle:
            kx = (kx + L * np.arange(-3, 4)[:, None]).ravel()
        kmat = np.broadcast_to(kx, (len(pair), len(kx)))
        if isinstance(base, spaces.Ray):
            own = np.maximum(SCAN_POINTS, np.ceil((reach - lo) / h).astype(int) + 1)
            kmat = np.where(ki <= own[pair][:, None] - 4, kmat, math.nan)
    # grid index -> coordinate of the boundary leaves: an Interval's ends, a Ray's 0
    edges = {} if circle else {0: lo}
    if isinstance(base, spaces.Interval):
        edges[n - 1] = base.b

    # scan nodes: (problem, segment, turning?, parameter, limit?); a bracket
    # needs two consecutive nodes of one segment, and the last node of a
    # segment is the family's limit
    node_prob, node_seg, node_turn, node_p, node_limit = [], [], [], [], []
    crossings = []       # (node index, above, below, level) for stretch starts
    tails = []           # (node index, grid index, outward step) for stretch ends
    leaf_ok = np.zeros(npair, dtype=bool)
    seg = 0
    c_scan = np.sin(0.5 * math.pi * np.arange(CLAIRAUT_SCAN + 1) / CLAIRAUT_SCAN)
    ranks = (np.arange(CLAIRAUT_SCAN) / CLAIRAUT_SCAN) ** 2
    for k in range(len(pair)):
        if x_hi[k] > x_lo[k] and m[k] > ZERO_THRESHOLD:
            node_prob += [k] * len(c_scan)
            node_seg += [seg] * len(c_scan)
            node_turn += [False] * len(c_scan)
            node_p += list(m[k] * c_scan)
            node_limit += [False] * CLAIRAUT_SCAN + [True]
            seg += 1
        adjacent = False
        for side, step, e, fe in ((0, -1, x_lo[k], f_lo[k]), (1, 1, x_hi[k], f_hi[k])):
            idx = np.arange(first[side][k], last[side][k] + step, step)
            vals = at(idx)
            rec = _records(vals, m[k])
            if not len(rec):
                continue
            adjacent |= rec[0] == 0
            # one segment per stretch of adjacent records; nodes: the stretch
            # ends, and CLAIRAUT_SCAN records clustered at e
            brk = np.flatnonzero(np.diff(rec) > 1)
            r0s = rec[np.concatenate([[0], brk + 1])]
            r1s = rec[np.concatenate([brk, [len(rec) - 1]])]
            pick = np.unique(np.concatenate([rec[(len(rec) * ranks).astype(int)], r0s, r1s]))
            for j, (r0, r1) in enumerate(zip(r0s, r1s)):
                # a stretch starts where f falls to the minimum before it: m
                # at e itself, or at a crossing found by bisection
                head = e
                if not (j == 0 and r0 == 0 and fe <= m[k]):
                    head = e if r0 == 0 else lo + idx[r0 - 1] * h
                    level = m[k] if j == 0 else vals[r1s[j - 1]]
                    crossings.append((len(node_p), head, lo + idx[r0] * h, level))
                inner = pick[(pick >= r0) & (pick <= r1)]
                tails.append((len(node_p) + len(inner), idx[r1], step))
                node_prob += [k] * (len(inner) + 1)
                node_seg += [seg] * (len(inner) + 1)
                node_turn += [True] * (len(inner) + 1)
                node_p += [head] + list(lo + idx[inner] * h)
                node_limit += [False] * len(inner) + [True]
                seg += 1
        if x_hi[k] == x_lo[k] and not adjacent:
            leaf_ok[pair[k]] = True       # f has a local minimum at bp = bq
    prob = np.array(node_prob, int)
    turn = np.array(node_turn, bool)
    p = np.array(node_p, float)
    node_seg = np.array(node_seg, int)
    limit = np.array(node_limit, bool)
    if crossings:
        ci, above, below, level = (np.array(v) for v in zip(*crossings))
        p[ci] = _crossing(feval, above, below, level)
    if tails:
        # a stretch ends at a boundary leaf, or else at the minimum of f
        # within one grid step of its last record, nearest e (a flat bottom
        # is ridden at its near end), unless f vanishes there
        ti, g, step = (np.array(v) for v in zip(*tails))
        tail = np.array([edges.get(j, math.nan) for j in g])
        free = np.flatnonzero(np.isnan(tail))
        x, fx = _argmin_zoom(feval, lo + (g - step)[free] * h, lo + (g + step)[free] * h)
        tail[free] = np.where(fx > ZERO_THRESHOLD, x, lo + g[free] * h)
        p[ti] = tail

    def evaluate(q, turn_q, prob_q, nodes=CLAIRAUT_NODES):
        x, c = _family_point(feval, q, turn_q, xm[prob_q])
        adv, length = _arcs(feval, x, c, x_lo[prob_q], x_hi[prob_q], nodes,
                            None if kmat is None else kmat[prob_q], KINK_GAP * h)
        return adv - target[prob_q], c, length

    cand = []        # (pair, value, error bar, winner)
    broken = np.zeros(npair, dtype=bool)
    if len(p):
        hv, cv, Lv = evaluate(p, turn, prob)
        br = np.flatnonzero((node_seg[:-1] == node_seg[1:]) & ((hv[:-1] <= 0) != (hv[1:] <= 0)))
        a, b = _illinois(lambda q, r: evaluate(q, turn[br[r]], prob[br[r]]),
                         [p[br], hv[br], cv[br], Lv[br]],
                         [p[br + 1], hv[br + 1], cv[br + 1], Lv[br + 1]], CLAIRAUT_FLOOR)
        # each root, taken at the bracket end nearer to it, and each limit
        # whose family falls short of ell: that curve rides the leaf over
        # its limit point for the rest of ell.  Both are valued
        # L + c (ell - ell(c)), with ride ell - ell(c) = 0 at a root
        near_a = np.abs(a[1]) <= np.abs(b[1])
        rides = np.flatnonzero(limit & (hv < 0))
        q, hq, cq, Lq = (np.concatenate([np.where(near_a, u, v), w[rides]])
                         for u, v, w in zip(a, b, (p, hv, cv, Lv)))
        at_node = np.concatenate([br, rides])
        turn_q, prob_q = turn[at_node], prob[at_node]
        h2, _, L2 = evaluate(q, turn_q, prob_q, 2 * CLAIRAUT_NODES)
        with np.errstate(invalid="ignore"):
            est = L2 - cq * h2
            err = np.abs(Lq - cq * hq - est)
        err[:len(br)] += np.abs(a[2] - b[2]) * np.abs(hq[:len(br)])
        ride = np.concatenate([np.zeros(len(br)), -h2[len(br):]])
        # a ride that twice the nodes do not confirm leaves its family's
        # limit, and the pair, unresolved
        ok = ride >= 0
        broken[pair[prob_q[~ok]]] = True
        x = np.where(turn_q, q, xm[prob_q])
        cand += [(pair[k], est[j], err[j], ("arc", start[k], end[k], x[j], cq[j], ride[j]))
                 for j, k in enumerate(prob_q) if ok[j] and np.isfinite(est[j])]
    cand_solves = len(cand)
    # through a zero, and the leaf path over the endpoint with the smaller f
    b0, b1, ell_r = bp[rows], bq[rows], ell[rows]
    f0, f1 = feval(b0), feval(b1)
    leaf = d_base[rows] + np.minimum(f0, f1) * ell_r
    for i in range(npair):
        cand.append((i, leaf[i], 0.0, ("leaf", b0[i] if f0[i] <= f1[i] else b1[i])))
    usable = np.zeros(npair, dtype=bool)
    if len(zeros):
        zz = np.tile(zeros, npair)
        via = (np.asarray(base.dist_pairs(np.repeat(b0, len(zeros)), zz), float)
               + np.asarray(base.dist_pairs(zz, np.repeat(b1, len(zeros))), float))
        via = via.reshape(npair, len(zeros))
        if isinstance(base, spaces.Ray):
            # a zero counts for the pairs whose window reaches it
            via[zeros[None, :] > reach[:, None]] = math.inf
        jz = np.argmin(via, axis=1)
        usable = np.isfinite(via[np.arange(npair), jz])
        cand += [(i, via[i, jz[i]], 0.0, ("z", zeros[jz[i]])) for i in np.flatnonzero(usable)]
    cp = np.array([c[0] for c in cand], int)
    cval = np.array([c[1] for c in cand], float)
    cerr = np.array([c[2] for c in cand], float)
    cerr += CLAIRAUT_FLOOR * np.maximum(1.0, np.abs(cval))
    # a pair is solved when a Clairaut family, a zero or an exact leaf
    # (f has a local minimum at bp = bq) gives a candidate, every family
    # that falls short of ell rides at its limit, and no candidate within
    # its error bar of the best has a bar above tol / 2
    solves = leaf_ok | usable
    solves[cp[:cand_solves]] = True
    best = np.full(npair, math.inf)
    np.minimum.at(best, cp, cval)
    contest = cval - cerr <= best[cp]
    worst = np.zeros(npair)
    np.maximum.at(worst, cp[contest], cerr[contest])
    solved = solves & ~broken & np.isfinite(best) & (worst <= tol / 2.0)
    unresolved = np.flatnonzero(~solved)
    if len(unresolved):
        # with no family, or an unconfirmed ride, the best value bounds the
        # distance from above and d_B from below
        i = unresolved[0]
        bar = worst[i] if solves[i] and not broken[i] else max(worst[i], best[i] - d_base[rows[i]])
        raise ConvergenceError("no Clairaut candidate resolves (bp, bq, ell) = (%.12g, %.12g, "
                               "%.12g) to tol=%g" % (bp[rows[i]], bq[rows[i]], ell[rows[i]], tol),
                               bracket=(float(best[i] - bar), float(best[i] + bar)))
    order = np.lexsort((cval, cp))
    best_of = order[np.searchsorted(cp[order], np.arange(npair))]
    value[rows] = cval[best_of]
    for i, j in enumerate(best_of):
        winner[rows[i]] = cand[j][3]


def reduced_distance(triple, bp, bq, ell, tol=1e-3):
    """Distance in B x_f [0, ell] from (bp, 0) to (bq, ell).

    One pair of clairaut_solve on 1-D bases; the disk engine on a disk.
    """
    if not _one_dim(triple.base):
        return _disk_reduced_distance(triple, bp, bq, ell)
    return float(clairaut_solve(triple, bp, bq, ell, tol=tol).value[0])


# resolution (rings, spokes) and attach reach of the disk-base engine
DISK_ENGINE_LATTICE = (48, 96)
DISK_ENGINE_REACH = 1


def _disk_reduced_distance(triple, bp, bq, ell):
    """Coarse product-grid engine for ModelDisk bases (no polish stage).

    Layers the first four moves of the base's polar lattice over fiber
    nodes j * ell / mf, with min-f fiber weights and vertical edges.
    """
    disk = triple.base
    bp = np.asarray(bp, float).reshape(2)
    bq = np.asarray(bq, float).reshape(2)
    if ell <= 0 or float(triple.warp(bp[0], bp[1])) <= ZERO_THRESHOLD \
            or float(triple.warp(bq[0], bq[1])) <= ZERO_THRESHOLD:
        return disk.distance(bp, bq)
    lat = spaces.polar_lattice(disk.kappa, disk.radius, *DISK_ENGINE_LATTICE)
    mf = max(4, min(32, int(math.ceil(ell / (disk.radius / lat.n_rings)))))
    hs = ell / mf
    fvals = np.asarray(triple.warp(lat.nodes[:, 0], lat.nodes[:, 1]), float)
    fvals[fvals < ZERO_THRESHOLD] = 0.0
    bsrc, bdst, dbase = lat.edges(4)
    fmin = np.minimum(fvals[bsrc], fvals[bdst])
    layers = np.arange(mf + 1)
    src, dst, ws = [], [], []
    for dj in (-1, 0, 1):
        j0 = layers[max(0, -dj): mf + 1 - max(0, dj)]
        w = np.sqrt(dbase ** 2 + (fmin * abs(dj) * hs) ** 2)
        src.append((bsrc[:, None] * (mf + 1) + j0).ravel())
        dst.append((bdst[:, None] * (mf + 1) + j0 + dj).ravel())
        ws.append(np.repeat(w, len(j0)))
    # vertical moves at fixed base point
    column = np.arange(len(fvals))[:, None] * (mf + 1)
    src.append((column + layers[:-1]).ravel())
    dst.append((column + layers[1:]).ravel())
    ws.append(np.repeat(fvals * hs, mf))
    return lat.path_length(np.concatenate(src), np.concatenate(dst), np.concatenate(ws),
                           mf + 1, (bp, 0), (bq, mf), DISK_ENGINE_REACH)


def warped_distance(triple, u, v, tol=1e-3):
    """Distance in B x_f F between warped points u and v."""
    u = as_warped_point(u)
    v = as_warped_point(v)
    ell = float(triple.fiber.distance(u.fiber, v.fiber))
    return reduced_distance(triple, u.base, v.base, ell, tol=tol)


def _arc_seed(feval, start, end, x, c, ride, ell):
    """Polyline (b, s) along the Clairaut arcs start -> x -> end, riding the
    leaf over x for a fiber length ride; s is rescaled to end at ell."""
    b, ds, _ = _arc_terms(feval, np.array([x]), np.array([c]), np.array([start]),
                          np.array([end]))
    (b1, b2), (d1, d2) = b[0], np.nan_to_num(ds[0], posinf=0.0)
    s1 = np.cumsum(d1[::-1]) - 0.5 * d1[::-1]
    sx = float(np.sum(d1))
    s2 = sx + ride + np.cumsum(d2) - 0.5 * d2
    bs = np.concatenate([[start], b1[::-1], [x, x], b2, [end]])
    ss = np.concatenate([[0.0], s1, [sx, sx + ride], s2, [sx + ride + np.sum(d2)]])
    return bs, ss * (ell / ss[-1])


def warped_geodesic(triple, u, v, resolution=1e-3):
    """Geodesic along the curve that realises the distance, as a GeodesicPolyline.

    A Clairaut-arc winner seeds one polish of the discrete length on
    _polish_nodes(ell, resolution) nodes; a through-Z, leaf or base path
    is taken as it is.
    """
    u = as_warped_point(u)
    v = as_warped_point(v)
    if not _one_dim(triple.base):
        raise ValueError("geodesic extraction supports 1-D bases only")
    ell = float(triple.fiber.distance(u.fiber, v.fiber))
    bp, bq = float(u.base), float(v.base)
    win = clairaut_solve(triple, bp, bq, ell, tol=resolution).winner[0]
    if win[0] == "arc":
        lo, hi, wrap = _window(triple, bp, bq, ell)
        bs, ss = _arc_seed(_feval(triple), *win[1:], ell)
        _, bs, ss = _polish_path(triple, bs, ss, ell, lo, hi, wrap,
                                 _polish_nodes(ell, resolution),
                                 wrap_length=triple.base.length if wrap else None)
    else:
        # the base to the zero or leaf point b, the fiber advance there (no
        # length at a zero), then the base on to bq
        b = bp if win[0] == "base" else win[1]
        n1, n2 = (max(2, int(abs(y - x) / resolution) + 1) for x, y in ((bp, b), (b, bq)))
        nr = max(2, int(float(triple.warp(b)) * ell / resolution) + 1)
        bs = np.concatenate([np.linspace(bp, b, n1), np.full(nr, b), np.linspace(b, bq, n2)])
        ss = np.concatenate([np.zeros(n1), np.linspace(0.0, ell, nr), np.full(n2, ell)])
    fb = np.asarray(triple.warp(np.mod(bs, triple.base.length)
                                if isinstance(triple.base, spaces.Circle) else bs), float)
    seg = np.sqrt(np.diff(bs) ** 2 +
                  (0.5 * (fb[:-1] + fb[1:]) * np.diff(ss)) ** 2)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.concatenate([[True], np.diff(t) > 1e-13])
    bs, ss, t = bs[keep], ss[keep], t[keep]
    n = len(t)
    vb = np.zeros(n)
    vf = np.zeros(n)
    if n >= 2:
        vb[0] = abs(bs[1] - bs[0]) / (t[1] - t[0])
        vf[0] = (ss[1] - ss[0]) / (t[1] - t[0])
        vb[-1] = abs(bs[-1] - bs[-2]) / (t[-1] - t[-2])
        vf[-1] = (ss[-1] - ss[-2]) / (t[-1] - t[-2])
    if n >= 3:
        vb[1:-1] = np.abs(bs[2:] - bs[:-2]) / (t[2:] - t[:-2])
        vf[1:-1] = (ss[2:] - ss[:-2]) / (t[2:] - t[:-2])
    pts = list(zip(bs, ss))
    return GeodesicPolyline(t, pts, base_points=bs, fiber_params=ss,
                            speed_base=vb, speed_fiber=vf, total_length=float(t[-1]))


def clairaut_check(polyline, triple):
    """Clairaut invariant statistics along a warped geodesic polyline.

    c is the median of f^2 * v_F over interior nodes; max_drift is the
    worst deviation of that product from c.  speed_residual is the worst
    violation of the speed identity v_B^2 + (c/f)^2 = a^2 in its squared
    (well-conditioned) form; the square-root form is singular where v_B
    vanishes and would amplify roundoff at the turning point.
    """
    if len(polyline) < 8:
        raise ValueError("polyline must have at least 8 nodes")
    bs = np.asarray(polyline.base_points, float)
    if isinstance(triple.base, spaces.Circle):
        bs = np.mod(bs, triple.base.length)
    f = np.asarray(triple.warp(bs), float)
    vb = np.asarray(polyline.speed_base, float)
    vf = np.asarray(polyline.speed_fiber, float)
    inner = slice(1, -1)
    prod = (f * f * vf)[inner]
    c = float(np.median(prod))
    max_drift = float(np.max(np.abs(prod - c)))
    speed = np.sqrt(vb * vb + (f * vf) ** 2)[inner]
    a = float(np.median(speed))
    fi = f[inner]
    vbi = vb[inner]
    mask = fi > 1e-9
    ident = vbi ** 2 + (c / np.where(mask, fi, 1.0)) ** 2 - a * a
    resid = float(np.max(np.abs(ident[mask]))) if np.any(mask) else 0.0
    return ClairautReport(c, max_drift, resid, a)


def leaf_extrinsic_curvature(triple, p, max_scale, n_scales=6, tol=None):
    """Extrinsic curvature estimate A of the vertical leaf {p} x F.

    Fits (rho - s)/s^3 ~ A^2/24 over a decreasing sequence of leaf
    separations rho, with rho = f(p) * d_F and s the ambient distance.
    """
    fp = float(triple.warp(p))
    if fp <= ZERO_THRESHOLD:
        raise ValueError("need f(p) > 0")
    ratios = []
    for k in range(n_scales):
        rho = max_scale * (0.75 ** k)
        ell = rho / fp
        use_tol = tol if tol is not None else max(1e-8, 1e-3 * rho ** 3)
        s = reduced_distance(triple, p, p, ell, tol=use_tol)
        if s <= 0:
            continue
        ratios.append((rho - s) / s ** 3)
    slope = float(np.mean(ratios)) if ratios else 0.0
    return math.sqrt(24.0 * max(slope, 0.0))


def recover_warp(triple, p, kappa, eps, tol=None):
    """Warping function recovery via the leaf-distance limit."""
    from .model import sn
    fp = float(triple.warp(p))
    if fp <= ZERO_THRESHOLD:
        raise ValueError("need f(p) > 0")
    inj = 0.5 * fp / max(triple.warp.lipschitz, 1e-9)
    if eps > max(0.25 * inj, 1e-6):
        raise ValueError("eps exceeds the injectivity heuristic %g" % (0.25 * inj))
    use_tol = tol if tol is not None else max(1e-9, 1e-3 * eps * fp)
    d_leaf = 0.5 * reduced_distance(triple, p, p, 2.0 * eps, tol=use_tol)
    return float(sn(kappa, d_leaf)) / eps


class GridWarpedOracle(spaces.MetricOracle):
    """MetricOracle over B x_f F backed by clairaut_solve.

    Points are encoded as rows (base coord..., fiber coord...); 1-D
    bases and scalar-coded fibers only.
    """

    def __init__(self, triple, tol=1e-3):
        self.triple = triple
        self.tol = float(tol)
        self.tol_metric = max(1e-9, 2.0 * self.tol)
        # pairs answered by the Clairaut solve
        self.solved = 0

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        fx = self.triple.fiber
        ell = np.asarray(fx.dist_pairs(spaces.fiber_coords(fx, xs[:, 1]),
                                       spaces.fiber_coords(fx, ys[:, 1])), float)
        value = clairaut_solve(self.triple, xs[:, 0], ys[:, 0], ell, tol=self.tol).value
        self.solved += len(ell)
        return value

    def sample(self, n, seed):
        g = spaces.rng(seed)
        lo, hi = domain(self.triple.base)
        bs = lo + (hi - lo) * g.random(n)
        fs = np.asarray(self.triple.fiber.sample(n, seed + 10), float)
        return np.stack([bs, fs], axis=1)

    def geodesic(self, x, y, resolution):
        x = np.asarray(x, float).reshape(2)
        y = np.asarray(y, float).reshape(2)
        return warped_geodesic(self.triple, (x[0], x[1]), (y[0], y[1]),
                               resolution=resolution)

    def __repr__(self):
        t = self.triple
        return "GridWarpedOracle(%r x_{%s} %r, tol=%g)" % (
            t.base, t.warp.expr, t.fiber, self.tol)
