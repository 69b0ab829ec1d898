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
arc split at the kinks of f, read off its expression; the map absorbs
the square-root singularity of a turning point, and of a kink where
f = c.  The roots ell(c) = ell of every family are bracketed on a scan
and refined together, and each value carries an error bar; a pair whose
best candidate's bar exceeds tol / 2 raises ConvergenceError.

A geodesic is the winning curve itself, sampled: each piece of each arc
at the ends of equal cells of theta under the same map, with the fiber
parameter the running sum of the advance integrand at the cell midpoints,
so that no node sits on the 0/0 of a turning point.

On a ModelDisk base with a radial warp f(r), warpcurv.radial does the same
with two conserved constants, a = sn^2 dtheta/dt and c = f^2 ds/dt.
"""

import ast
import functools
import importlib
import math

import numpy as np

from . import spaces
from .spaces import GeodesicPolyline

ZERO_THRESHOLD = 1e-10

# scipy names that nothing here calls; bench/tracer.py hooks them by name as
# warped.minimize, warped.coo_matrix and warped.dijkstra.  They resolve on first
# access, so that importing the package does not load scipy.  This shim goes
# when the benchmark's tracer is re-pointed at the package (ROADMAP item 4).
_SCIPY_NAMES = {"minimize": "scipy.optimize", "coo_matrix": "scipy.sparse",
                "dijkstra": "scipy.sparse.csgraph"}


def __getattr__(name):
    if name not in _SCIPY_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module(_SCIPY_NAMES[name]), name)
    # stored, so that later lookups (and vars(warped)) find it directly
    globals()[name] = value
    return value


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
# the functions a warp expression may call, by their number of arguments
_CALL_ARITY = {name: 2 if name in ("min", "max") else 1
               for name, value in _SAFE_ENV.items() if callable(value)}
# syntax a warp expression may use besides names, numbers and calls by name
_EXPR_NODES = (ast.BinOp, ast.UnaryOp, ast.Compare, ast.operator, ast.unaryop, ast.cmpop,
               ast.Load)


def _compile(body, params):
    """The lambda of params whose value is the expression node body, with
    globals _SAFE_ENV."""
    lam = ast.Expression(ast.Lambda(ast.arguments(
        posonlyargs=[], args=[ast.arg(p) for p in params], kwonlyargs=[], kw_defaults=[],
        defaults=[]), body))
    return eval(compile(ast.fix_missing_locations(lam), "<warp>", "eval"),
                dict(_SAFE_ENV, __builtins__={}))


class WarpFunction:
    """Nonnegative warping function: one expression, with declared Lipschitz data.

    expr is an expression in t on 1-D bases, or in r and theta on disk
    bases (arity 2).  It may hold arithmetic, comparisons, numbers, the
    names t, r, theta and those of _SAFE_ENV, and calls by name of its
    functions: min and max with two arguments, the others with one.  It
    is parsed once, checked and compiled into one lambda whose globals
    are _SAFE_ENV; fn calls it on float arrays, and its value is a fresh
    float array of the shape of its first argument.  zeros is the hinted
    zero set: exact root coordinates for 1-D bases, or the string
    "boundary" for disk bases.

    f is smooth where no argument of an abs, no difference u - v of a
    min or max(u, v) and no difference of two compared sides changes
    sign (Griewank & Walther, Evaluating Derivatives, ch. 14).  On a 1-D
    base switches(x) gives those values at x, one row each; it is None
    when the expression has none.
    """

    def __init__(self, expr, lipschitz, zeros=(), arity=1):
        try:
            tree = ast.parse(expr, "<warp>", mode="eval").body
        except SyntaxError as e:
            raise ValueError("warp expression does not parse: %s" % e)
        names = set()
        # the two sides of each switch
        sides = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in _SAFE_ENV and node.id not in ("t", "r", "theta"):
                    raise ValueError("unknown name in warp expression: %s" % node.id)
                names.add(node.id)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None)
                if node.keywords or _CALL_ARITY.get(name) != len(node.args):
                    raise ValueError("warp expressions call min and max with two arguments and "
                                     "the other functions with one: not %s" % ast.unparse(node))
                if name in ("abs", "min", "max"):
                    sides += (node.args + [ast.Constant(0.0)])[:2]
            elif isinstance(node, ast.Compare):
                for left, right in zip([node.left] + node.comparators, node.comparators):
                    sides += [left, right]
            elif isinstance(node, ast.Constant):
                if type(node.value) not in (int, float):
                    raise ValueError("non-numeric constant in warp expression: %r" % node.value)
            elif not isinstance(node, _EXPR_NODES):
                raise ValueError("%s is not allowed in a warp expression" % type(node).__name__)
        self.expr = expr
        self.lipschitz = float(lipschitz)
        self.zeros = zeros if isinstance(zeros, str) else tuple(float(z) for z in zeros)
        self.arity = int(arity)
        # a disk warp of r alone
        self.radial = arity == 2 and "theta" not in names
        body = _compile(tree, ("t",) if arity == 1 else ("r", "theta"))

        def fn(*coords):
            out = np.asarray(body(*coords), dtype=float)
            shape = np.shape(coords[0])
            if out.shape != shape:
                return np.broadcast_to(out, shape).copy()
            # no call returns a view of its arguments, but "t" returns t itself
            return out.copy() if out is coords[0] or out is coords[-1] else out
        self.fn = fn
        self.switches = None
        if arity == 1 and sides:
            both = _compile(ast.Tuple(sides, ast.Load()), ("t",))

            def switches(x):
                v = [np.asarray(s, dtype=float) for s in both(x)]
                return np.stack([np.broadcast_to(u - w, np.shape(x))
                                 for u, w in zip(v[::2], v[1::2])])
            self.switches = switches

    def __call__(self, *coords):
        out = np.asarray(self.fn(*[np.asarray(c, dtype=float) for c in coords]), dtype=float)
        return out if out.ndim else float(out)

    @classmethod
    def from_expression(cls, expr, lipschitz, zeros=(), arity=1):
        """WarpFunction(expr, lipschitz, zeros, arity), the name that specs build by."""
        return cls(expr, lipschitz, zeros=zeros, arity=arity)

    @classmethod
    def constant(cls, c):
        c = float(c)
        if c < 0:
            raise ValueError("warping function must be nonnegative")
        return cls("%r" % c, 0.0)

    @classmethod
    def linear(cls, a=1.0):
        a = float(a)
        return cls("%r*t" % a, abs(a), zeros=(0.0,))

    @classmethod
    def sin(cls):
        return cls("sin(t)", 1.0, zeros=(0.0, math.pi))

    @classmethod
    def abs_t(cls):
        return cls("abs(t)", 1.0, zeros=(0.0,))

    def compose(self, inner, zeros=()):
        """f(inner) as a warp of t, inner an expression in t that replaces t
        (r, for a radial disk warp) in the syntax tree of f.  It keeps the
        Lipschitz constant of f, so inner must be 1-Lipschitz."""
        tree = ast.parse(self.expr, "<warp>", mode="eval").body
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == ("t" if self.arity == 1 else "r"):
                # unparsed as it stands: inner, in parentheses
                node.id = "(%s)" % inner
        return WarpFunction(ast.unparse(tree), self.lipschitz, zeros=zeros)


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
        difference quotient of f on the validation grid.  On a circle f(L)
        must be f(0) within 1e-9 max(1, |f(0)|), as 0 and L are one point.
        Any other base raises ValueError.
        """
        if not _one_dim(self.base):
            raise ValueError("hints are checked on 1-D bases only, not on %r" % (self.base,))
        if isinstance(self.base, spaces.Circle):
            f0, f1 = self.warp(0.0), self.warp(self.base.length)
            if abs(f1 - f0) > 1e-9 * max(1.0, abs(f0)):
                raise ValueError("the warp jumps at the seam of %r: f(0) = %.12g, f(L) = %.12g"
                                 % (self.base, f0, f1))
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
    ZERO_THRESHOLD, at most 64 on a disk.  On a 1-D scan, each interior
    dip no higher than the declared Lipschitz constant times the spacing
    is zoomed by _argmin_zoom, and its minimum is a root where it is below
    ZERO_THRESHOLD; the roots stay sorted.  A scan that finds roots
    without hints adds its warning to the list warn, once.  profile is
    the scan (points, values), warp_profile on the window when omitted.
    """
    hints = f.zeros
    if hints == "boundary":
        return "boundary", None
    if lo is None:
        lo, hi = domain(base)
    disk = isinstance(base, spaces.ModelDisk)
    if hints and not disk:
        return "points", [z for z in hints if lo - 1e-12 <= z <= hi + 1e-12]
    pts, vals = profile if profile is not None else warp_profile(f, base, lo=lo, hi=hi)
    low = vals < ZERO_THRESHOLD
    roots = list(pts[low])
    if disk:
        roots = roots[:64]
    else:
        mid, left, right = vals[1:-1], vals[:-2], vals[2:]
        dip = np.flatnonzero((mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
                             & (mid <= f.lipschitz * (pts[1] - pts[0])) & ~low[1:-1]) + 1
        if len(dip):
            x, fx = _argmin_zoom(f, pts[dip - 1], pts[dip + 1])
            roots = sorted(roots + list(x[fx < ZERO_THRESHOLD]))
    msg = "zero set detected by thresholding f < %g without a hint" % ZERO_THRESHOLD
    if roots and not hints and warn is not None and msg not in warn:
        warn.append(msg)
    return "points", roots


def zero_runs(roots, base):
    """First and last roots of each run of sorted scanned roots of f on base.

    Neighbours at most 1.5 scan spacings apart share a run, so an isolated
    root is a run of one; a run across a circle's seam is not joined.
    """
    zs = np.asarray(roots, float)
    lo, hi = domain(base)
    cut = np.diff(zs) > 1.5 * (hi - lo) / (SCAN_POINTS - 1)
    first, last = np.ones(len(zs), bool), np.ones(len(zs), bool)
    first[1:], last[:-1] = cut, cut
    return zs[first], zs[last]


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


def _geodesic_nodes(ell, tol):
    """Node count of a geodesic polyline: its length error then stays below tol."""
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
# an arc is not split at a kink closer than this many scan spacings to its ends
KINK_GAP = 1e-6
# relative difference of the one-sided slopes at a circle's seam that makes
# it a kink
SEAM_SLACK = 1e-6


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
    """f on arrays of base coordinates, unwrapped coordinates taken mod L on a
    circle; it calls the warp's function directly, as the arrays are float."""
    fn, base = triple.warp.fn, triple.base
    if isinstance(base, spaces.Circle):
        return lambda x: np.asarray(fn(np.mod(x, base.length)), float)
    return lambda x: np.asarray(fn(x), float)


def _arc_terms(feval, xstar, c, x_lo, x_hi, kinks, gap, n=CLAIRAUT_NODES):
    """Piece ends, of shape (len(c), 2, P + 1), and per-node fiber advance and
    length terms, of shape (len(c), 2, P n), of the Clairaut arcs from x* to
    x_lo and to x_hi.

    kinks, one row of positions per arc pair (nan-padded), splits each arc
    at the kinks strictly inside it, more than gap from its ends, into
    pieces of n nodes, ordered from x* outward; P is the most pieces of
    any arc, and an arc with fewer ends in pieces of length 0.
    """
    u, w = _cos_map_rule(n)
    ends = np.stack([x_lo, x_hi], axis=1)[:, :, None]
    x0 = xstar[:, None, None]
    cuts = [np.broadcast_to(x0, ends.shape)]
    if kinks.shape[1]:
        k = kinks[:, None, :]
        inside = ((k - x0) * (k - ends) < 0) & (np.abs(k - x0) > gap) & (np.abs(k - ends) > gap)
        order = np.argsort(np.where(inside, np.abs(k - x0), math.inf), axis=2)
        inside = np.take_along_axis(inside, order, axis=2)
        m = int(inside.sum(axis=2).max(initial=0))
        k = np.take_along_axis(np.broadcast_to(k, inside.shape), order, axis=2)
        cuts.append(np.where(inside, k, ends)[:, :, :m])
    cuts = np.concatenate(cuts + [ends], axis=2)
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
    return cuts, advance.reshape(shape), length.reshape(shape)


def _arcs(feval, xstar, c, x_lo, x_hi, kinks, gap, n=CLAIRAUT_NODES):
    """Fiber advance and length of the Clairaut arcs from x* to x_lo and to x_hi.

    An arc with constant c advances ell = int c db / (f sqrt(f^2 - c^2))
    along the fiber and has length L = int f db / sqrt(f^2 - c^2).  Both
    are inf where f <= c inside an arc, or at an end that is no simple
    turning point.  The sum runs piece by piece, both arcs' j-th pieces
    together, so that pieces of length 0 leave a row's value unchanged.
    """
    sums = []
    for terms in _arc_terms(feval, xstar, c, x_lo, x_hi, kinks, gap, n)[1:]:
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


def _illinois(evaluate, a, b, goal):
    """Regula falsi with the Illinois rule on every bracket at once.

    a and b are lists [p, h, c, L] of arrays at the two ends of each
    bracket, h = ell(p) - ell of opposite signs (inf counts as positive).
    evaluate(p, rows) gives (h, c, L) at parameters p of the given rows.
    A bracket stops once |c_a - c_b| * min(|h_a|, |h_b|), which bounds
    the error of the linearised value at the better end, is at most goal;
    while an end has an infinite h the step bisects.  At most 100 steps.
    """
    wa, wb = a[1].copy(), b[1].copy()
    last = np.zeros(len(a[0]), int)
    for _ in range(100):
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


class _Profile:
    """The scan profile f(lo + i h), i < n, in blocks with their minima.

    values holds the profile, twice around on a circle so that every scan
    of less than a full turn is one index range of it.  It is cut into
    blocks of about sqrt(len(values)) points, and a scan reads only the
    blocks that hold a value below its starting minimum: no other block
    can hold a record or lower the running minimum.
    """

    def __init__(self, prof, periodic):
        self.n = len(prof)
        self.values = np.concatenate([prof, prof]) if periodic else prof
        size = len(self.values)
        self.width = w = 2 ** ((size.bit_length() + 1) // 2)
        # padded is values, +inf on to whole blocks; block_min[b] is the
        # least value of block b
        self.padded = np.full(-(-size // w) * w, math.inf)
        self.padded[:size] = self.values
        self.block_min = self.padded.reshape(-1, w).min(axis=1)

    def records(self, u0, step, count, m):
        """Running-minimum records of the scans u0, u0 + step, ... of count[k]
        indices of values each.

        A record of scan k falls below m[k] and every earlier value of its
        scan by more than a relative 1e-12, so the roundoff of f on a flat
        stretch makes none, and has f > 0.  Returns the scan and the
        position in it of every record, scan by scan, each in scan order.
        """
        w, nb = self.width, len(self.block_min)
        # the j-th block of each scan in scan order, kept where its least
        # value is below m
        blocks = (u0 // w)[:, None] + step[:, None] * np.arange(nb)
        last = (u0 + step * (count - 1)) // w
        kept = ((step[:, None] * (last[:, None] - blocks) >= 0) & (count > 0)[:, None]
                & (self.block_min[np.clip(blocks, 0, nb - 1)] < m[:, None]))
        run, j = np.nonzero(kept)
        if not len(run):
            return run, run
        s = step[run][:, None]
        idx = np.where(s > 0, 0, w - 1) + blocks[run, j][:, None] * w + s * np.arange(w)
        pos = s * (idx - u0[run][:, None])
        vals = np.where((pos >= 0) & (pos < count[run][:, None]), self.padded[idx], math.inf)
        # the least value before each point: m and the kept blocks before
        # its own (a table of block minima, one row per scan), then the
        # points before it in its block
        table = np.full((len(u0), nb + 1), math.inf)
        table[:, 0] = m
        table[run, j + 1] = vals.min(axis=1)
        carry = np.minimum.accumulate(table, axis=1)[run, j]
        prev = np.minimum.accumulate(np.concatenate([carry[:, None], vals[:, :-1]], axis=1), axis=1)
        row, col = np.nonzero((vals < prev - 1e-12 * np.abs(prev)) & (vals > ZERO_THRESHOLD))
        return run[row], pos[row, col]


def _argmin_zoom(feval, lo, hi):
    """Minimum of f on each segment from lo to hi, by 12 zooms on a 17-point grid.

    Each pass keeps the first grid point from lo within a relative 1e-12
    of the least value, and its neighbours: the bracket narrows 8-fold, so
    the zoom pins a kink to about 1e-11 of |hi - lo|, well inside the
    first node of a ride's arcs, and a flat bottom to its end nearest lo.
    """
    r = np.arange(len(lo))
    for _ in range(12):
        xs = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 17)
        fx = feval(xs)
        j = np.argmax(fx <= fx.min(axis=1, keepdims=True) * (1.0 + 1e-12), axis=1)
        lo, hi = xs[r, np.maximum(j - 1, 0)], xs[r, np.minimum(j + 1, 16)]
    return xs[r, j], fx[r, j]


def _crossing(feval, above, below, level):
    """48 bisection steps between above (f >= level) and below (f < level):
    the last ends below and above."""
    for _ in range(48):
        mid = 0.5 * (above + below)
        low = feval(mid) < level
        below = np.where(low, mid, below)
        above = np.where(low, above, mid)
    return below, above


@functools.lru_cache(maxsize=64)
def _switch_roots(warp, lo, h, n):
    """Kinks of the warp on the grid lo + i h, i < n: each sign change of a
    switch (see WarpFunction) between neighbouring grid points, bisected by
    _crossing to the end of its last bracket where the switch is nearer 0;
    sorted, without repeats.  Cached, as every solve on the grid needs them."""
    if warp.switches is None:
        return np.empty(0)
    x = lo + h * np.arange(n)
    below = warp.switches(x) < 0
    k, i = np.nonzero(below[:, 1:] != below[:, :-1])
    if not len(k):
        return np.empty(0)
    cols = np.arange(len(k))

    def switch(y):
        return warp.switches(y)[k, cols]
    lo_below = below[k, i]
    b, a = _crossing(switch, np.where(lo_below, x[i + 1], x[i]),
                     np.where(lo_below, x[i], x[i + 1]), 0.0)
    return np.unique(np.where(np.abs(switch(a)) < np.abs(switch(b)), a, b))


def _eval_f(f, base, pts):
    """Evaluate a warp function on base points of either arity."""
    pts = np.asarray(pts, dtype=float)
    if f.arity == 2 or isinstance(base, spaces.ModelDisk):
        pts = pts.reshape(-1, 2)
        return np.asarray(f(pts[:, 0], pts[:, 1]), float)
    return np.asarray(f(pts), float)


def _one_sided_derivative(f, base, p, step, h0):
    """One-sided derivative of f at p along a step map h -> base point: the
    first-order Richardson extrapolation 2 D(h0 / 64) - D(h0 / 32) of the
    difference quotients D(h) = (f(step(h)) - f(p)) / h."""
    f0 = float(_eval_f(f, base, [np.asarray(p, float)])[0])
    d = [(float(_eval_f(f, base, [np.asarray(step(h), float)])[0]) - f0) / h
         for h in (h0 / 32.0, h0 / 64.0)]
    return 2.0 * d[1] - d[0]


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


class _Winners:
    """The winner sequence of clairaut_solve, each tuple built on access
    from its pair's kind code (an index into NAMES) and arguments."""

    NAMES = ("base", "z", "leaf", "arc")
    ARITY = (0, 1, 1, 5)

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args

    def __len__(self):
        return len(self.kind)

    def __getitem__(self, i):
        k = self.kind[i]
        return (self.NAMES[k],) + tuple(self.args[i, :self.ARITY[k]].tolist())

    def __repr__(self):
        return repr([self[i] for i in range(len(self))])


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
    at the kinks of f (_scan_levels).  Each family is
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
    # winners as kind codes of _Winners and their arguments, one row per pair
    kind = np.where((ell > 0) & (np.minimum(fp, fq) <= ZERO_THRESHOLD), 1, 0)
    args = np.zeros((len(bp), 5))
    args[:, 0] = np.where(fp <= ZERO_THRESHOLD, bp, bq)
    live = np.flatnonzero((ell > 0) & (fp > ZERO_THRESHOLD) & (fq > ZERO_THRESHOLD))
    lo = domain(base)[0]
    for sub, hk, reach, zeros, kinks, scan in _scan_levels(triple, feval, bp[live], bq[live],
                                                           ell[live]):
        sub = live[sub]
        for s in range(0, len(sub), CLAIRAUT_CHUNK):
            chunk = slice(s, s + CLAIRAUT_CHUNK)
            _solve_chunk(triple, feval, scan, lo, hk, zeros, kinks[chunk], sub[chunk], bp, bq,
                         ell, d_base, reach[chunk], tol, value, kind, args)
    return ClairautSolution(value, _Winners(kind, args))


def _scan_levels(triple, feval, bp, bq, ell):
    """Per scan level of the pairs (bp, bq, ell): its pairs' indices, grid
    spacing h, their _window ends, the zeros of f, the kinks that split
    their arcs (a nan-padded row per pair) and its _Profile.

    The profile is f on lo + i h, extended on a Ray to every pair's window
    and periodic on a circle; a Ray window of more than RAY_SCAN_CAP points
    is scanned at h 2^k, k the least that fits.  The kinks are the
    _switch_roots of the warp on that grid (on a circle through lo + L),
    on a Ray those inside the pair's window.  A circle's seam is a kink
    where the one-sided slopes of f at 0 and L differ by more than
    SEAM_SLACK (1 + |f'(0)| + |f'(L)|); the kinks are copied around the
    unwrapped circle.
    """
    base = triple.base
    circle = isinstance(base, spaces.Circle)
    lo, hi = domain(base)
    h = (hi - lo) / (SCAN_POINTS - 1)
    reach = np.broadcast_to(_window(triple, bp, bq, ell)[1], bp.shape)
    level = np.zeros(len(bp), int)
    if isinstance(base, spaces.Ray):
        while True:
            over = np.ceil((reach - lo) / (h * 2.0 ** level)) >= RAY_SCAN_CAP
            if not over.any():
                break
            level += over
    for k in np.unique(level):
        pairs, hk = np.flatnonzero(level == k), h * 2.0 ** k
        count = SCAN_POINTS
        if circle:
            count -= 1
        elif isinstance(base, spaces.Ray):
            count = max(count, int(math.ceil(float(np.max(reach[pairs])) / hk)) + 1)
        grid_pts = lo + hk * np.arange(count)
        prof = feval(grid_pts)
        zeros = np.asarray(zero_set(triple.warp, base, lo, grid_pts[-1], warn=triple.warnings,
                                    profile=(grid_pts, prof))[1] or [], float)
        kx = _switch_roots(triple.warp, lo, hk, count + circle)
        if circle:
            L = base.length
            d0 = _one_sided_derivative(triple.warp, base, 0.0, lambda s: s, hk)
            dL = -_one_sided_derivative(triple.warp, base, L, lambda s: L - s, hk)
            if abs(d0 - dL) > SEAM_SLACK * (1.0 + abs(d0) + abs(dL)):
                kx = np.append(kx, 0.0)
            kx = (kx + L * np.arange(-3, 4)[:, None]).ravel()
        kinks = np.broadcast_to(kx, (len(pairs), len(kx)))
        if isinstance(base, spaces.Ray):
            kinks = np.where(kinks <= reach[pairs, None], kinks, math.nan)
        yield pairs, hk, reach[pairs], zeros, kinks, _Profile(prof, circle)


def _arc_minimum(feval, scan, lo, h, x_lo, x_hi):
    """Where f is least on each [x_lo, x_hi], that least value, f(x_lo), f(x_hi).

    The minimum is at the lower end, or at the first of the lowest scan
    points inside refined by _argmin_zoom; the points inside all arcs are
    read in one pass, one row per arc.
    """
    f_lo, f_hi = feval(x_lo), feval(x_hi)
    xm, m = np.where(f_lo <= f_hi, x_lo, x_hi), np.minimum(f_lo, f_hi)
    first = np.floor((x_lo - lo) / h).astype(int) + 1
    count = np.ceil((x_hi - lo) / h).astype(int) - first
    gi = first[:, None] + np.arange(max(int(count.max(initial=0)), 1))
    vals = np.where(gi - first[:, None] < count[:, None], scan.values[gi % scan.n], math.inf)
    least = vals.min(axis=1)
    ks = np.flatnonzero(least < m)
    if len(ks):
        g = lo + (first + np.argmax(vals == least[:, None], axis=1))[ks] * h
        x, fx = _argmin_zoom(feval, np.maximum(g - h, x_lo[ks]), np.minimum(g + h, x_hi[ks]))
        lower = fx < m[ks]
        xm[ks[lower]], m[ks[lower]] = x[lower], fx[lower]
    return xm, m, f_lo, f_hi


def _solve_chunk(triple, feval, scan, lo, h, zeros, kinks, rows, bp, bq, ell, d_base,
                 reach, tol, value, kind, args):
    """clairaut_solve on the pairs rows; fills value, kind and args there.

    scan, zeros, kinks (the rows of these pairs) and reach (the
    upper end of each pair's _window, where a Ray's scans and zeros stop)
    are those of their _scan_levels.  The scan nodes of every family of every
    problem are built in array passes over all problems at once; the
    outward scans read only the blocks of the profile where a record can
    lie (_Profile.records).
    """
    base = triple.base
    circle = isinstance(base, spaces.Circle)
    npair, n = len(rows), scan.n
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

    xm, m, f_lo, f_hi = _arc_minimum(feval, scan, lo, h, x_lo, x_hi)
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
    kinks = kinks[pair]

    # outward scans: scan 2k + side of problem k reads the grid indices
    # first, first + step, ..., last, down from x_lo (side 0) or up from
    # x_hi (side 1); u0 is its first index of scan.values
    step = np.tile([-1, 1], len(pair))
    g0 = np.stack(first, axis=1).ravel()
    count = np.maximum((np.stack(last, axis=1).ravel() - g0) * step + 1, 0)
    u0 = g0 % n + np.where(step < 0, n, 0) if circle else g0
    # records, and the stretches of adjacent records, each a family of
    # turning points, by scan and outward: s0 and s1 index their first and
    # last records, r0..r1 their positions in their scan
    rrun, rpos = scan.records(u0, step, count, np.repeat(m, 2))
    opens = np.ones(len(rrun), dtype=bool)
    opens[1:] = (rrun[1:] != rrun[:-1]) | (rpos[1:] - rpos[:-1] > 1)
    s0 = np.flatnonzero(opens)
    s1 = np.flatnonzero(np.append(opens[1:], len(rrun) > 0))
    srun = rrun[s0]
    s = step[srun]
    r0, r1 = rpos[s0], rpos[s1]
    ns = len(srun)
    sprob, side = srun // 2, srun % 2
    leading = np.ones(ns, dtype=bool)
    leading[1:] = srun[1:] != srun[:-1]
    # nodes of a stretch: its head, then its picks in order: its ends and
    # those of the CLAIRAUT_SCAN records of its scan, clustered at the
    # scan's start e, that it holds
    ranks = (np.arange(CLAIRAUT_SCAN) / CLAIRAUT_SCAN) ** 2
    nrec = np.bincount(rrun, minlength=len(count))
    scanned = np.flatnonzero(nrec)
    pick = np.zeros(len(rrun), dtype=bool)
    pick[(np.searchsorted(rrun, scanned)[:, None]
          + (nrec[scanned, None] * ranks).astype(int)).ravel()] = True
    pick[s0] = pick[s1] = True
    picks = np.flatnonzero(pick)
    pick_st, pick_r = np.searchsorted(s0, picks, side="right") - 1, rpos[picks]
    # a stretch starts where f falls to the minimum before it: m at e
    # itself, or at a crossing found by bisection below the grid point
    # before its first record (e for the first point of a scan)
    e = np.where(side == 0, x_lo[sprob], x_hi[sprob])
    head = np.where(r0 == 0, e, lo + (g0[srun] + s * (r0 - 1)) * h)
    fe = np.where(side == 0, f_lo[sprob], f_hi[sprob])
    crossed = np.flatnonzero(~(leading & (r0 == 0) & (fe <= m[sprob])))
    leaf_ok = np.zeros(npair, dtype=bool)
    adjacent = np.zeros(len(pair), dtype=bool)
    adjacent[sprob[leading & (r0 == 0)]] = True
    leaf_ok[pair[(x_hi == x_lo) & ~adjacent]] = True      # f has a local minimum at bp = bq

    # scan nodes: (problem, segment, turning?, parameter, limit?), ordered by
    # problem, then the monotone family and the stretches outward, side 0
    # first; a bracket needs two consecutive nodes of one segment, and the
    # last node of a segment is the family's limit
    c_scan = np.sin(0.5 * math.pi * np.arange(CLAIRAUT_SCAN + 1) / CLAIRAUT_SCAN)
    mono = np.flatnonzero((x_hi > x_lo) & (m > ZERO_THRESHOLD))
    nm = len(mono) * len(c_scan)
    prob = np.concatenate([np.repeat(mono, len(c_scan)), sprob, sprob[pick_st]])
    stretch = np.concatenate([np.zeros(nm, int), np.arange(ns), pick_st])
    sub = np.concatenate([np.tile(np.arange(len(c_scan)), len(mono)), np.full(ns, -1), pick_r])
    turn = np.arange(len(prob)) >= nm
    ordered = np.lexsort((sub, stretch, turn, prob))
    slot = np.empty_like(ordered)
    slot[ordered] = np.arange(len(ordered))
    prob, turn = prob[ordered], turn[ordered]
    p = np.concatenate([(m[mono, None] * c_scan).ravel(), head,
                        lo + (g0[srun][pick_st] + s[pick_st] * pick_r) * h])[ordered]
    limit = np.concatenate([sub[:nm] == CLAIRAUT_SCAN, np.zeros(ns, bool),
                            pick_r == r1[pick_st]])[ordered]
    node_seg = np.cumsum(np.concatenate([sub[:nm] == 0, np.ones(ns, bool),
                                         np.zeros(len(picks), bool)])[ordered])
    if len(crossed):
        end_u = (u0[srun] + s * r1)[crossed - 1]
        level = np.where(leading[crossed], m[sprob[crossed]], scan.values[end_u])
        p[slot[nm + crossed]] = _crossing(feval, head[crossed],
                                          lo + (g0[srun] + s * r0)[crossed] * h, level)[0]
    if ns:
        # a stretch ends at a boundary leaf (an Interval's ends, a Ray's 0),
        # or else at the minimum of f within one grid step of its last
        # record, nearest e (a flat bottom is ridden at its near end),
        # unless f vanishes there
        g = g0[srun] + s * r1
        tail = np.full(ns, math.nan)
        if not circle:
            tail[g == 0] = lo
        if isinstance(base, spaces.Interval):
            tail[g == n - 1] = base.b
        free = np.flatnonzero(np.isnan(tail))
        x, fx = _argmin_zoom(feval, lo + (g - s)[free] * h, lo + (g + s)[free] * h)
        tail[free] = np.where(fx > ZERO_THRESHOLD, x, lo + g[free] * h)
        p[slot[nm + ns + np.searchsorted(picks, s1)]] = tail

    def evaluate(q, turn_q, prob_q, nodes=CLAIRAUT_NODES):
        x, c = _family_point(feval, q, turn_q, xm[prob_q])
        adv, length = _arcs(feval, x, c, x_lo[prob_q], x_hi[prob_q], kinks[prob_q],
                            KINK_GAP * h, nodes)
        return adv - target[prob_q], c, length

    def group(i, val, err, code, *wargs):
        """Candidates of the pairs i: values, error bars, winner kind codes
        of _Winners and winner arguments."""
        padded = np.zeros((len(i), 5))
        padded[:, :len(wargs)] = np.stack(wargs, axis=1)
        return i, val, np.broadcast_to(err, len(i)), np.full(len(i), code), padded

    groups = []
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
        # L + c (ell - ell(c)), and ride the ell - ell(c) that this charges
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
        nb = len(br)
        err[:nb] += np.abs(a[2] - b[2]) * np.abs(hq[:nb])
        # a root's ride is what its end falls short of ell, 0 where the end
        # overshoots or c * ride is within the root's error bar; where ell(c)
        # jumps across the bracket (arcs turning at a maximum of f) it is the
        # rest of ell
        ride = -h2
        with np.errstate(invalid="ignore"):
            bar = err[:nb] + CLAIRAUT_FLOOR * np.maximum(1.0, np.abs(est[:nb]))
            ride[:nb][~(cq[:nb] * ride[:nb] > bar)] = 0.0
        # a ride that twice the nodes do not confirm leaves its family's
        # limit, and the pair, unresolved
        ok = ride >= 0
        broken[pair[prob_q[~ok]]] = True
        x = np.where(turn_q, q, xm[prob_q])
        keep = ok & np.isfinite(est)
        groups.append(group(pair[prob_q][keep], est[keep], err[keep], 3, start[prob_q][keep],
                            end[prob_q][keep], x[keep], cq[keep], ride[keep]))
    cand_solves = len(groups[0][0]) if groups else 0
    # through a zero, and the leaf path over the endpoint with the smaller f
    b0, b1, ell_r = bp[rows], bq[rows], ell[rows]
    f0, f1 = feval(b0), feval(b1)
    leaf = d_base[rows] + np.minimum(f0, f1) * ell_r
    groups.append(group(np.arange(npair), leaf, 0.0, 2, np.where(f0 <= f1, b0, b1)))
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
        i = np.flatnonzero(usable)
        groups.append(group(i, via[i, jz[i]], 0.0, 1, zeros[jz[i]]))
    cp, cval, cerr, ckind, cargs = (np.concatenate(c) for c in zip(*groups))
    cp, cval, best, worst, best_of = _contest(cp, cval, cerr, npair)
    # a pair is solved when a Clairaut family, a zero or an exact leaf
    # (f has a local minimum at bp = bq) gives a candidate, every family
    # that falls short of ell rides at its limit, and no candidate within
    # its error bar of the best has a bar above tol / 2
    solves = leaf_ok | usable
    solves[cp[:cand_solves]] = True
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
    value[rows] = cval[best_of]
    kind[rows] = ckind[best_of]
    args[rows] = cargs[best_of]


def _contest(cp, cval, cerr, npair):
    """Candidates of pairs 0..npair - 1, as their pairs, values and error
    bars: those pairs and values, each pair's best value, the largest bar
    of the candidates whose bar reaches that best (every bar plus the
    floating-point floor), and the index of each pair's best candidate."""
    cp = np.asarray(cp, int)
    cval = np.asarray(cval, float)
    cerr = np.asarray(cerr, float) + CLAIRAUT_FLOOR * np.maximum(1.0, np.abs(cval))
    best = np.full(npair, math.inf)
    np.minimum.at(best, cp, cval)
    contest = cval - cerr <= best[cp]
    worst = np.zeros(npair)
    np.maximum.at(worst, cp[contest], cerr[contest])
    order = np.lexsort((cval, cp))
    best_of = order[np.minimum(np.searchsorted(cp[order], np.arange(npair)), len(cp) - 1)]
    return cp, cval, best, worst, best_of


def reduced_distance(triple, bp, bq, ell, tol=1e-3):
    """Distance in B x_f [0, ell] from (bp, 0) to (bq, ell).

    One pair of clairaut_solve on 1-D bases, of radial.radial_solve on a disk.
    """
    if _one_dim(triple.base):
        return float(clairaut_solve(triple, bp, bq, ell, tol=tol).value[0])
    # imported on first use: only disk bases need it, and the package import
    # should not pay for compiling it
    from .radial import radial_solve
    return float(radial_solve(triple, bp, bq, ell, tol=tol).value[0])


def warped_distance(triple, u, v, tol=1e-3):
    """Distance in B x_f F between warped points u and v."""
    u = as_warped_point(u)
    v = as_warped_point(v)
    ell = float(triple.fiber.distance(u.fiber, v.fiber))
    return reduced_distance(triple, u.base, v.base, ell, tol=tol)


def _arc_path(feval, start, end, x, c, ride, ell, kinks, gap, n):
    """Polyline (b, s) along the Clairaut arcs start -> x -> end, split at the
    kinks as clairaut_solve splits them, riding the leaf over x for a fiber
    length ride; s is rescaled to end at ell.

    Each piece p0 -> p1 of an arc, and the ride, gets a share of the n cells
    in proportion to its fiber advance (as a grid even in s would), rounded
    up.  A piece's nodes are the ends of its cells of equal theta under b =
    p0 + (p1 - p0)(1 - cos theta) / 2, and s is the running sum of the
    advance integrand c / (f sqrt(f^2 - c^2)) db/dtheta at the cell
    midpoints.
    """
    cuts, advance, _ = _arc_terms(feval, np.array([x]), np.array([c]), np.array([start]),
                                  np.array([end]), kinks, gap)
    p0, p1 = cuts[0, :, :-1].ravel(), cuts[0, :, 1:].ravel()
    advance = advance[0].reshape(len(p0), CLAIRAUT_NODES).sum(axis=1)
    total = np.sum(advance) + ride
    if not total > 0:
        # arcs that never leave x, with a ride within the value's error bar
        ride = total = ell
    cells = np.ceil(n * advance / total).astype(int)
    piece = np.repeat(np.arange(len(p0)), cells)
    k = np.arange(len(piece)) - np.repeat(np.cumsum(cells) - cells, cells)
    m, span = cells[piece], (p1 - p0)[piece]
    # theta at the cell ends and midpoints
    theta = math.pi * (k + np.array([[1.0], [0.5]])) / m
    b, mid = p0[piece] + span * 0.5 * (1.0 - np.cos(theta))
    b = np.where(k + 1 == m, p1[piece], b)
    f = feval(mid)
    ds = c / (f * np.sqrt((f - c) * (f + c))) * np.abs(span) * 0.5 * np.sin(theta[1]) * math.pi / m
    # the arc from start to x, the ride, and the arc on to end
    back = piece < len(p0) // 2
    s0, nr = np.cumsum(np.append(0.0, ds[back][::-1])), int(math.ceil(n * ride / total))
    bs = np.concatenate([b[back][::-1], np.full(nr + 1, x), b[~back]])
    ss = np.concatenate([s0[:-1], s0[-1] + np.linspace(0.0, ride, nr + 1),
                         s0[-1] + ride + np.cumsum(ds[~back])])
    return bs, ss * (ell / ss[-1])


def warped_geodesic(triple, u, v, resolution=1e-3):
    """Geodesic along the curve that realises the distance, as a GeodesicPolyline.

    A Clairaut-arc winner is sampled on about _geodesic_nodes(ell,
    resolution) nodes (_arc_path); a through-Z, leaf or base path is the
    leaf path over its point, sampled at spacing resolution.
    """
    u = as_warped_point(u)
    v = as_warped_point(v)
    if not _one_dim(triple.base):
        raise ValueError("geodesic extraction supports 1-D bases only")
    ell = float(triple.fiber.distance(u.fiber, v.fiber))
    bp, bq = float(u.base), float(v.base)
    win = clairaut_solve(triple, bp, bq, ell, tol=resolution).winner[0]
    if win[0] == "arc":
        feval = _feval(triple)
        (_, h, _, _, kinks, _), = _scan_levels(triple, feval, np.array([bp]), np.array([bq]),
                                               np.array([ell]))
        bs, ss = _arc_path(feval, *win[1:], ell, kinks, KINK_GAP * h,
                           _geodesic_nodes(ell, resolution))
    else:
        # the base to the zero or leaf point b, the fiber advance there (no
        # length at a zero), then the base to bq
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


def leaf_extrinsic_curvature(triple, p, max_scale):
    """Extrinsic curvature estimate A of the vertical leaf {p} x F.

    Fits (rho - s)/s^3 ~ A^2/24 over six leaf separations rho =
    max_scale 0.75^k, with rho = f(p) * d_F and s the ambient distance at
    tol 1e-3 rho^3 (at least 1e-8).
    """
    fp = float(triple.warp(p))
    if fp <= ZERO_THRESHOLD:
        raise ValueError("need f(p) > 0")
    ratios = []
    for k in range(6):
        rho = max_scale * (0.75 ** k)
        s = reduced_distance(triple, p, p, rho / fp, tol=max(1e-8, 1e-3 * rho ** 3))
        if s <= 0:
            continue
        ratios.append((rho - s) / s ** 3)
    slope = float(np.mean(ratios)) if ratios else 0.0
    return math.sqrt(24.0 * max(slope, 0.0))


def recover_warp(triple, p, kappa, eps):
    """Warping function recovery via the leaf-distance limit."""
    from .model import sn
    fp = float(triple.warp(p))
    if fp <= ZERO_THRESHOLD:
        raise ValueError("need f(p) > 0")
    inj = 0.5 * fp / max(triple.warp.lipschitz, 1e-9)
    if eps > max(0.25 * inj, 1e-6):
        raise ValueError("eps exceeds the injectivity heuristic %g" % (0.25 * inj))
    d_leaf = 0.5 * reduced_distance(triple, p, p, 2.0 * eps, tol=max(1e-9, 1e-3 * eps * fp))
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
