"""Warped products B x_f F as metric oracles.

Distances minimize the warped length functional: by fiber independence
every query reduces to an interval fiber [0, ell] with ell the fiber
distance of the endpoints.  The engine runs Dijkstra on a product grid
whose edge weights follow the partition-sum rule (Cartesian chord with
the min of f over the base segment; pure base length when that min is
0), competes against the through-Z candidate, then polishes the
backtracked path variationally as a graph b(s) over the fiber
parameter.  Grids are refined until successive values agree.

The polish minimizes the discrete length
E(b) = sum_k sqrt((b_{k+1} - b_k)^2 + (f(m_k) ds)^2) over the interior
nodes by trust-region Newton: the Hessian of E is tridiagonal, so each
step is one banded solve, and a polish takes a few to a few dozen
steps.  f' and f'' at the midpoints m_k come from central differences.
A base bound where f vanishes is a pole of the polar-like coordinates
(b, s); steps across it are reflected instead of clipped, since E has a
kink on {f = 0} where a clipped path would stall.
"""

import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import OptimizeResult, minimize
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from . import spaces
from .spaces import GeodesicPolyline

ZERO_THRESHOLD = 1e-10


class ConvergenceError(RuntimeError):
    """Grid refinement did not converge; carries the value bracket."""

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

    def derivative(self, t, h=1e-6):
        """Central-difference derivative (1-D bases)."""
        return (self(np.asarray(t) + h) - self(np.asarray(t) - h)) / (2.0 * h)

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
        lo, hi = self.domain()
        ts = np.linspace(lo, hi, 2049)
        vals = self.warp(ts)
        if np.min(vals) < -1e-9:
            raise ValueError("warping function is negative on the base")
        if np.max(vals) <= ZERO_THRESHOLD:
            raise ValueError("warping function vanishes identically (Z = B)")

    def domain(self):
        """Bounded sampling window of the base coordinate (1-D bases)."""
        b = self.base
        if isinstance(b, spaces.Interval):
            return b.a, b.b
        if isinstance(b, spaces.Ray):
            return 0.0, b.sample_extent
        if isinstance(b, spaces.Circle):
            return 0.0, b.length
        if isinstance(b, spaces.ModelDisk):
            return 0.0, b.radius
        raise ValueError("unsupported base kind: %r" % b)

    def zeros_in(self, lo, hi):
        """In-window roots of f, from hints when available."""
        if self.warp.zeros == "boundary":
            return []
        if self.warp.zeros:
            return [z for z in self.warp.zeros if lo - 1e-12 <= z <= hi + 1e-12]
        # no hint: scan for near-zero minima and warn
        ts = np.linspace(lo, hi, 4097)
        vals = np.asarray(self.warp(ts))
        mask = vals < ZERO_THRESHOLD
        roots = list(ts[mask])
        if roots:
            self.warnings.append(
                "zero set detected by thresholding f < %g without a hint" % ZERO_THRESHOLD)
        return roots

    def points_equal(self, u, v, tol=1e-12):
        u = as_warped_point(u)
        v = as_warped_point(v)
        if self.base.distance(u.base, v.base) > tol:
            return False
        if float(self.warp(u.base)) <= ZERO_THRESHOLD:
            return True
        return self.fiber.distance(u.fiber, v.fiber) <= tol


def _one_dim(base):
    return isinstance(base, (spaces.Interval, spaces.Ray, spaces.Circle))


def _window(triple, bp, bq, ell):
    """Base window that certainly contains every candidate geodesic."""
    b = triple.base
    if isinstance(b, spaces.Interval):
        return b.a, b.b, False
    if isinstance(b, spaces.Circle):
        return 0.0, b.length, True
    # Ray: the geodesic never goes past the endpoints by more than an
    # upper bound on the distance
    fb = min(float(triple.warp(bp)), float(triple.warp(bq)))
    ub = abs(bp - bq) + fb * ell
    return 0.0, max(bp, bq) + ub + 1e-9, False


def _grid_coords(lo, hi, n, extra):
    coords = np.linspace(lo, hi, n + 1)
    pts = [p for p in extra if lo <= p <= hi]
    if pts:
        coords = np.unique(np.concatenate([coords, np.asarray(pts, float)]))
    return coords


def _f_on_grid(triple, coords, zeros):
    """f at nodes and midpoints, with hinted zeros snapped to exactly 0."""
    mids = 0.5 * (coords[:-1] + coords[1:])
    fine = np.empty(2 * len(coords) - 1)
    fine[0::2] = triple.warp(coords)
    fine[1::2] = triple.warp(mids)
    fine[fine < ZERO_THRESHOLD] = 0.0
    if zeros:
        zi = np.searchsorted(coords, np.asarray(zeros))
        zi = np.clip(zi, 0, len(coords) - 1)
        for k, z in zip(zi, zeros):
            if abs(coords[k] - z) < 1e-9:
                fine[2 * k] = 0.0
    return fine


_OFFSETS = [(0, 1), (1, -2), (1, -1), (1, 0), (1, 1), (1, 2), (2, -2), (2, -1), (2, 1), (2, 2)]


def _grid_dijkstra(triple, coords, fine, ell, m_fiber, ip, iq, wrap=False,
                   return_path=False):
    """Shortest path on the (base nodes) x (fiber nodes) lattice."""
    nb = len(coords)
    mf = m_fiber
    hs = ell / mf if mf else 0.0
    nodes = nb * (mf + 1)

    def nid(i, j):
        return i * (mf + 1) + j

    src_list, dst_list, w_list = [], [], []
    fnode = fine[0::2]
    for di, dj in _OFFSETS:
        if di == 0:
            ii = np.arange(nb)
            db = np.zeros(nb)
            fmin = fnode
        else:
            if nb <= di:
                continue
            ii = np.arange(nb - di)
            db = coords[di:] - coords[:-di]
            # min of f over the segment from the half-spacing samples
            fmin = np.minimum.reduce([fine[k: k + 2 * (nb - di) - 1: 2]
                                      for k in range(2 * di + 1)])
        # every fiber layer j0 with j0 + dj on the lattice, layer-major
        j0 = np.arange(max(0, -dj), mf + 1 - max(0, dj))[:, None]
        w = np.sqrt(db * db + (fmin * (abs(dj) * hs)) ** 2)
        src_list.append(nid(ii, j0).ravel())
        dst_list.append(nid(ii + di, j0 + dj).ravel())
        w_list.append(np.tile(w, len(j0)))
    if wrap:
        # identify the first and last base columns (circle seam)
        jj = np.arange(mf + 1)
        src_list.append(nid(np.zeros(mf + 1, int), jj))
        dst_list.append(nid(np.full(mf + 1, nb - 1, int), jj))
        w_list.append(np.zeros(mf + 1))
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    w = np.concatenate(w_list)
    g = coo_matrix((w, (src, dst)), shape=(nodes, nodes))
    if return_path:
        dd, pred = dijkstra(g, directed=False, indices=[nid(ip, 0)],
                            return_predecessors=True)
        target = nid(iq, mf)
        path = [target]
        while path[-1] != nid(ip, 0):
            p = pred[0, path[-1]]
            if p < 0:
                break
            path.append(p)
        path = path[::-1]
        bs = coords[[n // (mf + 1) for n in path]]
        ss = hs * np.array([n % (mf + 1) for n in path], dtype=float)
        return float(dd[0, target]), bs, ss
    dd = dijkstra(g, directed=False, indices=[nid(ip, 0)])
    return float(dd[0, nid(iq, mf)]), None, None


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
    """Variational refinement of a grid path as a graph b(s).

    Minimizes the discrete warped length E over the interior base values
    (see the module docstring); this removes the lattice metrication
    bias of the Dijkstra stage.
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


def _polish_with_restarts(triple, bs, ss, ell, lo, hi, wrap, n_nodes,
                          wrap_length=None, zeros=()):
    """Polish, then retry with the path lifted off the zero set.

    A path resting on {f = 0} sits on a degenerate critical manifold of
    the length energy (the fiber term and its gradient both vanish), so
    the optimizer can stall on a through-Z shaped path even when a
    nearby dip past the zero is strictly shorter.  Lifting the flat
    bottom restores a usable gradient.
    """
    val, b, s = _polish_path(triple, bs, ss, ell, lo, hi, wrap, n_nodes,
                             wrap_length=wrap_length)
    if not zeros or wrap:
        return val, b, s
    for z in zeros:
        dz = np.abs(b[1:-1] - z)
        if len(dz) == 0 or dz.min() > 1e-6:
            continue
        s0 = b[0] - z
        s1 = b[-1] - z
        if s0 == 0 or s1 == 0 or (s0 > 0) != (s1 > 0):
            continue  # genuine crossing: the through-Z candidate covers it
        sgn = 1.0 if s0 > 0 else -1.0
        dmax = min(abs(s0), abs(s1))
        for frac in (0.25, 0.5):
            d = frac * dmax
            b_init = np.where(sgn * (b - z) < d, z + sgn * d, b)
            cand = _polish_path(triple, b_init, s, ell, lo, hi, wrap,
                                n_nodes, wrap_length=wrap_length)
            if cand[0] < val:
                val, b, s = cand
    return val, b, s


def reduced_distance(triple, bp, bq, ell, tol=1e-3, grid=None, max_refinements=8,
                     polish=True, return_path=False):
    """Distance in B x_f [0, ell] from (bp, 0) to (bq, ell) for 1-D bases."""
    base = triple.base
    if not _one_dim(base):
        return _disk_reduced_distance(triple, bp, bq, ell)
    bp = float(bp)
    bq = float(bq)
    d_base = base.distance(bp, bq)
    if ell <= 0 or float(triple.warp(bp)) <= ZERO_THRESHOLD \
            or float(triple.warp(bq)) <= ZERO_THRESHOLD:
        if return_path:
            return d_base, None
        return d_base

    lo, hi, wrap = _window(triple, bp, bq, ell)
    zeros = triple.zeros_in(lo, hi)
    cand_z = math.inf
    for z in zeros:
        cand_z = min(cand_z, base.distance(bp, z) + base.distance(z, bq))

    n0 = int(grid) if grid else 64
    prev = None
    value = None
    best_path = None
    n_polish = int(np.clip(4.0 * ell / math.sqrt(tol), 129, 20001))
    chord = None
    if polish:
        # extra start from the straight chord: the lattice path can hug
        # a zero of f and trap the optimizer in a local minimum
        pc, bc, sc = _polish_with_restarts(
            triple, np.array([bp, bq]), np.array([0.0, ell]),
            ell, lo, hi, wrap, n_polish,
            wrap_length=base.length if wrap else None, zeros=zeros)
        chord = (pc, (bc, sc))
    for level in range(max_refinements):
        n = n0 * (2 ** level)
        coords = _grid_coords(lo, hi, n, [bp, bq] + zeros)
        fine = _f_on_grid(triple, coords, zeros)
        h = (hi - lo) / n
        mf = int(grid) if grid else max(4, min(4 * n, int(math.ceil(ell / h))))
        ip = int(np.argmin(np.abs(coords - bp)))
        iq = int(np.argmin(np.abs(coords - bq)))
        raw, bs, ss = _grid_dijkstra(triple, coords, fine, ell, mf, ip, iq,
                                     wrap=wrap, return_path=polish or return_path)
        if polish and bs is not None and len(bs) >= 2:
            # use the polished value only: raw segment weights take the
            # minimum of f over each hop and can undershoot a true length
            cur, b_nodes, s_nodes = _polish_with_restarts(
                triple, bs, ss, ell, lo, hi, wrap, n_polish,
                wrap_length=base.length if wrap else None, zeros=zeros)
            cur_path = (b_nodes, s_nodes)
            if chord is not None and chord[0] < cur:
                cur, cur_path = chord[0], chord[1]
        else:
            cur = raw
            cur_path = (bs, ss)
        if cand_z < cur:
            cur = cand_z
            cur_path = None  # through-Z path assembled by the caller
        # keep the best value seen: a finer lattice can trap Dijkstra
        # (and hence the polish) in a worse local minimum near a zero
        if prev is None or cur < prev:
            best_path = cur_path
        if prev is not None and min(cur, prev) > prev - tol / 2.0:
            value = min(cur, prev)
            break
        prev = cur if prev is None else min(cur, prev)
    if value is None:
        raise ConvergenceError(
            "grid refinement did not converge to tol=%g" % tol,
            bracket=(min(prev, cand_z) - tol, min(prev, cand_z) + tol))
    if return_path:
        return value, best_path
    return min(value, d_base + min(float(triple.warp(bp)), float(triple.warp(bq))) * ell)


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


def warped_distance(triple, u, v, tol=1e-3, grid=None, max_refinements=8, polish=True):
    """Distance in B x_f F between warped points u and v."""
    u = as_warped_point(u)
    v = as_warped_point(v)
    ell = float(triple.fiber.distance(u.fiber, v.fiber))
    return reduced_distance(triple, u.base, v.base, ell, tol=tol, grid=grid,
                            max_refinements=max_refinements, polish=polish)


def warped_geodesic(triple, u, v, resolution=1e-3, grid=None, max_refinements=8):
    """Backtracked and polished geodesic as a GeodesicPolyline."""
    u = as_warped_point(u)
    v = as_warped_point(v)
    if not _one_dim(triple.base):
        raise ValueError("geodesic extraction supports 1-D bases only")
    ell = float(triple.fiber.distance(u.fiber, v.fiber))
    value, path = reduced_distance(triple, u.base, v.base, ell, tol=resolution,
                                   grid=grid, max_refinements=max_refinements,
                                   polish=True, return_path=True)
    if path is None:
        # through Z (or trivial fiber): two base geodesics meeting on Z
        lo, hi, _ = _window(triple, float(u.base), float(v.base), ell)
        zeros = triple.zeros_in(lo, hi)
        if ell <= 0 or not zeros:
            bs = np.linspace(float(u.base), float(v.base),
                             max(2, int(abs(float(v.base) - float(u.base)) / resolution) + 1))
            ss = np.zeros_like(bs)
        else:
            zstar = min(zeros, key=lambda z: triple.base.distance(u.base, z)
                        + triple.base.distance(z, v.base))
            n1 = max(2, int(triple.base.distance(u.base, zstar) / resolution) + 1)
            n2 = max(2, int(triple.base.distance(zstar, v.base) / resolution) + 1)
            bs = np.concatenate([np.linspace(float(u.base), zstar, n1),
                                 np.linspace(zstar, float(v.base), n2)[1:]])
            ss = np.concatenate([np.zeros(n1), np.full(n2 - 1, ell)])
    else:
        bs, ss = path
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
    """MetricOracle over B x_f F backed by the grid engine.

    Points are encoded as rows (base coord..., fiber coord...); 1-D
    bases and scalar-coded fibers only.
    """

    def __init__(self, triple, tol=1e-3, grid=None):
        self.triple = triple
        self.tol = float(tol)
        self.grid = grid
        self.tol_metric = max(1e-9, 2.0 * self.tol)

    def _batch(self, pts):
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def distance(self, x, y):
        x = np.asarray(x, float).reshape(2)
        y = np.asarray(y, float).reshape(2)
        fx = self.triple.fiber
        ell = float(fx.distance(spaces.fiber_coords(fx, x[1]), spaces.fiber_coords(fx, y[1])))
        return reduced_distance(self.triple, x[0], y[0], ell, tol=self.tol,
                                grid=self.grid)

    def dist_pairs(self, xs, ys):
        xs = self._batch(xs)
        ys = self._batch(ys)
        return np.array([self.distance(x, y) for x, y in zip(xs, ys)])

    def sample(self, n, seed):
        g = spaces.rng(seed)
        lo, hi = self.triple.domain()
        bs = lo + (hi - lo) * g.random(n)
        fs = np.asarray(self.triple.fiber.sample(n, seed + 10), float)
        return np.stack([bs, fs], axis=1)

    def geodesic(self, x, y, resolution):
        x = np.asarray(x, float).reshape(2)
        y = np.asarray(y, float).reshape(2)
        return warped_geodesic(self.triple, (x[0], x[1]), (y[0], y[1]),
                               resolution=resolution)
