"""Sinusoidal convexity testing, gradient norms, and the kappa_F formulas.

Sinusoidal kappa-convexity of f along a geodesic gamma means f(gamma)
lies below the two-point support y solving y'' + kappa y = 0 through
the endpoint values; concavity means it lies above.

sinusoidal_test interpolates all sampled base geodesics in one
interpolate_pairs call, evaluates f once on all their nodes, and
computes the supports of every subinterval in one padded array pass.
"""

import math

import numpy as np

from . import model, spaces
from .spaces import rng
from .warped import (_eval_f, _one_sided_derivative, domain, warp_profile, zero_runs,
                     zero_set)

INF = math.inf
# largest violation of the two-point supports that still classifies f as
# kappa-convex (kappa-concave)
SUPPORT_TOL = 1e-9
# first step of the one-sided derivatives of f at and near its zero set
Z_STEP = 1e-4


class ConvexityVerdict:
    def __init__(self, classification, worst_violation, geodesics_tested,
                 worst_convex=None, worst_concave=None, skipped=0, tol=0.0):
        self.classification = classification
        self.worst_violation = float(worst_violation)
        self.geodesics_tested = int(geodesics_tested)
        self.worst_convex = worst_convex
        self.worst_concave = worst_concave
        self.skipped = int(skipped)
        self.tol = float(tol)

    @property
    def passed(self):
        return self.worst_violation <= self.tol

    def __repr__(self):
        return ("ConvexityVerdict(%s, worst=%.3g, geodesics=%d)"
                % (self.classification, self.worst_violation, self.geodesics_tested))


class GradientEstimate:
    def __init__(self, point, value, directions_sampled, derivatives=()):
        self.point = point
        self.value = float(value)
        self.directions_sampled = int(directions_sampled)
        self.derivatives = tuple(derivatives)

    def __repr__(self):
        return "GradientEstimate(value=%.6g, dirs=%d)" % (self.value, self.directions_sampled)


class KappaFReport:
    def __init__(self, side, branch, kappa_F, kappa_foot=INF, kappa_far=INF,
                 gradient_form=None, cross_check_diff=None, shells=(), warnings=(),
                 sample_density=None):
        self.side = side
        self.branch = branch
        self.kappa_F = kappa_F
        self.kappa_foot = kappa_foot
        self.kappa_far = kappa_far
        self.gradient_form = gradient_form
        self.cross_check_diff = cross_check_diff
        self.shells = tuple(shells)
        self.warnings = tuple(warnings)
        self.sample_density = sample_density

    def __repr__(self):
        return ("KappaFReport(%s, %s, kappa_F=%s, foot=%s, far=%s)"
                % (self.side, self.branch, self.kappa_F, self.kappa_foot, self.kappa_far))


def _sample_geodesics(base, seed):
    """24 seeded geodesics of the base, interpolated in one batch.

    Returns the arclength grids, one row per kept geodesic, and their
    node points, 65 consecutive rows per geodesic.
    """
    xs = base._batch(base.sample(48, seed))
    x, y = xs[0::2], xs[1::2]
    d = np.asarray(base.dist_pairs(x, y), float)
    keep = d >= 1e-9
    if isinstance(base, spaces.Circle):
        keep &= d <= base.length / 2.0 - 1e-9
    ts = np.linspace(0.0, 1.0, 65)
    pts = base.interpolate_pairs(np.repeat(x[keep], len(ts), axis=0),
                                 np.repeat(y[keep], len(ts), axis=0),
                                 np.tile(ts, int(np.count_nonzero(keep))))
    if spaces.missing_rows(pts).any():
        raise ValueError("%r has no geodesics to test along" % (base,))
    return d[keep][:, None] * ts, pts


def _supports(kappa, ss, f1, f2):
    """Two-point sinusoidal supports through (0, f1), (L, f2) on each row of ss.

    Row i is the grid of one support, increasing from 0 to L = ss[i, -1]
    and padded with L.  Returns (kept, y): the rows whose endpoint
    interpolation is regular, and y on those rows.  A row is singular when
    sn(L) = 0, which happens for L >= varpi at kappa > 0.
    """
    L = ss[:, -1]
    snl = model.sn(kappa, L)
    kept = np.ones(len(L), dtype=bool)
    if kappa > 0:
        kept = ~((L >= model.varpi(kappa) - 1e-12) | (np.abs(snl) < 1e-12))
    ss, L, f1, f2 = ss[kept], L[kept], f1[kept], f2[kept]
    beta = (f2 - f1 * model.cs(kappa, L)) / snl[kept]
    y = f1[:, None] * model.cs(kappa, ss) + beta[:, None] * model.sn(kappa, ss)
    return kept, y


def _worst(excess):
    """Largest positive entry, else 0; nan rows count for nothing."""
    pos = excess[excess > 0.0]
    return float(pos.max()) if pos.size else 0.0


def sinusoidal_test(f, base, kappa, mode="convex", seed=0):
    """Classify f along sampled base geodesics and subintervals.

    Each geodesic is tested on its whole length and on up to 12 random
    subintervals of at least three nodes.  f is evaluated once on all
    nodes, and every support is computed in one padded array pass.

    mode selects which violation worst_violation reports; the verdict
    classification always covers both directions.
    """
    if mode not in ("convex", "concave"):
        raise ValueError("mode must be convex or concave")
    s, pts = _sample_geodesics(base, seed)
    k, n = s.shape
    vals = _eval_f(f, base, pts).reshape(k, n)
    # (geodesic, first node, last node) of every subinterval
    ends = rng(seed, stream=5).integers(0, n, size=(k, 12, 2))
    ends = np.concatenate([np.broadcast_to([0, n - 1], (k, 1, 2)), np.sort(ends, axis=2)],
                          axis=1)
    geo = np.repeat(np.arange(k), ends.shape[1])
    i1, i2 = ends.reshape(-1, 2).T
    long_enough = i2 - i1 >= 2
    geo, i1, i2 = geo[long_enough], i1[long_enough], i2[long_enough]
    # padded rows: node i1 + j of the geodesic, held at i2 past the end
    cols = np.minimum(i1[:, None] + np.arange(n), i2[:, None])
    rows = geo[:, None]
    ss = s[rows, cols] - s[geo, i1][:, None]
    fv = vals[rows, cols]
    kept, y = _supports(kappa, ss, fv[:, 0], fv[:, -1])
    fv = fv[kept]
    j = np.arange(n)
    interior = (j >= 1) & (j < (i2 - i1)[kept][:, None])
    worst_cv = _worst(np.max(np.where(interior, fv - y, 0.0), axis=1))
    worst_cc = _worst(np.max(np.where(interior, y - fv, 0.0), axis=1))
    convex_ok = worst_cv <= SUPPORT_TOL
    concave_ok = worst_cc <= SUPPORT_TOL
    if convex_ok and concave_ok:
        classification = "both"
    elif convex_ok:
        classification = "kappa-convex"
    elif concave_ok:
        classification = "kappa-concave"
    else:
        classification = "neither"
    worst = worst_cv if mode == "convex" else worst_cc
    return ConvexityVerdict(classification, worst, k,
                            worst_convex=worst_cv, worst_concave=worst_cc,
                            skipped=np.count_nonzero(~kept), tol=SUPPORT_TOL)


def _directions(base, p, signs=(1, -1)):
    """Admissible unit directions at p, as step functions h -> point.

    On a 1-D base, signs picks the increasing (1) and decreasing (-1)
    directions.  A disk without interpolation raises ValueError.
    """
    if isinstance(base, spaces.ModelDisk):
        if not base.convex:
            raise ValueError("%r has no geodesics to step along" % (base,))
        dirs = []
        n = 16
        targets = [base.boundary_point(2.0 * math.pi * k / n) for k in range(n)]
        targets.append(np.array([0.0, 0.0]))  # radial inward
        for target in targets:
            d = float(base.distance(p, target))
            if d < 1e-9:
                continue
            dirs.append(lambda h, t=target, d=d: base.interpolate(p, t, min(h / d, 1.0)))
        return dirs
    p = float(np.asarray(p, float).reshape(()))
    dirs = []
    if isinstance(base, spaces.Circle):
        return [lambda h, s=s: (p + s * h) % base.length for s in signs]
    if isinstance(base, spaces.Interval):
        lo, hi = base.a, base.b
    else:
        lo, hi = 0.0, INF
    if 1 in signs and p + 1e-9 < hi:
        dirs.append(lambda h: min(p + h, hi))
    if -1 in signs and p - 1e-9 > lo:
        dirs.append(lambda h: max(p - h, lo))
    return dirs


def gradient_norm(f, base, p, side="up", h0=1e-3):
    """|grad_p f| (side up) or |grad_p(-f)| (side down) by sampling.

    The norm of the (downward) gradient is the positive part of the
    supremum of the one-sided directional derivatives along every
    direction of _directions: on a disk, 16 toward the rim and one toward
    the centre.
    """
    if side not in ("up", "down"):
        raise ValueError("side must be up or down")
    sgn = 1.0 if side == "up" else -1.0
    dirs = _directions(base, p)
    derivs = []
    for step in dirs:
        d = _one_sided_derivative(f, base, p, step, h0)
        derivs.append(sgn * d)
    value = max(0.0, max(derivs, default=0.0))
    return GradientEstimate(p, value, len(dirs), derivatives=derivs)


def dist_Z(f, base, pts, zeros=None):
    """Distance from each point of a batch to the zero set of f.

    zeros is the (kind, roots) pair of zero_set, computed when omitted.
    Every point is at distance inf when Z is empty; one point gives a float.
    """
    kind, roots = zeros if zeros is not None else zero_set(f, base)
    disk = isinstance(base, spaces.ModelDisk)
    xs = base._batch(np.atleast_1d(pts))
    if kind == "boundary":
        d = base.radius - xs[:, 0]
    elif not roots:
        d = np.full(len(xs), INF)
    else:
        zs = base._batch(roots)
        n, m = len(xs), len(zs)
        d = np.asarray(base.dist_pairs(np.repeat(xs, m, axis=0), zs[np.tile(np.arange(m), n)]),
                       float).reshape(n, m).min(axis=1)
    return float(d[0]) if np.ndim(pts) == (1 if disk else 0) else d


def dist_Z_realizers(f, base, zeros=None):
    """Footpoints on Z with inward realizer directions and (f o alpha)'(0).

    Returns a list of (footpoint, direction sample, derivative), with 8
    footpoints on a boundary zero set.
    Directions are encoded as step maps h -> base point at distance h
    along the realizer.  zeros is as in dist_Z.
    """
    kind, roots = zeros if zeros is not None else zero_set(f, base)
    out = []
    if kind == "boundary":
        for k in range(8):
            alpha = 2.0 * math.pi * k / 8
            z = base.boundary_point(alpha)

            def step(h, alpha=alpha):
                return np.array([base.radius - h, alpha])
            d = _one_sided_derivative(f, base, z, step, Z_STEP)
            out.append((z, step, d))
        return out
    if not roots:
        raise ValueError("zero set is empty")
    for z, signs in _footpoints(f, base, roots):
        for step in _directions(base, z, signs):
            d = _one_sided_derivative(f, base, z, step, Z_STEP)
            out.append((z, step, d))
    return out


def _footpoints(f, base, roots):
    """(root, signs of the directions that leave Z there) for each footpoint.

    Both base directions at an isolated root leave Z.  Roots scanned on a
    1-D base (no hint) come in runs of adjacent scan points, and only a
    run's two ends are footpoints, each leaving Z away from the run; a
    run across a circle's seam counts as one.
    """
    if f.zeros or isinstance(base, spaces.ModelDisk):
        return [(z, (1, -1)) for z in roots]
    lo, hi = domain(base)
    zs = np.sort(np.asarray(roots, float))
    runs = [[a, b, [-1], [1]] for a, b in zip(*zero_runs(zs, base))]
    if isinstance(base, spaces.Circle) and zs[0] == lo and zs[-1] == hi:
        runs[0][2], runs[-1][3] = [], []
    out = []
    for a, b, left, right in runs:
        if a == b:
            out.append((a, tuple(right + left)))
        else:
            out += [(a, tuple(left)), (b, tuple(right))]
    return [(z, s) for z, s in out if s]


def kappa_F(side, triple, kappa):
    """Fiber curvature bound of Theorems 2.2/2.3 with the gradient
    cross-check of Theorem 2.4."""
    if side not in ("CAT", "CBB"):
        raise ValueError("side must be CAT or CBB")
    f = triple.warp
    base = triple.base
    warnings = []
    zeros = zero_set(f, base, warn=warnings)
    if zeros == ("points", []):
        inf_f = float(np.min(warp_profile(f, base)[1]))
        return KappaFReport(side, "Z-empty", kappa * inf_f ** 2, warnings=warnings)

    realizers = dist_Z_realizers(f, base, zeros=zeros)
    derivs2 = [d * d for _, _, d in realizers]

    if side == "CBB":
        foot = max(derivs2)
        # gradient form: sup over footpoints of |grad_q f|^2
        grads = []
        seen = []
        for z, _, _ in realizers:
            key = tuple(np.atleast_1d(np.asarray(z, float)))
            if key in seen:
                continue
            seen.append(key)
            grads.append(gradient_norm(f, base, z, side="up", h0=Z_STEP).value ** 2)
        gform = max(grads) if grads else 0.0
        return KappaFReport(side, "Z-nonempty", foot, kappa_foot=foot,
                            gradient_form=gform,
                            cross_check_diff=abs(foot - gform),
                            warnings=warnings)

    foot = min(derivs2)
    # gradient form: liminf over shells of inf |grad_p(-f)|^2
    shells = []
    if isinstance(base, spaces.ModelDisk):
        samples = base._batch(base.sample(256, 97))
    else:
        samples = np.linspace(*domain(base), 513)
    dz = dist_Z(f, base, samples, zeros=zeros)
    for k in range(5):
        eps = 0.1 * 2.0 ** (-k)
        vals = [gradient_norm(f, base, p, side="down", h0=min(Z_STEP, eps / 4)).value ** 2
                for p in samples[(dz > 0.0) & (dz <= eps)]]
        shells.append(min(vals) if vals else INF)
    finite = [v for v in shells if v < INF]
    gform = finite[-1] if finite else INF

    w = model.varpi(kappa)
    far = INF
    if kappa > 0 and w < INF:
        mask = dz >= w / 2.0 - 1e-12
        if np.any(mask):
            far = float(kappa * np.min(_eval_f(f, base, samples)[mask] ** 2))
    val = min(foot, far)
    return KappaFReport(side, "Z-nonempty", val, kappa_foot=foot, kappa_far=far,
                        gradient_form=gform,
                        cross_check_diff=abs(foot - gform) if gform < INF else None,
                        shells=shells, warnings=warnings,
                        sample_density=len(samples))
