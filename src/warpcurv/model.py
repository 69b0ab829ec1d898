"""Trigonometry of the constant-curvature model surfaces.

Everything here is a pure, elementwise function of its inputs: each
function takes one formula per sign of kappa (Euclidean forms at
kappa = 0, sin/cos at kappa > 0, sinh/cosh at kappa < 0) for every
argument, so no value depends on the batch it is computed in.  Angles
are reals in [0, pi]; the distinguished value Undefined is represented
by nan so that the batch routines can stay fully vectorized.

triangle_angles is the one kernel of the half-angle law: it returns all
three angles of each triangle in a stack and evaluates the three excess
terms of a triangle once for all of them.  angle_from_sides, ModelTriangle
and the quadruple margins of warpcurv.comparison all go through it.
"""

import math

import numpy as np

UNDEFINED = float("nan")

# Relative tolerance for clamping arccos/arcosh arguments and for
# validating chart coordinates.
CLAMP_TOL = 1e-12
CHART_TOL = 1e-9


def is_defined(angle):
    """True if a model angle (or an array of them) is not Undefined."""
    return ~np.isnan(angle) if isinstance(angle, np.ndarray) else not math.isnan(angle)


def varpi(kappa):
    """pi / sqrt(kappa) for kappa > 0, +inf otherwise."""
    if kappa > 0:
        return math.pi / math.sqrt(kappa)
    return math.inf


def sn(kappa, t):
    """Solution of y'' + kappa y = 0 with y(0)=0, y'(0)=1."""
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        s = math.sqrt(kappa)
        out = np.sin(s * t) / s
    elif kappa < 0:
        s = math.sqrt(-kappa)
        out = np.sinh(s * t) / s
    else:
        out = 1.0 * t
    return out if out.ndim else float(out)


def cs(kappa, t):
    """Derivative of sn: cos-type solution with y(0)=1, y'(0)=0."""
    t = np.asarray(t, dtype=float)
    if kappa > 0:
        out = np.cos(math.sqrt(kappa) * t)
    elif kappa < 0:
        out = np.cosh(math.sqrt(-kappa) * t)
    else:
        out = np.ones_like(t)
    return out if out.ndim else float(out)


def _clamp(x, lo, hi, tol):
    """Clip x into [lo, hi]; values beyond tol outside become nan."""
    x = np.asarray(x, dtype=float)
    bad = (x < lo - tol) | (x > hi + tol)
    out = np.clip(x, lo, hi)
    if np.any(bad):
        out = np.where(bad, np.nan, out)
    return out


def _stack(x, y, z):
    return np.stack(np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(z, dtype=float)))


def _pair_sums(s):
    """Entry i adds the two sides other than s[i]."""
    out = np.empty_like(s)
    for i in range(3):
        np.add(s[(i + 1) % 3], s[(i + 2) % 3], out=out[i, ...])
    return out


def triangle_angles(kappa, x, y, z):
    """Model angles of the triangles with sides x, y, z, opposite each side.

    Vectorized; returns an array of shape (3,) + the broadcast shape,
    holding the angles opposite x, y and z.  An angle is nan where the
    model triangle is not unique: triangle-inequality failure, an
    adjacent side that is not positive, a negative opposite side, or for
    kappa > 0 a perimeter of at least 2*varpi or a side exceeding varpi.

    Uses the half-angle law of cosines in product form,
    tan^2(C/2) = g(c+a-b) g(c+b-a) / (g(a+b+c) g(a+b-c)), with g the
    half-argument sin/identity/sinh of the sign of kappa.  This is free of
    cancellation for thin triangles in both the C -> 0 and C -> pi
    regimes and agrees with the Euclidean formula as kappa -> 0.  The
    three excess terms g(a+b-c) of a triangle are evaluated once and
    shared by its three angles; each angle keeps its own perimeter
    (adjacent + adjacent) + opposite, which sets its snapping scale and
    its g(a+b+c).  Excesses within 1e-12 of zero (relative to that
    perimeter) are snapped to exact degeneracy, so collinear points
    produce exact angles 0 and pi.
    """
    s = _stack(x, y, z)
    pair = _pair_sums(s)
    perim = pair + s
    exc = pair - s
    snap = 1e-12 * np.maximum(perim, 1.0)
    # zero[i, l]: excess l snapped to 0 at the scale of the angle opposite side i
    zero = np.abs(exc) < snap[:, None]
    bad = np.min(exc, axis=0) <= -snap
    nonpos = s <= 0.0
    bad |= nonpos[[1, 2, 0]] | nonpos[[2, 0, 1]] | (s < 0.0)
    if kappa > 0:
        w = varpi(kappa)
        bad |= perim >= 2.0 * w
        bad |= np.any(s > w, axis=0)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g = np.where(zero, 0.0, _g(kappa, exc))
        num = g[[0, 1, 2], [1, 2, 0]] * g[[0, 1, 2], [2, 0, 1]]
        den = _g(kappa, perim) * g[[0, 1, 2], [0, 1, 2]]
        ang = 2.0 * np.arctan2(np.sqrt(np.maximum(num, 0.0)), np.sqrt(np.maximum(den, 0.0)))
    return np.where(bad, np.nan, ang)


def _g(kappa, t):
    """g of the half-angle law: t/2 at kappa = 0, else sin or sinh of sqrt|kappa| t/2."""
    if kappa == 0:
        return 0.5 * t
    s = math.sqrt(abs(kappa))
    return np.sin(0.5 * s * t) if kappa > 0 else np.sinh(0.5 * s * t)


def angle_from_sides(kappa, a, b, c):
    """Model angle between sides a and b, opposite side c (see triangle_angles)."""
    out = triangle_angles(kappa, a, b, c)[2]
    return out if out.ndim else float(out)


def side_from_angle(kappa, a, b, angle):
    """Opposite side from two adjacent sides and the enclosed angle."""
    a, b, angle = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(angle, dtype=float)
    )
    h = np.sin(0.5 * angle) ** 2
    if kappa == 0:
        out = np.sqrt((a - b) ** 2 + 4.0 * a * b * h)
    elif kappa > 0:
        s = math.sqrt(kappa)
        # hc = sin^2(s c / 2); its complement is summed directly, so that
        # atan2 stays well conditioned as c nears varpi
        hc = np.sin(0.5 * s * (a - b)) ** 2 + np.sin(s * a) * np.sin(s * b) * h
        co = (np.cos(0.5 * s * (a + b)) ** 2
              + np.sin(s * a) * np.sin(s * b) * np.cos(0.5 * angle) ** 2)
        out = 2.0 / s * np.arctan2(np.sqrt(_clamp(hc, 0.0, 1.0, CLAMP_TOL)),
                                   np.sqrt(np.maximum(co, 0.0)))
    else:
        s = math.sqrt(-kappa)
        hc = np.sinh(0.5 * s * (a - b)) ** 2 + np.sinh(s * a) * np.sinh(s * b) * h
        out = 2.0 / s * np.arcsinh(np.sqrt(hc))
    return out if out.ndim else float(out)


class ModelTriangle:
    """Triangle in the model surface of curvature kappa.

    sides[i] is the side opposite vertex i.
    """

    def __init__(self, kappa, sides):
        sides = tuple(float(s) for s in sides)
        if len(sides) != 3:
            raise ValueError("a triangle has three sides")
        if any(s < 0 for s in sides):
            raise ValueError("negative side length")
        self.kappa = float(kappa)
        self.sides = sides

    def is_defined(self):
        a, b, c = self.sides
        if a + b < c or b + c < a or c + a < b:
            return False
        if self.kappa > 0:
            w = varpi(self.kappa)
            if a + b + c >= 2.0 * w or max(self.sides) > w:
                return False
        return True

    def angle(self, vertex_index):
        """Angle at the given vertex, or Undefined (nan)."""
        if vertex_index not in (0, 1, 2):
            raise ValueError("vertex_index must be 0, 1 or 2")
        if min(self.sides) < 0:
            raise ValueError("negative side length")
        opp = self.sides[vertex_index]
        adj1 = self.sides[(vertex_index + 1) % 3]
        adj2 = self.sides[(vertex_index + 2) % 3]
        return float(angle_from_sides(self.kappa, adj1, adj2, opp))

    def __repr__(self):
        return "ModelTriangle(kappa=%g, sides=%r)" % (self.kappa, self.sides)


def model_distance(kappa, a, b):
    """Geodesic distance between chart points of the model surface.

    Charts: kappa = 0 takes Cartesian vectors of any dimension;
    kappa > 0 takes vectors in R^3 of norm 1/sqrt(kappa); kappa < 0
    takes hyperboloid points (t, x, y) with t^2 - x^2 - y^2 = 1/(-kappa)
    and t > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if kappa == 0:
        return float(np.linalg.norm(a - b))
    if kappa > 0:
        r = 1.0 / math.sqrt(kappa)
        for v in (a, b):
            if v.shape != (3,) or abs(np.linalg.norm(v) - r) > CHART_TOL * max(r, 1.0):
                raise ValueError("point is not on the model sphere")
        u = _clamp(kappa * float(a @ b), -1.0, 1.0, CLAMP_TOL)
        if math.isnan(u):
            raise ValueError("inner product out of range")
        return r * math.acos(u)
    r = 1.0 / math.sqrt(-kappa)
    for v in (a, b):
        if v.shape != (3,) or v[0] <= 0:
            raise ValueError("point is not on the model hyperboloid")
        q = v[0] ** 2 - v[1] ** 2 - v[2] ** 2
        if abs(q - r * r) > CHART_TOL * max(r * r, 1.0):
            raise ValueError("point is not on the model hyperboloid")
    m = float(a[0] * b[0] - a[1] * b[1] - a[2] * b[2]) / (r * r)
    if m < 1.0 - CLAMP_TOL:
        raise ValueError("inner product out of range")
    return r * math.acosh(max(m, 1.0))
