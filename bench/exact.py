"""Exact distance laws, written independently of the package under test.

The benchmark checks the engine against these laws, so none of them may
come from `warpcurv`: shared code could hide an engine error.  All take
numpy arrays or floats; `ell` is the fiber distance of the two points.
"""

import math

import numpy as np


def _clip(x):
    return np.clip(x, -1.0, 1.0)


def spherical(t1, t2, ell):
    """[0, pi] x_sin F: the spherical law of cosines."""
    delta = np.minimum(ell, math.pi)
    c = np.cos(t1) * np.cos(t2) + np.sin(t1) * np.sin(t2) * np.cos(delta)
    return np.arccos(_clip(c))


def cone(r1, r2, ell, a=1.0):
    """[0, inf) x_{a t} F: the Euclidean law of cosines at cone angle a*ell."""
    delta = np.minimum(a * np.asarray(ell, float), math.pi)
    d2 = r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * np.cos(delta)
    return np.sqrt(np.maximum(d2, 0.0))


def hyperbolic(r1, r2, ell):
    """[0, inf) x_sinh S^1: the hyperbolic law of cosines."""
    delta = np.minimum(ell, math.pi)
    c = np.cosh(r1) * np.cosh(r2) - np.sinh(r1) * np.sinh(r2) * np.cos(delta)
    return np.arccosh(np.maximum(c, 1.0))


def product(d_base, c, ell):
    """B x_c F with constant c: the Pythagorean product law."""
    return np.hypot(d_base, c * np.asarray(ell, float))


def polar(kappa, r1, th1, r2, th2):
    """Distance of polar points (r, theta) in the model plane of curvature kappa."""
    dth = np.abs(np.asarray(th1, float) - th2) % (2.0 * math.pi)
    dth = np.minimum(dth, 2.0 * math.pi - dth)
    if kappa == 0:
        return cone(r1, r2, dth)
    s = math.sqrt(abs(kappa))
    if kappa > 0:
        return spherical(s * np.asarray(r1, float), s * np.asarray(r2, float), dth) / s
    return hyperbolic(s * np.asarray(r1, float), s * np.asarray(r2, float), dth) / s


def circle_gap(x, y, length):
    """Distance on a circle of the given length."""
    d = np.abs(np.asarray(x, float) - y) % length
    return np.minimum(d, length - d)


def cross_check(seed, n=16):
    """Largest disagreement between these laws and the package's closed forms.

    Compares, at n seeded points each, the spherical law with
    SuspensionSpace, the cone law with ConeSpace, the product law with
    ProductSpace, and the hyperbolic and spherical polar laws with
    ModelDisk.  Returns {name: max abs difference}.
    """
    from warpcurv import Circle, Interval, ModelDisk
    from warpcurv.certify import ProductSpace
    from warpcurv.constructions import ConeSpace, SuspensionSpace

    g = np.random.default_rng([seed, 7])
    two_pi = 2.0 * math.pi
    fiber = Circle(two_pi)
    f1, f2 = two_pi * g.random(n), two_pi * g.random(n)
    ell = circle_gap(f1, f2, two_pi)
    out = {}

    t1, t2 = math.pi * g.random(n), math.pi * g.random(n)
    got = SuspensionSpace(fiber).dist_pairs(np.c_[t1, f1], np.c_[t2, f2])
    out["spherical"] = float(np.max(np.abs(got - spherical(t1, t2, ell))))

    r1, r2 = 2.0 * g.random(n), 2.0 * g.random(n)
    got = ConeSpace(fiber, a=0.8).dist_pairs(np.c_[r1, f1], np.c_[r2, f2])
    out["cone"] = float(np.max(np.abs(got - cone(r1, r2, ell, a=0.8))))

    b1, b2 = 2.0 * g.random(n), 2.0 * g.random(n)
    got = ProductSpace(Interval(0.0, 2.0), 0.7, fiber).dist_pairs(np.c_[b1, f1], np.c_[b2, f2])
    out["product"] = float(np.max(np.abs(got - product(np.abs(b1 - b2), 0.7, ell))))

    for kappa, name in ((-1.0, "hyperbolic"), (1.0, "spherical_polar")):
        disk = ModelDisk(kappa, 1.2)
        got = disk.dist_pairs(np.c_[r1 * 0.6, f1], np.c_[r2 * 0.6, f2])
        out[name] = float(np.max(np.abs(got - polar(kappa, r1 * 0.6, f1, r2 * 0.6, f2))))
    return out
