"""Certification battery for warped-product curvature bounds.

Parses a WP-triple specification, constructs the warped product, runs
the condition battery for the declared side (CAT or CBB) together with
empirical quadruple sampling on the product itself, and reports whether
the two verdicts agree.
"""

import math

import numpy as np
import yaml

from . import comparison, constructions, convexity, spaces, warped
from .comparison import EXACT_SLACK
from .constructions import ProductSpace
from .model import sn, varpi

INF = math.inf

# Sampling slack on the warped product is C*h with h the grid spacing
# and C = SLACK_FACTOR * (1 + Lip(f)).
SLACK_FACTOR = 4.0
# spec files parse with libyaml when PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class SpecError(ValueError):
    """Raised for malformed or unsupported specification input."""


class TripleSpec:
    """Parsed certification request.

    Canonical fields: side, kappa, base.kind, base.params, warp.expr,
    warp.lipschitz, warp.zeros, fiber.kind, fiber.params,
    budget.quadruples, budget.grid, tol, seed.
    """

    def __init__(self, side, kappa, base, warp, fiber, budget=None, tol=1e-3, seed=0):
        if side not in ("CAT", "CBB"):
            raise SpecError("side must be CAT or CBB")
        self.side = side
        self.kappa = float(kappa)
        self.base = dict(base)
        self.warp = dict(warp)
        self.fiber = dict(fiber)
        budget = dict(budget or {})
        self.quadruples = int(budget.get("quadruples", 2000))
        self.grid = budget.get("grid")
        if self.grid is not None:
            self.grid = int(self.grid)
        self.tol = float(tol)
        self.seed = int(seed)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise SpecError("spec document must be a mapping")
        try:
            return cls(side=doc["side"], kappa=doc["kappa"], base=doc["base"],
                       warp=doc["warp"], fiber=doc["fiber"],
                       budget=doc.get("budget"), tol=doc.get("tol", 1e-3),
                       seed=doc.get("seed", 0))
        except KeyError as e:
            raise SpecError("missing spec field: %s" % e)
        except (TypeError, ValueError) as e:
            raise SpecError(str(e))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = yaml.load(fh, Loader=_YAML_LOADER)
        except OSError as e:
            raise SpecError("cannot read spec: %s" % e)
        except yaml.YAMLError as e:
            raise SpecError("cannot parse spec: %s" % e)
        return cls.from_dict(doc)


def build_space(kind, params=None):
    """Construct a catalog space from its spec entry."""
    params = params if params is not None else []
    kind = str(kind).lower()
    if kind == "interval":
        if len(params) != 2:
            raise SpecError("interval needs [a, b]")
        return spaces.Interval(float(params[0]), float(params[1]))
    if kind == "ray":
        extent = float(params[0]) if params else 2.0
        return spaces.Ray(sample_extent=extent)
    if kind == "circle":
        if len(params) != 1:
            raise SpecError("circle needs [length]")
        return spaces.Circle(float(params[0]))
    if kind == "point":
        return spaces.PointSpace()
    if kind == "tripod":
        leg = float(params[0]) if params else 1.0
        n = int(params[1]) if len(params) > 1 else 3
        return spaces.tripod(leg, n)
    if kind == "finite":
        if isinstance(params, str):
            return spaces.FiniteMetric.from_file(params)
        if len(params) == 1 and isinstance(params[0], str):
            return spaces.FiniteMetric.from_file(params[0])
        return spaces.FiniteMetric(params)
    if kind == "disk":
        if len(params) != 2:
            raise SpecError("disk needs [kappa, radius]")
        return spaces.ModelDisk(float(params[0]), float(params[1]))
    raise SpecError("unknown space kind: %r" % kind)


def build_warp(warp_doc):
    """WarpFunction of t from the warp spec entry."""
    try:
        expr = warp_doc["expr"]
        lip = float(warp_doc["lipschitz"])
    except (KeyError, TypeError, ValueError) as e:
        raise SpecError("bad warp spec: %s" % e)
    zeros = warp_doc.get("zeros", ())
    if zeros != "boundary" and zeros is not None:
        zeros = tuple(float(z) for z in zeros)
    elif zeros is None:
        zeros = ()
    try:
        return warped.WarpFunction.from_expression(expr, lip, zeros=zeros)
    except Exception as e:
        raise SpecError("bad warp expression: %s" % e)


def build_triple(spec):
    base = build_space(spec.base.get("kind"), spec.base.get("params"))
    if isinstance(base, spaces.ModelDisk):
        # triple validation and the certify conditions evaluate the warp at
        # one base coordinate, but a disk-base warp takes (r, theta)
        raise SpecError("disk bases are not supported in specs")
    fiber = build_space(spec.fiber.get("kind"), spec.fiber.get("params"))
    f = build_warp(spec.warp)
    try:
        triple = warped.WarpedTriple(base, f, fiber)
        triple.check_hints()
    except ValueError as e:
        raise SpecError(str(e))
    return triple


def build_product(spec, triple):
    """Warped-product oracle, using a closed form when one applies."""
    base, f, fiber = triple.base, triple.warp, triple.fiber
    if not isinstance(base, spaces.ModelDisk):
        ts, vals = warped.warp_profile(f, base, 1025)
        span = max(abs(vals).max(), 1.0)
        t, ft = ts[512], vals[512]
        if (isinstance(base, (spaces.Interval, spaces.Ray)) and ts[0] == 0
                and abs(vals[0]) < 1e-12 * span and ft > 0):
            # a sn_kappa has f(2t) = 2 f(t) cs_kappa(t), and ts[-1] = 2t
            c = vals[-1] / (2.0 * ft)
            kappa = (math.acos(max(c, -1.0)) / t) ** 2 if c <= 1.0 else -(math.acosh(c) / t) ** 2
            a = ft / sn(kappa, t)
            R = ts[-1] if isinstance(base, spaces.Interval) else INF
            if (R <= varpi(kappa) * (1.0 + 1e-12)
                    and np.max(np.abs(vals - a * sn(kappa, ts))) < 1e-12 * span):
                return constructions.KappaCone(base, fiber, kappa, a)
        if np.max(vals) - np.min(vals) < 1e-12 * span and vals[0] > 0:
            return ProductSpace(base, float(vals[0]), fiber)
    return warped.GridWarpedOracle(triple, tol=spec.tol)


def product_slack(spec, triple, product):
    """Sampling slack for quadruples on the warped product.

    Exact closed forms get the base slack; the grid engine gets C*h with
    h the coarsest spacing at the requested grid level.
    """
    if not isinstance(product, warped.GridWarpedOracle):
        return EXACT_SLACK
    lo, hi = warped.domain(triple.base)
    level = spec.grid or 512
    h = (hi - lo) / max(level, 1)
    return SLACK_FACTOR * (1.0 + triple.warp.lipschitz) * h


class ConditionResult:
    def __init__(self, name, passed, margin, slack, detail=""):
        self.name = name
        self.passed = bool(passed)
        self.margin = float(margin)
        self.slack = float(slack)
        self.detail = detail

    def __repr__(self):
        return "ConditionResult(%s, %s, margin=%g)" % (
            self.name, "PASS" if self.passed else "FAIL", self.margin)


class CertificationReport:
    """Ordered condition results plus the empirical product verdict.

    warnings are kept once each, in order; only human_text shows them.
    """

    def __init__(self, spec, conditions, product_result, consistent,
                 kappa_f_report=None, omissions=(), info=(), witness=None, warnings=()):
        self.spec = spec
        self.conditions = list(conditions)
        self.product_result = product_result
        self.consistent = bool(consistent)
        self.kappa_f_report = kappa_f_report
        self.omissions = tuple(omissions)
        self.info = tuple(info)
        self.witness = witness
        self.warnings = tuple(dict.fromkeys(warnings))

    @property
    def conditions_passed(self):
        return all(c.passed for c in self.conditions)

    @property
    def product_passed(self):
        return self.product_result.passed

    def exit_code(self):
        if not self.consistent:
            return 2
        return 0 if self.product_passed else 1

    def machine_text(self):
        lines = []
        for c in self.conditions + [self.product_result]:
            lines.append("CONDITION %s %s margin=%.12g slack=%.12g"
                         % (c.name, "PASS" if c.passed else "FAIL", c.margin, c.slack))
        lines.append("OVERALL %s" % ("CONSISTENT" if self.consistent else "INCONSISTENT"))
        return "\n".join(lines) + "\n"

    def human_text(self):
        s = self.spec
        lines = ["certify %s(kappa=%.12g)" % (s.side, s.kappa),
                 "  base:  %s %s" % (s.base.get("kind"), s.base.get("params")),
                 "  warp:  %s (Lip=%s, zeros=%s)" % (s.warp.get("expr"),
                                                     s.warp.get("lipschitz"),
                                                     s.warp.get("zeros")),
                 "  fiber: %s %s" % (s.fiber.get("kind"), s.fiber.get("params")),
                 "  seed=%d quadruples=%d grid=%s tol=%.3g" % (s.seed, s.quadruples,
                                                               s.grid, s.tol),
                 ""]
        for c in self.conditions + [self.product_result]:
            lines.append("  %-24s %s  margin=%.12g  slack=%.12g"
                         % (c.name, "PASS" if c.passed else "FAIL", c.margin, c.slack))
            if c.detail:
                lines.append("      %s" % c.detail)
        for o in self.omissions:
            lines.append("  omitted: %s" % o)
        for i in self.info:
            lines.append("  info: %s" % i)
        for w in self.warnings:
            lines.append("  warning: %s" % w)
        k = self.kappa_f_report
        if k is not None:
            lines.append("  kappa_F: %.12g (branch %s, foot=%s, far=%s, gradient=%s)"
                         % (k.kappa_F, k.branch, k.kappa_foot, k.kappa_far,
                            k.gradient_form))
        lines.append("")
        lines.append("  conditions %s, product sampling %s => %s"
                     % ("PASS" if self.conditions_passed else "FAIL",
                        "PASS" if self.product_passed else "FAIL",
                        "CONSISTENT" if self.consistent else "INCONSISTENT"))
        return "\n".join(lines) + "\n"


def space_law(space, kappa, kind):
    """(margin, detail) of a 1-D space's curvature condition by its law.

    Intervals and rays are CAT(kappa) for every kappa, and a circle of
    length L is CAT(kappa) exactly when L >= 2*varpi(kappa) (Bridson and
    Haefliger, II.1).  The CBB side is the 1-D structural convention: at
    kappa > 0 a CBB space is not an interval longer than varpi, a ray, nor a
    circle longer than 2*varpi.  Each margin is in the law's own units, and
    +inf when the law does not constrain the space.  Other spaces have no
    law here: None.
    """
    w = varpi(kappa)    # +inf for kappa <= 0
    if isinstance(space, spaces.Circle):
        if kind == "CAT":
            return space.length - 2.0 * w, "law: Circle(L) is CAT(kappa) iff L >= 2 varpi"
        return 2.0 * w - space.length, "law: Circle(L) is CBB(kappa) iff L <= 2 varpi"
    if isinstance(space, (spaces.Interval, spaces.Ray)):
        if kind == "CAT":
            return INF, "law: intervals and rays are CAT(kappa) for every kappa"
        if isinstance(space, spaces.Ray):
            return (-INF if kappa > 0 else INF), "law: a ray is CBB(kappa) iff kappa <= 0"
        return w - (space.b - space.a), "law: Interval(a, b) is CBB(kappa) iff b - a <= varpi"
    return None


def _curvature_condition(name, space, kappa, kind, n, seed):
    """Curvature verdict on a space: by its law when space_law has one,
    else by n sampled quadruples."""
    if kappa == INF:
        return ConditionResult(name, True, INF, EXACT_SLACK, "vacuous: kappa_F = +inf")
    law = space_law(space, kappa, kind)
    if law is None:
        verdict = comparison.sample_comparisons(space, kappa, kind, n, seed)
        law = verdict.margin, "n=%d" % verdict.n_tested
    margin, detail = law
    return ConditionResult(name, margin >= -EXACT_SLACK, margin, EXACT_SLACK, detail)


def _convexity_condition(name, f, base, kappa, mode, seed):
    verdict = convexity.sinusoidal_test(f, base, kappa, mode=mode, seed=seed)
    detail = "classified %s over %d geodesics" % (verdict.classification,
                                                  verdict.geodesics_tested)
    if verdict.skipped:
        detail += ", %d supports skipped" % verdict.skipped
    return ConditionResult(name, verdict.passed, -verdict.worst_violation, verdict.tol, detail)


def certify(spec):
    """Run the full condition battery and the product sampler."""
    if isinstance(spec, dict):
        spec = TripleSpec.from_dict(spec)
    triple = build_triple(spec)
    base, f, fiber = triple.base, triple.warp, triple.fiber
    kappa = spec.kappa
    n = spec.quadruples
    seed = spec.seed
    cat = spec.side == "CAT"
    side, mode = ("cat", "convex") if cat else ("cbb", "concave")
    omissions = []

    kf = convexity.kappa_F(spec.side, triple, kappa)
    # the battery, one row per condition: (name, space, warp, kappa, seed
    # offset); a row with a warp is a convexity condition, one without a
    # curvature condition.  Only the CBB theorem has the doubled rows.
    rows = [("base_" + side, base, None, kappa, 11), ("warp_" + mode, base, f, kappa, 12)]
    if not cat:
        try:
            doubled, fdag = constructions.make_doubled(base, f)
            rows += [("doubled_cbb", doubled, None, kappa, 14),
                     ("doubled_warp_concave", doubled, fdag, kappa, 15)]
        except ValueError as e:
            omissions.append("doubling unavailable (%s); "
                             "certifying conditions (1),(3)/(4) only" % e)
    rows.append(("fiber_" + side, fiber, None, kf.kappa_F, 13))
    conditions = [_curvature_condition(name, space, k, spec.side, n, seed + s) if w is None
                  else _convexity_condition(name, w, space, k, mode, seed + s)
                  for name, space, w, k, s in rows]
    info = ["condition base_%s implies %s (informational, not part of the conjunction)"
            % (side, "Z is varpi-convex" if cat else "Z lies in the boundary of B")]
    if kf.cross_check_diff is not None:
        info.append("kappa_foot derivative/gradient cross-check difference %.3g"
                    % kf.cross_check_diff)

    product = build_product(spec, triple)
    slack = product_slack(spec, triple, product)
    wv = comparison.sample_comparisons(product, kappa, spec.side, n, seed, slack=slack)
    product_result = ConditionResult(
        "product_sampling", wv.passed, wv.margin, slack,
        "n=%d on %r" % (wv.n_tested, product))
    if isinstance(product, warped.GridWarpedOracle):
        info.append("distance engine: %d pairs solved by the Clairaut relation"
                    % product.solved)

    consistent = all(c.passed for c in conditions) == wv.passed
    return CertificationReport(spec, conditions, product_result, consistent,
                               kappa_f_report=kf, omissions=omissions, info=info,
                               witness=wv.witness, warnings=kf.warnings + tuple(triple.warnings))


def run_distance(spec, u, v, tol=None, geodesic_path=None):
    """Distance (and optional geodesic TSV dump) on the spec's product."""
    if isinstance(spec, dict):
        spec = TripleSpec.from_dict(spec)
    triple = build_triple(spec)
    tol = spec.tol if tol is None else float(tol)
    value = warped.warped_distance(triple, u, v, tol=tol)
    if geodesic_path is not None:
        poly = warped.warped_geodesic(triple, u, v, resolution=tol)
        dump_geodesic(poly, triple, geodesic_path)
    return value


def dump_geodesic(poly, triple, path):
    """Write a polyline as TSV: t, base coords, fiber param, v_B, v_F, f."""
    base_pts = np.atleast_2d(np.asarray(poly.base_points, float))
    if base_pts.shape[0] == 1 and len(poly.params) > 1:
        base_pts = base_pts.T
    base_pts = base_pts.reshape(len(poly.params), -1)
    fvals = warped._eval_f(triple.warp, triple.base, base_pts)
    ncols = base_pts.shape[1]
    header = ["t"] + ["base%d" % i for i in range(ncols)] + [
        "fiber", "v_B", "v_F", "f"]
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for k, t in enumerate(poly.params):
            row = [t] + list(base_pts[k]) + [poly.fiber_params[k],
                                             poly.speed_base[k],
                                             poly.speed_fiber[k], fvals[k]]
            fh.write("\t".join("%.12g" % float(np.asarray(x).reshape(())) for x in row)
                     + "\n")


def parse_space_arg(text):
    """Space from a CLI string like circle:6.28, interval:0,1, tripod."""
    parts = str(text).split(":", 1)
    kind = parts[0]
    params = []
    if len(parts) == 2 and parts[1]:
        if kind == "finite":
            params = parts[1]
        else:
            params = [float(x) for x in parts[1].split(",")]
    return build_space(kind, params)


def run_sample(target, kind, kappa, n, seed):
    """Quadruple sampling on a spec's product or a named space."""
    slack = EXACT_SLACK
    if isinstance(target, spaces.MetricOracle):
        space = target
    elif isinstance(target, TripleSpec):
        triple = build_triple(target)
        space = build_product(target, triple)
        slack = max(slack, product_slack(target, triple, space))
    else:
        space = parse_space_arg(target)
    return comparison.sample_comparisons(space, kappa, kind, n, seed, slack=slack)
