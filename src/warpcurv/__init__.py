"""Warped-product metric spaces and curvature-bound certification."""

from .model import (UNDEFINED, ModelTriangle, angle_from_sides, cs, is_defined,
                    model_distance, side_from_angle, sn, varpi)
from .spaces import (Circle, FiniteMetric, GeodesicPolyline, Interval,
                     MetricOracle, ModelDisk, PointSpace, Ray, tripod,
                     verify_metric_axioms)
from .comparison import (ComparisonVerdict, Quadruple, point_side_test,
                         sample_comparisons, test_1plus3, test_2plus2)
from .warped import (ClairautReport, ConvergenceError, GridWarpedOracle,
                     WarpFunction, WarpedPoint, WarpedTriple, clairaut_check,
                     leaf_extrinsic_curvature, recover_warp, warped_distance,
                     warped_geodesic)
from .convexity import (ConvexityVerdict, GradientEstimate, KappaFReport,
                        dist_Z, dist_Z_realizers, gradient_norm, kappa_F,
                        sinusoidal_test, zero_set)
from .constructions import (ConeSpace, DoubledDisk, KappaCone, ScaledSpace,
                            SuspensionSpace, make_doubled, scale_space)
from .certify import (CertificationReport, ConditionResult, SpecError,
                      TripleSpec, build_space, build_triple, certify,
                      run_distance, run_sample)

__version__ = "0.1.0"
