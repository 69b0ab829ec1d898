"""Closed-form constructions: cones, suspensions, scaling, doubling.

ConeSpace and SuspensionSpace, two KappaCones, give exact metrics to test
the numerical engine against; make_doubled reflects a base across the closure of
(boundary minus zero set), the step that turns one-sided warp
conditions into two-sided ones.
"""

import math

from warpcurv import (Circle, ConeSpace, Interval, SuspensionSpace, WarpFunction,
                      make_doubled, scale_space)


def main():
    cone = ConeSpace(Circle(2 * math.pi), a=1.0)
    print("flat cone d((1,0),(1,pi/2)) = %.6f (sqrt 2 = %.6f)"
          % (cone.distance((1.0, 0.0), (1.0, math.pi / 2)), math.sqrt(2)))

    # a cone over a 2-point fiber is two rays glued at the apex
    from warpcurv import FiniteMetric
    two = ConeSpace(FiniteMetric([[0.0, 3.0], [3.0, 0.0]]), a=1.0)
    print("cone over 2 points d((1,p),(2,q)) = %.6f (through apex: 3)"
          % two.distance((1.0, 0), (2.0, 1)))

    sphere = SuspensionSpace(Circle(2 * math.pi))
    d = sphere.distance((math.pi / 3, 0.0), (2 * math.pi / 3, 1.0))
    cosd = (math.cos(math.pi / 3) * math.cos(2 * math.pi / 3)
            + math.sin(math.pi / 3) * math.sin(2 * math.pi / 3) * math.cos(1.0))
    print("suspension vs spherical law: %.6f vs %.6f" % (d, math.acos(cosd)))

    half = scale_space(Circle(2 * math.pi), 0.5)
    print("scaled circle diameter: %.6f" % half.distance(0.0, math.pi))

    print("doubling:")
    for desc, base, f in [
        ("cos on [0, pi/2]", Interval(0.0, math.pi / 2),
         WarpFunction.from_expression("cos(t)", 1.0, zeros=(math.pi / 2,))),
        ("constant on [0, 1]", Interval(0.0, 1.0), WarpFunction.constant(1.0)),
        ("t on [0, 1]", Interval(0.0, 1.0), WarpFunction.linear(1.0)),
    ]:
        doubled, fdag = make_doubled(base, f)
        print("  %-18s -> %s, f-dagger = %s" % (desc, doubled.kind, fdag.expr))


if __name__ == "__main__":
    main()
