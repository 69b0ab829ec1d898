"""Distances in warped products B x_f F via the Clairaut solve.

On a 1-D base the engine reduces to an interval fiber of length d_F and
takes the shortest Clairaut-arc candidate (monotone, one turning point,
riding the leaf over a kink or a boundary) or the path through the zero
set; the lattice engine answers only the pairs no family solves.
Closed-form spaces give exact answers to check against.
"""

import math

from warpcurv import Circle, Interval, Ray, WarpFunction, WarpedTriple, warped_distance


def main():
    # flat cone: Ray x_t Circle(2pi) unrolls to the plane
    cone = WarpedTriple(Ray(2.0), WarpFunction.linear(1.0), Circle(2 * math.pi))
    got = warped_distance(cone, (1.0, 0.0), (1.0, math.pi / 2), tol=1e-3)
    expect = math.sqrt(2.0)  # law of cosines at the apex angle pi/2
    print("cone, quarter turn at radius 1: %.6f (exact %.6f)" % (got, expect))

    # spherical suspension of a circle is the round sphere
    susp = WarpedTriple(Interval(0.0, math.pi), WarpFunction.sin(),
                        Circle(2 * math.pi))
    got = warped_distance(susp, (math.pi / 2, 0.0), (math.pi / 2, 1.0), tol=1e-3)
    print("suspension, equator arc of 1:    %.6f (exact 1.0)" % got)

    # vanishing warp in the interior: the product pinches to a point
    # over t = 0 and distant fibers connect through the pinch
    two = WarpedTriple(Interval(-1.0, 1.0), WarpFunction.abs_t(),
                       Circle(2 * math.pi))
    got = warped_distance(two, (-0.75, 0.0), (0.5, math.pi), tol=1e-3)
    print("two-piece |t| warp:              %.6f (exact %.6f)" % (got, 0.75 + 0.5))

    # fiber independence: only d_F(u, v) matters, not the fiber's shape
    f = WarpFunction.from_expression("1 + 0.5*sin(t)", 0.5)
    for fiber, u, v in [(Interval(0.0, 3.0), 0.5, 1.7),
                        (Circle(5.0), 0.0, 1.2)]:
        t = WarpedTriple(Interval(0.0, 3.0), f, fiber)
        d = warped_distance(t, (0.4, u), (2.6, v), tol=1e-3)
        print("same d_F = 1.2 over %-12s -> %.6f" % (fiber.kind, d))


if __name__ == "__main__":
    main()
