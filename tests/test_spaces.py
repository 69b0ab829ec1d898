"""Catalog space and metric-axiom tests."""

import math

import numpy as np
import pytest

from warpcurv import spaces


CATALOG = [
    spaces.Interval(0.0, 2.0),
    spaces.Ray(sample_extent=3.0),
    spaces.Circle(5.0),
    spaces.tripod(1.0),
    spaces.ModelDisk(0.0, 1.0),
    spaces.ModelDisk(1.0, 1.2),
    spaces.ModelDisk(-1.0, 1.5),
]


@pytest.mark.parametrize("space", CATALOG, ids=lambda s: repr(s))
def test_metric_axioms(space):
    passed, witness, worst = spaces.verify_metric_axioms(space, 64, seed=3)
    assert passed, "axiom violation %r worst=%g" % (witness, worst)


def test_interval_distances():
    iv = spaces.Interval(-1.0, 2.0)
    assert iv.distance(-1.0, 2.0) == 3.0
    assert iv.interpolate(0.0, 2.0, 0.25) == pytest.approx(0.5)
    assert not iv.contains(2.5)


def test_circle_distances():
    c = spaces.Circle(6.0)
    assert c.distance(0.0, 3.0) == 3.0
    assert c.distance(0.5, 5.5) == pytest.approx(1.0)
    # interpolation follows the shorter arc
    assert c.interpolate(0.5, 5.5, 0.5) == pytest.approx(0.0)


def test_finite_metric_and_tripod():
    t = spaces.tripod(1.0)
    # leaves are at mutual distance 2 through the branch point
    assert t.distance(1, 2) == pytest.approx(2.0)
    assert t.distance(0, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        spaces.FiniteMetric([[0.0, 5.0], [4.0, 0.0]])
    with pytest.raises(ValueError):
        spaces.FiniteMetric([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])


def test_finite_metric_from_file(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
    fm = spaces.FiniteMetric.from_file(str(p))
    assert fm.distance(0, 2) == 2.0


def test_disk_distances_flat():
    d = spaces.ModelDisk(0.0, 1.0)
    # polar points: (r, theta)
    assert d.distance([0.5, 0.0], [0.5, math.pi]) == pytest.approx(1.0, abs=1e-9)
    assert d.distance([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
    mid = d.interpolate([0.5, 0.0], [0.5, math.pi], 0.5)
    assert np.asarray(mid)[0] == pytest.approx(0.0, abs=1e-9)


def test_disk_distances_spherical():
    d = spaces.ModelDisk(1.0, 1.0)
    # two points on the same meridian circle
    x, y = [0.8, 0.0], [0.8, math.pi / 2]
    # spherical law of cosines oracle
    expect = math.acos(math.cos(0.8) ** 2 + math.sin(0.8) ** 2 * math.cos(math.pi / 2))
    assert d.distance(x, y) == pytest.approx(expect, abs=1e-9)


def test_geodesic_polyline_speeds():
    iv = spaces.Interval(0.0, 1.0)
    poly = iv.geodesic(0.0, 1.0, resolution=0.1)
    assert poly.total_length == pytest.approx(1.0)
    assert np.all(np.diff(poly.params) > 0)


def test_rng_streams_independent():
    a = spaces.rng(1, stream=0).random(4)
    b = spaces.rng(1, stream=1).random(4)
    c = spaces.rng(1, stream=0).random(4)
    assert np.allclose(a, c)
    assert not np.allclose(a, b)


# ModelDisk(1, 2) is not convex (R >= varpi / 2), so its distances are
# lattice paths.  Values pinned from the separate per-pair graph builder
# this lattice replaced; the last rows are near-antipodal pairs whose
# paths go around the removed cap.
NONCONVEX_DISK_GOLDEN = [
    ((0.5, 0.0), (1.5, 2.0), 1.7260751376040062),
    ((1.2, 0.7), (1.9, 3.5), 2.8258749853401977),
    ((0.3, 5.0), (1.0, 1.9), 1.3000665030557397),
    ((1.6, 2.2), (1.4, 5.4), 3.0007304190852135),
    ((0.9, 4.0), (1.99, 0.9), 2.8937350821888503),
    ((1.8, 0.0), (1.8, 3.1), 2.9290440578042047),
    ((1.95, 1.0), (1.7, 4.1), 2.922332453646918),
    ((2.0, 0.3), (2.0, 3.44), 2.8551691600313744),
]


def test_nonconvex_disk_golden():
    disk = spaces.ModelDisk(1.0, 2.0)
    xs = np.array([x for x, _, _ in NONCONVEX_DISK_GOLDEN])
    ys = np.array([y for _, y, _ in NONCONVEX_DISK_GOLDEN])
    got = disk.dist_pairs(xs, ys)
    assert got == pytest.approx([d for _, _, d in NONCONVEX_DISK_GOLDEN], rel=1e-12, abs=0)
    # no path inside the disk beats the spherical law of cosines
    law = np.arccos(np.cos(xs[:, 0]) * np.cos(ys[:, 0])
                    + np.sin(xs[:, 0]) * np.sin(ys[:, 0]) * np.cos(ys[:, 1] - xs[:, 1]))
    assert np.all(got >= law - 1e-12)
    assert np.all(got[-3:] > law[-3:] + 0.2)


def test_polar_lattice_is_shared_and_read_only():
    lat = spaces.polar_lattice(1.0, 2.0, 8, 16)
    assert spaces.polar_lattice(1.0, 2.0, 8, 16) is lat
    src, dst, length = lat.edges()
    assert len(src) == len(dst) == len(length) == 16 * (9 + 8 * 5 + 7 * 2)
    assert len(lat.edges(4)[0]) == 16 * (9 + 8 * 3)
    with pytest.raises(ValueError):
        length[0] = 0.0
    cells, w = lat.attach(np.array([0.0, 0.0]), 1)
    assert len(cells) == 6      # rings 0 and 1 only
    assert np.allclose(w[:3], 0.0) and np.allclose(w[3:], 0.25)


def test_geodesic_samples_interpolate():
    c = spaces.Circle(6.0)
    poly = c.geodesic(0.5, 5.5, resolution=0.25)
    assert len(poly) == 5 and poly.total_length == pytest.approx(1.0)
    assert poly.points[2] == pytest.approx(0.0)
    # interpolate() is None off convex disks, so is the geodesic
    assert spaces.ModelDisk(1.0, 2.0).geodesic([0.5, 0.0], [0.5, 1.0], 0.1) is None
    assert spaces.tripod().geodesic(1, 2, 0.1) is None
    assert len(spaces.PointSpace().geodesic(0.0, 0.0, 0.1)) == 2


def test_fiber_coords_round_finite_metric_indices():
    t = spaces.tripod()
    got = spaces.fiber_coords(t, np.array([0.9999999, 2.4, 2.6]))
    assert got.dtype.kind == "i" and list(got) == [1, 2, 3]
    col = np.array([0.9999999])
    assert spaces.fiber_coords(spaces.Circle(1.0), col) is col
