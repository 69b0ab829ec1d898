"""Certification battery tests."""

import math

import pytest

from warpcurv import comparison, spaces, warped
from warpcurv.certify import (ProductSpace, SpecError, TripleSpec, build_space,
                              build_triple, build_product, certify,
                              parse_space_arg, run_distance, run_sample, space_law)
from warpcurv.comparison import sample_comparisons


def susp_doc(**over):
    doc = {
        "side": "CBB", "kappa": 1.0,
        "base": {"kind": "interval", "params": [0.0, math.pi]},
        "warp": {"expr": "sin(t)", "lipschitz": 1.0,
                 "zeros": [0.0, math.pi]},
        "fiber": {"kind": "circle", "params": [2 * math.pi]},
        "budget": {"quadruples": 1000, "grid": 256},
        "tol": 1e-3, "seed": 3,
    }
    doc.update(over)
    return doc


def cone_doc(side, L, **over):
    doc = {
        "side": side, "kappa": 0.0,
        "base": {"kind": "ray", "params": [2.0]},
        "warp": {"expr": "t", "lipschitz": 1.0, "zeros": [0.0]},
        "fiber": {"kind": "circle", "params": [L]},
        "budget": {"quadruples": 1500, "grid": 512},
        "tol": 1e-3, "seed": 7,
    }
    doc.update(over)
    return doc


def test_spec_parse_errors():
    with pytest.raises(SpecError):
        TripleSpec.from_dict({"side": "CAT"})
    with pytest.raises(SpecError):
        TripleSpec.from_dict(susp_doc(side="WRONG"))
    with pytest.raises(SpecError):
        build_space("nonsense")
    with pytest.raises(SpecError):
        build_space("interval", [1.0])


def test_spec_file_roundtrip(tmp_path):
    p = tmp_path / "s.yaml"
    p.write_text(
        "side: CBB\nkappa: 1.0\n"
        "base: {kind: interval, params: [0.0, 3.141592653589793]}\n"
        "warp: {expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}\n"
        "fiber: {kind: circle, params: [6.283185307179586]}\n"
        "budget: {quadruples: 500, grid: 128}\ntol: 1.0e-3\nseed: 3\n")
    spec = TripleSpec.from_file(str(p))
    assert spec.side == "CBB" and spec.quadruples == 500
    with pytest.raises(SpecError):
        TripleSpec.from_file(str(tmp_path / "missing.yaml"))


def test_fast_path_detection():
    # the a sn_kappa warps are in tests/test_kappa_cone.py
    spec = TripleSpec.from_dict(susp_doc(
        warp={"expr": "2.0", "lipschitz": 0.0, "zeros": []}))
    prod = build_product(spec, build_triple(spec))
    assert isinstance(prod, ProductSpace)

    spec = TripleSpec.from_dict(susp_doc(
        warp={"expr": "2.0 + sin(t)", "lipschitz": 1.0, "zeros": []}))
    prod = build_product(spec, build_triple(spec))
    assert isinstance(prod, warped.GridWarpedOracle)


def test_product_space_metric():
    p = ProductSpace(spaces.Interval(0.0, 4.0), 1.0, spaces.Circle(20.0))
    assert p.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_certify_suspension_consistent_pass():
    rep = certify(susp_doc())
    assert rep.conditions_passed and rep.product_passed and rep.consistent
    assert rep.exit_code() == 0
    assert rep.kappa_f_report.kappa_F == pytest.approx(1.0, abs=1e-6)


def test_certify_cone_duality_flips():
    outcomes = {}
    for L in (2 * math.pi * 0.9, 2 * math.pi * 1.1):
        for side in ("CAT", "CBB"):
            rep = certify(cone_doc(side, L))
            assert rep.consistent
            outcomes[(side, round(L, 3))] = rep.product_passed
    assert outcomes[("CAT", 5.655)] is False
    assert outcomes[("CBB", 5.655)] is True
    assert outcomes[("CAT", 6.912)] is True
    assert outcomes[("CBB", 6.912)] is False


def test_certify_degrades_without_doubling():
    doc = susp_doc(
        base={"kind": "interval", "params": [-1.0, 1.0]},
        warp={"expr": "abs(t)", "lipschitz": 1.0, "zeros": [0.0]},
        budget={"quadruples": 12, "grid": 32}, tol=1e-2)
    rep = certify(doc)
    names = [c.name for c in rep.conditions]
    assert "doubled_cbb" not in names
    assert rep.omissions
    # f = |t| is not concave and the product has a branch point: both fail
    assert not rep.conditions_passed and not rep.product_passed
    assert rep.consistent and rep.exit_code() == 1


def test_machine_report_grammar():
    rep = certify(susp_doc())
    lines = rep.machine_text().splitlines()
    assert lines[-1] in ("OVERALL CONSISTENT", "OVERALL INCONSISTENT")
    for line in lines[:-1]:
        parts = line.split()
        assert parts[0] == "CONDITION"
        assert parts[2] in ("PASS", "FAIL")
        assert parts[3].startswith("margin=") and parts[4].startswith("slack=")
        float(parts[3][7:])
        float(parts[4][6:])


def test_run_distance_and_geodesic_dump(tmp_path):
    spec = TripleSpec.from_dict(susp_doc())
    out = tmp_path / "geo.tsv"
    d = run_distance(spec, [1.5707963267948966, 0.0],
                     [1.5707963267948966, math.pi], geodesic_path=str(out))
    assert d == pytest.approx(math.pi, abs=3e-3)
    lines = out.read_text().splitlines()
    assert lines[0].split("\t") == ["t", "base0", "fiber", "v_B", "v_F", "f"]
    assert len(lines) > 100


def test_run_sample_targets():
    v = run_sample(parse_space_arg("circle:6.783185307179586"), "CAT", 0.0, 400, 1)
    assert not v.passed
    v = run_sample("interval:0,2", "CBB", 0.0, 300, 1)
    assert v.passed
    v = run_sample(TripleSpec.from_dict(cone_doc("CBB", 5.0)), "CBB", 0.0, 500, 1)
    assert v.passed


def test_grid_text_report_is_deterministic():
    doc = susp_doc(warp={"expr": "2.0 + sin(t)", "lipschitz": 1.0, "zeros": []},
                   budget={"quadruples": 1}, tol=1e-2)
    first, second = (certify(doc).human_text() for _ in range(2))
    assert first == second
    assert "GridWarpedOracle(Interval(0, 3.14159) x_{2.0 + sin(t)} Circle(6.28319)" in first
    assert "object at" not in first


def test_warnings_only_in_human_report():
    doc = susp_doc(side="CAT", kappa=0.0, base={"kind": "interval", "params": [0.0, 1.0]},
                   warp={"expr": "abs(t - 0.5)", "lipschitz": 1.0},
                   budget={"quadruples": 1}, tol=1e-2)
    rep = certify(doc)
    # kappa_F and the distance engine each threshold f; the report says it once
    assert rep.kappa_f_report.warnings
    warning = "  warning: zero set detected by thresholding f < 1e-10 without a hint"
    assert [ln for ln in rep.human_text().splitlines() if "warning" in ln] == [warning]
    assert "warning" not in rep.machine_text()


LAW_SPACES = [spaces.Interval(0.0, 1.5), spaces.Ray(2.0),
              spaces.Circle(5.5), spaces.Circle(2 * math.pi + 0.5)]


@pytest.mark.parametrize("space", LAW_SPACES, ids=repr)
@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
def test_space_law_matches_sampler(space, kappa):
    # the sampler decides CAT at every kappa and CBB at kappa <= 0; at
    # kappa > 0 the CBB side is the structural convention
    for kind in ("CAT", "CBB") if kappa <= 0 else ("CAT",):
        margin, detail = space_law(space, kappa, kind)
        assert detail.startswith("law: ")
        v = sample_comparisons(space, kappa, kind, 2000, seed=4)
        assert (margin >= -1e-9) == v.passed, (kind, margin, v)


def test_space_law_structural_cbb():
    w = math.pi / 2.0    # varpi(4)
    assert space_law(spaces.Interval(0.0, 1.5), 4.0, "CBB")[0] == w - 1.5
    assert space_law(spaces.Interval(-1.0, 1.0), 4.0, "CBB")[0] == w - 2.0
    assert space_law(spaces.Ray(2.0), 4.0, "CBB")[0] == -math.inf
    assert space_law(spaces.Circle(5.5), 1.0, "CBB")[0] == 2 * math.pi - 5.5
    assert space_law(spaces.Circle(2 * math.pi + 0.5), 1.0, "CBB")[0] == pytest.approx(-0.5)
    assert space_law(spaces.tripod(1.0), 1.0, "CBB") is None


def test_one_dimensional_conditions_do_not_sample(monkeypatch):
    sampled = []
    sampler = comparison.sample_comparisons

    def spy(space, *args, **kw):
        sampled.append(space)
        return sampler(space, *args, **kw)
    monkeypatch.setattr(comparison, "sample_comparisons", spy)
    for doc in (cone_doc("CAT", 5.0, budget={"quadruples": 100}),
                susp_doc(budget={"quadruples": 100})):
        sampled.clear()
        rep = certify(doc)
        assert len(sampled) == 1 and "n=100 on %r" % sampled[0] in rep.product_result.detail
    sampled.clear()
    certify(cone_doc("CAT", 5.0, fiber={"kind": "tripod", "params": [1.0]},
                     budget={"quadruples": 100}))
    assert len(sampled) == 2 and isinstance(sampled[0], spaces.FiniteMetric)


def test_hyperbolic_plane_fiber_law():
    # Ray x_sinh Circle(2 pi) is H^2; kappa_F = 1 - 1.6e-12 by roundoff, which
    # a sampled circle margin amplified into a false FAIL (exit 2)
    rep = certify({"side": "CAT", "kappa": -1.0,
                   "base": {"kind": "ray", "params": [1.5]},
                   "warp": {"expr": "sinh(t)", "lipschitz": math.cosh(1.5), "zeros": [0.0]},
                   "fiber": {"kind": "circle", "params": [2 * math.pi]},
                   "budget": {"quadruples": 200}, "tol": 1e-3, "seed": 5})
    fiber = [c for c in rep.conditions if c.name == "fiber_cat"][0]
    assert -1e-11 < fiber.margin <= 0.0
    assert rep.exit_code() == 0
