"""Command-line interface tests with frozen golden reports."""

import math

import pytest

from warpcurv import warped
from warpcurv.cli import main

SUSP_SPEC = (
    "side: CBB\nkappa: 1.0\n"
    "base: {kind: interval, params: [0.0, 3.141592653589793]}\n"
    "warp: {expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}\n"
    "fiber: {kind: circle, params: [6.283185307179586]}\n"
    "budget: {quadruples: 2000, grid: 256}\ntol: 1.0e-3\nseed: 3\n")

CONE_SHORT_CAT_SPEC = (
    "side: CAT\nkappa: 0.0\n"
    "base: {kind: ray, params: [2.0]}\n"
    "warp: {expr: t, lipschitz: 1.0, zeros: [0.0]}\n"
    "fiber: {kind: circle, params: [5.654866776461628]}\n"
    "budget: {quadruples: 2000, grid: 512}\ntol: 1.0e-3\nseed: 7\n")

GOLDEN_SUSP = (
    "CONDITION base_cbb PASS margin=0 slack=1e-09\n"
    "CONDITION warp_concave PASS margin=-7.77156117238e-16 slack=1e-09\n"
    "CONDITION doubled_cbb PASS margin=0 slack=1e-09\n"
    "CONDITION doubled_warp_concave PASS margin=-6.66133814775e-16 slack=1e-09\n"
    "CONDITION fiber_cbb PASS margin=-2.1369572778e-10 slack=1e-09\n"
    "CONDITION product_sampling PASS margin=-5.72875080707e-13 slack=1e-09\n"
    "OVERALL CONSISTENT\n")

GOLDEN_CONE_SHORT_CAT = (
    "CONDITION base_cat PASS margin=0 slack=1e-09\n"
    "CONDITION warp_convex PASS margin=-4.4408920985e-16 slack=1e-09\n"
    "CONDITION fiber_cat FAIL margin=-2.54484533285 slack=1e-09\n"
    "CONDITION product_sampling FAIL margin=-0.265599848814 slack=1e-09\n"
    "OVERALL CONSISTENT\n")


@pytest.fixture
def susp_file(tmp_path):
    p = tmp_path / "susp.yaml"
    p.write_text(SUSP_SPEC)
    return str(p)


@pytest.fixture
def cone_file(tmp_path):
    p = tmp_path / "cone.yaml"
    p.write_text(CONE_SHORT_CAT_SPEC)
    return str(p)


def test_certify_golden_pass(susp_file, capsys):
    code = main(["certify", susp_file])
    assert capsys.readouterr().out == GOLDEN_SUSP
    assert code == 0


def test_certify_golden_consistent_fail(cone_file, capsys):
    code = main(["certify", cone_file])
    assert capsys.readouterr().out == GOLDEN_CONE_SHORT_CAT
    assert code == 1


def test_determinism_byte_identical(susp_file, capsys):
    main(["certify", susp_file])
    first = capsys.readouterr().out
    main(["certify", susp_file])
    second = capsys.readouterr().out
    assert first == second


def test_report_text_format(susp_file, capsys):
    code = main(["report", susp_file, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CONSISTENT" in out and "kappa_F" in out


def test_distance_verb(susp_file, capsys, tmp_path):
    out_tsv = tmp_path / "geo.tsv"
    code = main(["distance", susp_file,
                 "--from", "1.5707963267948966,0",
                 "--to", "1.5707963267948966,3.141592653589793",
                 "--geodesic", str(out_tsv)])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(math.pi, abs=3e-3)
    header = out_tsv.read_text().splitlines()[0].split("\t")
    assert header == ["t", "base0", "fiber", "v_B", "v_F", "f"]


def test_sample_verb(capsys):
    code = main(["sample", "circle:6.783185307179586",
                 "--kind", "CAT", "--kappa", "0", "-n", "400", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("SAMPLE CAT kappa=0 FAIL margin=")
    assert out.count("WITNESS") == 4
    code = main(["sample", "interval:0,2",
                 "--kind", "CBB", "--kappa", "0", "-n", "300", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0 and " PASS " in out


def test_input_error_exit_code(capsys, tmp_path):
    assert main(["certify", str(tmp_path / "nope.yaml")]) == 3
    bad = tmp_path / "bad.yaml"
    bad.write_text("side: CAT\n")
    assert main(["certify", str(bad)]) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 3


def test_convergence_error_exit_code(susp_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise warped.ConvergenceError("grid refinement did not converge to tol=1e-13",
                                      bracket=(2.5, 2.75))
    monkeypatch.setattr(warped, "reduced_distance", fail)
    code = main(["distance", susp_file, "--from", "1.0,0", "--to", "2.0,1.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "did not converge" in captured.err
    assert "[2.5, 2.75]" in captured.err
