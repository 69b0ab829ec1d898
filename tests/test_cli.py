"""Command-line interface tests with frozen golden reports."""

import importlib
import math

import pytest
import yaml

from warpcurv import convexity, spaces, warped
from warpcurv.cli import main

# the module: the package exports its certify function under the same name
spec_module = importlib.import_module("warpcurv.certify")

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
    "CONDITION product_sampling PASS margin=-5.30242516561e-13 slack=1e-09\n"
    "OVERALL CONSISTENT\n")

GOLDEN_CONE_SHORT_CAT = (
    "CONDITION base_cat PASS margin=inf slack=1e-09\n"
    "CONDITION warp_convex PASS margin=-4.4408920985e-16 slack=1e-09\n"
    "CONDITION fiber_cat FAIL margin=-0.628318530718 slack=1e-09\n"
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
    for text in ("side: CAT\n", "side: [CAT\n", "side: CAT\n  kappa: 0\n", "{side: CAT\n"):
        bad.write_text(text)
        assert main(["certify", str(bad)]) == 3
        assert capsys.readouterr().out == ""


def test_spec_loaders_agree(tmp_path, monkeypatch):
    # spec files parse with libyaml where PyYAML has it; the pure-Python
    # loader must read every spec of these tests the same way
    assert spec_module._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    texts = [SUSP_SPEC, CONE_SHORT_CAT_SPEC, FLAT_SPEC,
             SUSP_SPEC.replace("{expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}",
                               "{expr: '2.0 + sin(t)', lipschitz: 1.0, zeros: []}")]
    for k, text in enumerate(texts):
        path = tmp_path / ("spec%d.yaml" % k)
        path.write_text(text)
        specs = []
        for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
            monkeypatch.setattr(spec_module, "_YAML_LOADER", loader)
            specs.append(vars(spec_module.TripleSpec.from_file(str(path))))
        assert specs[0] == specs[1]


def test_disk_base_spec_rejected(capsys, tmp_path):
    spec = tmp_path / "disk.yaml"
    spec.write_text(
        "side: CBB\nkappa: 0.0\n"
        "base: {kind: disk, params: [0.0, 1.0]}\n"
        "warp: {expr: '1.0 + 0.0*r', lipschitz: 0.0}\n"
        "fiber: {kind: circle, params: [6.283185307179586]}\n"
        "budget: {quadruples: 10}\ntol: 1.0e-3\nseed: 1\n")
    for argv in (["certify", str(spec)], ["report", str(spec)],
                 ["distance", str(spec), "--from", "0.5,0,0", "--to", "0.5,1,1"],
                 ["sample", str(spec), "--kind", "CBB", "--kappa", "0", "-n", "10"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "disk bases are not supported" in captured.err


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


FLAT_SPEC = (
    "side: CBB\nkappa: 0.0\n"
    "base: {kind: interval, params: [0.0, 2.0]}\n"
    "warp: {expr: '0.7', lipschitz: 0.0, zeros: []}\n"
    "fiber: {kind: circle, params: [6.283185307179586]}\n"
    "budget: {quadruples: 200}\ntol: 1.0e-3\nseed: 1\n")


def test_doubled_warp_failure_is_an_error(capsys, monkeypatch, tmp_path):
    # the doubled base of [0, 2] without zeros is the circle of length 4; a
    # failing concavity test there must not turn into an omission
    spec = tmp_path / "flat.yaml"
    spec.write_text(FLAT_SPEC)
    real = convexity.sinusoidal_test

    def fail_on_circle(f, base, *args, **kwargs):
        if isinstance(base, spaces.Circle):
            raise ValueError("sinusoidal test failed on %r" % (base,))
        return real(f, base, *args, **kwargs)
    monkeypatch.setattr(convexity, "sinusoidal_test", fail_on_circle)
    assert main(["report", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sinusoidal test failed on Circle(4)" in captured.err


def test_small_samples(capsys, tmp_path):
    # at most 10 quadruples: the adversarial pool is too small to bend any
    assert main(["sample", "circle:6.28", "-n", "8", "--kind", "CAT", "--kappa", "1"]) == 1
    assert capsys.readouterr().out.startswith(
        "SAMPLE CAT kappa=1 FAIL margin=-0.330004430203 n=8 slack=1e-09\n")
    spec = tmp_path / "small.yaml"
    spec.write_text(SUSP_SPEC.replace("quadruples: 2000", "quadruples: 8"))
    assert main(["certify", str(spec)]) == 0
    assert capsys.readouterr().out.endswith(
        "CONDITION product_sampling PASS margin=0 slack=1e-09\n"
        "OVERALL CONSISTENT\n")


@pytest.mark.parametrize("warp, message", [
    ("{expr: sin(t), lipschitz: 1.0, zeros: [0.0, 1.0]}", "declared zero 1 is not a zero"),
    ("{expr: sin(t), lipschitz: 0.5, zeros: [0.0]}", "declared Lipschitz constant 0.5 is below"),
], ids=["zero", "lipschitz"])
def test_declared_hints_are_checked(capsys, tmp_path, warp, message):
    spec = tmp_path / "hint.yaml"
    spec.write_text(SUSP_SPEC.replace(
        "{expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}", warp))
    for argv in (["certify", str(spec)], ["distance", str(spec), "--from", "1,0", "--to", "2,1"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("expr", ["sin(t, t)", "abs(t, t)", "max(t, 0.5*t, t)", "sin()",
                                  "min(t + 1, 2, 3)", "pi(t)", "t(1)"])
def test_malformed_calls_are_spec_errors(capsys, tmp_path, expr):
    # extra arguments of a numpy function are its out= arrays, and a call
    # of a number or of t is no function call
    spec = tmp_path / "call.yaml"
    spec.write_text(SUSP_SPEC.replace("expr: sin(t),", "expr: '%s'," % expr))
    assert main(["certify", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "min and max with two arguments" in captured.err


def test_warp_that_jumps_at_the_seam_is_a_spec_error(capsys, tmp_path):
    spec = tmp_path / "seam.yaml"
    spec.write_text(SUSP_SPEC.replace("kind: interval, params: [0.0, 3.141592653589793]",
                                      "kind: circle, params: [3.0]").replace(
        "{expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}",
        "{expr: 1 + abs(sin(3*t)), lipschitz: 3.0, zeros: []}"))
    assert main(["certify", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jumps at the seam" in captured.err
