"""The package imports, and its CLI verbs run, without loading scipy."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from warpcurv import warped

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

GRID_SPEC = (
    "side: CAT\nkappa: 0.0\n"
    "base: {kind: interval, params: [0.0, 2.0]}\n"
    "warp: {expr: '1 + 0.3*t**2', lipschitz: 1.2, zeros: []}\n"
    "fiber: {kind: circle, params: [3.0]}\n"
    "budget: {quadruples: 40}\ntol: 1.0e-3\nseed: 1\n")

CLOSED_SPEC = (
    "side: CBB\nkappa: 1.0\n"
    "base: {kind: interval, params: [0.0, 3.141592653589793]}\n"
    "warp: {expr: sin(t), lipschitz: 1.0, zeros: [0.0, 3.141592653589793]}\n"
    "fiber: {kind: circle, params: [6.283185307179586]}\n"
    "budget: {quadruples: 200}\ntol: 1.0e-3\nseed: 3\n")

# a fresh interpreter: the test process may hold scipy already
SCRIPT = textwrap.dedent("""
    import contextlib, io, sys
    import warpcurv
    from warpcurv.cli import main
    grid, closed, geo = sys.argv[1:]
    calls = [["certify", grid], ["certify", closed],
             ["distance", closed, "--from", "1.0,0", "--to", "2.0,1.5", "--geodesic", geo],
             ["sample", "circle:6.28", "--kind", "CAT", "--kappa", "0", "-n", "40",
              "--seed", "1"]]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1), (argv, code)
    print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_cli_verbs_load_no_scipy(tmp_path):
    grid, closed = tmp_path / "grid.yaml", tmp_path / "closed.yaml"
    grid.write_text(GRID_SPEC)
    closed.write_text(CLOSED_SPEC)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(grid), str(closed),
                          str(tmp_path / "geo.tsv")],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.strip() == ""


def test_tracer_names_resolve_to_scipy():
    pytest.importorskip("scipy")
    from scipy.optimize import minimize
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra
    assert warped.minimize is minimize
    assert warped.coo_matrix is coo_matrix
    assert warped.dijkstra is dijkstra
    # stored on first access, as bench/tracer.py reads them from vars(warped)
    assert {"minimize", "coo_matrix", "dijkstra"} <= set(vars(warped))


def test_other_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        warped.no_such_name
