#!/usr/bin/env python3
"""warpcurv benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout; the package is imported from
`src/`.  One process, one thread: the BLAS pools are pinned to one thread
before numpy loads, and each op starts only after the previous returns.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced passes over the same rounds and prints the per-layer
metrics, the tracing overhead and the comparison with the ROADMAP
baseline.  The last line of stdout is one JSON object; the lines before
it name every figure with its unit.  Spans and a full result record go
to `.bench_out/`.  Exit 1 when an output breaks the correctness gate,
2 when there is no package source to measure.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# rounds generated at set-up; a run stops early if it uses them all
ROUND_CAP = {"certify-closed": 64, "certify-grid": 12, "distance-1d": 64, "polar-lattice": 256}
SETUP_REPEATS = 7

# the gated metrics; peak_rss_mb is printed but not gated, because on
# distance-1d it jumps by a third whenever one query refines to a finer lattice
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"))

# ROADMAP re-anchor baseline: (per-layer metric, scale to its unit, ROADMAP value, unit)
ROADMAP = {
    "distance-1d": (("warped.polish_share", 1.0, 0.98, "ratio"),
                    ("warped.suspension_query_s", 1.0, 1.33, "s"),
                    ("warped.sin2t_query_s", 1.0, 0.52, "s")),
    "certify-closed": (("model.ns_per_triangle", 1e-3, 0.15, "s per 1e6 triangles"),
                       ("comparison.s_per_1e5_1plus3", 1.0, 0.21, "s"),
                       ("comparison.s_per_1e5_2plus2", 1.0, 0.60, "s")),
    "polar-lattice": (("spaces.disk_pair_ms", 1.0, 21.0, "ms"),
                      ("constructions.cross_pair_ms", 1.0, 12.0, "ms"),
                      ("warped.disk_query_mean_s", 1.0, 0.28, "s")),
    "certify-grid": (("certify.default_budget_extrapolated_s", 1.0, 1.7 * 3600, "s"),),
}


def child_import_s():
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import warpcurv; print(time.perf_counter() - t)" % str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT), env=dict(os.environ),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((SRC / "warpcurv").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  Unlike the sample quantile it does not jump between
    clusters when the op latencies form clusters with gaps between them."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def run_pass(ops, log, tracer=None, first_op=0):
    """Run one round's ops in order; returns the summed op latency."""
    total = 0.0
    for k, op in enumerate(ops):
        span = tracer.op_span(first_op + k, op.family) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = op.run()
            exc = None
        except Exception as e:  # an engine failure is counted, never fatal
            exc = e
        dt = time.perf_counter() - t0
        total += dt
        result = {"failed": True, "exc": repr(exc)[:300]} if exc else op.check(out)
        log.append((op.family, dt, result))
    return total


def main():
    from workloads import TOL, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "warpcurv" / "__init__.py").is_file():
        sys.stderr.write("bench: no package source under %s; nothing to measure\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    run_dir = OUT / ("%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, cls, run_dir, TOL)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, cls, run_dir, tol):
    # ---- set-up: import the package and build every input, several times
    t0 = time.perf_counter()
    import warpcurv  # noqa: F401
    import_s = [time.perf_counter() - t0]
    import_s += [child_import_s() for _ in range(SETUP_REPEATS - 1)]
    import exact
    from workloads import run_cli
    build_s = []
    cap = ROUND_CAP[args.workload]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(str(run_dir))
        rounds = [wl.round(args.seed, r) for r in range(cap + 1)]
        build_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    warmup = rounds.pop()[wl.warmup]

    gates = ["exact law %s disagrees with the package's closed form by %.3g" % (k, v)
             for k, v in exact.cross_check(args.seed).items() if not v <= 1e-9]
    warm_log = []
    run_pass([warmup], warm_log)

    # ---- timed phase: whole rounds, closed loop, until --seconds is spent
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    log, traced_log = [], []
    walls, traced_walls = [], []
    t_start = time.perf_counter()
    for r, ops in enumerate(rounds):
        if r and time.perf_counter() - t_start >= args.seconds:
            break
        if tracer is None:
            walls.append(run_pass(ops, log))
            continue
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    traced_walls.append(run_pass(ops, traced_log, tracer, len(traced_log)))
                finally:
                    tracer.uninstall()
            else:
                walls.append(run_pass(ops, log))
    elapsed = time.perf_counter() - t_start
    for name, expected, path in (wl.probes(args.seed) if hasattr(wl, "probes") else ()):
        code, _ = run_cli(path)
        print("probe %s %s exit=%d expected=%d" % (args.workload, name, code, expected))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- outputs: gate, quality and timing figures
    everything = log + traced_log
    gates += ["%s: %s" % (fam, res["gate"]) for fam, _, res in everything if "gate" in res]
    lat = [dt for _, dt, _ in log]
    failed = sum(1 for _, _, res in log if res.get("failed"))
    errs = [res["err"] for _, _, res in log if "err" in res]
    verdicts = [res["verdict_ok"] for _, _, res in log if "verdict_ok" in res]
    rels = [res["rel"] for _, _, res in log if "rel" in res]
    gaps = [res["gap"] for _, _, res in log if "gap" in res]
    n = len(lat)
    figures = {
        "setup_s": (setup_s, "s", "median of %d imports + median of %d input builds"
                    % (len(import_s), len(build_s))),
        "wall_s": (statistics.mean(walls), "s", "mean round time, %d rounds" % len(walls)),
        "ops_per_s": (n / (elapsed if tracer is None else sum(walls)), "1/s", "%d ops" % n),
        "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms", "n=%d, Harrell-Davis" % n),
        "peak_rss_mb": (peak_rss_mb, "MB", "max resident set of the process"),
    }
    if n * 0.1 >= 10:
        figures["op_p90_ms"] = (1e3 * hd_quantile(lat, 0.9), "ms", "n=%d, Harrell-Davis" % n)
    if errs:
        figures["max_err_over_tol"] = (max(errs) / tol, "ratio", "n=%d exact-law ops" % len(errs))
        figures["tol_miss_frac"] = (sum(e > tol for e in errs) / len(errs), "ratio",
                                    "n=%d exact-law ops" % len(errs))
    if rels:
        figures["max_rel_err"] = (max(rels), "ratio", "n=%d disk-base ops" % len(rels))
    if verdicts:
        figures["verdict_ok_frac"] = (sum(verdicts) / len(verdicts), "ratio",
                                      "n=%d certify ops" % len(verdicts))
    figures["error_frac"] = (failed / n, "ratio", "n=%d ops" % n)
    families = {}
    for fam, dt, _ in log:
        families.setdefault(fam, []).append(dt)
    for fam, dts in families.items():
        print("family %s %s p50 %.6g ms  (n=%d)" % (args.workload, fam,
                                                    1e3 * statistics.median(dts), len(dts)))
    for fam, _, res in log:
        if res.get("failed") and "exc" in res:
            print("error %s %s" % (fam, res["exc"]))

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "rounds": len(walls),
            "round_walls_s": walls, "import_s": import_s, "build_s": build_s,
            "family_p50_ms": {f: 1e3 * statistics.median(d) for f, d in families.items()}}
    print("env " + json.dumps(info["environment"], sort_keys=True))
    for name, (value, unit, note) in figures.items():
        print("metric %s %s %.6g %s  (%s)" % (args.workload, name, value, unit, note))

    if tracer is None:
        metrics = {name: figures[name][:2] for name, _ in END_TO_END}
    else:
        metrics = layer_metrics(tracer, log, walls, traced_walls, gaps)
        trace_path = OUT / ("trace-%s-s%d.jsonl" % (args.workload, args.seed))
        tracer.write_jsonl(trace_path, [fam for fam, _, _ in traced_log])
        for name, (value, unit) in metrics.items():
            print("layer %s %s %.6g %s" % (args.workload, name, value, unit))
        for name, scale, ref, unit in ROADMAP.get(args.workload, ()):
            got = metrics[name][0] * scale
            print("recon %s %s measured %.4g %s, ROADMAP %.4g %s (ratio %.2f)%s"
                  % (args.workload, name, got, unit, ref, unit, got / ref if ref else 0.0,
                     "  [extrapolated, informational]" if "extrapolated" in name else ""))
        print("trace %s spans written to %s" % (args.workload, trace_path.relative_to(ROOT)))

    for g in gates[:20]:
        print("GATE " + g)
    info["figures"] = {k: v[:2] for k, v in figures.items()}
    info["metrics"] = metrics
    info["gates"] = gates
    with open(OUT / ("result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(info, fh, indent=1, default=float)
    print(json.dumps({"correct": not gates, "attempted": n, "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if gates else 0


def layer_metrics(tracer, log, walls, traced_walls, gaps):
    """Per-layer metrics of the traced passes, plus overhead and baseline figures."""
    m = tracer.metrics(sum(traced_walls))

    def family_mean(*families):
        xs = [dt for f, dt, _ in log if f in families]
        return statistics.mean(xs) if xs else 0.0
    m["warped.suspension_query_s"] = (family_mean("susp", "susp_b", "susp_antipodal",
                                                  "susp_roadmap"), "s")
    m["warped.sin2t_query_s"] = (family_mean("sin2t"), "s")
    m["warped.disk_query_mean_s"] = (family_mean("disk_product"), "s")
    m["warped.path_gap_over_tol"] = (max(gaps) if gaps else 0.0, "ratio")
    calls = m["certify.calls"][0]
    pairs = tracer.acc["warped.batch_pairs"]
    extrapolated = 0.0
    if pairs and calls:
        per_pair = tracer.total["warped.GridWarpedOracle.dist_pairs"] / pairs
        rest = (tracer.total["certify.certify"]
                - tracer.total["warped.GridWarpedOracle.dist_pairs"]) / calls
        extrapolated = 6 * 2000 * per_pair + rest
    m["certify.default_budget_extrapolated_s"] = (extrapolated, "s")
    untraced = statistics.mean(walls)
    traced = statistics.mean(traced_walls)
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    m["trace.bench_self_s"] = (tracer.self_s["bench"], "s")
    return {k: (float(v), u) for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
