"""Command-line interface.

Verbs:
  certify <spec>                     run the condition battery
  distance <spec> --from .. --to ..  distance query, optional geodesic dump
  sample <spec|space> --kind --kappa sample quadruple comparisons
  report <spec> --format text|machine

Machine report grammar (frozen):
  CONDITION <name> PASS|FAIL margin=<r> slack=<r>
  ...
  OVERALL CONSISTENT|INCONSISTENT

Exit codes: 0 consistent-pass, 1 consistent-fail, 2 inconsistent,
3 input error.
"""

import argparse
import os
import sys

from .certify import SpecError, TripleSpec, certify, run_distance, run_sample


def _parse_point(text):
    return [float(x) for x in str(text).split(",")]


def _load_spec(path):
    return TripleSpec.from_file(path)


def _print_report(report, fmt):
    if fmt == "machine":
        sys.stdout.write(report.machine_text())
    else:
        sys.stdout.write(report.human_text())


def cmd_certify(args):
    """certify and report: only their default --format differs."""
    report = certify(_load_spec(args.spec))
    _print_report(report, args.format)
    return report.exit_code()


def cmd_distance(args):
    spec = _load_spec(args.spec)
    u = _parse_point(args.src)
    v = _parse_point(args.dst)
    value = run_distance(spec, u, v, tol=args.tol,
                                     geodesic_path=args.geodesic)
    sys.stdout.write("%.12g\n" % value)
    return 0


def cmd_sample(args):
    target = args.target
    if os.path.exists(target) and not target.startswith(
            ("interval", "circle", "ray", "tripod", "disk", "point")):
        target = _load_spec(target)
    verdict = run_sample(target, args.kind, args.kappa,
                                     args.n, args.seed)
    sys.stdout.write("SAMPLE %s kappa=%.12g %s margin=%.12g n=%d slack=%.12g\n"
                     % (args.kind, args.kappa,
                        "PASS" if verdict.passed else "FAIL",
                        verdict.margin, verdict.n_tested, verdict.slack_used))
    if verdict.witness is not None:
        d = verdict.witness.dmat
        for i in range(4):
            sys.stdout.write("WITNESS %s\n"
                             % " ".join("%.12g" % d[i, j] for j in range(4)))
    return 0 if verdict.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpcurv",
        description="Warped-product curvature bound certification.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("certify", help="run the condition battery on a spec")
    p.add_argument("spec")
    p.add_argument("--format", choices=("text", "machine"), default="machine")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("report", help="certify and render a report")
    p.add_argument("spec")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("distance", help="distance between two product points")
    p.add_argument("spec")
    p.add_argument("--from", dest="src", required=True,
                   help="comma-separated base coords then fiber coord")
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--geodesic", default=None, metavar="OUT_TSV")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sample", help="quadruple comparison sampling")
    p.add_argument("target", help="spec file or space string like circle:6.28")
    p.add_argument("--kind", choices=("CAT", "CBB"), required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("-n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; remap to the input-error code
        if e.code not in (0, None):
            raise SystemExit(3)
        raise
    try:
        code = args.func(args)
    except SpecError as e:
        sys.stderr.write("error: %s\n" % e)
        return 3
    except (OSError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
