"""Command line entry point.

verify <suite>  runs a verification suite and writes a JSON or CSV report;
study <kind>    runs a convergence sweep over a list of sizes.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""

import argparse
import sys

from .harness import (STUDY_KINDS, SUITES, SuiteConfig, convergence_study,
                      report_to_csv, report_to_json, run_suite, study_to_csv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmlab",
        description="numerical verification of POVM and modular-flow identities")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--d", type=int, default=SuiteConfig.d, help="matrix dimension")
    v.add_argument("--n", type=int, default=SuiteConfig.n, help="circle grid size")
    v.add_argument("--m", type=int, default=SuiteConfig.m, help="Mellin lattice size")
    v.add_argument("--beta", type=float, nargs="+", default=list(SuiteConfig.betas),
                   help="inverse temperatures for the thermal checks")
    v.add_argument("--seed", type=int, default=SuiteConfig.seed)
    v.add_argument("--tol", type=float, default=None,
                   help="override every per-case tolerance")
    v.add_argument("--out", default=None, help="write the report here "
                   "(default: stdout)")
    v.add_argument("--format", dest="fmt", choices=["json", "csv"],
                   default="json")

    s = sub.add_parser("study", help="run a convergence study")
    s.add_argument("kind", choices=STUDY_KINDS)
    s.add_argument("--sizes", type=int, nargs="+", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--format", dest="fmt", choices=["json", "csv"],
                   default="json")
    return parser


def _emit(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help to 0
        return int(exc.code or 0)

    verify = args.command == "verify"
    try:
        if verify:
            result = run_suite(SuiteConfig(
                suite=args.suite, d=args.d, n=args.n, m=args.m,
                betas=tuple(args.beta), seed=args.seed, tol=args.tol))
        else:
            result = convergence_study(args.kind, args.sizes)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    to_csv = report_to_csv if verify else study_to_csv
    _emit(to_csv(result) if args.fmt == "csv" else report_to_json(result),
          args.out)
    return 1 if verify and result["summary"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
