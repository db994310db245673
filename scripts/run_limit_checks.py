#!/usr/bin/env python3
"""Run all five numbered limit checks and write their report CSVs.

Each check solves the balanced-budget system along a ladder of market sizes
and gates on the advertised limit: degeneracy of the posterior at the
observed rate (2), the scaled-variance limit and its 1/n rate (3), the
semivariance sandwich (4), the mean's response to the tax rate (5), and the
squared MAD-to-variance ratio (6).
"""

import argparse
import os
import sys

from dichotomy.posterior import LIMIT_CHECKS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=0.9)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--tau", type=float, default=0.5)
    ap.add_argument("--n-list", default="1000,10000,100000,1000000")
    ap.add_argument("--outdir", default="reports")
    args = ap.parse_args()

    ns = [int(x) for x in args.n_list.split(",")]
    os.makedirs(args.outdir, exist_ok=True)
    failures = 0
    for num, op in sorted(LIMIT_CHECKS.items()):
        report = op(args.omega, args.delta, args.tau, ns)
        path = os.path.join(args.outdir, f"check{num}_{report.kind}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_csv())
        status = "pass" if report.passed else "FAIL"
        detail = ", ".join(f"{k}={v}" for k, v in report.details.items())
        print(f"check {num} ({report.kind}): {status}  [{detail}]")
        failures += not report.passed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
