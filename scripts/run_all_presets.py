"""Check and run every shipped preset.

Exercises the same code paths as the CLI because it goes through cli.main.
Presets run in sorted name order so logs diff cleanly between machines.
After each command it prints that command's wall time, the end-to-end
time of each preset. Exits with the first nonzero code encountered.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pgflow.cli import main as cli_main
from pgflow.config import list_presets


def timed(argv) -> int:
    """cli.main(argv), followed by a line with its wall time and exit code."""
    start = time.perf_counter()
    code = cli_main(argv)
    print(f"--- {argv[0]} {argv[1]}: {time.perf_counter() - start:.2f} s wall, exit {code}")
    return code


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="preset_runs")
    ap.add_argument("--strict", action="store_true",
                    help="forward --strict to each run")
    args = ap.parse_args(argv)

    worst = 0
    for name in list_presets():
        print(f"=== check {name} ===")
        code = timed(["check", name, "--out-dir", args.out_dir])
        worst = worst or code
        print(f"=== run {name} ===")
        run_args = ["run", name, "--out-dir", args.out_dir]
        if args.strict:
            run_args.append("--strict")
        code = timed(run_args)
        worst = worst or code
    print(f"done: outputs in {args.out_dir}/, exit {worst}")
    return worst


if __name__ == "__main__":
    raise SystemExit(run())
