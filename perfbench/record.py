"""Record the correctness gate's references from the current sources.

Run from the repository root:

    python3 perfbench/record.py [--workload W ...] [--size full|tiny ...]

Each workload runs once with seed 0 and its outputs are stored in the
canonical frame under perfbench/reference/. Re-record only when the
benchmark itself changes; a change to pgflow that claims a speed-up
leaves the references alone, so the gate keeps checking it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

RECORD_SEED = 0
RECORD_LIMIT_S = 600


def record(workload: str, size: str, root: str) -> None:
    work = os.path.join(root, ".bench_work", f"record_{workload}_{size}")
    wl = workloads.build(workload, RECORD_SEED, size, root, os.path.join(work, "configs"))
    src = os.path.join(root, "src")
    result = bench.run_worker(workload, wl, wl, src, work, 0, 0,
                              time.monotonic() + RECORD_LIMIT_S)
    last = result["passes"][-1]
    by_key = {c.key: c for c in wl.commands}
    observations = {}
    for obs in last["commands"]:
        cmd = by_key[obs["key"]]
        stem = os.path.splitext(os.path.basename(cmd.config))[0]
        observations[cmd.key] = gate.observe(cmd, last["dir"], obs["exit"], obs["stdout"],
                                             wl.transforms[stem])
    gate.record(observations, os.path.join(bench.BENCH_DIR, "reference"), workload, size)
    print(f"recorded {workload} {size}: {len(observations)} commands")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    ap.add_argument("--size", nargs="*", default=list(workloads.SIZES))
    args = ap.parse_args(argv)
    for workload in args.workload:
        for size in args.size:
            record(workload, size, os.getcwd())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
