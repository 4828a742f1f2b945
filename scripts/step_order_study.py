"""Confirm fourth-order convergence of the integrator by step halving.

The unconstrained quadratic gives the flow a closed form, so the error at
t = 1 is measured against the exact endpoint. Each halving should shrink
the error by about 16x until rounding noise takes over.
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pgflow.flow import FlowProblem, integrate
from pgflow.geometry import WholeSpace
from pgflow.objectives import quadratic
from pgflow.schedules import Constant


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base-step", type=float, default=0.05)
    ap.add_argument("--levels", type=int, default=5)
    args = ap.parse_args(argv)

    x0 = np.array([1.0, -0.5])
    prob = FlowProblem(WholeSpace(2), quadratic([0.0, 0.0]), Constant(K=1.0), x0)
    exact = math.exp(-2.0) * x0

    print(f"{'step':>10} {'error':>12} {'ratio':>8} {'order':>7}")
    prev = None
    for level in range(args.levels):
        step = args.base_step / 2 ** level
        traj = integrate(prob, horizon=1.0, step=step, sample_every=1.0)
        err = float(np.linalg.norm(traj.x[-1] - exact))
        if prev is None or err == 0.0:
            print(f"{step:>10.5g} {err:>12.3e} {'':>8} {'':>7}")
        else:
            ratio = prev / err
            print(f"{step:>10.5g} {err:>12.3e} {ratio:>8.1f} "
                  f"{math.log2(ratio):>7.2f}")
        prev = err
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
