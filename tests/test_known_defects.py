"""The defect ledger: one strict xfail per known false verdict.

Each test asserts what pgflow should do on a config where it is known to
do otherwise today, and is marked ``xfail(strict=True)`` with a reason
that names the ROADMAP item that mends it. A fix makes its test pass, and
strict mode then fails the suite: the fixing change removes that one
marker and says so in CHANGES.md. No entry is weakened to make it pass.
"""

import re

import numpy as np
import pytest

from pgflow.analysis import FAIL, INAPPLICABLE, PASS
from pgflow.cli import execute, main
from pgflow.config import build_config, load_pairs, parse_pairs


def defect(item: int, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {what}")


def run(pairs: dict):
    return execute(build_config(pairs))


def fit(res, quantity):
    (rep,) = [rep for rep in res.fits if rep.quantity == quantity]
    return rep


def claim(res, name):
    (verdict,) = [c for c in res.claims if c.name == name]
    return verdict


def check_rows(tmp_path, capsys, text):
    """{label: status} of the rows `pgflow check` prints for the config ``text``."""
    path = tmp_path / "check.cfg"
    path.write_text(text, encoding="utf-8")
    main(["check", str(path)])
    rows = [re.split(r"\s{2,}", line.strip()) for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")]
    return {row[0]: row[1] for row in rows}


# A WholeSpace quadratic at step 0.01 that converges to its floating-point floor
FROZEN_FLOOR = parse_pairs("""\
problem.set = wholespace
set.dim = 2
problem.objective = quadratic
objective.center = 0.3, -0.7
problem.schedule = power
schedule.K = 1
schedule.alpha = 0.5
problem.x0 = 0.5, 0.5
problem.system = projected
numerics.step = 0.01
numerics.horizon = 200
numerics.sample_every = 0.1
analysis.window_fraction = 0.6
""")


@defect(2, "the traj_err fit reads |x(t) - x(T)|, which decays at slope -1.414 on "
        "rate_theta25_alpha50 and passes against a theoretical -0.25")
def test_the_distance_fit_measures_the_distance_decay(preset_runs):
    # dist_argmin decays at the exact solution's slope -0.271887 over the fit window
    res = preset_runs["rate_theta25_alpha50"].result
    assert fit(res, "traj_err").fitted == pytest.approx(-0.271887, rel=0.1)


@defect(2, "both strong-convergence claims of rate_theta25_alpha50 fail on a terminal "
        "Cauchy gap of 1.423e-2 against CAUCHY_TOL, a true theorem witnessed too early")
def test_strong_convergence_does_not_fail_a_true_theorem(preset_runs):
    res = preset_runs["rate_theta25_alpha50"].result
    assert FAIL not in {claim(res, "strong_convergence_symmetric_even").status,
                        claim(res, "strong_convergence_interior_argmin").status}


@defect(2, "a series frozen at its rounding floor fits mu = +0.0000 with R^2 = 1 and passes")
def test_a_frozen_floor_is_never_a_pass():
    rep = fit(run(FROZEN_FLOOR), "f_gap")
    assert abs(rep.fitted) < 1e-12  # the series sits at its floor
    assert rep.verdict != PASS


@defect(2, "interior_flatbottom's f_gap fit reads its rounding floor, mu = 3.8e-16 with "
        "R^2 = 0, and writes a fail row")
def test_interior_flatbottom_writes_no_floor_fail(preset_runs):
    assert fit(preset_runs["interior_flatbottom"].result, "f_gap").verdict != FAIL


@defect(2, "at the default window_fraction 0.5 the traj_err window starts and ends at T/2, "
        "so its fit and the rate claims are always inapplicable")
def test_the_default_window_fits_the_distance():
    pairs = dict(load_pairs("rate_theta25_alpha50"))
    del pairs["analysis.window_fraction"]
    assert fit(run(pairs), "traj_err").verdict != INAPPLICABLE


@defect(1, "check prints four rows that cannot fail: variation finite and schedule "
        "monotone are hard-coded, and the two tail rows decide a clock no claim reads")
def test_check_prints_no_row_that_cannot_fail(tmp_path, capsys):
    text = "\n".join(f"{k} = {v}" for k, v in load_pairs("rate_theta25_alpha50").items())
    rows = check_rows(tmp_path, capsys, text)
    assert "gradient check" in rows
    assert not {"variation finite", "schedule monotone", "power tail integrable",
                "exp tail integrable"} & set(rows)


@defect(2, "claim 0's tail test ignores the horizon and the floor: a theta = 1/4 power on "
        "a half-space reads fail at alpha = 1/2")
def test_claim_0_does_not_fail_on_a_half_space():
    pairs = parse_pairs("""\
problem.set = halfspace
set.normal = 1, 1
set.offset = 0.5
problem.objective = power
objective.center = -0.3, 0.1
objective.theta = 0.25
problem.schedule = power
schedule.K = 1
schedule.alpha = 0.5
problem.x0 = 0.5, -0.5
problem.system = projected
numerics.step = 0.005
numerics.horizon = 200
numerics.sample_every = 0.1
analysis.window_fraction = 0.6
""")
    assert claim(run(pairs), "objective_gap_vanishes_in_gamma_time").status != FAIL


@defect(3, "the time-rescaling witness measures its linear interpolation: a WholeSpace "
        "quadratic at step 0.01 reads a gap of 2.7e-5 and fails")
def test_time_rescaling_passes_at_step_0_01():
    assert claim(run(FROZEN_FLOOR), "time_rescaling_equivalence").status == PASS


@defect(21, "error bound sampling passes kappa over-stated by 5% at n = 100: random "
        "directions concentrate near the mean of d and miss the worst one")
def test_an_overstated_kappa_fails_at_n_100(tmp_path, capsys):
    n = 100
    d = np.random.default_rng(0).uniform(1.0, 4.0, n)
    d[0] = 1.0  # so the true kappa is sqrt(min d) = 1

    def vec(a):
        return ", ".join(map(repr, np.asarray(a, dtype=float).tolist()))

    rows = check_rows(tmp_path, capsys, (
        f"problem.set = wholespace\nset.dim = {n}\nproblem.objective = quadratic\n"
        f"objective.center = {vec(np.zeros(n))}\nobjective.diag = {vec(d)}\n"
        f"objective.kappa = 1.05\nproblem.schedule = power\nproblem.x0 = {vec(np.ones(n))}\n"))
    assert rows["error bound sampling"] == FAIL
