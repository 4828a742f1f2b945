"""Config parsing/building and the command-line surface.

CLI tests call main() in-process and assert on exit codes and written
files rather than parsing stdout, except where the output format itself
is the contract.
"""

import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import uuid

import numpy as np
import pytest

import pgflow
from pgflow import cli, flow
from pgflow.analysis import CLAIM_NAMES, REPORT_HEADER, diagnostics
from pgflow.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_VERDICT, EXIT_WORKER, main
from pgflow.config import (
    ConfigError,
    build_config,
    list_presets,
    load_config,
    load_pairs,
    parse_pairs,
)
from pgflow.flow import MAX_RK4_STEPS
from pgflow.geometry import Ball
from pgflow.schedules import Constant


def minimal_pairs(**extra):
    pairs = {
        "problem.set": "ball",
        "set.center": "0,0",
        "set.radius": "1",
        "problem.objective": "quadratic",
        "objective.center": "2,0",
        "problem.schedule": "power",
        "problem.x0": "0,0",
    }
    pairs.update(extra)
    return pairs


def discrete_pairs(**extra):
    pairs = minimal_pairs(**{"problem.system": "discrete"}, **extra)
    del pairs["problem.schedule"]
    return pairs


def on_wholespace(pairs):
    """pairs with the ball of minimal_pairs replaced by the plane."""
    pairs = {k: v for k, v in pairs.items() if k not in ("set.center", "set.radius")}
    return {**pairs, "problem.set": "wholespace", "set.dim": "2"}


class TestParsePairs:
    def test_values_comments_and_blanks(self):
        text = "\n".join([
            "# leading comment",
            "a.b = 1",
            "",
            "  c.d   =  x, y ",
        ])
        assert parse_pairs(text) == {"a.b": "1", "c.d": "x, y"}

    def test_missing_equals_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_pairs("a = 1\nnonsense line\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'a.b'"):
            parse_pairs("a.b = 1\na.b = 2\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_pairs("= 3\n")


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config(minimal_pairs())
        assert cfg.system == "projected"
        assert cfg.step == 1e-3
        assert cfg.horizon == 50.0
        assert cfg.sample_every == 0.1
        assert cfg.window_fraction == 0.5
        assert cfg.expect == ()
        assert cfg.trajectory_path == "trajectory.csv"
        assert cfg.report_path == "report.csv"

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="unknown config keys: set.junk"):
            build_config(minimal_pairs(**{"set.junk": "1"}))

    def test_missing_required_key(self):
        pairs = minimal_pairs()
        del pairs["problem.x0"]
        with pytest.raises(ConfigError, match="missing required key 'problem.x0'"):
            build_config(pairs)

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="expected a number"):
            build_config(minimal_pairs(**{"set.radius": "wide"}))

    def test_non_finite_float(self):
        with pytest.raises(ConfigError, match="must be finite"):
            build_config(minimal_pairs(**{"set.radius": "inf"}))

    def test_x0_dimension_mismatch(self):
        with pytest.raises(Exception, match="dimension"):
            build_config(minimal_pairs(**{"problem.x0": "0,0,0"}))

    def test_objective_set_dimension_mismatch(self):
        with pytest.raises(Exception, match="dimension"):
            build_config(minimal_pairs(**{"objective.center": "2,0,0"}))

    @pytest.mark.parametrize("objective, extra", [
        ("quadratic", {"objective.center": "2,0,0"}),
        ("power", {"objective.center": "2,0,0", "objective.theta": "0.25"}),
        ("flat_bottom", {"objective.center": "2,0,0", "objective.rho": "0.5"}),
        ("even_quartic", {"objective.dim": "3"}),
    ])
    def test_objective_dimension_names_key_and_set(self, objective, extra):
        pairs = minimal_pairs(**{"problem.objective": objective})
        del pairs["objective.center"]
        pairs.update(extra)
        key = "objective.dim" if objective == "even_quartic" else "objective.center"
        with pytest.raises(ConfigError, match=f"{key}: dimension 3 does not match "
                                              "the ball set's dimension 2"):
            build_config(pairs)

    def test_unknown_system(self):
        with pytest.raises(ConfigError, match="unknown system"):
            build_config(minimal_pairs(**{"problem.system": "leapfrog"}))

    def test_unknown_set_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            build_config(minimal_pairs(**{"problem.set": "torus"}))

    def test_unknown_schedule_family(self):
        with pytest.raises(ConfigError, match="unknown family"):
            build_config(minimal_pairs(**{"problem.schedule": "cyclic"}))

    def test_nonpositive_numerics(self):
        with pytest.raises(ConfigError, match="numerics: need 0 < step"):
            build_config(minimal_pairs(**{"numerics.step": "0"}))

    def test_discrete_requires_alphas(self):
        with pytest.raises(ConfigError, match="discrete runs need"):
            build_config(discrete_pairs())

    def test_discrete_steps_positive(self):
        with pytest.raises(ConfigError, match="discrete.steps must be positive"):
            build_config(discrete_pairs(
                **{"discrete.alpha": "0.1", "discrete.steps": "0"}))

    def test_discrete_steps_bounded_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="discrete.steps"):
                build_config(discrete_pairs(
                    **{"discrete.alpha": "0.1", "discrete.steps": str(MAX_RK4_STEPS + 1)}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_discrete_alpha_times_steps(self):
        # seven Euler steps of size 1 on the clock lambda = 0.05
        cfg = build_config(discrete_pairs(
            **{"discrete.alpha": "0.05", "discrete.steps": "7"}))
        assert cfg.problem.schedule == Constant(K=0.05)
        assert (cfg.horizon, cfg.step, cfg.sample_every) == (7.0, 1.0, 1.0)

    def test_window_fraction_bounds(self):
        with pytest.raises(ConfigError, match="window_fraction"):
            build_config(minimal_pairs(**{"analysis.window_fraction": "0"}))
        with pytest.raises(ConfigError, match="window_fraction"):
            build_config(minimal_pairs(**{"analysis.window_fraction": "1.5"}))

    def test_expect_unknown_claim(self):
        with pytest.raises(ConfigError, match="unknown claim 'nonsense'"):
            build_config(minimal_pairs(**{"analysis.expect": "nonsense"}))

    def test_analysis_theta_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys: analysis.theta"):
            build_config(minimal_pairs(**{"analysis.theta": "0.8"}))

    def test_expecting_the_stationary_claim_is_rejected(self):
        # run --strict could never pass on it: no run witnesses theta above 1/2
        with pytest.raises(ConfigError, match="stationary_above_half_theta can no longer "
                                              "be witnessed: the paper assumes 0 < theta <= 1/2"):
            build_config(minimal_pairs(**{"analysis.expect": "stationary_above_half_theta"}))

    @pytest.mark.parametrize("system", ["scaled", "unscaled"])
    def test_scaled_spellings_need_wholespace(self, system):
        pairs = minimal_pairs(**{"problem.system": system})
        if system == "unscaled":
            del pairs["problem.schedule"]
        with pytest.raises(ConfigError, match="problem: the scaled system is unconstrained; "
                                              "use WholeSpace"):
            build_config(pairs)

    @pytest.mark.parametrize("pairs, method, label", [
        (minimal_pairs(), "rk4", "projected"),
        # projected on WholeSpace is the scaled run, and is labelled so
        (on_wholespace(minimal_pairs()), "rk4", "scaled"),
        (discrete_pairs(**{"discrete.alpha": "0.1", "discrete.steps": "3"}), "euler", "discrete"),
        (on_wholespace(discrete_pairs(**{"discrete.alpha": "0.1", "discrete.steps": "3"})),
         "euler", "discrete"),
    ], ids=["projected", "projected-wholespace", "discrete", "discrete-wholespace"])
    def test_system_spells_the_method(self, pairs, method, label):
        cfg = build_config(pairs)
        assert (cfg.method, cfg.system) == (method, label)

    def test_schedule_defaults(self):
        cfg = build_config(minimal_pairs(**{"problem.schedule": "power"}))
        assert cfg.problem.schedule.K == 1.0
        assert cfg.problem.schedule.alpha == 0.5


class TestOptimumInjection:
    """Metadata must describe the constrained problem, not the free one."""

    def test_isotropic_center_outside_projects(self):
        cfg = build_config(minimal_pairs())
        opt = cfg.problem.objective.optimum
        assert opt is not None
        assert opt.f_star == pytest.approx(1.0)
        argmin_point = opt.argmin.project(np.zeros(2))
        assert np.allclose(argmin_point, [1.0, 0.0])

    def test_anisotropic_center_outside_drops_optimum(self):
        cfg = build_config(minimal_pairs(**{"objective.diag": "1,4"}))
        assert cfg.problem.objective.optimum is None

    def test_center_inside_keeps_free_optimum(self):
        cfg = build_config(minimal_pairs(
            **{"objective.center": "0.5,0", "objective.shift": "0.25",
               "objective.diag": "1,4"}))
        opt = cfg.problem.objective.optimum
        assert opt.f_star == 0.25
        assert np.allclose(opt.argmin.project(np.zeros(2)), [0.5, 0.0])

    def test_power_objective_outside_projects(self):
        cfg = build_config(minimal_pairs(
            **{"problem.objective": "power", "objective.theta": "0.25"}))
        opt = cfg.problem.objective.optimum
        # p = 1/(2 theta) = 2, base gap at (1,0) is 1, so f_star is 1^2
        assert opt.f_star == pytest.approx(1.0)
        assert np.allclose(opt.argmin.project(np.zeros(2)), [1.0, 0.0])
        assert cfg.problem.objective.value([1.0, 0.0]) == pytest.approx(opt.f_star)

    def test_even_quartic_needs_origin(self):
        pairs = {
            "problem.set": "box",
            "set.lo": "0.5",
            "set.hi": "1.5",
            "problem.objective": "even_quartic",
            "objective.dim": "1",
            "problem.schedule": "power",
            "problem.x0": "1",
        }
        assert build_config(pairs).problem.objective.optimum is None

    def test_flat_bottom_needs_contained_plateau(self):
        pairs = minimal_pairs(**{
            "problem.objective": "flat_bottom",
            "objective.center": "0,0",
            "objective.rho": "2",
        })
        del pairs["objective.center"]
        pairs["objective.center"] = "0,0"
        assert build_config(pairs).problem.objective.optimum is None

    def test_flat_bottom_contained_keeps_ball_argmin(self):
        pairs = minimal_pairs(**{
            "problem.objective": "flat_bottom",
            "objective.rho": "0.5",
        })
        pairs["objective.center"] = "0,0"
        cfg = build_config(pairs)
        assert isinstance(cfg.problem.objective.optimum.argmin, Ball)
        assert cfg.problem.objective.optimum.f_star == 0.0

    def test_kappa_override_swaps_certificate(self):
        cfg = build_config(minimal_pairs(**{"objective.kappa": "10"}))
        assert cfg.problem.objective.holder.kappa == 10.0
        assert cfg.problem.objective.holder.theta == 0.5

    @pytest.mark.parametrize("extra", [
        {},
        {"objective.diag": "1,4"},
        {"objective.kappa": "10"},
        {"problem.objective": "power", "objective.theta": "0.25", "objective.kappa": "10"},
    ], ids=["projected-optimum", "dropped-optimum", "kappa", "power-kappa"])
    def test_replaced_objective_keeps_fn_rows(self, extra):
        obj = build_config(minimal_pairs(**extra)).problem.objective
        X = np.array([[0.5, -0.25], [2.0, 1.0]])
        np.testing.assert_allclose(obj.fn_rows(X), [obj.fn(x) for x in X], rtol=1e-13)

    def test_gap_requires_optimum(self):
        # an anisotropic center outside the set has no closed-form argmin
        cfg = build_config(minimal_pairs(**{"objective.diag": "1,4"}))
        assert cfg.problem.objective.optimum is None


class TestPresetResolution:
    def test_all_presets_build(self):
        names = list_presets()
        assert len(names) == 6
        for name in names:
            cfg = load_config(name)
            assert cfg.name == name

    def test_bare_name_and_cfg_suffix_resolve(self):
        assert load_pairs("rate_theta50_alpha50") == load_pairs(
            "rate_theta50_alpha50.cfg")

    def test_missing_source_message(self):
        with pytest.raises(ConfigError, match="config file not found"):
            load_pairs("no/such/file.cfg")
        with pytest.raises(ConfigError, match="config file not found"):
            load_pairs("not_a_preset")


DIVERGE_CFG = """
problem.set = wholespace
set.dim = 2
problem.objective = quadratic
objective.center = 0,0
problem.x0 = 1,0
problem.system = unscaled
numerics.step = 2
numerics.sample_every = 2
numerics.horizon = 200
"""

# ||x||^10 from (3, 0): the gradient's power overflows within the first step
POWER_OVERFLOW_CFG = """
problem.set = wholespace
set.dim = 2
problem.objective = power
objective.center = 0,0
objective.theta = 0.1
problem.schedule = constant
schedule.K = 1
problem.system = scaled
problem.x0 = 3,0
numerics.step = 0.5
numerics.sample_every = 0.5
numerics.horizon = 5
"""

GE1_CFG = """
problem.set = ball
set.center = 0,0
set.radius = 1
problem.objective = quadratic
objective.center = 2,0
problem.schedule = power_ge1
schedule.alpha = 2
problem.x0 = 0,0
numerics.horizon = 5
numerics.step = 0.01
analysis.expect = objective_gap_vanishes_in_gamma_time
"""

BALL_STEP_CFG = """
problem.set = ball
set.center = 0,0
set.radius = 1
problem.objective = quadratic
objective.center = 2,0
problem.schedule = power
problem.x0 = 0,0
numerics.step = {step}
numerics.sample_every = 2.6
numerics.horizon = 26
"""

WHOLE_STEP_CFG = BALL_STEP_CFG.replace(
    "problem.set = ball\nset.center = 0,0\nset.radius = 1", "problem.set = wholespace\nset.dim = 2")

UNSCALED_SCHEDULE_CFG = DIVERGE_CFG.replace(
    "numerics.step = 2\nnumerics.sample_every = 2\nnumerics.horizon = 200",
    "problem.schedule = power\nnumerics.horizon = 1")

# a free quadratic, completed below as `unscaled` or as `scaled` on Constant(K=1)
UNIT_CLOCK_CFG = """
problem.set = wholespace
set.dim = 2
problem.objective = quadratic
objective.center = 1,-0.5
problem.x0 = 2,1
numerics.step = 0.01
numerics.horizon = 2
analysis.expect = time_rescaling_equivalence
"""

# the replay runs to Gamma(2) = 2000 sampled at every step of 0.001: 2e6 samples
LONG_REPLAY_CFG = """
problem.set = wholespace
set.dim = 2
problem.objective = quadratic
objective.center = 0,0
problem.schedule = constant
schedule.K = 1000
problem.x0 = 1,0
problem.system = scaled
numerics.step = 0.001
numerics.horizon = 2
"""

CHEAP_SWEEP_CFG = """
problem.set = ball
set.center = 0,0
set.radius = 1
problem.objective = quadratic
objective.center = 2,0
problem.schedule = power
problem.x0 = 0,0
numerics.step = 0.01
numerics.horizon = 5
numerics.sample_every = 0.1
"""


DISCRETE_CFG = """
problem.set = ball
set.center = 0,0
set.radius = 1
problem.objective = quadratic
objective.center = 2,0
problem.x0 = 0,0
problem.system = discrete
discrete.alpha = 0.05
discrete.steps = 10
"""

# configs FlowProblem or the per-system key reading rejects; `check` must
# reject each exactly as `run` does
REJECTED_CFGS = {
    "scaled-on-box": CHEAP_SWEEP_CFG.replace(
        "problem.set = ball\nset.center = 0,0\nset.radius = 1",
        "problem.set = box\nset.lo = -1,-1\nset.hi = 1,1") + "problem.system = scaled\n",
    "projected-without-schedule": CHEAP_SWEEP_CFG.replace("problem.schedule = power\n", ""),
    "discrete-with-schedule": DISCRETE_CFG + "problem.schedule = power\n",
    "discrete-keys-on-projected": CHEAP_SWEEP_CFG + "discrete.alpha = 0.05\ndiscrete.steps = 10\n",
    "numerics-keys-on-discrete": DISCRETE_CFG + "numerics.step = 0.01\n",
    "negative-discrete-step": DISCRETE_CFG.replace("discrete.alpha = 0.05", "discrete.alpha = -0.05"),
    "zero-discrete-step": DISCRETE_CFG.replace("discrete.alpha = 0.05", "discrete.alpha = 0"),
    "objective-dimension-mismatch": CHEAP_SWEEP_CFG.replace(
        "objective.center = 2,0", "objective.center = 2,0,0"),
    "unscaled-on-box": CHEAP_SWEEP_CFG.replace(
        "problem.set = ball\nset.center = 0,0\nset.radius = 1",
        "problem.set = box\nset.lo = -1,-1\nset.hi = 1,1").replace(
        "problem.schedule = power\n", "") + "problem.system = unscaled\n",
    "analysis-theta": CHEAP_SWEEP_CFG + "analysis.theta = 0.8\n",
    "expect-stationary": CHEAP_SWEEP_CFG + "analysis.expect = stationary_above_half_theta\n",
}


class TestCheckRejectsWhatRunRejects:
    @pytest.mark.parametrize("name", sorted(REJECTED_CFGS))
    def test_check_and_run_exit_2_and_write_nothing(self, tmp_path, capsys, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(REJECTED_CFGS[name], encoding="utf-8")
        out = tmp_path / "out"
        for command in ("check", "run"):
            assert main([command, str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG, command
            assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, message", [
        ("objective-dimension-mismatch",
         "objective.center: dimension 3 does not match the ball set's dimension 2"),
        ("discrete-keys-on-projected", "discrete.alpha, discrete.steps: read only by "
                                       "problem.system = discrete, not by problem.system = projected"),
        ("numerics-keys-on-discrete", "numerics.step: read only by a continuous problem.system"),
        ("unscaled-on-box", "problem: the scaled system is unconstrained; use WholeSpace"),
        ("analysis-theta", "unknown config keys: analysis.theta"),
        ("expect-stationary", "stationary_above_half_theta can no longer be witnessed"),
    ])
    def test_error_names_the_key_and_what_reads_it(self, tmp_path, capsys, name, message):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(REJECTED_CFGS[name], encoding="utf-8")
        for command in ("check", "run"):
            assert main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
            assert message in capsys.readouterr().err, command

    def test_infeasible_start_fails_check_row_and_run(self, tmp_path, capsys):
        cfg = tmp_path / "outside.cfg"
        cfg.write_text(CHEAP_SWEEP_CFG.replace("problem.x0 = 0,0", "problem.x0 = 2,0"),
                       encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_VERDICT
        assert "check(s) failed: start point feasible" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert "feasible set" in capsys.readouterr().err
        assert not out.exists()


class TestCliRun:
    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_discrete_preset_writes_outputs(self, tmp_path, capsys):
        cfg = load_config("discrete_vs_continuous_ball")
        out = tmp_path / "out"
        code = main(["run", "discrete_vs_continuous_ball",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        header = (out / cfg.trajectory_path).read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,gamma,f_gap,dist_argmin,feas_drift,speed,x_0,x_1"
        report = (out / cfg.report_path).read_text(encoding="utf-8").splitlines()
        assert report[0] == REPORT_HEADER
        stdout = capsys.readouterr().out
        assert "run discrete_vs_continuous_ball" in stdout

    def test_report_rows_carry_their_reason(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "discrete_vs_continuous_ball", "--out-dir", str(out)]) == EXIT_OK
        cfg = load_config("discrete_vs_continuous_ball")
        with open(out / cfg.report_path, newline="", encoding="utf-8") as fh:
            rows = {row["quantity"]: row for row in csv.DictReader(fh)}
        row = rows["time_rescaling_equivalence"]
        assert (row["verdict"], row["reason"]) == ("inapplicable",
                                                   "requires an RK4 run on WholeSpace")
        assert rows["f_gap"]["reason"] == "converged exactly"
        # a rate claim joins the reasons of its two fits, each under its quantity
        assert rows["exponential_decay_rates"]["reason"] == (
            "f_gap: converged exactly; traj_err: converged exactly")

    def test_run_is_byte_deterministic(self, tmp_path):
        cfg = load_config("discrete_vs_continuous_ball")
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "discrete_vs_continuous_ball",
                         "--out-dir", str(out)]) == EXIT_OK
            outs.append(out)
        for fname in (cfg.trajectory_path, cfg.report_path):
            first = (outs[0] / fname).read_bytes()
            second = (outs[1] / fname).read_bytes()
            assert first == second

    def test_strict_flags_unmet_expectation(self, tmp_path):
        cfg = tmp_path / "ge1.cfg"
        cfg.write_text(GE1_CFG, encoding="utf-8")
        out = str(tmp_path / "out")
        assert main(["run", str(cfg), "--out-dir", out]) == EXIT_OK
        assert main(["run", str(cfg), "--strict", "--out-dir", out]) == EXIT_VERDICT

    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(DIVERGE_CFG, encoding="utf-8")
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        assert "divergence" in capsys.readouterr().err

    def test_overflow_in_a_power_objective_exits_3(self, tmp_path, capsys):
        # Python's ** raises OverflowError where numpy gives inf; the run
        # must end as a divergence, in a run and in a sweep of the same config
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(POWER_OVERFLOW_CFG, encoding="utf-8")
        code = main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("divergence: ")
        code = main(["sweep", str(cfg), "--param", "K", "--values", "1,2",
                     "--out-dir", str(tmp_path / "sweep")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("divergence: ")


    @pytest.mark.parametrize("text, code", [
        (BALL_STEP_CFG.format(step=1.3), EXIT_CONFIG),
        (BALL_STEP_CFG.format(step=1.29), EXIT_OK),
        (WHOLE_STEP_CFG.format(step=1.3), EXIT_OK),  # no set to leave, no step bound
        (DIVERGE_CFG, EXIT_DIVERGED),
    ], ids=["projected-1.3", "projected-1.29", "wholespace-1.3", "unscaled-2"])
    def test_projected_step_bound(self, tmp_path, text, code):
        cfg = tmp_path / "step.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == code

    @pytest.mark.parametrize("pairs, numerics, what", [
        (minimal_pairs(), "numerics.horizon = 1e9", "RK4 steps"),
        (minimal_pairs(), "numerics.horizon = 2e5\nnumerics.step = 0.1", "samples"),
        (discrete_pairs(**{"discrete.alpha": "0.1"}), "discrete.steps = 10000001",
         "discrete.steps: horizon 1e+07 / step 1 = 1e+07 Euler steps"),
    ], ids=["steps", "samples", "discrete-steps"])
    def test_absurd_run_length_exits_2(self, tmp_path, capsys, pairs, numerics, what):
        # rejected before the sample grid or any state is allocated
        cfg = tmp_path / "long.cfg"
        cfg.write_text("\n".join(f"{k} = {v}" for k, v in pairs.items())
                       + "\n" + numerics + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert what in capsys.readouterr().err
        assert not out.exists()


    def test_unscaled_with_schedule_exits_2(self, tmp_path, capsys):
        # the unscaled system runs on the unit clock; a schedule would be ignored
        cfg = tmp_path / "unscaled.cfg"
        cfg.write_text(UNSCALED_SCHEDULE_CFG, encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["check", str(cfg)], ["run", str(cfg), "--out-dir", str(out)]):
            assert main(argv) == EXIT_CONFIG
            assert "unit clock" in capsys.readouterr().err
        assert not out.exists()

    def test_unscaled_is_scaled_on_the_unit_clock(self, tmp_path, capsys):
        texts = {"unscaled": UNIT_CLOCK_CFG + "problem.system = unscaled\n",
                 "scaled": UNIT_CLOCK_CFG + "problem.system = scaled\n"
                           "problem.schedule = constant\nschedule.K = 1\n"}
        files = {}
        for name, text in texts.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text, encoding="utf-8")
            out = tmp_path / name
            assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
            stdout = capsys.readouterr().out
            assert "system=scaled" in stdout
            assert "the unit clock has nothing to rescale" in stdout
            files[name] = [(out / f).read_bytes() for f in ("trajectory.csv", "report.csv")]
        assert files["unscaled"] == files["scaled"]
        report = files["scaled"][1].decode().splitlines()
        assert ("time_rescaling_equivalence,claim,,,,inapplicable,"
                "the unit clock has nothing to rescale") in report

    def test_long_rescaling_replay_names_its_clock(self, tmp_path, capsys):
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(LONG_REPLAY_CFG, encoding="utf-8")
        for argv in (["check", str(cfg)], ["run", str(cfg), "--out-dir", str(tmp_path / "out")]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "time-rescaling replay" in err
            assert "Gamma(horizon) = 2000" in err


class TestCliCheck:
    def test_preset_passes(self, capsys):
        assert main(["check", "rate_theta50_alpha50"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "gradient check" in stdout
        assert "fail" not in stdout

    def test_inflated_kappa_fails(self, tmp_path, capsys):
        cfg = tmp_path / "kap.cfg"
        cfg.write_text(GE1_CFG.replace("analysis.expect = objective_gap_vanishes_in_gamma_time",
                                       "objective.kappa = 10"), encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_VERDICT
        assert "error bound sampling" in capsys.readouterr().out

    @pytest.mark.parametrize("text, code", [
        (BALL_STEP_CFG.format(step=1.3), EXIT_CONFIG),
        (BALL_STEP_CFG.format(step=1.29), EXIT_OK),
        (WHOLE_STEP_CFG.format(step=1.3), EXIT_OK),
        (BALL_STEP_CFG.format(step=1.3).replace("numerics.sample_every = 2.6",
                                                "numerics.sample_every = 1"), EXIT_CONFIG),
    ], ids=["ball-1.3", "ball-1.29", "wholespace-1.3", "step-above-sample-every"])
    def test_applies_run_numerics_limits(self, tmp_path, capsys, text, code):
        cfg = tmp_path / "step.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["check", str(cfg)]) == code
        if code == EXIT_CONFIG:
            assert "numerics" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_2(self, capsys, seed):
        assert main(["check", "rate_theta50_alpha50", "--seed", seed]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("preset, gamma", [
        # Gamma(35) = 2 (sqrt(36) - 1) and Gamma(10) = 2 (sqrt(11) - 1), not Gamma(100) = 18.0998
        ("rate_theta50_alpha50", "gamma_at_horizon=10"),
        ("reparam_quadratic", "gamma_at_horizon=4.63325"),
    ])
    def test_schedule_evidence_is_at_the_runs_horizon(self, capsys, preset, gamma):
        assert main(["check", preset]) == EXIT_OK
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if "clock unbounded" in line]
        assert row.endswith(f", {gamma}")

    def test_no_power_tail_quadrature_before_t_1(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(POWER_BOX_CFG.replace("numerics.horizon = 4", "numerics.horizon = 0.5"),
                       encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_OK
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if "power tail integrable" in line]
        assert row.split()[-2:] == ["pass", "exponent=0.5"]

    def test_discrete_run_has_one_schedule_row(self, capsys):
        assert main(["check", "discrete_vs_continuous_ball"]) == EXIT_OK
        rows = [re.split(r"\s{2,}", line.strip()) for line in capsys.readouterr().out.splitlines()
                if "schedule" in line or "clock" in line]
        assert rows == [["schedule conditions", "not-applicable",
                         "the step is the constant discrete.alpha = 0.05"]]

    def test_seeded_sampling_is_reproducible(self, capsys):
        assert main(["check", "rate_theta50_alpha50", "--seed", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["check", "rate_theta50_alpha50", "--seed", "7"]) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("preset, override, row", [
        # a quadratic centred off the origin is not even
        ("even_box", {"problem.objective": "quadratic", "objective.center": "0.5,0",
                      "numerics.horizon": "20"}, "symmetric-set assertion"),
        # the argmin (1, 0) lies on the unit circle, not inside the disk
        ("rate_theta50_alpha50",
         {"analysis.expect": "objective_gap_vanishes_in_gamma_time, "
                             "strong_convergence_interior_argmin"}, "interior-argmin assertion"),
        # a symmetric set and an even objective, but the claim needs an RK4 run on a set
        ("reparam_quadratic", {"objective.center": "0,0", "numerics.horizon": "2",
                               "analysis.expect": "strong_convergence_symmetric_even"},
         "symmetric-set assertion"),
    ], ids=["symmetric", "interior", "scaled"])
    def test_expected_claim_with_false_premise_fails(self, tmp_path, capsys, preset, override,
                                                     row):
        pairs = {k: v for k, v in load_pairs(preset).items() if k != "objective.dim"}
        pairs.update(override)
        cfg = tmp_path / "premise.cfg"
        cfg.write_text("\n".join(f"{k} = {v}" for k, v in pairs.items()) + "\n", encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_VERDICT
        assert f"check(s) failed: {row}" in capsys.readouterr().out
        out = str(tmp_path / "out")
        assert main(["run", str(cfg), "--strict", "--out-dir", out]) == EXIT_VERDICT

    @pytest.mark.parametrize("text, row", [
        # the unit clock has nothing to rescale
        (UNIT_CLOCK_CFG + "problem.system = unscaled\n",
         ["time_rescaling_equivalence premise", "fail", "the unit clock has nothing to rescale"]),
        # a quadratic certifies theta = 1/2 only
        (CHEAP_SWEEP_CFG + "analysis.expect = power_decay_rates\n",
         ["power_decay_rates premise", "fail",
          "needs a sub-linear power schedule and theta below one half"]),
    ], ids=["unit-clock-rescaling", "ball-quadratic-power-rates"])
    def test_expected_claim_premise_row(self, tmp_path, capsys, text, row):
        cfg = tmp_path / "premise.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_VERDICT
        out = capsys.readouterr().out
        rows = [re.split(r"\s{2,}", line.strip()) for line in out.splitlines()
                if "premise" in line and line.startswith("  ")]
        assert rows == [row]
        assert f"check(s) failed: {row[0]}" in out
        out = str(tmp_path / "out")
        assert main(["run", str(cfg), "--strict", "--out-dir", out]) == EXIT_VERDICT

    @pytest.mark.parametrize("preset", list_presets())
    def test_every_preset_passes(self, capsys, preset):
        assert main(["check", preset]) == EXIT_OK, capsys.readouterr().out


CLAIM_SETS = {
    "wholespace": ({"set.dim": "2"}, "1, 0"),
    "box": ({"set.lo": "-1, -1", "set.hi": "1, 1"}, "0.5, 0"),
    "ball": ({"set.center": "0, 0", "set.radius": "1"}, "0.5, 0"),
    "halfspace": ({"set.normal": "1, 0", "set.offset": "1"}, "0.5, 0"),
    "hyperplane": ({"set.normal": "1, 1", "set.offset": "1"}, "0.5, 0.5"),
    "simplex": ({"set.dim": "2"}, "0.5, 0.5"),
}

I, P, F = "inapplicable", "pass", "fail"
# (problem.system, problem.set) -> the status of each claim in CLAIM_NAMES'
# order, recorded when FlowProblem still carried the system label
RECORDED_CLAIM_STATUSES = {
    ("projected", "box"): (P, P, P, I, P, I, I),
    ("projected", "ball"): (P, P, P, I, P, I, I),
    ("projected", "halfspace"): (P, I, P, I, P, I, I),
    ("projected", "hyperplane"): (F, I, I, I, I, I, I),
    ("projected", "simplex"): (P, I, I, I, I, I, I),
    ("scaled", "wholespace"): (I, I, I, I, P, I, F),
    ("unscaled", "wholespace"): (I, I, I, I, P, I, I),
    ("discrete", "ball"): (I, I, I, I, P, I, I),
    ("discrete", "wholespace"): (I, I, I, I, P, I, I),
}


def claim_statuses(system, kind):
    """The claim statuses of a short run of an even quadratic on a set."""
    set_pairs, x0 = CLAIM_SETS[kind]
    pairs = {"problem.set": kind, **set_pairs, "problem.objective": "quadratic",
             "objective.center": "0, 0", "problem.x0": x0, "problem.system": system,
             "analysis.window_fraction": "0.6"}
    if system == "discrete":
        pairs.update({"discrete.alpha": "0.1", "discrete.steps": "50"})
    else:
        pairs.update({"numerics.horizon": "20", "numerics.step": "0.05"})
        if system != "unscaled":
            pairs.update({"problem.schedule": "power", "schedule.K": "4"})
    res = cli.execute(build_config(pairs))
    assert tuple(c.name for c in res.claims) == CLAIM_NAMES
    return tuple(c.status for c in res.claims)


class TestRecordedClaimStatuses:
    @pytest.mark.parametrize("system, kind", sorted(RECORDED_CLAIM_STATUSES))
    def test_statuses_unchanged(self, system, kind):
        assert claim_statuses(system, kind) == RECORDED_CLAIM_STATUSES[system, kind]

    def test_projected_on_wholespace_is_the_scaled_system(self):
        # recorded as (P, P, P, I, P, I, I): claims 0-2 were witnessed and claim
        # 6 was not. The run is the scaled run, so now its claims are too.
        got = claim_statuses("projected", "wholespace")
        assert got[:3] == (I, I, I) and got[6] != I
        assert got == RECORDED_CLAIM_STATUSES["scaled", "wholespace"]


class TestCliSweep:
    def test_empty_values_exit_2(self):
        assert main(["sweep", "rate_theta50_alpha50",
                     "--param", "alpha", "--values", " ,"]) == EXIT_CONFIG

    def test_non_numeric_values_exit_2(self):
        assert main(["sweep", "rate_theta50_alpha50",
                     "--param", "alpha", "--values", "a,b"]) == EXIT_CONFIG

    def test_aggregate_report_rows(self, tmp_path):
        cfg = tmp_path / "cheap.cfg"
        cfg.write_text(CHEAP_SWEEP_CFG, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["sweep", str(cfg), "--param", "K", "--values", "1 2",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == REPORT_HEADER
        quantities = [line.split(",")[0] for line in lines[1:]]
        assert quantities == ["f_gap@K=1", "traj_err@K=1",
                              "f_gap@K=2", "traj_err@K=2"]
        assert (out / "cheap_K_1.csv").exists() is False  # trajectory keeps its own name
        assert (out / "trajectory_K_1.csv").exists()
        assert (out / "trajectory_K_2.csv").exists()

    def test_sweep_param_foreign_to_objective_exit_2(self):
        # theta belongs to power objectives; the quadratic preset must reject it
        assert main(["sweep", "rate_theta50_alpha50",
                     "--param", "theta", "--values", "0.4"]) == EXIT_CONFIG

    @pytest.mark.parametrize("text, param, values", [
        (DISCRETE_CFG, "step", "0.1,0.2"),            # discrete runs read no numerics.*
        (CHEAP_SWEEP_CFG, "step", "0.005,2"),         # 2 is above the RK4 step bound
        (CHEAP_SWEEP_CFG, "K", "0.5,0.5"),            # one file suffix for two runs
        (CHEAP_SWEEP_CFG, "K", "1.0000001,1.0000002"),
    ], ids=["discrete-step", "second-value-invalid", "repeated", "same-suffix"])
    def test_bad_value_exits_2_before_any_run(self, tmp_path, capsys, text, param, values):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--param", param, "--values", values,
                     "--out-dir", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_param_rejected_by_parser(self, capsys):
        code = main(["sweep", "rate_theta50_alpha50",
                     "--param", "bogus", "--values", "1"])
        assert code == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err


SCALED_SWEEP_CFG = """
problem.set = wholespace
set.dim = 2
problem.objective = quadratic
objective.center = 0,0
problem.schedule = power
problem.x0 = 1,0
problem.system = scaled
numerics.step = 0.01
numerics.horizon = 2
numerics.sample_every = 0.1
"""

POWER_BOX_CFG = """
problem.set = box
set.lo = -1, -1
set.hi = 1, 1
problem.objective = power
objective.center = 0, 0
objective.theta = 0.25
problem.schedule = power
problem.x0 = 1, 0.8
numerics.step = 0.005
numerics.horizon = 4
numerics.sample_every = 0.1
"""


def assert_no_child_left():
    """Every child was reaped: this process has none left to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_outputs(tmp_path, capsys, name, text, param, values):
    """Exit code, stdout, stderr and {file: bytes} of one sweep."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / name
    code = main(["sweep", str(cfg), "--param", param, "--values", values,
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
    return code, captured.out.replace(str(out), "OUT"), captured.err, files


POWER3_BOX_CFG = """
problem.set = box
set.lo = -1, -1, -1
set.hi = 1, 1, 1
problem.objective = power
objective.center = 0.1, -0.2, 0.3
objective.theta = 0.3
problem.schedule = power
problem.x0 = 1, 0.8, -0.6
numerics.step = 0.005
numerics.horizon = 4
numerics.sample_every = 0.1
"""


class TestBatchedSweep:
    """A sweep runs each value as `run` runs its config, the first in this
    process and the others in forked children, and writes every file and
    line in value order."""

    @pytest.mark.parametrize("text, param, values", [
        (POWER_BOX_CFG, "alpha", "0.25,0.5,0.75"),
        (POWER_BOX_CFG, "K", "0.5,1,2"),
        (CHEAP_SWEEP_CFG, "alpha", "0.3,0.6"),
        (SCALED_SWEEP_CFG, "K", "1,2,3"),
        (POWER3_BOX_CFG, "K", "0.5,1,2"),
    ], ids=["box-alpha", "box-K", "ball-alpha", "scaled-K", "power-K"])
    def test_same_output_as_one_value_at_a_time(self, tmp_path, capsys, text, param, values):
        # each sweep trajectory file is, byte for byte, the file `run` writes
        # for that value's config
        code, _, _, files = sweep_outputs(tmp_path, capsys, "sweep", text, param, values)
        assert code in (EXIT_OK, EXIT_VERDICT)
        for token in values.split(","):
            value = float(token)
            pairs = {**parse_pairs(text), cli.SWEEP_PARAMS[param]: repr(value)}
            cfg = tmp_path / f"{param}_{value:g}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()), encoding="utf-8")
            out = tmp_path / f"run_{value:g}"
            assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
            capsys.readouterr()
            swept = files[f"trajectory_{param}_{value:g}.csv"]
            assert swept == (out / "trajectory.csv").read_bytes(), value

    def test_divergence_matches_the_sequential_sweep(self, tmp_path, capsys):
        code, out, err, files = sweep_outputs(tmp_path, capsys, "out", SCALED_SWEEP_CFG,
                                              "K", "1,500,2")
        assert code == EXIT_DIVERGED
        assert out.startswith("sweep K=1: samples=21\n") and "K=500" not in out
        assert err == "divergence: state norm left the trust region near t = 0.05\n"
        assert sorted(files) == ["trajectory_K_1.csv"]

    @pytest.mark.parametrize("text, param, values", [
        (CHEAP_SWEEP_CFG, "step", "0.01,0.02"),
        (POWER_BOX_CFG, "theta", "0.25,0.3"),
        (POWER_BOX_CFG, "alpha", "0.5"),
    ], ids=["step", "theta", "one-value"])
    def test_other_sweeps_run_one_value_at_a_time(self, tmp_path, capsys, monkeypatch,
                                                  text, param, values):
        # the values after the first run in forked children, so each call of
        # execute leaves a marker file where the test can count it
        calls = tmp_path / "calls"
        calls.mkdir()
        execute = cli.execute

        def counted(cfg):
            (calls / f"{cfg.name}#{uuid.uuid4().hex}").touch()
            return execute(cfg)

        monkeypatch.setattr(cli, "execute", counted)
        monkeypatch.setattr(flow, "_rk4_rows", None)  # 2-d catalog runs step floats
        code, _, _, files = sweep_outputs(tmp_path, capsys, "out", text, param, values)
        assert code in (EXIT_OK, EXIT_VERDICT)
        names = sorted(f.name.split("#")[0] for f in calls.iterdir())
        assert names == sorted(f"sweep {param}={float(v):g}" for v in values.split(","))
        assert len(files) == len(values.split(",")) + 1

    @pytest.mark.parametrize("text, param, values, want", [
        (SCALED_SWEEP_CFG, "K", "1,2", EXIT_OK),
        (SCALED_SWEEP_CFG, "K", "1,500,2,3", EXIT_DIVERGED),
        (POWER_BOX_CFG + "analysis.expect = power_decay_rates\n", "alpha", "0.5,0.75",
         EXIT_VERDICT),
    ], ids=["exit-0", "exit-3", "exit-4"])
    def test_no_worker_outlives_the_sweep(self, tmp_path, capsys, text, param, values, want):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["sweep", str(cfg), "--param", param, "--values", values, "--strict",
                     "--out-dir", str(tmp_path / "out")]) == want
        assert_no_child_left()

    def test_a_worker_that_dies_ends_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a child killed mid-run (say, out of memory) ends the sweep with exit
        # 5 and one stderr line, instead of leaving it waiting for a result
        # that never comes; every value before the dead one is written
        execute = cli.execute
        monkeypatch.setattr(cli, "execute",
                            lambda cfg: os._exit(1) if cfg.name == "sweep K=2" else execute(cfg))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        code, out, err, files = sweep_outputs(tmp_path, capsys, "out", SCALED_SWEEP_CFG,
                                              "K", "1,2,3")
        assert code == EXIT_WORKER
        assert re.fullmatch(r"worker error: sweep K=2 \(process \d+\) ended with exit status 1\n",
                            err), err
        assert out.startswith("sweep K=1: samples=21\n") and "K=2" not in out
        assert sorted(files) == ["trajectory_K_1.csv"]
        assert_no_child_left()

    def test_without_fork_the_values_run_serially(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        forked = sweep_outputs(tmp_path, capsys, "forked", SCALED_SWEEP_CFG, "K", "1,2,3")
        monkeypatch.delattr(os, "fork")
        assert sweep_outputs(tmp_path, capsys, "serial", SCALED_SWEEP_CFG, "K", "1,2,3") == forked
        assert forked[0] == EXIT_OK and len(forked[3]) == 4

    def test_a_failed_write_exits_2_and_leaves_no_child(self, tmp_path, capsys, monkeypatch):
        # the write of K=2 raises while the child of K=3 may still be running
        write = cli.write_trajectory_csv

        def failing_write(traj, path):
            if path.endswith("_K_2.csv"):
                raise OSError(28, "No space left on device")
            write(traj, path)

        monkeypatch.setattr(cli, "write_trajectory_csv", failing_write)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        code, _, err, files = sweep_outputs(tmp_path, capsys, "out", SCALED_SWEEP_CFG,
                                            "K", "1,2,3")
        assert code == EXIT_CONFIG
        assert err == "io error: [Errno 28] No space left on device\n"
        assert sorted(files) == ["trajectory_K_1.csv"]
        assert_no_child_left()

    def test_divergence_does_not_wait_for_a_later_value(self, tmp_path, capsys, monkeypatch):
        # K=500 diverges while the child of K=3 would run for a minute: the
        # sweep kills that child rather than wait for it
        execute = cli.execute
        monkeypatch.setattr(cli, "execute", lambda cfg: time.sleep(60)
                            if cfg.name == "sweep K=3" else execute(cfg))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        start = time.perf_counter()
        code, _, err, files = sweep_outputs(tmp_path, capsys, "out", SCALED_SWEEP_CFG,
                                            "K", "1,500,3")
        assert time.perf_counter() - start < 30
        assert code == EXIT_DIVERGED
        assert err == "divergence: state norm left the trust region near t = 0.05\n"
        assert sorted(files) == ["trajectory_K_1.csv"]
        assert_no_child_left()

    def test_text_printed_before_a_sweep_shows_once(self, tmp_path):
        # a forked child inherits unflushed stdout; it must not print it again
        script = ("import sys\nfrom pgflow.cli import main\nprint('x')\n"
                  "raise SystemExit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(pgflow.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", script, "sweep", "rate_theta50_alpha50", "--param", "K",
             "--values", "1,2", "--out-dir", str(tmp_path)],
            capture_output=True, env=dict(env, PYTHONPATH=src), timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines().count(b"x") == 1
        assert proc.stdout.startswith(b"x\nsweep K=1: ")


class TestCheckGradientNaN:
    @pytest.mark.parametrize("errors", [[float("nan"), 1e-9], [1e-9, float("nan")]],
                             ids=["first-block", "last-block"])
    def test_nan_error_anywhere_fails_the_row(self, tmp_path, capsys, monkeypatch, errors):
        # Python's max([0.5, nan]) is 0.5: the NaN must not be dropped. At
        # n = 1000 the 100 points come in two blocks, of 65 and 35 points.
        blocks = iter(errors)
        monkeypatch.setattr(cli, "grad_check", lambda obj, X: next(blocks))
        cfg = tmp_path / "ball.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in highdim_pairs("ball", 1000).items()),
                       encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_VERDICT
        out = capsys.readouterr().out
        assert "  gradient check" in out and "max rel err nan over 100 points" in out
        assert out.endswith("result: 1 check(s) failed: gradient check\n")


def _vector(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def highdim_pairs(kind: str, n: int) -> dict:
    """A quadratic with a seeded centre on an n-dimensional set, as the
    benchmark's high-dimensional configs are built."""
    pairs = {
        "problem.set": kind,
        "problem.objective": "quadratic",
        "objective.center": _vector(np.random.default_rng(5).normal(size=n)),
        "problem.schedule": "power",
        "schedule.alpha": "0.5",
        "numerics.horizon": "2",
        "numerics.step": "0.01",
        "numerics.sample_every": "0.1",
        "problem.x0": _vector(np.zeros(n)),
    }
    rng = np.random.default_rng(6)
    normal = rng.normal(size=n)
    if kind == "ball":
        pairs.update({"set.center": _vector(np.zeros(n)), "set.radius": repr(0.5 * n**0.5)})
    elif kind == "simplex":
        pairs.update({"set.dim": str(n), "problem.x0": _vector(np.full(n, 1.0 / n))})
    elif kind == "box":
        pairs.update({"set.lo": _vector(-rng.uniform(0.5, 1.5, n)),
                      "set.hi": _vector(rng.uniform(0.5, 1.5, n))})
    elif kind == "halfspace":
        pairs.update({"set.normal": _vector(normal), "set.offset": "1.0"})
    elif kind == "hyperplane":
        pairs.update({"set.normal": _vector(normal), "set.offset": "1.0",
                      "problem.x0": _vector(normal / (normal @ normal))})
    else:
        pairs.update({"set.dim": str(n), "problem.system": "scaled"})
    return pairs


class TestMemoryStaysInBlocks:
    """check draws and evaluates its samples, and run assembles and
    compares its samples, a few blocks of rows at a time: at n = 2000 the
    whole command's peak stays below one array of 1000 samples (16 MB)."""

    @pytest.mark.parametrize("command, kind", [("check", "ball"), ("check", "simplex"),
                                               ("run", "wholespace")])
    def test_peak_below_1000_samples(self, tmp_path, capsys, command, kind):
        n = 2000
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in highdim_pairs(kind, n).items()),
                       encoding="utf-8")
        tracemalloc.start()
        try:
            code = main([command, str(cfg), "--out-dir", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, capsys.readouterr()
        assert peak < 1000 * n * 8

    def test_execute_of_a_long_trajectory_stays_in_blocks(self, tmp_path, monkeypatch):
        # 2001 samples of n = 1000 are 16 MB; the traj_err fits and the
        # Lyapunov series each once built one more
        n = 1000
        pairs = highdim_pairs("ball", n)
        pairs.update({"numerics.horizon": "20", "numerics.sample_every": "0.01"})
        cfg = tmp_path / "ball.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()), encoding="utf-8")
        config = load_config(str(cfg))
        traj = cli.integrate(config.problem, horizon=config.horizon, step=config.step,
                             sample_every=config.sample_every)
        assert traj.x.shape == (2001, n)
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: traj)
        tracemalloc.start()
        try:
            res = cli.execute(config)
            diagnostics(traj, np.zeros(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(rep.quantity == "traj_err" for rep in res.fits)
        assert peak < 1000 * n * 8


NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from pgflow.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if "scipy" in m)}))
"""


class TestWithoutScipy:
    def test_commands_run_on_numpy_alone(self, tmp_path):
        # check on every preset; run --strict on the discrete, projected and
        # scaled (with its time-rescaling replay) presets; the README sweep
        argvs = [["check", p] for p in list_presets()]
        argvs += [["run", p, "--strict", "--out-dir", str(tmp_path / p)]
                  for p in ("discrete_vs_continuous_ball", "rate_theta50_alpha50",
                            "reparam_quadratic")]
        argvs.append(["sweep", "rate_theta25_alpha50", "--param", "alpha",
                      "--values", "0.25,0.5,0.75", "--out-dir", str(tmp_path / "sweep")])
        src = os.path.dirname(os.path.dirname(pgflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=300, encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [EXIT_OK] * len(argvs)
        assert result["scipy"] == ["scipy"]  # only the blocking entry
        assert len(list((tmp_path / "sweep").glob("*_trajectory_alpha_*.csv"))) == 3


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["run", "rate_theta50_alpha50", "--seed", "7"],
        ["sweep", "rate_theta50_alpha50", "--param", "K", "--values", "1", "--seed", "7"],
        ["check", "rate_theta50_alpha50", "--strict"],
    ], ids=["run-seed", "sweep-seed", "check-strict"])
    def test_flag_a_command_does_not_read_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_check_accepts_out_dir_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        assert main(["check", "discrete_vs_continuous_ball", "--out-dir", str(out)]) == EXIT_OK
        assert not out.exists()


class TestOutputPathOverride:
    def test_custom_output_names(self, tmp_path):
        cfg = tmp_path / "named.cfg"
        cfg.write_text(CHEAP_SWEEP_CFG
                       + "output.trajectory_path = path.csv\n"
                       + "output.report_path = rep.csv\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "path.csv").exists()
        assert (out / "rep.csv").exists()
        assert not os.path.exists(str(out / "trajectory.csv"))
