"""`pgflow check`: every row it prints can fail, the gradient probes of
each drawn block of points are checked by one call, and the sampled
sections print the same bytes whether or not they run in a forked child."""

import dataclasses
import os
import re
from contextlib import contextmanager

import numpy as np
import pytest

from pgflow import cli, config
from pgflow.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERDICT, main
from pgflow.errors import InvalidInputError
from pgflow.config import list_presets, load_pairs
from pgflow.geometry import Ball

from test_config_cli import (
    CHEAP_SWEEP_CFG,
    DISCRETE_CFG,
    GE1_CFG,
    SCALED_SWEEP_CFG,
    UNIT_CLOCK_CFG,
    highdim_pairs,
)


def check_rows(tmp_path, capsys, text, argv=()):
    """Exit code, printed rows as [label, status, detail] and stdout of
    `check` on the config ``text``."""
    cfg = tmp_path / "check.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = main(["check", str(cfg), *argv])
    out = capsys.readouterr().out
    rows = [re.split(r"\s{2,}", line.strip(), maxsplit=2) for line in out.splitlines()
            if line.startswith("  ")]
    return code, rows, out


def load_text(preset: str) -> str:
    return "".join(f"{k} = {v}\n" for k, v in load_pairs(preset).items())


def highdim_text(kind: str, n: int) -> str:
    return "".join(f"{k} = {v}\n" for k, v in highdim_pairs(kind, n).items())


def wrong_gradient(monkeypatch):
    """Build every quadratic with a gradient off by one in its last coordinate."""
    make = config.quadratic

    def build(*args, **kwargs):
        obj = make(*args, **kwargs)
        good = obj.grad_fn

        def bad(x):
            g = np.array(good(x), dtype=float)
            g[-1] += 1.0
            return g

        return dataclasses.replace(obj, grad_fn=bad, grad_rows=None)

    monkeypatch.setattr(config, "quadratic", build)


def broken_projection(move):
    """A patch that makes a unit disk's projection the identity inside and
    ``move``, taken about the centre, on the rows outside, so the disk's own
    samples stay put. It takes effect once the config, whose argmin is a
    projection, is built."""
    def project_rows(self, X):
        D = X - self.center
        return np.where(np.linalg.norm(D, axis=1, keepdims=True) > 1.0, move(D) + self.center, X)

    def patch(monkeypatch):
        load = config.load_config

        def load_then_break(path):
            cfg = load(path)
            monkeypatch.setattr(Ball, "_project_rows", project_rows)
            return cfg

        monkeypatch.setattr(config, "load_config", load_then_break)

    return patch


# row label -> (config text, a patch that breaks the input, or None); each
# config makes that row fail, whatever the other rows say
FAILING_ROW_CASES = {
    # (2, 0) lies outside the unit disk
    "start point feasible": (CHEAP_SWEEP_CFG.replace("problem.x0 = 0,0", "problem.x0 = 2,0"),
                             None),
    # alpha = 2: Gamma tends to 1
    "clock unbounded": (GE1_CFG, None),
    # theta = 1/4 on the log clock: q = 1/2 is not above 1
    "power tail integrable": (
        CHEAP_SWEEP_CFG.replace("problem.objective = quadratic",
                                "problem.objective = power\nobjective.theta = 0.25")
        .replace("problem.schedule = power", "problem.schedule = power_ge1\nschedule.alpha = 1"),
        None),
    # theta = 1/2 on a bounded clock
    "exp tail integrable": (GE1_CFG, None),
    "gradient check": (CHEAP_SWEEP_CFG, wrong_gradient),
    # a quadratic of modulus 2 certifies kappa = 1, not 10
    "error bound sampling": (CHEAP_SWEEP_CFG + "objective.kappa = 10\n", None),
    "lojasiewicz sampling": (CHEAP_SWEEP_CFG + "objective.kappa = 10\n", None),
    # the antipode of the nearest point: x at 1.01 and y at 0.99 end 2 apart
    "projection nonexpansive": (CHEAP_SWEEP_CFG, broken_projection(
        lambda X: -X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0))),
    # x / 2 is still outside the disk where |x| > 2
    "projection idempotent": (CHEAP_SWEEP_CFG, broken_projection(lambda X: 0.5 * X)),
    # the centre is a point of the disk, but not the nearest one
    "projection variational": (CHEAP_SWEEP_CFG, broken_projection(np.zeros_like)),
    # a quadratic centred off the origin is not even
    "symmetric-set assertion": (
        CHEAP_SWEEP_CFG + "analysis.expect = strong_convergence_symmetric_even\n", None),
    # the argmin (1, 0) lies on the unit circle
    "interior-argmin assertion": (
        CHEAP_SWEEP_CFG + "analysis.expect = strong_convergence_interior_argmin\n", None),
    # the clock tends to 1, so Gamma * gap has no time to vanish
    "objective_gap_vanishes_in_gamma_time premise": (GE1_CFG, None),
    # a quartic certifies theta = 1/4 only
    "exponential_decay_rates premise": (
        CHEAP_SWEEP_CFG.replace("problem.objective = quadratic",
                                "problem.objective = power\nobjective.theta = 0.25")
        + "analysis.expect = exponential_decay_rates\n", None),
    # the unit clock has nothing to rescale
    "time_rescaling_equivalence premise": (UNIT_CLOCK_CFG + "problem.system = unscaled\n", None),
    # a quadratic certifies theta = 1/2 only
    "power_decay_rates premise": (CHEAP_SWEEP_CFG + "analysis.expect = power_decay_rates\n",
                                  None),
}

# rows that pass or are not applicable for every input: `variation finite`
# and `schedule monotone` hold for every shipped schedule, and a discrete
# run's one schedule row is not applicable by design. The first two stay
# only while the benchmark's check references pin them.
ROWS_THAT_CANNOT_FAIL = ("variation finite", "schedule monotone", "schedule conditions")


class TestEveryCheckRowCanFail:
    @pytest.mark.parametrize("label", sorted(FAILING_ROW_CASES))
    def test_row_fails(self, tmp_path, capsys, monkeypatch, label):
        text, patch = FAILING_ROW_CASES[label]
        if patch is not None:
            patch(monkeypatch)
        code, rows, out = check_rows(tmp_path, capsys, text)
        assert code == EXIT_VERDICT, out
        assert [status for row_label, status, *_ in rows if row_label == label] == ["fail"], out
        assert label in out.splitlines()[-1]

    def test_every_row_is_listed(self, tmp_path, capsys):
        # the labels of every preset, every failing case and a discrete run
        texts = [load_text(preset) for preset in list_presets()] + [DISCRETE_CFG]
        seen = set()
        for text in texts + [text for text, _ in FAILING_ROW_CASES.values()]:
            seen.update(row[0] for row in check_rows(tmp_path, capsys, text)[1])
        assert seen == set(FAILING_ROW_CASES) | set(ROWS_THAT_CANNOT_FAIL)

    @pytest.mark.parametrize("label", ROWS_THAT_CANNOT_FAIL[:2])
    def test_rows_that_cannot_fail_pass_on_a_bounded_clock(self, tmp_path, capsys, label):
        _, rows, _ = check_rows(tmp_path, capsys, GE1_CFG)
        assert [status for row_label, status, *_ in rows if row_label == label] == ["pass"]


def far_hyperplane_text(offset: float) -> str:
    """The line x + y = offset, with a quadratic centred on it."""
    mid = f"{offset / 2!r}, {offset / 2!r}"
    return (f"problem.set = hyperplane\nset.normal = 1, 1\nset.offset = {offset!r}\n"
            f"problem.objective = quadratic\nobjective.center = {mid}\n"
            f"problem.schedule = power\nproblem.x0 = {mid}\n")


def far_disk_text(offset: float) -> str:
    """The unit disk centred at (offset, 0), with a quadratic centred there."""
    centre = f"{offset!r}, 0"
    return (f"problem.set = ball\nset.center = {centre}\nset.radius = 1\n"
            f"problem.objective = quadratic\nobjective.center = {centre}\n"
            f"problem.schedule = power\nproblem.x0 = {centre}\n")


PROJECTION_ROWS = ("projection nonexpansive", "projection idempotent", "projection variational")


class TestFarFromTheOrigin:
    """The projection and membership bounds allow for the rounding of
    coordinates far from the origin, and a wrong projection still fails."""

    @pytest.mark.parametrize("text", [far_hyperplane_text(1e6), far_hyperplane_text(1e8),
                                      far_disk_text(1e8)], ids=["line-1e6", "line-1e8", "disk-1e8"])
    def test_exact_projections_pass(self, tmp_path, capsys, text):
        code, rows, out = check_rows(tmp_path, capsys, text)
        assert code in (EXIT_OK, EXIT_VERDICT), out
        statuses = {label: status for label, status, *_ in rows}
        for label in PROJECTION_ROWS + ("error bound sampling", "lojasiewicz sampling"):
            assert statuses[label] == "pass", out

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("label", PROJECTION_ROWS)
    def test_a_wrong_projection_fails(self, tmp_path, capsys, monkeypatch, label, offset):
        FAILING_ROW_CASES[label][1](monkeypatch)
        code, rows, out = check_rows(tmp_path, capsys, far_disk_text(offset))
        assert code == EXIT_VERDICT, out
        assert [status for row_label, status, *_ in rows if row_label == label] == ["fail"], out


class TestErrorBoundRounding:
    def test_a_hyperplane_passes_at_the_default_seed(self, tmp_path, capsys):
        # there (f - f*)^(1/2) equals dist(x, argmin) exactly, and at --seed 0
        # a sample 1e-5 from the argmin reads its rounded gap 1.1e-5 short
        code, rows, out = check_rows(tmp_path, capsys, highdim_text("hyperplane", 2))
        assert code == EXIT_OK, out
        assert [row[1] for row in rows if row[0] == "error bound sampling"] == ["pass"], out


class TestCertificateOverflow:
    def test_an_overflowing_gradient_norm_keeps_its_sample(self, tmp_path, capsys):
        # f is about 1e180 at every sample, and |grad f|^2 overflows a float
        zeros = ", ".join(["0"] * 200)
        text = (f"problem.set = wholespace\nset.dim = 200\nproblem.objective = power\n"
                f"objective.center = {zeros}\nobjective.theta = 0.006\n"
                f"problem.schedule = power\nproblem.x0 = {zeros}\n")
        code, rows, out = check_rows(tmp_path, capsys, text)
        assert code == EXIT_OK, out
        assert ["lojasiewicz sampling", "pass", "min product 166.667"] in rows


SET_KINDS = ("wholespace", "box", "ball", "halfspace", "hyperplane", "simplex")
OVERLAP_FROM = cli.CHECK_FORK_FROM  # from this n check forks on two usable CPUs
WIDE = 200  # the 2n probe rows of one point overflow one block of 2^16 floats from n = 182


def point_by_point(grad_check):
    """grad_check of a block of points as the worst of its points' own checks."""
    return lambda obj, X: float(np.max([grad_check(obj, x) for x in X]))


class TestSerialGradientProbes:
    """check calls grad_check once per drawn block of points."""

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_stdout_equals_the_point_by_point_check(self, tmp_path, capsys, monkeypatch, kind):
        text = highdim_text(kind, WIDE)
        blocks = check_rows(tmp_path, capsys, text, ("--seed", "3"))
        monkeypatch.setattr(cli, "grad_check", point_by_point(cli.grad_check))
        points = check_rows(tmp_path, capsys, text, ("--seed", "3"))
        assert blocks[0] == EXIT_OK, blocks[2]
        assert blocks == points

    @pytest.mark.parametrize("n, sizes", [(2, [100]), (WIDE, [100]), (1000, [65, 35])])
    def test_one_call_per_block_and_no_fork(self, tmp_path, capsys, monkeypatch, n, sizes):
        # on one usable CPU check forks at no n, and below CHECK_FORK_FROM at no CPU count
        def no_fork():
            raise AssertionError("os.fork called by check")

        calls, grad_check = [], cli.grad_check

        def counted(obj, X):
            calls.append(len(X))
            return grad_check(obj, X)

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cli, "grad_check", counted)
        for cpus in (1, 4) if n < OVERLAP_FROM else (1,):
            calls.clear()
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            code, rows, out = check_rows(tmp_path, capsys, highdim_text("ball", n))
            assert code == EXIT_OK, out
            assert calls == sizes
            assert [row[2] for row in rows if row[0] == "gradient check"][0].endswith(
                " over 100 points")

    def test_an_error_in_the_check_exits_2(self, tmp_path, capsys, monkeypatch):
        def failing(obj, X):
            raise InvalidInputError("gradient rows must be finite")

        monkeypatch.setattr(cli, "grad_check", failing)
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(highdim_text("ball", WIDE), encoding="utf-8")
        assert main(["check", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: gradient rows must be finite\n"


@contextmanager
def counted_forks(monkeypatch):
    """The list of the process ids that os.fork returned here while in the block."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    monkeypatch.setattr(os, "fork", fork)


def check_on(tmp_path, capsys, monkeypatch, text, cpus, argv=()):
    """(exit code, stdout, stderr, forks) of `check` with ``cpus`` usable CPUs."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg = tmp_path / "check.cfg"
    cfg.write_text(text, encoding="utf-8")
    with counted_forks(monkeypatch) as pids:
        code = main(["check", str(cfg), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, len(pids)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising(message):
    def fail(*args, **kwargs):
        raise InvalidInputError(message)

    return fail


def outside_samples(monkeypatch):
    """A ball's sampler that draws its points from the ball three times as wide."""
    sample = Ball.sample

    def sample_outside(self, rng, n):
        return self.center + 3.0 * (sample(self, rng, n) - self.center)

    monkeypatch.setattr(Ball, "sample", sample_outside)


def without_certificate(monkeypatch):
    """Load every config with its objective's certificate metadata dropped."""
    load = config.load_config

    def load_without(path):
        cfg = load(path)
        cfg.problem.objective = dataclasses.replace(cfg.problem.objective, holder=None)
        return cfg

    monkeypatch.setattr(config, "load_config", load_without)


class TestForkedSections:
    """From n = CHECK_FORK_FROM on two usable CPUs, check runs its certificate section
    here and its gradient and projection sections in one forked child,
    printing the bytes the sections print in order in this process."""

    @pytest.mark.parametrize("n", [2, OVERLAP_FROM])
    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_same_bytes_on_one_and_two_cpus(self, tmp_path, capsys, monkeypatch, kind, n):
        text = highdim_text(kind, n)
        one = check_on(tmp_path, capsys, monkeypatch, text, 1, ("--seed", "4"))
        two = check_on(tmp_path, capsys, monkeypatch, text, 2, ("--seed", "4"))
        assert one[:3] == two[:3]
        assert one[0] == EXIT_OK and one[1].startswith("check "), one[1]
        assert (one[3], two[3]) == (0, int(n >= OVERLAP_FROM))
        assert_no_child_left()

    @pytest.mark.parametrize("n", [OVERLAP_FROM - 1, OVERLAP_FROM])
    def test_forks_from_check_fork_from(self, tmp_path, capsys, monkeypatch, n):
        code, _, _, forks = check_on(tmp_path, capsys, monkeypatch, highdim_text("ball", n), 2)
        assert (code, forks) == (EXIT_OK, int(n >= OVERLAP_FROM))

    def test_no_fork_without_a_certificate(self, tmp_path, capsys, monkeypatch):
        without_certificate(monkeypatch)
        code, out, _, forks = check_on(tmp_path, capsys, monkeypatch, highdim_text("ball", OVERLAP_FROM), 2)
        assert code == EXIT_OK and "no certificate metadata" in out
        assert forks == 0

    # (patch, the message) of an error in the child's sections, in the certificate
    # section here, in both, and in both with the child's error first in row order
    ERRORS = {
        "gradient, in the child": (
            lambda mp: mp.setattr(cli, "grad_check", raising("gradient rows must be finite")),
            "gradient rows must be finite"),
        "projection, in the child": (
            lambda mp: mp.setattr(cli, "_feasible_probes",
                                  raising("probe point lies outside the set")),
            "probe point lies outside the set"),
        "certificate, here": (
            lambda mp: mp.setattr(cli, "certificate_checks", raising("no sample had a positive "
                                                                     "objective gap")),
            "no sample had a positive objective gap"),
        "certificate before projection": (outside_samples, "sample lies outside the domain"),
        "gradient before certificate": (
            lambda mp: (outside_samples(mp),
                        mp.setattr(cli, "grad_check", raising("gradient rows must be finite"))),
            "gradient rows must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_an_error_gives_the_same_message_and_exit(self, tmp_path, capsys, monkeypatch, case):
        patch, message = self.ERRORS[case]
        patch(monkeypatch)
        text = highdim_text("ball", OVERLAP_FROM)
        one = check_on(tmp_path, capsys, monkeypatch, text, 1)
        two = check_on(tmp_path, capsys, monkeypatch, text, 2)
        assert one[:3] == two[:3] == (EXIT_CONFIG, "", f"config error: {message}\n")
        assert two[3] == 1
        assert_no_child_left()

    def test_a_child_that_dies_exits_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_projection_rows", lambda domain, rng: os._exit(7))
        code, out, err, forks = check_on(tmp_path, capsys, monkeypatch,
                                         highdim_text("ball", OVERLAP_FROM), 2)
        assert (code, out, forks) == (cli.EXIT_WORKER, "", 1)
        assert err.startswith("worker error: gradient and projection rows (process ")
        assert err.endswith(") ended with exit status 7\n")
        assert_no_child_left()

    @pytest.mark.parametrize("kind", ["ball", "hyperplane"])
    def test_projection_rows_do_not_depend_on_the_certificate(self, tmp_path, capsys,
                                                              monkeypatch, kind):
        # each section draws from its own stream: dropping the certificate's
        # 1000 draws moves no projection probe
        text = highdim_text(kind, 2)
        with_rows = check_rows(tmp_path, capsys, text, ("--seed", "2"))[1]
        without_certificate(monkeypatch)
        without_rows = check_rows(tmp_path, capsys, text, ("--seed", "2"))[1]
        assert ["error bound sampling", "not-applicable",
                "no certificate metadata"] in without_rows
        assert ([row for row in with_rows if row[0] in PROJECTION_ROWS]
                == [row for row in without_rows if row[0] in PROJECTION_ROWS])


class TestUsableCpus:
    def test_without_an_affinity_mask_the_machine_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._usable_cpus() == 6

    def test_a_sweep_runs_without_an_affinity_mask(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SCALED_SWEEP_CFG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), "--param", "K", "--values", "1,2",
                     "--out-dir", str(out)]) == EXIT_OK
        assert sorted(f.name for f in out.iterdir()) == [
            "report.csv", "trajectory_K_1.csv", "trajectory_K_2.csv"]
