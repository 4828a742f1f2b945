"""Command line experiment runner binding configs to runs, fits, and files.

Exit codes: 0 success, 2 config error, 3 divergence, 4 verdict failure
(expected claims under --strict, or any failed row in `check`), 5 a forked
sweep or check child died before it sent its work (``_forked``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import config as config_mod
from .analysis import (
    CLAIM_NAMES,
    PASS,
    POWER_MODEL,
    QUANTITIES,
    ClaimVerdict,
    RateReport,
    claim_premises,
    fit_exponential,
    fit_power,
    power_rates_apply,
    schedule_premises,
    theorem_verdict,
    write_report_csv,
)
from .config import ConfigError, ExperimentConfig
from .errors import DivergenceError, InvalidInputError, UnsupportedObjectiveError
from .flow import (
    Trajectory,
    integrate,
    reparam_check,
    write_trajectory_csv,
)
from .geometry import ConvexSet, _feasible_probes, _gap, _rounding, _row_norms
from .objectives import (
    GRAD_CHECK_TOL,
    Desingularizer,
    certificate_checks,
    grad_check,
    row_blocks,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERDICT = 4
EXIT_WORKER = 5

CERTIFICATE_SAMPLES = 1000  # points of check's error-bound and Lojasiewicz rows
# From this n, check overlaps its sections in a forked child: below it the
# fork cost more wall time than the overlap saved (README, "The check command")
CHECK_FORK_FROM = 250

SWEEP_PARAMS = {
    "alpha": "schedule.alpha",
    "theta": "objective.theta",
    "K": "schedule.K",
    "step": "numerics.step",
}


class WorkerDied(Exception):
    """A forked child ended without sending its work."""


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    trajectory: Trajectory
    fits: tuple
    claims: tuple
    reparam_gap: Optional[float]


def _compute_fits(traj: Trajectory, cfg: ExperimentConfig):
    if power_rates_apply(cfg.problem):
        return tuple(fit_power(traj, q, cfg.window_fraction) for q in QUANTITIES)
    hol = cfg.problem.objective.holder
    if hol is not None and hol.theta == 0.5:
        return tuple(fit_exponential(traj, q, window_fraction=cfg.window_fraction)
                     for q in QUANTITIES)
    return ()


def execute(cfg: ExperimentConfig) -> ExperimentResult:
    """Integrate the configured problem and evaluate fits and claims."""
    problem = cfg.problem
    traj = integrate(problem, cfg.horizon, cfg.step, cfg.sample_every, cfg.method)
    reparam_gap = None
    if "time_rescaling_equivalence" not in claim_premises(problem, cfg.method):
        reparam_gap = reparam_check(problem.objective, problem.schedule, problem.x0,
                                    horizon=cfg.horizon, step=cfg.step, run=traj)
    fits = _compute_fits(traj, cfg)
    claims = theorem_verdict(traj, fits, reparam_gap=reparam_gap)
    return ExperimentResult(cfg, traj, fits, claims, reparam_gap)


def _expected_claims_pass(res: ExperimentResult) -> bool:
    expected = set(res.config.expect)
    return all(c.status == PASS for c in res.claims if c.name in expected)


def _fit_line(rep: RateReport) -> str:
    label = "slope" if rep.model == POWER_MODEL else "mu"
    if rep.verdict == "inapplicable":
        body = rep.reason
    else:
        body = f"{label}={rep.fitted:+.4f}  r2={rep.r_squared:.5f}"
        if rep.theoretical is not None:
            body += f"  theoretical={rep.theoretical:+.4f}"
    return f"  fit   {rep.quantity:<10} {rep.model:<13} {rep.verdict:<12} {body}"


def _claim_line(claim: ClaimVerdict, expected: bool) -> str:
    mark = " (expected)" if expected else ""
    return f"  claim {claim.name:<40} {claim.status:<12} {claim.detail}{mark}"


def cmd_run(args) -> int:
    cfg = config_mod.load_config(args.config)
    res = execute(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    traj_path = os.path.join(args.out_dir, cfg.trajectory_path)
    report_path = os.path.join(args.out_dir, cfg.report_path)
    write_trajectory_csv(res.trajectory, traj_path)
    write_report_csv(report_path, res.fits, res.claims)

    traj = res.trajectory
    print(f"run {cfg.name}: system={cfg.system} samples={len(traj.t)} "
          f"horizon={traj.horizon:g} f_star={res.trajectory.f_star_source}")
    for rep in res.fits:
        print(_fit_line(rep))
    expected = set(cfg.expect)
    for claim in res.claims:
        if claim.status == "inapplicable" and claim.name not in expected:
            continue
        print(_claim_line(claim, claim.name in expected))
    print(f"wrote {traj_path}")
    print(f"wrote {report_path}")
    if args.strict and not _expected_claims_pass(res):
        print("strict mode: an expected claim did not pass", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _forked(work, names, workers: int, take) -> None:
    """Call ``take(j, work(j))`` for each job j, one per entry of ``names``,
    in job order. Job 0 runs here and every other job in a forked child, at
    most ``workers`` jobs computing at once; with one worker, or without
    ``os.fork``, every job runs here in turn, so a caller's output does not
    depend on which. A child pickles its result, or the exception it
    raised, to a pipe and leaves by ``os._exit``; the exception is raised
    again at its job's turn, and a child that sends nothing raises
    WorkerDied. On any error the other children are killed; every child is
    reaped before this returns or raises. ``sweep`` runs one value per job,
    and ``check`` its sampled sections in two jobs."""
    if workers <= 1 or not hasattr(os, "fork"):
        for j in range(len(names)):
            take(j, work(j))
        return
    children = {}  # job -> (pid, read end of its pipe)

    def start(j):
        # a child inherits unflushed stream buffers: empty them first
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                try:
                    sent = (True, work(j))
                except Exception as exc:
                    sent = (False, exc)
                with open(write_fd, "wb") as pipe:
                    pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                # no traceback, no atexit handler, no flush: the parent reports
                os._exit(code)
        os.close(write_fd)
        children[j] = (pid, open(read_fd, "rb"))

    try:
        for j in range(1, min(workers, len(names))):
            start(j)
        for j in range(len(names)):
            if j == 0:
                result = work(0)
            else:
                pid, pipe = children[j]
                with pipe:
                    data = pipe.read()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[j]
                if code:
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"ended with exit status {code}")
                    raise WorkerDied(f"{names[j]} (process {pid}) {how}")
                ok, result = pickle.loads(data)
                if not ok:
                    raise result
            if j + workers < len(names):
                start(j + workers)
            take(j, result)
    except BaseException:
        import signal  # only here: at the top it would add to every command's start-up

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.waitpid(pid, 0)


def cmd_sweep(args) -> int:
    key = SWEEP_PARAMS[args.param]
    tokens = [tok for tok in args.values.replace(",", " ").split() if tok]
    if not tokens:
        raise ConfigError("sweep needs at least one value")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"sweep values must be numbers, got {args.values!r}") from None

    # every value's config is built, and so validated, before any run starts
    pairs = config_mod.load_pairs(args.config)
    runs = {}
    for value in values:
        suffix = f"{args.param}_{value:g}"
        if suffix in runs:
            raise ConfigError(f"sweep values {runs[suffix][0]!r} and {value!r} "
                              f"map to the same file suffix {suffix!r}")
        override = dict(pairs)
        override[key] = repr(value)
        cfg = config_mod.build_config(override, name=f"sweep {args.param}={value:g}")
        stem, ext = os.path.splitext(cfg.trajectory_path)
        cfg.trajectory_path = f"{stem}_{suffix}{ext}"
        runs[suffix] = (value, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    items = list(runs.values())
    aggregate, passes = [], []

    def run_job(j):
        # a child pickles its result: the config's closures stay behind
        res = execute(items[j][1])
        res.config = res.trajectory.problem = None
        return res

    def write(j, res):
        value, cfg = items[j]
        res.config, res.trajectory.problem = cfg, cfg.problem
        write_trajectory_csv(res.trajectory, os.path.join(args.out_dir, cfg.trajectory_path))
        print(f"sweep {args.param}={value:g}: samples={len(res.trajectory.t)}")
        for rep in res.fits:
            print(_fit_line(rep))
            aggregate.append(dataclasses.replace(
                rep, quantity=f"{rep.quantity}@{args.param}={value:g}"))
        for claim in res.claims:
            if claim.name in set(cfg.expect) and claim.status != PASS:
                print(_claim_line(claim, True))
        passes.append(_expected_claims_pass(res))

    # forked children get the configs by fork, not by pickle; this process
    # writes every file and line in value order
    _forked(run_job, [cfg.name for _, cfg in items], min(len(items), _usable_cpus()), write)
    report_path = os.path.join(args.out_dir, cfg.report_path)
    write_report_csv(report_path, aggregate)
    print(f"wrote {report_path}")
    if args.strict and not all(passes):
        print("strict mode: an expected claim did not pass", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _evidence_text(evidence) -> str:
    """A row's evidence as sorted k=v pairs; a sentence stays as it is."""
    if isinstance(evidence, str):
        return evidence
    return ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in sorted(evidence.items()))


def _draws(domain: ConvexSet, rng, count: int):
    """``count`` points of the set, drawn one block of rows at a time."""
    for b in row_blocks(count, domain.dim):
        yield domain.sample(rng, b.stop - b.start)


def _gradient_row(obj, blocks):
    """The gradient check over every point of ``blocks``, one grad_check
    call per block of points."""
    errors, count = [], 0
    for X in blocks:
        errors.append(grad_check(obj, X))
        count += len(X)
    # np.max keeps a NaN error wherever it falls; Python's max may drop it
    worst = float(np.max(errors))
    return ("gradient check", "pass" if worst <= GRAD_CHECK_TOL else "fail",
            f"max rel err {worst:.3g} over {count} points")


def _certificate_rows(obj, domain: ConvexSet, rng) -> list:
    """The error-bound and Lojasiewicz rows, over 1000 drawn samples where
    the objective carries a certificate."""
    if obj.holder is None or obj.optimum is None:
        return [("error bound sampling", "not-applicable", "no certificate metadata"),
                ("lojasiewicz sampling", "not-applicable", "no certificate metadata")]
    phi = Desingularizer(obj.holder.kappa, obj.holder.theta)
    samples = _draws(domain, rng, CERTIFICATE_SAMPLES)
    ratio, product = certificate_checks(obj, domain, phi, samples)
    bar = obj.holder.kappa * (1.0 - 1e-6)
    return [("error bound sampling", "pass" if ratio >= bar else "fail",
             f"min ratio {ratio:.6g} vs kappa {obj.holder.kappa:g}"),
            ("lojasiewicz sampling", "pass" if product >= 1.0 - 1e-6 else "fail",
             f"min product {product:.6g}")]


def _projection_rows(domain: ConvexSet, rng) -> list:
    probes = _feasible_probes(domain, domain.sample(rng, 32), domain.dim)
    # np.max and np.maximum keep a NaN wherever it falls; Python's max may drop it
    worst_nonexp = worst_idem = worst_gap = 0.0
    # the largest norm of a point and of a residual x - P(x): each bound
    # allows for the rounding of coordinates that far from the origin
    size, reach = float(np.max(_row_norms(probes))), 1.0
    for b in row_blocks(200, domain.dim):
        k = b.stop - b.start
        xs, ys = (domain.sample(rng, k) + rng.normal(size=(k, domain.dim)) * 2.0
                  for _ in range(2))
        px, py = domain._project_rows(xs), domain._project_rows(ys)
        rx = xs - px
        size = float(np.max(_row_norms(np.vstack((xs, ys))), initial=size))
        reach = float(np.max(_row_norms(rx), initial=reach))
        excess = _row_norms(px - py) - _row_norms(xs - ys)
        worst_nonexp = float(np.max(excess, initial=worst_nonexp))
        worst_idem = float(np.max(_row_norms(domain._project_rows(px) - px),
                                  initial=worst_idem))
        worst_gap = float(np.maximum(_gap(rx, px, probes), worst_gap))
    slack = _rounding(domain.dim, size)
    return [("projection nonexpansive", "pass" if worst_nonexp <= 1e-12 + slack else "fail",
             f"max excess {worst_nonexp:.3g}"),
            ("projection idempotent", "pass" if worst_idem <= 1e-9 + slack else "fail",
             f"max drift {worst_idem:.3g}"),
            ("projection variational", "pass" if worst_gap <= 1e-9 + slack * reach else "fail",
             f"max gap {worst_gap:.3g}")]


def _sampled_rows(problem, seed: int) -> list:
    """The gradient, certificate and projection rows, in that order.

    Each section draws from its own generator, spawned from ``seed``, so
    no section's points depend on another's draws. They run as two jobs of
    _forked: the certificate here, the gradient and projection sections in
    one forked child, when the certificate runs, n >= CHECK_FORK_FROM and
    more than one CPU is usable; otherwise both jobs run here in turn. A
    section that raises ends its job; the first exception in row order is
    raised, as if the sections ran in order here.
    """
    domain, obj = problem.domain, problem.objective
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    sections = (lambda: [_gradient_row(obj, _draws(domain, rngs[0], 100))],
                lambda: _certificate_rows(obj, domain, rngs[1]),
                lambda: _projection_rows(domain, rngs[2]))
    jobs = ((1,), (0, 2))  # here the certificate; in the child the gradient, the projections
    done = {}

    def run_job(j):
        outcomes = []
        for s in jobs[j]:
            try:
                outcomes.append(sections[s]())
            except Exception as exc:
                outcomes.append(exc)
                break
        return outcomes

    def take(j, outcomes):
        done.update(zip(jobs[j], outcomes))

    certified = obj.holder is not None and obj.optimum is not None
    overlap = certified and domain.dim >= CHECK_FORK_FROM
    _forked(run_job, ["certificate rows", "gradient and projection rows"],
            2 if overlap and _usable_cpus() > 1 else 1, take)
    rows = []
    for s in range(len(sections)):  # a section missing from done follows an exception
        if isinstance(done[s], Exception):
            raise done[s]
        rows.extend(done[s])
    return rows


def cmd_check(args) -> int:
    """Print the check rows of a config (README, "The check command"):
    exit 0 when none fails, 4 when one does. The sampled rows may come
    from a forked child (_sampled_rows); stdout and the exit code, errors
    included, are the same bytes on any number of usable CPUs."""
    cfg = config_mod.load_config(args.config)
    problem = cfg.problem
    rows = []

    feas = problem.domain.residual(problem.x0)
    rows.append(("start point feasible", "pass" if feas <= 1e-12 else "fail",
                 f"residual {feas:.3g}"))
    rows.extend((label, status, _evidence_text(evidence))
                for label, status, evidence in schedule_premises(problem, cfg.horizon, cfg.method))
    rows.extend(_sampled_rows(problem, args.seed))

    # an expected claim whose premise fails would exit 4 under run --strict.
    # Claims 1 and 2 keep their assertion rows, pass or fail; any other
    # expected claim gets a row only when its premise fails.
    premises = claim_premises(problem, cfg.method)
    labels = dict(zip(CLAIM_NAMES[1:3], ("symmetric-set assertion", "interior-argmin assertion")))
    for claim in (c for c in CLAIM_NAMES if c in cfg.expect):
        reason = premises.get(claim)
        if reason or claim in labels:
            rows.append((labels.get(claim, f"{claim} premise"), "fail" if reason else "pass",
                         reason or ""))

    print(f"check {cfg.name}")
    width = max(len(label) for label, _, _ in rows)
    for label, status, detail in rows:
        print(f"  {label:<{width}}  {status:<15} {detail}")
    failed = [label for label, status, _ in rows if status == "fail"]
    if failed:
        print(f"result: {len(failed)} check(s) failed: {', '.join(failed)}")
        return EXIT_VERDICT
    print("result: all checks passed")
    return EXIT_OK


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take integers >= 0 only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


@functools.cache  # built once per process: main may run many commands
def _build_parser() -> argparse.ArgumentParser:
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=".",
                         help="directory for trajectory and report files")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="exit 4 when an expected claim does not pass")

    parser = argparse.ArgumentParser(
        prog="pgflow",
        description="Run projected gradient flow experiments from flat configs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[strict, out_dir],
                           help="integrate one config and write trajectory + report CSVs")
    run_p.add_argument("config", help="config file path or shipped preset name")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[strict, out_dir],
                             help="repeat a config over several parameter values")
    sweep_p.add_argument("config", help="config file path or shipped preset name")
    sweep_p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS),
                         help="which knob to sweep")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated numbers, e.g. 0.25,0.5,0.75")
    sweep_p.set_defaults(func=cmd_sweep)

    # check writes nothing; it takes --out-dir so every command line can end with it
    check_p = sub.add_parser("check", parents=[out_dir],
                             help="validate schedule, gradients, bound certificates, projections")
    check_p.add_argument("config", help="config file path or shipped preset name")
    check_p.add_argument("--seed", type=_seed, default=0,
                         help="seed for probe sampling")
    check_p.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except WorkerDied as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except (InvalidInputError, UnsupportedObjectiveError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
