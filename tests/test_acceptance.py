"""End-to-end acceptance checks, one test per criterion.

A verbose run reads as a checklist: each criterion is exactly one test,
so the PASSED/FAILED column is the acceptance verdict. Numeric evidence
is printed for inspection under -s.
"""

import time

import numpy as np
import pytest

from pgflow.analysis import (
    check_gamma_gap_limit,
    check_monotone,
    diagnostics,
    fit_exponential,
    fit_power,
)
from pgflow.cli import execute
from pgflow.config import build_config, load_pairs
from pgflow.flow import ANALYTIC, FlowProblem, Trajectory, integrate
from pgflow.geometry import (
    AffineHyperplane,
    Ball,
    Box,
    HalfSpace,
    Simplex,
    WholeSpace,
    variational_gap,
)
from pgflow.objectives import Desingularizer, quadratic
from pgflow.schedules import Constant, Power, PowerGE1, validate

CGP_PRESETS = (
    "even_box",
    "interior_flatbottom",
    "rate_theta25_alpha50",
    "rate_theta50_alpha50",
)


def fabricate(t, f_gap, problem):
    """Trajectory with prescribed f_gap samples; everything else inert."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    if problem.schedule is not None:
        gamma = np.array([problem.schedule.gamma(float(s)) for s in t])
    else:
        gamma = t.copy()
    return Trajectory(
        t=t,
        x=np.zeros((n, problem.objective.dim)),
        f_gap=np.asarray(f_gap, dtype=float),
        gamma=gamma,
        feas_drift=np.zeros(n),
        speed=np.zeros(n),
        dist_argmin=None,
        problem=problem,
        f_star_source=ANALYTIC,
    )


# -- criterion 1: projection operators ------------------------------------

def _grid_and_tol(cs, rng):
    """Feasible grid plus a distance tolerance that covers its mesh width."""
    d = cs.dim
    if isinstance(cs, Box):
        axes = [np.linspace(lo, hi, 24) for lo, hi in zip(cs.lo, cs.hi)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        h = float(np.linalg.norm([(hi - lo) / 23 for lo, hi in zip(cs.lo, cs.hi)]))
        return mesh, 2.0 * h
    if isinstance(cs, Ball):
        axes = [np.linspace(c - cs.radius, c + cs.radius, 25) for c in cs.center]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        mesh = mesh[np.linalg.norm(mesh - cs.center, axis=1) <= cs.radius]
        h = (2.0 * cs.radius / 24) * np.sqrt(d)
        return mesh, 2.0 * h
    if isinstance(cs, HalfSpace):
        axes = [np.linspace(-6.0, 6.0, 41)] * d
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        mesh = mesh[mesh @ cs.normal <= cs.offset]
        h = (12.0 / 40) * np.sqrt(d)
        return mesh, 2.0 * h
    if isinstance(cs, AffineHyperplane):
        n = cs.normal / np.linalg.norm(cs.normal)
        base = (cs.offset / np.linalg.norm(cs.normal)) * n
        # orthonormal tangent basis from the full SVD of the normal row
        _, _, vt = np.linalg.svd(n.reshape(1, -1))
        tangent = vt[1:]
        axes = [np.linspace(-6.0, 6.0, 41)] * (d - 1)
        coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d - 1)
        mesh = base + coeffs @ tangent
        h = (12.0 / 40) * np.sqrt(d - 1)
        return mesh, 2.0 * h
    if isinstance(cs, Simplex):
        N = 50
        if d == 2:
            i = np.arange(N + 1)
            mesh = np.column_stack([i, N - i]) * (cs.scale / N)
        else:
            pts = [(i, j, N - i - j)
                   for i in range(N + 1) for j in range(N + 1 - i)]
            mesh = np.asarray(pts, dtype=float) * (cs.scale / N)
        h = cs.scale * np.sqrt(2.0) / N
        return mesh, 2.0 * h
    raise AssertionError(f"no grid oracle for {type(cs).__name__}")


def test_criterion_1_projection_properties_and_grid_distance():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)

    instances = []
    for d in (1, 2, 3, 5):
        lo = rng.uniform(-2.0, 0.0, size=d)
        instances.append(Box(lo, lo + rng.uniform(0.5, 2.5, size=d)))
        instances.append(Ball(rng.uniform(-1.0, 1.0, size=d),
                              float(rng.uniform(0.5, 2.0))))
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
        instances.append(HalfSpace(normal, float(rng.uniform(-1.0, 1.0))))
        instances.append(WholeSpace(d))
        if d >= 2:
            instances.append(AffineHyperplane(normal, float(rng.uniform(-1.0, 1.0))))
            instances.append(Simplex(d, scale=float(rng.uniform(0.5, 2.0))))

    pairs = 0
    worst_nonexp = worst_idem = worst_vari = 0.0
    for cs in instances:
        xs = rng.normal(size=(48, cs.dim)) * 2.0
        ys = rng.normal(size=(48, cs.dim)) * 2.0
        probes = cs.sample(rng, 24)
        for x, y in zip(xs, ys):
            px, py = cs.project(x), cs.project(y)
            worst_nonexp = max(worst_nonexp, float(
                np.linalg.norm(px - py) - np.linalg.norm(x - y)))
            worst_idem = max(worst_idem, float(
                np.linalg.norm(cs.project(px) - px)))
            worst_vari = max(worst_vari, variational_gap(cs, x, probes))
            pairs += 1
    assert pairs >= 1000
    assert worst_nonexp <= 1e-9
    assert worst_idem <= 1e-9
    assert worst_vari <= 1e-9

    checked = 0
    for cs in instances:
        if cs.dim > 3 or isinstance(cs, WholeSpace):
            continue
        if isinstance(cs, AffineHyperplane) and cs.dim < 2:
            continue
        mesh, tol = _grid_and_tol(cs, rng)
        assert len(mesh) > 0
        for x in rng.normal(size=(40, cs.dim)):
            dist = float(np.linalg.norm(x - cs.project(x)))
            oracle = float(np.min(np.linalg.norm(mesh - x, axis=1)))
            assert dist <= oracle + 1e-9, type(cs).__name__
            assert oracle - dist <= tol, type(cs).__name__
            checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\ncriterion 1: {pairs} property pairs, {checked} grid-oracle points, "
          f"worst gaps {worst_nonexp:.2e}/{worst_idem:.2e}/{worst_vari:.2e}, "
          f"{elapsed:.1f}s")


# -- criterion 2: integrator accuracy --------------------------------------

def test_criterion_2_integrator_exactness_and_order():
    # projected flow on free space with lambda = 1 collapses to x' = -2x
    x0 = np.array([1.0, -0.5])
    free = FlowProblem(WholeSpace(2), quadratic([0.0, 0.0]), Constant(K=1.0),
                       x0, system="projected")
    free_exact = np.exp(-2.0) * x0
    traj = integrate(free, horizon=1.0, step=1e-3, sample_every=1.0)
    err_fine = float(np.linalg.norm(traj.x[-1] - free_exact))
    assert err_fine <= 1e-6

    # pinned box face: the projection argument stays on lo, so x' = 1 - x
    pinned = FlowProblem(Box([1.0], [3.0]), quadratic([0.0]), Constant(K=1.0),
                         [2.0], system="projected")
    ptraj = integrate(pinned, horizon=1.0, step=1e-3, sample_every=1.0)
    box_exact = 1.0 + np.exp(-1.0)
    assert abs(float(ptraj.x[-1][0]) - box_exact) <= 1e-6

    def endpoint_error(problem, step, exact):
        tr = integrate(problem, horizon=1.0, step=step, sample_every=1.0)
        return float(np.linalg.norm(tr.x[-1] - exact))

    ratios = {}
    for label, problem, exact in (("free", free, free_exact),
                                  ("box", pinned, np.array([box_exact]))):
        errors = [endpoint_error(problem, s, exact)
                  for s in (0.05, 0.025, 0.0125)]
        ratios[label] = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(r >= 12.0 for r in ratios[label]), (label, errors)
    print(f"\ncriterion 2: fine error {err_fine:.2e}, halving ratios "
          f"free {ratios['free'][0]:.1f}x/{ratios['free'][1]:.1f}x, "
          f"box {ratios['box'][0]:.1f}x/{ratios['box'][1]:.1f}x")


# -- criterion 3: Lyapunov monotonicity and the gamma-clock gap ------------

def test_criterion_3_monotone_diagnostics_and_gamma_gap(preset_runs):
    total = 0.0
    for name in CGP_PRESETS:
        run = preset_runs[name]
        traj = run.result.trajectory
        series = diagnostics(traj, run.config.reference_z)
        lam_gap = series.psi - series.phi_z
        assert check_monotone(traj.f_gap, 1e-8).passed, name
        assert check_monotone(lam_gap, 1e-8).passed, name
        assert check_monotone(series.psi, 1e-8).passed, name
        rep = check_gamma_gap_limit(series.gamma_gap, traj.gamma[-1])
        assert rep.status == "pass", (name, rep.reason)
        total += run.seconds
    assert total < 60.0
    print(f"\ncriterion 3: four presets monotone within 1e-8, gamma-gap tails "
          f"under 1%, {total:.1f}s integration")


# -- criterion 4: power-law rates ------------------------------------------

def test_criterion_4_power_rates_and_alpha_sweep(preset_runs):
    run = preset_runs["rate_theta25_alpha50"]
    fits = {f.quantity: f for f in run.result.fits}
    fg, te = fits["f_gap"], fits["traj_err"]
    assert fg.verdict == "pass" and fg.r_squared >= 0.99
    assert fg.fitted <= -0.85
    assert te.verdict == "pass" and te.r_squared >= 0.99
    assert te.fitted <= -0.2125
    elapsed = run.seconds

    pairs = load_pairs("rate_theta25_alpha50")
    alphas = (0.25, 0.5, 0.75)
    cfgs = [build_config({**pairs, "schedule.alpha": repr(alpha)}, name=f"alpha={alpha:g}")
            for alpha in alphas]
    cfg = cfgs[0]
    begin = time.perf_counter()
    trajs = [integrate(c.problem, horizon=c.horizon, step=c.step, sample_every=c.sample_every)
             for c in cfgs]
    reps = [fit_power(traj, "f_gap", cfg.window_fraction) for traj in trajs]
    elapsed += time.perf_counter() - begin
    slopes = {}
    for alpha, rep in zip(alphas, reps):
        theoretical = -(1.0 - alpha) / (1.0 - 2.0 * 0.25)
        assert rep.theoretical == pytest.approx(theoretical)
        assert rep.verdict == "pass", (alpha, rep.reason)
        assert rep.fitted <= theoretical * (1.0 - 0.15)
        assert rep.r_squared >= 0.99
        slopes[alpha] = rep.fitted
    # smaller alpha keeps lambda larger for longer, so decay is steeper
    assert slopes[0.25] < slopes[0.5] < slopes[0.75] < 0.0
    assert elapsed < 120.0
    print(f"\ncriterion 4: slopes {fg.fitted:.3f} (gap), {te.fitted:.3f} (traj), "
          f"sweep {slopes[0.25]:.3f}/{slopes[0.5]:.3f}/{slopes[0.75]:.3f}, "
          f"{elapsed:.1f}s")


# -- criterion 5: exponential rates ----------------------------------------

def test_criterion_5_exponential_rates(preset_runs):
    run = preset_runs["rate_theta50_alpha50"]
    assert len(run.result.fits) == 2
    for rep in run.result.fits:
        assert rep.model == "exp-in-Gamma"
        assert rep.verdict == "pass", (rep.quantity, rep.reason)
        assert rep.fitted > 0.0
        assert rep.r_squared >= 0.99
    mus = {rep.quantity: rep.fitted for rep in run.result.fits}
    print(f"\ncriterion 5: mu(f_gap)={mus['f_gap']:.3f}, "
          f"mu(traj_err)={mus['traj_err']:.3f}")


# -- criterion 6: strong convergence witnesses ------------------------------

def test_criterion_6_strong_convergence(preset_runs):
    even = {c.name: c for c in preset_runs["even_box"].result.claims}
    sym = even["strong_convergence_symmetric_even"]
    assert sym.status == "pass"
    assert sym.value is not None and sym.value <= 1e-4

    flat = {c.name: c for c in preset_runs["interior_flatbottom"].result.claims}
    interior = flat["strong_convergence_interior_argmin"]
    assert interior.status == "pass"
    assert interior.value is not None and interior.value <= 1e-4
    print(f"\ncriterion 6: Cauchy gaps {sym.value:.2e} (even box), "
          f"{interior.value:.2e} (flat bottom)")


# -- criterion 7: rescaling, envelope, stationarity --------------------------

def test_criterion_7_rescaling_envelope_stationarity(preset_runs):
    run = preset_runs["reparam_quadratic"]
    assert run.result.reparam_gap is not None
    assert run.result.reparam_gap <= 1e-5
    claims = {c.name: c for c in run.result.claims}
    assert claims["time_rescaling_equivalence"].status == "pass"

    # desingularized gap rides under its exponential envelope
    obj = quadratic([0.0, 0.0])
    prob = FlowProblem(WholeSpace(2), obj, Constant(K=1.0), [1.2, -0.9], system="scaled")
    traj = integrate(prob, horizon=3.0, step=1e-3, sample_every=0.05)
    desing = Desingularizer(obj.holder.kappa, obj.holder.theta)
    series = diagnostics(traj, [0.0, 0.0], desing=desing)
    envelope = series.lojasiewicz_h[0] * np.exp(-2.0 * traj.t / obj.holder.kappa)
    assert np.all(series.lojasiewicz_h <= envelope + 1e-6)

    # argmin start plus a flat exponent request: the state must not move at all
    stationary = build_config({
        "problem.set": "ball",
        "set.center": "0,0",
        "set.radius": "1",
        "problem.objective": "quadratic",
        "objective.center": "0.5,0",
        "problem.schedule": "power",
        "problem.x0": "0.5,0",
        "numerics.horizon": "5",
        "numerics.step": "0.01",
        "analysis.theta": "0.8",
    })
    res = execute(stationary)
    claim = {c.name: c for c in res.claims}["stationary_above_half_theta"]
    assert claim.status == "pass", claim.detail
    assert claim.value == 0.0
    print(f"\ncriterion 7: reparam gap {run.result.reparam_gap:.2e}, envelope "
          f"holds on {len(traj.t)} samples, stationary displacement is exactly 0")


# -- criterion 8: schedule conditions and fit recovery ----------------------

def test_criterion_8_schedule_validators_and_fit_recovery():
    good = validate(Power(K=1.0, alpha=0.5), theta=0.25)
    assert good.monotone
    assert good.gamma_unbounded.status == "pass"
    assert good.variation_finite.status == "pass"
    assert good.power_tail_integrable.status == "pass"

    bad = validate(PowerGE1(K=1.0, alpha=2.0), theta=0.5)
    assert bad.gamma_unbounded.status == "fail"
    limit = bad.gamma_unbounded.evidence["gamma_limit"]
    assert limit == pytest.approx(1.0, abs=1e-9)  # K / (alpha - 1)

    t = np.linspace(1.0, 80.0, 400)
    power_prob = FlowProblem(WholeSpace(2), quadratic([0.0, 0.0]),
                             Power(K=1.0, alpha=0.5), [1.0, 0.0])
    power_fit = fit_power(fabricate(t, 3.0 * t ** -1.2, power_prob),
                          "f_gap", 0.8)
    assert power_fit.fitted == pytest.approx(-1.2, abs=1e-6)
    assert power_fit.r_squared >= 1.0 - 1e-10

    exp_prob = FlowProblem(WholeSpace(2), quadratic([0.0, 0.0]),
                           Constant(K=1.0), [1.0, 0.0])
    exp_fit = fit_exponential(fabricate(t, 5.0 * np.exp(-2.5 * t), exp_prob),
                              "f_gap")
    assert exp_fit.fitted == pytest.approx(2.5, abs=1e-6)
    assert exp_fit.r_squared >= 1.0 - 1e-10
    print(f"\ncriterion 8: clock limit {limit:.9f}, recovered slope "
          f"{power_fit.fitted:.7f}, recovered mu {exp_fit.fitted:.7f}")
