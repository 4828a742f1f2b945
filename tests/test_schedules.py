"""Schedule families against a quadrature oracle, validator verdicts, and
the tanh-sinh rule behind the validator's evidence. scipy is the test
oracle only; pgflow itself runs on numpy alone."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from pgflow import schedules
from pgflow.errors import InvalidInputError
from pgflow.schedules import Constant, Power, PowerGE1, Schedule, validate

FAMILIES = [
    Constant(K=2.0),
    Power(K=1.0, alpha=0.3),
    Power(K=1.0, alpha=0.5),
    Power(K=2.5, alpha=0.9),
    PowerGE1(K=1.0, alpha=1.0),
    PowerGE1(K=1.0, alpha=2.0),
    PowerGE1(K=3.0, alpha=1.5),
]


class TestFrozenValues:
    def test_constant_value(self):
        assert Constant(K=2.0).value(7.0) == 2.0

    def test_power_values(self):
        s = Power(K=1.0, alpha=0.5)
        assert s.value(0.0) == 1.0
        assert s.value(3.0) == pytest.approx(0.5)

    def test_gamma_closed_forms(self):
        assert Constant(K=2.0).gamma(5.0) == 10.0
        # antiderivative of (1+t)^(-1/2) from 0 to 10
        assert Power(K=1.0, alpha=0.5).gamma(10.0) == pytest.approx(2.0 * (math.sqrt(11.0) - 1.0))
        for s in FAMILIES:
            assert s.gamma(0.0) == 0.0

    @pytest.mark.parametrize("s, exact", [
        # 2 (sqrt(1 + t) - 1) and 1 - 1/(1 + t) at t = 1e-12, to first order in t^2
        (Power(K=1.0, alpha=0.5), 1e-12 - 0.25e-24),
        (PowerGE1(K=1.0, alpha=2.0), 1e-12 - 1e-24),
    ], ids=["alpha-0.5", "alpha-2"])
    def test_gamma_accurate_at_small_t(self, s, exact):
        # (1 + t)^(1 - alpha) - 1 cancelled here: Power gave 1.0000889e-12
        assert s.gamma(1e-12) == pytest.approx(exact, rel=4e-16, abs=0.0)
        assert s.gamma(np.array([1e-12]))[0] == pytest.approx(exact, rel=4e-16, abs=0.0)

    def test_gamma_log_form(self):
        assert PowerGE1(K=1.0, alpha=1.0).gamma(math.e - 1.0) == pytest.approx(1.0)

    def test_gamma_limits(self):
        assert Power(K=1.0, alpha=0.5).gamma_limit() == math.inf
        assert Constant(K=1.0).gamma_limit() == math.inf
        assert PowerGE1(K=1.0, alpha=1.0).gamma_limit() == math.inf
        assert PowerGE1(K=1.0, alpha=2.0).gamma_limit() == pytest.approx(1.0)
        assert PowerGE1(K=3.0, alpha=2.5).gamma_limit() == pytest.approx(2.0)


def slope(s, t):
    """lambda'(t) = -alpha K (1+t)^(-alpha-1), the schedules' closed-form slope."""
    return -s.alpha * s.K * (1.0 + t) ** (-s.alpha - 1.0)


def family_id(s):
    """The family's name, which a schedule's repr starts with, and alpha."""
    return f"{repr(s).partition('(')[0]}-a{s.alpha:g}"


@pytest.mark.parametrize("s", FAMILIES, ids=family_id)
class TestAgainstQuadrature:
    def test_gamma_matches_quadrature(self, s):
        for t in (0.5, 1.0, 7.0, 33.0, 100.0):
            num, _ = quad(s.value, 0.0, t, limit=200)
            assert s.gamma(t) == pytest.approx(num, abs=1e-9)

    def test_derivative_matches_finite_differences(self, s):
        h = 1e-6
        for t in (0.0, 0.7, 4.0, 50.0):
            fd = (s.value(t + h) - s.value(max(t - h, 0.0))) / (h if t < h else 2 * h)
            assert slope(s, t) == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_gamma_concave_when_monotone(self, s):
        assert s.monotone
        ts = np.linspace(0.0, 60.0, 400)
        g = np.array([s.gamma(t) for t in ts])
        assert np.all(np.diff(g, 2) <= 1e-9)

    def test_gamma_doubling_bound(self, s):
        # non-increasing lambda puts at least half of gamma(t) before t/2
        for t in (0.4, 2.0, 10.0, 80.0):
            assert s.gamma(t) <= 2.0 * s.gamma(t / 2.0) + 1e-12

    def test_gamma_strictly_increasing(self, s):
        ts = np.linspace(0.0, 20.0, 100)
        g = np.array([s.gamma(t) for t in ts])
        assert np.all(np.diff(g) > 0)

    def test_negative_time_rejected(self, s):
        for method in (s.value, s.gamma):
            with pytest.raises(InvalidInputError):
                method(-0.1)


# a grid like a run's samples, then times from 1e-9 to 1e6
TIMES = np.concatenate([np.linspace(0.0, 100.0, 2001), np.geomspace(1e-9, 1e6, 301)])


@pytest.mark.parametrize("s", FAMILIES, ids=family_id)
class TestArrayClock:
    """value and gamma on an array of times: one numpy expression each,
    equal to the float calls up to the rounding of numpy's pow."""

    def test_value_rows_within_4_ulp(self, s):
        got = s.value(TIMES)
        assert isinstance(got, np.ndarray) and got.shape == TIMES.shape
        np.testing.assert_array_max_ulp(got, [s.value(t) for t in TIMES], maxulp=4)

    def test_gamma_rows_within_4_ulp(self, s):
        got = s.gamma(TIMES)
        want = np.array([s.gamma(t) for t in TIMES])
        assert isinstance(got, np.ndarray) and got.shape == TIMES.shape
        a = s.alpha
        if a in (0.0, 1.0):
            np.testing.assert_array_max_ulp(got, want, maxulp=4)
        else:
            # (1+t)^(1-alpha) - 1 cancels near t = 0, so the ulp is that of
            # the larger operand of that difference, scaled as the result
            scale = s.K * np.maximum(1.0, (1.0 + TIMES) ** (1.0 - a)) / abs(1.0 - a)
            assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_bad_time_in_an_array_rejected(self, s, bad):
        for method in (s.value, s.gamma):
            with pytest.raises(InvalidInputError, match="time must be finite and >= 0"):
                method(np.array([0.0, 1.0, bad]))
            with pytest.raises(InvalidInputError):
                method([bad, 2.0])


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestFamilyConstructors:
    """Every family builds the one Schedule, whose K and alpha are finite."""

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_non_finite_K_rejected(self, bad):
        for make in (Constant, lambda K: Power(K=K, alpha=0.5),
                     lambda K: PowerGE1(K=K, alpha=1.5), Schedule):
            with pytest.raises(InvalidInputError, match="K must be positive and finite"):
                make(bad)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, bad):
        for make in (Power, PowerGE1, Schedule):
            with pytest.raises(InvalidInputError):
                make(K=1.0, alpha=bad)

    def test_family_ranges_keep_their_messages(self):
        with pytest.raises(InvalidInputError, match="Power needs alpha in"):
            Power(K=1.0, alpha=-0.5)
        with pytest.raises(InvalidInputError, match="PowerGE1 needs alpha >= 1"):
            PowerGE1(K=1.0, alpha=0.0)
        with pytest.raises(InvalidInputError, match="K must be positive"):
            Power(K=-1.0, alpha=2.0)
        with pytest.raises(InvalidInputError, match="alpha must be finite and >= 0"):
            Schedule(K=1.0, alpha=-0.5)

    def test_families_build_one_class(self):
        for s in FAMILIES:
            assert type(s) is Schedule
            assert eval(repr(s)) == s  # the repr names the constructor that builds it


class TestValidator:
    def test_power_all_pass(self):
        rep = validate(Power(K=1.0, alpha=0.5), theta=0.25)
        assert rep.gamma_unbounded.passed
        assert rep.variation_finite.passed
        assert rep.power_tail_integrable.passed
        assert rep.exp_tail_integrable.status == "not-applicable"
        assert rep.monotone

    def test_saturating_clock_fails_with_evidence(self):
        rep = validate(PowerGE1(K=1.0, alpha=2.0))
        assert rep.gamma_unbounded.status == "fail"
        assert rep.gamma_unbounded.evidence["gamma_limit"] == pytest.approx(1.0, abs=1e-9)

    def test_saturating_clock_evidence_scales_with_K(self):
        rep = validate(PowerGE1(K=6.0, alpha=4.0))
        assert rep.gamma_unbounded.evidence["gamma_limit"] == pytest.approx(2.0, abs=1e-9)

    def test_constant_exponential_tail(self):
        rep = validate(Constant(K=1.0), theta=0.5)
        assert rep.gamma_unbounded.passed
        assert rep.variation_finite.passed
        assert rep.exp_tail_integrable.passed
        assert rep.power_tail_integrable.status == "not-applicable"
        # evidence carries one quadrature value per probed c
        assert len(rep.exp_tail_integrable.evidence) == 3

    def test_log_clock_power_tail_threshold(self):
        # Gamma ~ log t: tail integrable iff theta/(1-2 theta) > 1, i.e. theta > 1/3
        assert validate(PowerGE1(K=1.0, alpha=1.0), theta=0.4).power_tail_integrable.passed
        assert not validate(PowerGE1(K=1.0, alpha=1.0), theta=0.3).power_tail_integrable.passed

    def test_bounded_clock_fails_both_tails(self):
        assert validate(PowerGE1(K=1.0, alpha=2.0), theta=0.25).power_tail_integrable.status == "fail"
        assert validate(PowerGE1(K=1.0, alpha=2.0), theta=0.5).exp_tail_integrable.status == "fail"

    def test_variation_evidence_matches_quadrature(self):
        rep = validate(Power(K=2.0, alpha=0.5), horizon=1000.0)
        ev = rep.variation_finite.evidence
        assert ev["total_variation"] == pytest.approx(2.0)
        # partial integral approaches the total variation from below
        assert ev["abs_derivative_integral_to_horizon"] < ev["total_variation"]
        assert ev["abs_derivative_integral_to_horizon"] == pytest.approx(2.0, abs=0.1)

    def test_theta_out_of_range(self):
        with pytest.raises(InvalidInputError):
            validate(Power(K=1.0, alpha=0.5), theta=0.75)
        with pytest.raises(InvalidInputError):
            validate(Power(K=1.0, alpha=0.5), theta=0.0)

    def test_family_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            Power(K=1.0, alpha=1.0)
        with pytest.raises(InvalidInputError):
            PowerGE1(K=1.0, alpha=0.5)
        with pytest.raises(InvalidInputError):
            Constant(K=0.0)
        with pytest.raises(InvalidInputError):
            Constant(K=-2.0)


def exp_tail_by_clock(s, c, horizon=100.0):
    """The exponential tail of a Power schedule in the clock u = Gamma(t).

    There dt = du / lambda and (1+t) lambda = K + (1-alpha) u, so the
    integrand e^(-c u) / (K + (1-alpha) u) is smooth; its decay scale is
    1/c, so splitting at 50/c resolves what the t variable squeezes into
    a layer of width about 1/(c K) at t = 0.
    """
    def g(u):
        return math.exp(-c * u) / (s.K + (1.0 - s.alpha) * u)

    end = s.gamma(horizon)
    split = min(50.0 / c, end)
    head, _ = quad(g, 0.0, split, epsabs=0.0, epsrel=1e-13, limit=200)
    tail, _ = quad(g, split, end, epsabs=0.0, epsrel=1e-13, limit=200)
    return head + tail


class TestTanhSinhRule:
    def test_fixed_rule_of_513_nodes_in_the_interval(self):
        assert schedules._TS_WEIGHT.size == 513
        nodes = []
        schedules.quad(lambda s: nodes.append(s.copy()) or np.zeros_like(s), 0.0, 1e-3)
        (s,) = nodes
        # nodes next to a = 0 stay off it, so an integrand infinite at 0 is never evaluated there
        assert s.size == 513 and np.all(np.diff(s) >= 0.0)
        assert s[0] > 0.0 and s[-1] <= 1e-3
        # offsets down to about 1e-37 (b - a) vanish next to a nonzero endpoint,
        # so an integrand over [1, 100] must be finite at both ends
        schedules.quad(lambda s: nodes.append(s.copy()) or np.zeros_like(s), 1.0, 100.0)
        s = nodes[1]
        assert s.size == 513 and np.all(np.diff(s) >= 0.0)
        assert s[0] == 1.0 and s[-1] == 100.0

    @pytest.mark.parametrize("theta", [0.2, 0.25, 0.4, 0.45])
    @pytest.mark.parametrize("K", [0.5, 1.0, 20.0])
    @pytest.mark.parametrize("horizon", [2.0, 100.0, 1e4])
    def test_log_clock_power_tail_is_exact(self, theta, K, horizon):
        # Gamma = K log(1+t): with u = log(1+t) the tail is K^-q int u^-q du
        q = theta / (1.0 - 2.0 * theta)
        lo, hi = math.log(2.0), math.log1p(horizon)
        exact = K**-q * (hi ** (1.0 - q) - lo ** (1.0 - q)) / (1.0 - q)
        ev = validate(PowerGE1(K=K, alpha=1.0), theta=theta, horizon=horizon)
        assert ev.power_tail_integrable.evidence["tail_quadrature_from_1"] == pytest.approx(
            exact, rel=1e-10)

    @pytest.mark.parametrize("s", [Power(K=1.0, alpha=0.3), PowerGE1(K=1.0, alpha=2.0),
                                   Constant(K=1.0)], ids=repr)
    def test_power_tail_scales_as_K_to_the_minus_q(self, s):
        theta = 0.25
        q = theta / (1.0 - 2.0 * theta)
        base = validate(s, theta=theta).power_tail_integrable.evidence["tail_quadrature_from_1"]
        for K in (0.01, 7.0, 300.0):
            scaled = dataclasses.replace(s, K=K)
            tail = validate(scaled, theta=theta).power_tail_integrable.evidence
            assert tail["tail_quadrature_from_1"] == pytest.approx(K**-q * base, rel=1e-10)

    # c K <= 10 for every probed c: no layer at t = 0 that scipy's quad can miss
    @pytest.mark.parametrize("s", [s for s in FAMILIES if s.K <= 1.0]
                             + [Power(K=0.1, alpha=0.5), Constant(K=0.5)], ids=repr)
    def test_matches_scipy_where_it_is_accurate(self, s):
        for theta, horizon in ((0.25, 100.0), (0.4, 30.0)):
            q = theta / (1.0 - 2.0 * theta)
            ref, _ = quad(lambda t: s.gamma(t) ** -q / (1.0 + t), 1.0, horizon,
                          epsabs=0.0, epsrel=1e-13, limit=200)
            ev = validate(s, theta=theta, horizon=horizon).power_tail_integrable.evidence
            assert ev["tail_quadrature_from_1"] == pytest.approx(ref, rel=1e-10)
        ev = validate(s, theta=0.5).exp_tail_integrable.evidence
        for c in schedules.EXP_TAIL_CS:
            ref, _ = quad(lambda t: math.exp(-c * s.gamma(t)) / (1.0 + t), 0.0, 100.0,
                          epsabs=0.0, epsrel=1e-13, limit=200)
            assert ev[f"quadrature_c_{c:g}"] == pytest.approx(ref, rel=1e-10), c

    @pytest.mark.parametrize("K, true_value", [(20.0, 4.98756e-3), (100.0, 9.99500e-4)])
    def test_resolves_the_layer_at_t_0(self, K, true_value):
        s = Power(K=K, alpha=0.5)
        got = validate(s, theta=0.5).exp_tail_integrable.evidence["quadrature_c_10"]
        ref = exp_tail_by_clock(s, 10.0)
        assert ref == pytest.approx(true_value, rel=1e-5)
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("s", FAMILIES, ids=repr)
    def test_variation_to_horizon_is_the_closed_form(self, s):
        for horizon in (1.0, 100.0, 1000.0):
            ev = validate(s, horizon=horizon).variation_finite.evidence
            assert ev["abs_derivative_integral_to_horizon"] == s.value(0.0) - s.value(horizon)
            ref, _ = quad(lambda t: abs(slope(s, t)), 0.0, horizon,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
            assert ev["abs_derivative_integral_to_horizon"] == pytest.approx(ref, rel=1e-10,
                                                                             abs=1e-14)
