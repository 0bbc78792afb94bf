"""Closed forms for the uniform, geometric, and power-law families.

Zeta reference values were frozen from mpmath at 30 significant digits;
family values come from the truncated direct-sum oracles in ``oracles.py``
with analytic tail bounds.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from igf import (
    DomainError,
    InvalidParameter,
    ValidationError,
    beta_power_entropy,
    beta_power_igf,
    closed_form_value,
    constant_utility_scheme,
    direct_sum_value,
    geometric_entropy,
    geometric_igf,
    make_complete,
    realize_family,
    shannon_entropy,
    uniform_entropy,
    uniform_igf,
    weighted_entropy,
    weighted_igf,
    zeta,
    zeta_derivative,
)
from igf import closed_forms
from igf.distributions import ParametricFamily

LN2 = 0.6931471805599453
PI = math.pi

# mpmath.zeta at 30 digits, rounded to float64
ZETA_1_5 = 2.6123753486854883
ZETA_3 = 1.2020569031595943
ZETA_PRIME_1_5 = -3.9322397374311015
ZETA_PRIME_2 = -0.9375482543158438
ZETA_PRIME_4 = -0.06891126589612538
BETA_POWER_ENTROPY_2_1 = 1.6376222886598110

# a fixed grid from beta near 1 to where zeta is 1 in float64, plus
# log-spaced draws of beta - 1 over [1e-3, 30]
_rng = random.Random(2015)
MPMATH_BETAS = [1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 6.0, 20.0, 60.0] + [
    1.0 + 10.0 ** _rng.uniform(-3.0, 1.5) for _ in range(40)
]


class TestZeta:
    def test_analytically_forced_values(self):
        assert zeta(2.0) * 6.0 / PI**2 == pytest.approx(1.0, abs=1e-12)
        assert zeta(4.0) * 90.0 / PI**4 == pytest.approx(1.0, abs=1e-12)
        assert zeta(6.0) * 945.0 / PI**6 == pytest.approx(1.0, abs=1e-12)

    def test_frozen_reference_values(self):
        assert zeta(1.5) == pytest.approx(ZETA_1_5, abs=1e-13)
        assert zeta(3.0) == pytest.approx(ZETA_3, abs=1e-13)

    def test_large_argument_approaches_one(self):
        assert zeta(40.0) == pytest.approx(1.0 + 2.0**-40, rel=1e-13)

    def test_stays_inside_rigorous_bracket(self):
        rng_betas = [1.2, 1.37, 1.9, 2.6, 3.3, 5.8, 9.4, 17.0]
        for beta in rng_betas:
            lo, hi = oracles.zeta_bracket(beta)
            assert lo - 1e-9 <= zeta(beta) <= hi + 1e-9

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, float("nan"), float("inf")])
    def test_divergent_arguments_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            zeta(bad)

    @pytest.mark.parametrize("beta", [60.0, 1e3, 1e20])
    def test_huge_arguments_stay_finite(self, beta):
        # 1 + 2**-60 already rounds to 1; the corrections must not turn the
        # underflowed powers into inf * 0 = nan
        assert zeta(beta) == 1.0


class TestZetaDerivative:
    def test_frozen_reference_values(self):
        assert zeta_derivative(2.0) == pytest.approx(ZETA_PRIME_2, abs=1e-10)
        assert zeta_derivative(4.0) == pytest.approx(ZETA_PRIME_4, abs=1e-10)
        assert zeta_derivative(1.5) == pytest.approx(ZETA_PRIME_1_5, abs=1e-10)

    @pytest.mark.parametrize("beta", [1.05, 1.5, 2.0, 7.0, 25.0])
    def test_always_negative(self, beta):
        assert zeta_derivative(beta) < 0.0

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 4.0])
    def test_matches_finite_difference_of_zeta(self, beta):
        fd = oracles.central_diff(zeta, beta, 1, 1e-5)
        assert zeta_derivative(beta) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("bad", [1.0, -1.0, float("nan"), float("inf")])
    def test_divergent_arguments_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            zeta_derivative(bad)

    @pytest.mark.parametrize("beta", [60.0, 1e3, 1e20])
    def test_huge_arguments_stay_finite(self, beta):
        # the leading terms -ln(n) * n**-beta are the whole value here
        expected = -math.fsum(math.log(n) * float(n) ** -beta for n in range(2, 12))
        value = zeta_derivative(beta)
        assert math.isfinite(value) and value <= 0.0
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [1e153, 1.35e154, 1e300])
    def test_past_the_overflow_of_the_tail_square(self, beta):
        # (beta - 1) ** 2 in the integral tail overflows from about 1.34e154,
        # long after the tail power 16 ** (1 - beta) has underflowed to 0
        assert zeta_derivative(beta) == 0.0
        assert beta_power_entropy(beta, 1.0) == 0.0


class TestZetaSeriesBits:
    """zeta, zeta - 1 and zeta' are fsums over the parts of one series, each
    yielded with its beta-derivative; their bits are pinned as ``float.hex``
    from the evaluators that wrote the series out once for zeta and again,
    by hand, for zeta'."""

    @pytest.mark.parametrize("beta, z, zm1, dz", [
        (1.001, "0x1.f449e496ba69fp+9", "0x1.f3c9e496ba69fp+9", "-0x1.e847fdab92e3ep+19"),
        (1.01, "0x1.924fd060e7239p+6", "0x1.8e4fd060e7239p+6", "-0x1.387f6b1262922p+13"),
        (1.5, "0x1.4e6250bfbd89ep+1", "0x1.9cc4a17f7b13bp+0", "-0x1.f753a1b8262bbp+1"),
        (2.0, "0x1.a51a6625307d3p+0", "0x1.4a34cc4a60fa6p-1", "-0x1.e00653256ab8ap-1"),
        (2.185, "0x1.800c3015bbaa2p+0", "0x1.0018602b77544p-1", "-0x1.4da78dfb47997p-1"),
        (3.0, "0x1.33ba004f00621p+0", "0x1.9dd002780310ap-3", "-0x1.95c3362d62a34p-3"),
        (20.0, "0x1.000010013c594p+0", "0x1.0013c594466eap-20", "-0x1.630faac3801a9p-21"),
        (60.0, "0x1.0000000000000p+0", "0x1.000000001de75p-60", "-0x1.62e42fefe5537p-61"),
        (400.0, "0x1.0000000000000p+0", "0x1.0000000000000p-400", "-0x1.62e42fefa39efp-401"),
        (1075.0, "0x1.0000000000000p+0", "0x0.0p+0", "-0x0.0p+0"),
        (1e20, "0x1.0000000000000p+0", "0x0.0p+0", "-0x0.0p+0"),
        (1e300, "0x1.0000000000000p+0", "0x0.0p+0", "-0x0.0p+0"),
    ])
    def test_float_hex_is_pinned(self, beta, z, zm1, dz):
        assert zeta(beta).hex() == z
        assert closed_forms._zeta_minus_one(beta).hex() == zm1
        assert zeta_derivative(beta).hex() == dz

    def test_the_three_stay_cached(self):
        for evaluator in (zeta, closed_forms._zeta_minus_one, zeta_derivative):
            assert callable(evaluator.cache_clear) and callable(evaluator.cache_info)


class TestZetaAgainstMpmath:
    """The README budgets: zeta within 1e-12 absolute for beta >= 1.001,
    zeta' within 1e-10 absolute for beta >= 1.01."""

    @pytest.mark.parametrize("beta", MPMATH_BETAS)
    def test_zeta_budget(self, beta):
        pytest.importorskip("mpmath")
        assert abs(zeta(beta) - oracles.zeta_mp(beta)) <= 1e-12

    @pytest.mark.parametrize("beta", [b for b in MPMATH_BETAS if b >= 1.01])
    def test_derivative_budget(self, beta):
        pytest.importorskip("mpmath")
        assert abs(zeta_derivative(beta) - oracles.zeta_derivative_mp(beta)) <= 1e-10


class TestUniform:
    def test_point_values(self):
        assert uniform_igf(4, 2.0, 2.0) == 0.0625
        assert uniform_igf(1, 3.0, 7.0) == 1.0
        assert uniform_igf(4, 2.0, 1.0) == 1.0
        assert uniform_igf(4, 2, 2) == 0.0625  # integer u and t are real numbers too

    def test_entropy_values(self):
        assert uniform_entropy(4, 2.0) == pytest.approx(4.0 * LN2, abs=1e-15)
        assert uniform_entropy(1, 7.0) == 0.0
        fair_coin = shannon_entropy(make_complete([0.5, 0.5]))
        assert uniform_entropy(2, 1.0) == pytest.approx(fair_coin, abs=1e-15)

    def test_overflow_is_a_domain_error(self):
        # 10 ** 400 is past the float range; the power raised OverflowError
        with pytest.raises(DomainError, match=r"^uniform IGF overflows"):
            uniform_igf(10, 100.0, -3.0)
        with pytest.raises(DomainError, match=r"^uniform IGF overflows"):
            uniform_igf(10**400, 1.0, 0.0)

    def test_minus_infinite_t_is_a_domain_error(self):
        # the exponent u * (1 - t) is +inf, and n ** inf gave inf without raising
        for n in (10, 10**400):
            with pytest.raises(DomainError, match=r"^uniform IGF overflows: .* = inf "):
                uniform_igf(n, 1.0, -math.inf)
        assert uniform_igf(1, 1.0, -math.inf) == 1.0

    def test_n_past_the_float_range_is_taken_in_logs(self):
        # float(10 ** 400) raised OverflowError
        n = 10**400
        assert uniform_igf(n, 1.0, 1.0) == 1.0
        assert uniform_igf(n, 0.5, 1.5) == pytest.approx(1e-200, rel=1e-13)
        assert uniform_igf(n, 1.0, 2.0) == 0.0  # 1e-400 underflows like any power
        assert uniform_igf(n, 1.0, math.inf) == 0.0

    @pytest.mark.parametrize("bad_n", [0, -3, 1.5, True])
    def test_rejects_bad_sizes(self, bad_n):
        with pytest.raises(InvalidParameter):
            uniform_igf(bad_n, 1.0, 2.0)
        with pytest.raises(InvalidParameter):
            uniform_entropy(bad_n, 1.0)

    @pytest.mark.parametrize("bad_u", [0.0, -1.0, float("nan"), float("inf"), True, "1"])
    def test_rejects_bad_utilities(self, bad_u):
        with pytest.raises(InvalidParameter):
            uniform_igf(4, bad_u, 2.0)


class TestGeometric:
    def test_point_values(self):
        assert geometric_igf(0.5, 1.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert geometric_igf(0.5, 2.0, 1.0) == 1.0
        assert geometric_igf(0.9, 1.0, 2.0) == pytest.approx(1.0 / 19.0, rel=1e-14)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
    def test_matches_truncated_direct_sum(self, p, u, t):
        direct = oracles.geometric_igf_direct(p, u, t)
        assert geometric_igf(p, u, t) == pytest.approx(direct, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize(
        "p, u, t",
        [(1.0 - 1e-9, 1.0, 2.0), (1.0 - 1e-6, 1.0, 1.5), (1.0 - 1e-12, 0.5, 7.0),
         (1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-20), (0.999, 2.0, 3.0), (0.5, 1.0, 2.0),
         (1e-8, 1.0, 1e9), (1e-10, 1.0, 1e12)],
    )
    def test_no_cancellation_near_one_against_mpmath(self, p, u, t):
        # 1 - p**s cancels as p nears 1: it cost 5e-10 relative at p = 1 - 1e-9;
        # at small p, (1 - p)**s multiplied the rounding of 1 - p by s, 5e-8
        # relative at p = 1e-8, t = 1e9 and 8.3e-6 at p = 1e-10, t = 1e12
        pytest.importorskip("mpmath")
        ref = oracles.geometric_igf_mp(p, u, t)
        assert oracles.relative_error(geometric_igf(p, u, t), ref) <= 4e-16

    def test_divergent_exponent_raises(self):
        # u=2, t=0.4 gives s = 1 - 2*0.6 = -0.2; u=2, t=0.5 gives s = 0
        with pytest.raises(DomainError):
            geometric_igf(0.5, 2.0, 0.4)
        with pytest.raises(DomainError):
            geometric_igf(0.5, 2.0, 0.5)

    @pytest.mark.parametrize("bad_p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_ratio(self, bad_p):
        with pytest.raises(InvalidParameter):
            geometric_igf(bad_p, 1.0, 2.0)
        with pytest.raises(InvalidParameter):
            geometric_entropy(bad_p, 1.0)

    def test_entropy_values(self):
        assert geometric_entropy(0.5, 1.0) == pytest.approx(2.0 * LN2, abs=1e-15)
        assert geometric_entropy(0.5, 2.0) == pytest.approx(4.0 * LN2, abs=1e-15)
        for p in (0.1, 0.5, 0.9):
            for u in (0.5, 1.0, 3.0):
                assert geometric_entropy(p, u) > 0.0

    @pytest.mark.parametrize("p", [1e-14, 1e-10, 1e-6, 0.1, 0.25, 0.5, 0.75, 0.9])
    def test_entropy_budget_against_mpmath(self, p):
        # a few roundings of -u * (p ln p + q ln q) / q: 8 ulps of the value;
        # ln q as log(1 - p) was off by 2.4e-5 relative at p = 1e-14
        pytest.importorskip("mpmath")
        ref = oracles.geometric_entropy_mp(p, 2.0)
        assert oracles.relative_error(geometric_entropy(p, 2.0), ref) <= 8 * 2.0**-52

    def test_entropy_consistent_with_realized_family(self):
        realized = realize_family(ParametricFamily.geometric(0.5), truncation=60)
        scheme = constant_utility_scheme(realized, 1.0)
        assert abs(geometric_entropy(0.5, 1.0) - weighted_entropy(scheme)) <= 1e-12


class TestGeometricOracle:
    """The oracle's tail and cutoff where 1 - p**s rounds to 0: p = 1 - 2**-53
    and s = 0.5, so p**s rounds to 1."""

    P = 0.9999999999999999

    def test_tail_where_one_minus_p_to_the_s_rounds_to_zero(self):
        # the whole sum q**s / (1 - p**s) is 2**-26.5 / (0.5 * 2**-53) = 2**27.5
        assert self.P == 1.0 - 2.0**-53 and self.P**0.5 == 1.0
        whole = oracles.geometric_truncation_tail(self.P, 0.5, 0.0, 0)
        assert whole == pytest.approx(2.0**27.5, rel=1e-15)
        tail = oracles.geometric_truncation_tail(self.P, 0.5, 0.0, 2**20)
        assert tail / whole == pytest.approx(math.exp(-(2.0**-34)), rel=1e-15)
        assert tail < whole

    @pytest.mark.parametrize("t", [1e308, 1e300, 2000.0])
    def test_direct_sum_is_zero_when_the_first_term_underflows(self, t):
        # at t = 1e308 the cutoff was nan: s ln p and s ln q are both -inf
        assert (0.5 ** (1.0 - 2.0 * (1.0 - t))) == 0.0
        assert oracles.geometric_igf_direct(0.5, 2.0, t) == 0.0

    def test_direct_sum_refuses_an_oversized_truncation(self):
        with pytest.raises(ValueError, match=r"^the direct sum needs \d+ terms") as info:
            oracles.geometric_igf_direct(self.P, 0.5, 0.0)
        needed = int(str(info.value).split()[4])
        assert needed > oracles.GEOMETRIC_DIRECT_MAX_TERMS


class TestBetaPower:
    def test_normalization_at_one(self):
        assert beta_power_igf(2.0, 1.0, 1.0) == 1.0

    def test_point_values(self):
        # zeta(4)/zeta(2)**2 = (pi**4/90) * (36/pi**4) = 0.4
        assert beta_power_igf(2.0, 1.0, 2.0) == pytest.approx(0.4, abs=1e-12)
        # zeta(6)/zeta(2)**3 = (pi**6/945) * (216/pi**6) = 8/35
        assert beta_power_igf(2.0, 2.0, 2.0) == pytest.approx(8.0 / 35.0, abs=1e-12)

    def test_matches_direct_sum_with_exact_normalizer(self):
        direct = oracles.beta_power_igf_direct(2.0, 1.0, 2.0, PI**2 / 6.0)
        assert beta_power_igf(2.0, 1.0, 2.0) == pytest.approx(direct, abs=1e-10)
        direct = oracles.beta_power_igf_direct(3.0, 2.0, 1.5, ZETA_3)
        assert beta_power_igf(3.0, 2.0, 1.5) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("beta, u", [(2.0, 1.0), (1.01, 0.5), (7.5, 3.0)])
    def test_infinite_t_is_the_limit_zero(self, beta, u):
        # zeta(beta * s) -> 1 while zeta(beta) ** s -> inf, as for the
        # geometric closed form and the weighted IGF at t = inf
        assert beta_power_igf(beta, u, math.inf) == 0.0
        assert geometric_igf(0.5, u, math.inf) == 0.0

    def test_large_finite_t_takes_the_limits(self):
        # zeta(2) ** 1e300 overflows, and so does beta * s = 1e310; the
        # first quotient underflows to 0 and zeta(inf) is 1
        assert beta_power_igf(2.0, 1.0, 1e300) == 0.0
        assert beta_power_igf(1e300, 1.0, 1e10) == 1.0

    def test_overflowing_normalizer_power_against_mpmath(self):
        # zeta(2) ** 1430 is past the float range, the quotient is subnormal
        pytest.importorskip("mpmath")
        ref = oracles.beta_power_igf_mp(2.0, 1.0, 1430.0)
        assert 0.0 < ref < 2.2250738585072014e-308
        assert oracles.relative_error(beta_power_igf(2.0, 1.0, 1430.0), ref) <= 1e-12

    def test_divergent_transformed_series_raises(self):
        # beta=1.5, u=2, t=0.8 gives s = 0.6 and beta*s = 0.9
        with pytest.raises(DomainError):
            beta_power_igf(1.5, 2.0, 0.8)

    @pytest.mark.parametrize("bad_beta", [1.0, 0.5, -2.0, float("inf")])
    def test_rejects_bad_exponent(self, bad_beta):
        with pytest.raises(InvalidParameter):
            beta_power_igf(bad_beta, 1.0, 2.0)
        with pytest.raises(InvalidParameter):
            beta_power_entropy(bad_beta, 1.0)

    def test_entropy_frozen_value(self):
        assert beta_power_entropy(2.0, 1.0) == pytest.approx(
            BETA_POWER_ENTROPY_2_1, abs=1e-10
        )

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 6.0])
    def test_entropy_budget_against_mpmath(self, beta):
        # the README's zeta and zeta' budgets carried through
        # u * (ln z - beta * z' / z), and 8 ulps of the value
        pytest.importorskip("mpmath")
        u = 2.5
        z, d = oracles.zeta_mp(beta), oracles.zeta_derivative_mp(beta)
        ref = oracles.beta_power_entropy_mp(beta, u)
        budget = u * (1e-12 * abs(1 / z + beta * d / z**2) + 1e-10 * beta / z)
        assert abs(beta_power_entropy(beta, u) - ref) <= budget + 8 * 2.0**-52 * abs(ref)

    def test_entropy_linear_in_u(self):
        assert beta_power_entropy(2.0, 3.0) == 3.0 * beta_power_entropy(2.0, 1.0)

    def test_entropy_consistent_with_realized_family(self):
        realized = realize_family(ParametricFamily.beta_power(2.0), truncation=10**6)
        scheme = constant_utility_scheme(realized, 1.0)
        assert abs(beta_power_entropy(2.0, 1.0) - weighted_entropy(scheme)) <= 1e-4


#: The README's relative budgets for the power-law closed forms, for beta
#: from 1.001 to 1000 and s = 1 - u * (1 - t) from 1 to 1e12: the entropy's,
#: and the IGF's where its value is a normal float.
BETA_POWER_ENTROPY_RTOL = 1e-15
BETA_POWER_IGF_RTOL = 2.5e-13


class TestBetaPowerRelativeBudget:
    """Where beta is large the value is small and zeta(beta) is near 1:
    ln zeta(beta) and zeta(beta) ** s are taken from zeta(beta) - 1."""

    @pytest.mark.parametrize("beta", [20.0, 40.0, 60.0, 100.0, 400.0, 1000.0])
    def test_entropy_at_large_beta(self, beta):
        # relative errors were 4.3e-12, 3.1e-9, 2.3% and 1.4% at 20 to 100
        pytest.importorskip("mpmath")
        ref = oracles.beta_power_entropy_mp(beta, 1.0)
        assert oracles.relative_error(beta_power_entropy(beta, 1.0), ref) <= BETA_POWER_ENTROPY_RTOL

    @pytest.mark.parametrize("beta, t", [(30.0, 1e6), (20.0, 1e8), (60.0, 1e12)])
    def test_igf_at_large_s(self, beta, t):
        # relative errors were 2.7e-11, 6.1e-9 and 8.7e-7
        pytest.importorskip("mpmath")
        ref = oracles.beta_power_igf_mp(beta, 1.0, t)
        assert oracles.relative_error(beta_power_igf(beta, 1.0, t), ref) <= BETA_POWER_IGF_RTOL

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.floats(-3.0, 3.0), st.floats(0.0, 12.0), st.sampled_from([0.5, 1.0, 3.0]))
    def test_both_forms_within_budget(self, log_beta_minus_one, log_s, u):
        pytest.importorskip("mpmath")
        beta, s = 1.0 + 10.0**log_beta_minus_one, 10.0**log_s
        t = 1.0 + (s - 1.0) / u
        ref = oracles.beta_power_entropy_mp(beta, u)
        assert oracles.relative_error(beta_power_entropy(beta, u), ref) <= BETA_POWER_ENTROPY_RTOL
        value = beta_power_igf(beta, u, t)
        if value >= 2.2250738585072014e-308:
            ref = oracles.beta_power_igf_mp(beta, u, t)
            assert oracles.relative_error(value, ref) <= BETA_POWER_IGF_RTOL

    @pytest.mark.parametrize("beta, value", [
        (1.001, 1000.5772884760116), (1.5, 2.6123753486854886), (2.0, 1.6449340668482264),
        (3.0, 1.2020569031595942), (20.0, 1.0000009539620338), (60.0, 1.0),
    ])
    def test_zeta_keeps_its_bits(self, beta, value):
        # zeta(beta) - 1 is the fsum of the parts of zeta after its leading
        # 1, and zeta the fsum of all of them, as before
        assert zeta(beta) == value
        assert math.fsum([1.0, closed_forms._zeta_minus_one(beta)]) == value


class TestClosedFormsAgainstRealizedFamilies:
    """Each closed form matches the truncated family it describes, to a
    tolerance driven by the analytic truncation tail."""

    @pytest.mark.parametrize("n", [2, 5, 64])
    @pytest.mark.parametrize("u", [0.5, 2.0])
    @pytest.mark.parametrize("t", [1.0, 1.7, 3.0])
    def test_uniform(self, n, u, t):
        scheme = constant_utility_scheme(realize_family(ParametricFamily.uniform(n)), u)
        assert abs(uniform_igf(n, u, t) - weighted_igf(scheme, t)) <= 1e-14

    @pytest.mark.parametrize("p,trunc", [(0.1, 60), (0.5, 60), (0.9, 300)])
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [1.0, 1.5, 2.0, 3.0])
    def test_geometric(self, p, trunc, u, t):
        realized = realize_family(ParametricFamily.geometric(p), truncation=trunc)
        scheme = constant_utility_scheme(realized, u)
        assert abs(geometric_igf(p, u, t) - weighted_igf(scheme, t)) <= 1e-12

    @pytest.mark.parametrize(
        "beta,u,t",
        [
            (1.5, 1.0, 1.5),
            (1.5, 2.0, 2.0),
            (2.0, 1.0, 1.0),
            (2.0, 1.0, 2.0),
            (2.0, 0.5, 3.0),
            (3.0, 2.0, 1.2),
        ],
    )
    def test_beta_power(self, beta, u, t):
        # truncating at T leaves out roughly T**(1-beta*s)/(beta*s-1) of the
        # transformed series; that bound, not a constant, sets the tolerance
        trunc = 10**6
        s = 1.0 - u * (1.0 - t)
        tail = trunc ** (1.0 - beta * s) / (beta * s - 1.0) / zeta(beta) ** s
        realized = realize_family(ParametricFamily.beta_power(beta), truncation=trunc)
        scheme = constant_utility_scheme(realized, u)
        diff = abs(beta_power_igf(beta, u, t) - weighted_igf(scheme, t))
        assert diff <= max(1e-12, 2.0 * tail)
        if tail <= 4e-7:
            assert diff <= 1e-6


class TestClosedFormAndDirectSum:
    """The library's closed-form value of a family and its direct sum, the
    two values ``closed-form --check`` prints."""

    FAMILIES = [
        ParametricFamily.uniform(7),
        ParametricFamily.geometric(0.5),
        ParametricFamily.geometric(0.99),
        ParametricFamily.beta_power(4.0),
    ]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("t", [None, 2.0])
    def test_direct_sum_is_within_the_budget(self, family, t):
        # the omitted geometric tail is below 1e-13 (IGF) or 1e-15
        # (entropy); the power law at beta * s >= 4 leaves out under 1e-17
        value = closed_form_value(family, 1.5, t)
        assert abs(value - direct_sum_value(family, 1.5, t)) <= 1e-12

    @pytest.mark.parametrize(
        "family, form_igf, form_entropy, param",
        [
            (ParametricFamily.uniform(7), uniform_igf, uniform_entropy, 7),
            (ParametricFamily.geometric(0.5), geometric_igf, geometric_entropy, 0.5),
            (ParametricFamily.beta_power(4.0), beta_power_igf, beta_power_entropy, 4.0),
        ],
    )
    def test_value_is_the_family_closed_form(self, family, form_igf, form_entropy, param):
        assert closed_form_value(family, 0.5) == form_entropy(param, 0.5)
        assert closed_form_value(family, 0.5, 1.25) == form_igf(param, 0.5, 1.25)

    def test_t_below_one_needs_extended(self):
        family = ParametricFamily.geometric(0.5)
        with pytest.raises(DomainError):
            closed_form_value(family, 1.0, 0.75)
        with pytest.raises(DomainError):
            direct_sum_value(family, 1.0, 0.75)
        value = closed_form_value(family, 1.0, 0.75, extended=True)
        assert abs(value - direct_sum_value(family, 1.0, 0.75, extended=True)) <= 1e-12

    def test_geometric_entropy_stops_at_the_first_doubling_above_the_cap(self):
        with pytest.raises(ValidationError) as info:
            direct_sum_value(ParametricFamily.geometric(0.99999999), 1.0)
        assert str(info.value) == (
            "the realized family needs at least 1048576 terms, above the cap of 1000000"
        )

    @pytest.mark.parametrize("family, u", [
        (ParametricFamily.uniform(7), 0.5),
        (ParametricFamily.geometric(0.5), 2.5),
        (ParametricFamily.beta_power(2.0), 1.0),
    ])
    def test_direct_entropy_streams_its_logs(self, monkeypatch, family, u):
        # the realized scheme is summed once: no list of its 1e6 log
        # weights (38 MB of peak for beta-power) is kept for later calls
        schemes = []
        build = closed_forms.constant_utility_scheme
        monkeypatch.setattr(
            closed_forms, "constant_utility_scheme",
            lambda dist, u: schemes.append(build(dist, u)) or schemes[-1],
        )
        value = direct_sum_value(family, u)
        [scheme] = schemes
        assert scheme._logs is None
        assert repr(value) == repr(weighted_entropy(scheme))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("u, t, extended", [
        (1.5, 2.0, False), (0.5, math.inf, False), (2.0, 0.75, True), (1e-300, 3.0, False),
    ])
    def test_direct_igf_builds_no_scheme(self, monkeypatch, family, u, t, extended):
        # the weighted IGF under the constant u is Golomb's at the one
        # exponent s = 1 - u * (1 - t): the same floats and the same sum as
        # weighted_igf of the realized scheme, which is not built
        from igf.distributions import UtilityDistribution, UtilityInformationScheme

        truncation = closed_forms.MAX_REALIZED_TERMS
        if family.kind is closed_forms.FamilyKind.GEOMETRIC:
            truncation = closed_forms._geometric_truncation(family.p, u, t)
        scheme = constant_utility_scheme(realize_family(family, truncation), u)
        expected = repr(weighted_igf(scheme, t, extended=extended))
        built = []
        for cls in (UtilityDistribution, UtilityInformationScheme):
            def counted_init(self, *args, _real=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        assert repr(direct_sum_value(family, u, t, extended=extended)) == expected
        assert built == []

    @pytest.mark.parametrize("beta", [20.0, 40.0, 60.0, 100.0, 400.0])
    def test_direct_power_law_entropy_keeps_its_first_term(self, beta):
        # p_1 = 1 / zeta(beta) rounds to 1.0 from beta of about 53 on, and
        # ln p_1 lost digits before that: the direct sum was 2.3% low at
        # beta = 60; its first term takes ln zeta(beta) from zeta(beta) - 1
        pytest.importorskip("mpmath")
        family = ParametricFamily.beta_power(beta)
        ref = oracles.beta_power_entropy_mp(beta, 1.0)
        assert oracles.relative_error(direct_sum_value(family, 1.0), ref) <= BETA_POWER_ENTROPY_RTOL

    def test_geometric_direct_sum_refuses_a_divergent_exponent(self):
        with pytest.raises(DomainError, match="geometric series diverges"):
            direct_sum_value(ParametricFamily.geometric(0.5), 2.0, 0.5, extended=True)


class TestEntropyIsMinusSlopeAtOne:
    """Closed-form entropy equals the negated t-slope of the closed-form
    curve at t = 1, estimated by refined central differences."""

    @pytest.mark.parametrize("n,u", [(2, 0.5), (10, 1.0), (1000, 2.0)])
    def test_uniform(self, n, u):
        fd = oracles.central_diff(lambda t: uniform_igf(n, u, t), 1.0, 1, 1e-4, richardson=True)
        assert abs(uniform_entropy(n, u) + fd) <= 1e-10

    @pytest.mark.parametrize("p,u", [(0.1, 0.7), (0.5, 1.0), (0.9, 2.0)])
    def test_geometric(self, p, u):
        fd = oracles.central_diff(lambda t: geometric_igf(p, u, t), 1.0, 1, 1e-4, richardson=True)
        assert abs(geometric_entropy(p, u) + fd) <= 1e-10

    @pytest.mark.parametrize("beta,u", [(1.5, 2.0), (2.0, 1.0), (4.0, 0.5)])
    def test_beta_power(self, beta, u):
        fd = oracles.central_diff(lambda t: beta_power_igf(beta, u, t), 1.0, 1, 1e-4, richardson=True)
        assert abs(beta_power_entropy(beta, u) + fd) <= 1e-10


class TestNormalizationProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10_000), st.floats(0.01, 100.0))
    def test_uniform_is_one_at_t1(self, n, u):
        assert uniform_igf(n, u, 1.0) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.001, 0.999), st.floats(0.01, 100.0))
    def test_geometric_is_one_at_t1(self, p, u):
        assert geometric_igf(p, u, 1.0) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1.05, 20.0), st.floats(0.01, 100.0))
    def test_beta_power_is_one_at_t1(self, beta, u):
        assert beta_power_igf(beta, u, 1.0) == 1.0


class TestEntropyOverflow:
    """An entropy past the float range is a DomainError, as the uniform
    IGF's value is; each of these returned inf."""

    @pytest.mark.parametrize("entropy, args, family", [
        (uniform_entropy, (10**10, 1e308), "uniform"),
        (geometric_entropy, (0.999999, 1e308), "geometric"),
        (beta_power_entropy, (1.0000000000000002, 1e300), "power-law"),
    ])
    def test_is_a_domain_error(self, entropy, args, family):
        with pytest.raises(DomainError) as info:
            entropy(*args)
        assert str(info.value) == (
            f"{family} entropy overflows: at u = {args[1]!r} it exceeds the float range"
        )

    def test_the_largest_values_still_pass(self):
        assert uniform_entropy(2, 1.7e308) == 1.7e308 * math.log(2)
        assert geometric_entropy(0.5, 1e308) == pytest.approx(2 * LN2 * 1e308, rel=1e-15)
        assert beta_power_entropy(2.0, 1e308) == pytest.approx(
            BETA_POWER_ENTROPY_2_1 * 1e308, rel=1e-14
        )


class TestEntropyHomogeneity:
    """Scaling every utility by k scales each entropy by exactly k; checked
    with power-of-two factors so the float scaling itself is exact."""

    @pytest.mark.parametrize("k", [2.0, 8.0, 0.5])
    @pytest.mark.parametrize("u", [0.7, 1.3])
    def test_all_families(self, k, u):
        assert uniform_entropy(17, k * u) == k * uniform_entropy(17, u)
        assert geometric_entropy(0.3, k * u) == k * geometric_entropy(0.3, u)
        assert beta_power_entropy(2.5, k * u) == k * beta_power_entropy(2.5, u)
