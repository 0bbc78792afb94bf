"""Generating functions, derivatives, entropies, moments, and their links.

Expected values were frozen from the direct-summation oracles in
``oracles.py``; tolerance-bearing identities run over seeded random scheme
populations so failures reproduce.
"""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from igf import (
    DomainError,
    IGFError,
    InvalidParameter,
    LogBase,
    MAX_REALIZED_TERMS,
    ValidationError,
    constant_utility_scheme,
    curve_values,
    golomb_igf,
    hooda_bhaker_igf,
    make_complete,
    make_generalized,
    make_scheme,
    self_information_moment,
    shannon_entropy,
    unnormalized_power_igf,
    weighted_entropy,
    weighted_igf,
    weighted_igf_derivative,
    weighted_self_information_moment,
    weighted_self_information_moments,
)
from igf import generating_functions
from igf.cli import Measure
from igf.generating_functions import _WeightedExponents, _term_sums, curve_grid

LN2 = 0.6931471805599453


@pytest.fixture
def half_half():
    return make_scheme([0.5, 0.5], [1.0, 2.0])


class TestPointValues:
    """Hand-checkable evaluations frozen from the direct oracles."""

    def test_golomb_values(self):
        dist = make_complete([0.5, 0.5])
        assert golomb_igf(dist, 1.0) == 1.0
        assert golomb_igf(dist, 2.0) == 0.5
        assert golomb_igf(make_complete([1.0]), 7.0) == 1.0

    def test_weighted_values(self, half_half):
        assert weighted_igf(half_half, 1.0) == 1.0
        assert weighted_igf(half_half, 2.0) == 0.375
        # exponents at t=3 are 3 and 5
        assert weighted_igf(half_half, 3.0) == 0.5**3 + 0.5**5 == 0.15625

    def test_hooda_bhaker_values(self):
        scheme = make_scheme([0.5, 0.5], [2.0, 4.0])
        assert hooda_bhaker_igf(scheme, 2.0) == 1.5
        assert hooda_bhaker_igf(make_scheme([1.0], [3.0]), 1.0) == 3.0

    def test_unit_utilities_reduce_everything_to_golomb(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 1.0])
        assert weighted_igf(scheme, 2.0) == 0.5
        assert hooda_bhaker_igf(scheme, 2.0) == 0.5

    def test_entropies(self, half_half):
        dist = make_complete([0.5, 0.5])
        assert shannon_entropy(dist) == pytest.approx(LN2, abs=1e-15)
        assert shannon_entropy(dist, LogBase.TWO) == 1.0
        assert shannon_entropy(make_complete([1.0])) == 0.0
        assert weighted_entropy(half_half) == pytest.approx(1.5 * LN2, abs=1e-15)
        assert weighted_entropy(make_scheme([1.0], [5.0])) == 0.0
        # a point mass has entropy +0.0, not -0.0
        point = make_scheme([0.0, 1.0], [1.0, 5.0])
        for h in (shannon_entropy(point.dist), weighted_entropy(point, LogBase.TWO)):
            assert math.copysign(1.0, h) == 1.0

    @pytest.mark.parametrize("base", ["2", 2, None], ids=["str", "int", "none"])
    def test_a_base_that_is_not_a_log_base_is_refused(self, half_half, base):
        # it was taken for the natural base: "2" gave nats, not bits
        message = rf"^unknown log base {re.escape(repr(base))}; expected a LogBase$"
        with pytest.raises(InvalidParameter, match=message):
            shannon_entropy(half_half.dist, base)
        with pytest.raises(InvalidParameter, match=message):
            weighted_entropy(half_half, base)

    def test_moments(self, half_half):
        dist = make_complete([0.5, 0.5])
        assert self_information_moment(dist, 0) == 1.0
        assert self_information_moment(dist, 1) == pytest.approx(LN2, abs=1e-15)
        assert self_information_moment(dist, 2) == pytest.approx(LN2**2, abs=1e-15)
        assert self_information_moment(make_complete([1.0]), 3) == 0.0
        # a sum of zero terms is +0.0 for odd r too, so the CLI never prints -0
        assert math.copysign(1.0, self_information_moment(make_complete([1.0]), 3)) == 1.0
        assert weighted_self_information_moment(half_half, 1) == pytest.approx(
            1.5 * LN2, abs=1e-15
        )
        assert weighted_self_information_moment(half_half, 2) == pytest.approx(
            2.5 * LN2**2, abs=1e-15
        )

    def test_derivative_values(self, half_half):
        assert weighted_igf_derivative(half_half, 1.0, 1) == pytest.approx(
            -1.5 * LN2, abs=1e-15
        )
        assert weighted_igf_derivative(half_half, 1.0, 2) == pytest.approx(
            2.5 * LN2**2, abs=1e-15
        )
        assert weighted_igf_derivative(make_scheme([1.0], [2.0]), 4.0, 1) == 0.0

    def test_zero_probability_terms_contribute_nothing(self):
        padded = make_scheme([0.5, 0.5, 0.0], [1.0, 2.0, 3.0])
        bare = make_scheme([0.5, 0.5], [1.0, 2.0])
        for t in (1.0, 2.0, 3.5):
            assert weighted_igf(padded, t) == weighted_igf(bare, t)
        assert weighted_entropy(padded) == weighted_entropy(bare)
        assert weighted_self_information_moment(padded, 3) == pytest.approx(
            weighted_self_information_moment(bare, 3), rel=1e-15
        )


class TestNormalizationAndReduction:
    def test_t1_and_order_0_are_the_total_mass(self):
        # a complete scheme sums to 1 within COMPLETENESS_TOL, not exactly
        scheme = make_scheme([0.5, 0.5 + 1e-10], [1.0, 1.0])
        total = scheme.dist.total
        assert total == 1.0000000001
        assert weighted_igf(scheme, 1.0) == golomb_igf(scheme.dist, 1.0) == total
        assert hooda_bhaker_igf(scheme, 1.0) == total
        assert self_information_moment(scheme.dist, 0) == total
        assert weighted_self_information_moment(scheme, 0) == total
        assert list(weighted_self_information_moments(scheme, [0, 1, 0]))[::2] == [total] * 2

    def test_complete_schemes_evaluate_to_one_at_t1(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            probs, utils = oracles.random_scheme(rng)
            scheme = make_scheme(probs, utils)
            assert abs(weighted_igf(scheme, 1.0) - 1.0) <= 1e-12

    def test_generalized_schemes_return_their_mass_at_t1(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            probs, utils = oracles.random_scheme(rng, n_hi=16)
            scale = rng.uniform(0.2, 0.95)
            probs = [scale * p for p in probs]
            scheme = make_scheme(probs, utils, generalized=True)
            assert abs(weighted_igf(scheme, 1.0) - math.fsum(probs)) <= 1e-12

    @pytest.mark.parametrize("t", [1.0, 1.5, 2.0, 3.0])
    def test_unit_utility_reduction_matches_golomb(self, t):
        rng = np.random.default_rng(9)
        for _ in range(100):
            probs, _ = oracles.random_scheme(rng, n_hi=32)
            scheme = make_scheme(probs, [1.0] * len(probs))
            assert abs(weighted_igf(scheme, t) - golomb_igf(scheme.dist, t)) <= 1e-12

    def test_unit_utility_moments_reduce(self):
        dist = make_complete([0.2, 0.3, 0.5])
        scheme = make_scheme(dist.probs, [1.0, 1.0, 1.0])
        for r in range(5):
            assert weighted_self_information_moment(scheme, r) == pytest.approx(
                self_information_moment(dist, r), rel=1e-15
            )


class TestDerivativeLinks:
    def test_entropy_is_minus_first_derivative_at_one(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            probs, utils = oracles.random_scheme(rng)
            scheme = make_scheme(probs, utils)
            lhs = -weighted_igf_derivative(scheme, 1.0, 1)
            assert abs(lhs - weighted_entropy(scheme)) <= 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_signed_derivatives_match_moments(self, r):
        # exactly: at t = 1 both are one sum over the scheme's log list
        rng = np.random.default_rng(11)
        for _ in range(100):
            probs, utils = oracles.random_scheme(rng)
            scheme = make_scheme(probs, utils)
            lhs = (-1.0) ** r * weighted_igf_derivative(scheme, 1.0, r)
            assert lhs == weighted_self_information_moment(scheme, r)

    def test_derivative_matches_direct_oracle_away_from_one(self, half_half):
        for t in (1.0, 1.7, 2.0, 3.0):
            for r in (1, 2, 3):
                expected = oracles.igf_derivative_direct([0.5, 0.5], [1.0, 2.0], t, r)
                assert weighted_igf_derivative(half_half, t, r) == pytest.approx(
                    expected, rel=1e-14
                )


class TestFiniteDifferences:
    """The analytic derivative against central differences of weighted_igf."""

    def test_example_r1_agreement(self, half_half):
        fd = oracles.central_diff(lambda t: weighted_igf(half_half, t), 2.0, 1, 1e-5)
        exact = weighted_igf_derivative(half_half, 2.0, 1)
        assert fd == pytest.approx(exact, rel=1e-8)

    def test_degenerate_scheme_has_zero_derivative(self):
        scheme = make_scheme([1.0], [1.0])
        assert weighted_igf_derivative(scheme, 2.0, 1) == 0.0
        fd = oracles.central_diff(lambda t: weighted_igf(scheme, t), 2.0, 1, 1e-4)
        assert abs(fd) <= 1e-10

    def test_example_r2_agreement(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 1.0])
        fd = oracles.central_diff(lambda t: weighted_igf(scheme, t), 2.0, 2, 1e-3)
        exact = sum(math.log(p) ** 2 * p**2.0 for p in (0.5, 0.5))
        assert weighted_igf_derivative(scheme, 2.0, 2) == pytest.approx(exact, rel=1e-15)
        assert fd == pytest.approx(exact, rel=1e-5)

    def test_oracle_agreement_over_random_population(self):
        rng = np.random.default_rng(12)
        step = {1: 1e-5, 2: 1e-3, 3: 1e-3}
        rtol = {1: 1e-6, 2: 1e-4, 3: 1e-4}
        for _ in range(60):
            probs, utils = oracles.floored_scheme(rng)
            scheme = make_scheme(probs, utils)
            t = rng.uniform(1.0, 3.0)
            for r in (1, 2, 3):
                fd = oracles.central_diff(
                    lambda x: weighted_igf(scheme, x, extended=True), t, r, step[r]
                )
                exact = weighted_igf_derivative(scheme, t, r)
                assert fd == pytest.approx(exact, rel=rtol[r]), (probs, utils, t, r)

    def test_richardson_step_tightens_r1(self, half_half):
        exact = weighted_igf_derivative(half_half, 2.0, 1)

        def curve(t):
            return weighted_igf(half_half, t)

        plain = oracles.central_diff(curve, 2.0, 1, 1e-3)
        refined = oracles.central_diff(curve, 2.0, 1, 1e-3, richardson=True)
        assert abs(refined - exact) < abs(plain - exact)


class TestShape:
    def test_monotone_nonincreasing_on_grid(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(1.0, 3.0, 41)
        for _ in range(50):
            probs, utils = oracles.random_scheme(rng, n_hi=16)
            scheme = make_scheme(probs, utils)
            values = [weighted_igf(scheme, float(t)) for t in grid]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_second_derivative_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            probs, utils = oracles.random_scheme(rng, n_hi=16)
            scheme = make_scheme(probs, utils)
            for t in (1.0, 1.5, 2.0, 3.0):
                assert weighted_igf_derivative(scheme, t, 2) >= 0.0

    def test_range_bounds_for_complete_schemes(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            probs, utils = oracles.random_scheme(rng, n_hi=16)
            scheme = make_scheme(probs, utils)
            for t in (1.0, 2.0, 5.0, 20.0):
                value = weighted_igf(scheme, t)
                # the value at t=1 is the mass, which carries rounding noise
                assert 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12),
        st.floats(1.0, 3.0),
        st.floats(0.0, 2.0),
        st.floats(0.2, 5.0),
    )
    def test_monotonicity_property(self, raw, t1, dt, u):
        probs = [x / math.fsum(raw) for x in raw]
        scheme = make_scheme(probs, [u] * len(probs))
        assert weighted_igf(scheme, t1 + dt) <= weighted_igf(scheme, t1) + 1e-15


class TestDomainRules:
    def test_default_domain_starts_at_one(self, half_half):
        with pytest.raises(DomainError):
            weighted_igf(half_half, 0.999)
        with pytest.raises(DomainError):
            golomb_igf(half_half.dist, 0.5)
        with pytest.raises(DomainError):
            hooda_bhaker_igf(half_half, 0.0)
        with pytest.raises(DomainError):
            weighted_igf_derivative(half_half, 0.5, 1)

    @pytest.mark.parametrize(
        "below",
        [
            lambda s: golomb_igf(s.dist, 0.5),
            lambda s: unnormalized_power_igf(s.dist, 1.0, 2.0, 0.5),
        ],
    )
    def test_one_message_names_both_ways_to_extend(self, half_half, below):
        with pytest.raises(DomainError) as info:
            below(half_half)
        assert str(info.value) == (
            "t = 0.5 is below the default domain t >= 1; pass extended=True "
            "(--extended-t on the command line) to evaluate there"
        )

    def test_extended_evaluation_matches_direct_sum(self, half_half):
        assert weighted_igf(half_half, 0.5, extended=True) == pytest.approx(
            oracles.igf_weighted_direct([0.5, 0.5], [1.0, 2.0], 0.5), rel=1e-15
        )
        assert golomb_igf(half_half.dist, -1.0, extended=True) == pytest.approx(
            4.0, rel=1e-15
        )

    def test_zero_probability_blocks_nonpositive_exponents(self):
        scheme = make_scheme([0.0, 1.0], [2.0, 2.0])
        # at t >= 1 the zero entry is just skipped
        assert weighted_igf(scheme, 3.0) == 1.0
        # extended t drives its exponent to 1 - 2*(1 - 0.25) = -0.5
        with pytest.raises(DomainError):
            weighted_igf(scheme, 0.25, extended=True)
        with pytest.raises(DomainError):
            golomb_igf(scheme.dist, -0.5, extended=True)

    def test_extreme_extended_overflow_is_a_domain_error(self):
        scheme = make_scheme([1e-300, 1.0 - 1e-300], [1.0, 1.0])
        with pytest.raises(DomainError):
            golomb_igf(scheme.dist, -2.0, extended=True)

    @pytest.mark.parametrize(
        "evaluate",
        [
            weighted_igf,
            lambda scheme, t: golomb_igf(scheme.dist, t),
            hooda_bhaker_igf,
            lambda scheme, t: weighted_igf_derivative(scheme, t, 2),
        ],
    )
    @pytest.mark.parametrize("bad_t", [float("nan"), True, "2"])
    def test_nan_t_rejected(self, half_half, evaluate, bad_t):
        with pytest.raises(InvalidParameter):
            evaluate(half_half, bad_t)

    def test_infinite_t_is_a_real_number(self, half_half):
        assert weighted_igf(half_half, float("inf")) == 0.0
        # 0.5 ** -inf is inf without an OverflowError, and inf was returned
        message = "term 0 overflows: probability 0.5, exponent -inf"
        with pytest.raises(DomainError) as info:
            golomb_igf(half_half.dist, float("-inf"), extended=True)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            hooda_bhaker_igf(half_half, float("-inf"), extended=True)
        assert str(info.value) == message

    def test_a_derivative_past_the_float_range_is_a_domain_error(self):
        # (1001 * ln 0.5) ** 3 * 0.5 ** -1000 is -inf without an
        # OverflowError, and -inf was returned; both factors are finite,
        # so the error names their product
        scheme = make_scheme([0.5, 0.5], [1001.0, 1.0])
        message = r"^term 0 overflows: \(1001\.0 \* ln 0\.5\) \*\* 3 \* 0\.5 \*\* -1000\.0$"
        with pytest.raises(DomainError, match=message):
            weighted_igf_derivative(scheme, 0.0, 3, extended=True)


def _defined_fsum(probs, exps, term):
    """math.fsum of term(i) over the positive entries, or None where the sum
    is undefined: a zero probability under an exponent <= 0, or a term or
    total too large for a float or not finite."""
    if any(p == 0.0 and e <= 0.0 for p, e in zip(probs, exps)):
        return None
    try:
        s = math.fsum(term(i) for i, p in enumerate(probs) if p > 0.0)
    except OverflowError:
        return None
    return s if math.isfinite(s) else None


def _collect(values):
    """The repr of each value up to the first DomainError, then its message."""
    got = []
    try:
        for v in values:
            got.append(repr(v))
    except DomainError as exc:
        got.append(str(exc))
    return got


def _log_owner(probs, weights):
    """The scheme whose log list ``w_i * ln p_i`` a kernel spec of order
    r >= 1 reads: its utilities are the weights, and 1 for ``None``."""
    return make_scheme(probs, weights or [1.0] * len(probs), generalized=True)


def _assert_defined_fsum(evaluate, probs, exps, term):
    expected = _defined_fsum(probs, exps, term)
    if expected is None:
        with pytest.raises(DomainError):
            evaluate()
    else:
        assert evaluate() == expected


# entries up to 1/16 keep 13 of them a valid generalized distribution
_ENTRY = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(1e-300, 1.0 / 16.0),
)


@st.composite
def _sparse_schemes(draw, entry=_ENTRY):
    """Generalized schemes with zeros and subnormal entries; the last entry
    keeps the total mass positive."""
    probs = draw(st.lists(entry, min_size=0, max_size=12))
    probs.append(draw(st.floats(0.01, 1.0 / 16.0)))
    utils = [draw(st.floats(0.1, 8.0)) for _ in probs]
    return probs, utils


_BIG_UTILITY = st.one_of(
    st.floats(0.1, 8.0), st.floats(8.0, 1e308), st.sampled_from([1e100, 1e300, 1e308])
)


def _factor(w, p, r):
    """(w * ln p) ** r, inf where it overflows."""
    try:
        return (w * math.log(p)) ** r
    except OverflowError:
        return math.inf


def _scaled_sum(probs, exps, weights, r):
    """For r >= 1 where some (w_i * ln p_i) ** r overflows: the fsum of
    (w_i * 2 ** -k * ln p_i) ** r * p_i ** e_i over the nonzero entries,
    with k putting the largest 2 ** (bits of w_i + bits of ln p_i) at
    2 ** (1023 // r), times 2 ** (k * r).  None where no such factor
    overflows, or where a scaled term or that value is not finite."""
    if not r or weights is None:
        return None
    kept = [(p, e, w) for p, e, w in zip(probs, exps, weights) if p]
    if all(math.isfinite(_factor(w, p, r)) for p, _, w in kept):
        return None
    bits = [math.frexp(w)[1] + math.frexp(math.log(p))[1] for p, _, w in kept]
    k = max(bits) - 1023 // r
    try:
        terms = [(w * 2.0**-k * math.log(p)) ** r * p**e for p, e, w in kept]
        s = math.ldexp(math.fsum(terms), k * r)
    except OverflowError:
        return None
    return s if math.isfinite(s) else None


def _first_fault(probs, exps, weights, r):
    """The repr of the fsum of c_i * p_i ** e_i, with c_i = w_i (1 for no
    weights) for r = 0 and (w_i * ln p_i) ** r over the nonzero entries
    otherwise; where every zero entry has a term, that of :func:`_scaled_sum`
    if it is not None; or the message of the first term, in index order,
    that is undefined (a zero probability under an exponent <= 0) or not
    finite, naming what is not; or else of the sum."""
    if all(p or e > 0.0 for p, e in zip(probs, exps)):
        scaled = _scaled_sum(probs, exps, weights, r)
        if scaled is not None:
            return repr(scaled)
    terms = []
    for i, (p, e) in enumerate(zip(probs, exps)):
        w = 1.0 if weights is None else weights[i]
        if p == 0.0 and e <= 0.0:
            return f"zero probability at entry {i} with exponent {e} <= 0"
        try:
            power = p**e
        except OverflowError:
            power = math.inf
        if not math.isfinite(power):
            return f"term {i} overflows: probability {p!r}, exponent {e!r}"
        if not r:
            if not math.isfinite(w * power):
                return f"term {i} overflows: {w!r} * {p!r} ** {e!r}"
            terms.append(w * power)
        elif p:
            factor = _factor(w, p, r)
            if not math.isfinite(factor):
                return f"term {i} overflows: ({w!r} * ln {p!r}) ** {r}"
            if not math.isfinite(factor * power):
                return f"term {i} overflows: ({w!r} * ln {p!r}) ** {r} * {p!r} ** {e!r}"
            terms.append(factor * power)
    try:
        s = math.fsum(terms)
    except OverflowError:
        s = math.inf
    return repr(s) if math.isfinite(s) else "the sum of the terms overflows"


class TestWeightedExponents:
    """The exponent stream repeats the float operations of the per-entry
    expression, and its zero test agrees with the smallest exponent."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(5e-324, 1e308), st.sampled_from([1.0, 0.5, 2.0, 1e300])),
            min_size=1, max_size=8,
        ),
        st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from([1.0, 1.0 - 2.0**-53, 0.5, 0.0, -1.0, 1e-300]),
        ),
    )
    def test_matches_the_per_entry_list(self, utils, t):
        exps = _WeightedExponents(utils, t)
        listed = [1.0 - u * (1.0 - t) for u in utils]
        # two passes: the stream is rebuilt for each
        assert list(exps) == listed
        assert list(exps) == listed
        assert exps.reaches_zero() == (min(listed) <= 0.0)


class TestPowerSumKernel:
    """Every measure built on the one term kernel equals, exactly,
    the fsum of its defining per-term expression, and raises DomainError
    where that expression is undefined."""

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes(), st.floats(-4.0, 8.0), st.integers(1, 3))
    # (2 ln p) * p ** -1 is -inf at the smallest normal p without an
    # OverflowError: the derivative raises, and -inf is no value
    @example(case=([0.0, 2.2250738585072014e-308, 0.0625], [0.5, 2.0, 1.0]), t=0.0, r=1)
    def test_t_measures(self, case, t, r):
        probs, utils = case
        scheme = make_scheme(probs, utils, generalized=True)
        w_exps = [1.0 - u * (1.0 - t) for u in utils]
        t_exps = [t] * len(probs)
        _assert_defined_fsum(
            lambda: weighted_igf(scheme, t, extended=True),
            probs, w_exps, lambda i: probs[i] ** w_exps[i],
        )
        _assert_defined_fsum(
            lambda: golomb_igf(scheme.dist, t, extended=True),
            probs, t_exps, lambda i: probs[i] ** t,
        )
        _assert_defined_fsum(
            lambda: hooda_bhaker_igf(scheme, t, extended=True),
            probs, t_exps, lambda i: utils[i] * probs[i] ** t,
        )
        _assert_defined_fsum(
            lambda: weighted_igf_derivative(scheme, t, r, extended=True),
            probs, w_exps,
            lambda i: (utils[i] * math.log(probs[i])) ** r * probs[i] ** w_exps[i],
        )

    @settings(max_examples=100, deadline=None)
    @given(_sparse_schemes(), st.floats(0.1, 4.0), st.floats(0.2, 4.0), st.floats(-4.0, 8.0))
    def test_unnormalized_power_igf(self, case, u, beta, t):
        probs, _ = case
        dist = make_generalized(probs)
        e = beta * (1.0 - u * (1.0 - t))
        _assert_defined_fsum(
            lambda: unnormalized_power_igf(dist, u, beta, t, extended=True),
            probs, [e] * len(probs), lambda i: probs[i] ** e,
        )

    @settings(max_examples=100, deadline=None)
    @given(_sparse_schemes(), st.integers(1, 6))
    def test_moments(self, case, r):
        probs, utils = case
        scheme = make_scheme(probs, utils, generalized=True)
        assert self_information_moment(scheme.dist, r) == math.fsum(
            p * (-math.log(p)) ** r for p in probs if p > 0.0
        )
        assert weighted_self_information_moment(scheme, r) == math.fsum(
            (-(u * math.log(p))) ** r * p for p, u in zip(probs, utils) if p > 0.0
        )

    @settings(max_examples=150, deadline=None)
    @given(
        _sparse_schemes(),
        st.sampled_from([None, 1.0, 1e100, 1e152, 1e305]),
        st.lists(st.integers(0, 8), min_size=1, max_size=9),
    )
    # a point mass sums every order r >= 1 to zero, which must be +0.0
    @example(case=([0.0, 1.0], [2.0, 3.0]), scale=None, orders=[0, 1, 2, 3])
    @example(case=([1.0], [3.0]), scale=1.0, orders=[5, 1])
    # 3e305 * ln 5e-324 is -inf without an OverflowError; inf was the sum,
    # and the scaled sum is -1.7e304
    @example(case=([5e-324, 0.0625], [3.0, 1.0]), scale=1e305, orders=[1])
    def test_moments_share_one_log_pass(self, case, scale, orders):
        # every order of one kernel call at e = 1 equals (repr: sign of
        # zero included) the fsum of its defining per-term expression, or
        # the scaled sum where a factor w ln p overflows; an order whose
        # (w ln p) ** r overflows or is not finite otherwise raises the
        # error naming the first such term and ends the iteration there,
        # and a sum that is not finite raises too.  The orders r >= 1 read
        # the log list of a scheme whose utilities are the weights (1 for
        # unit weights)
        probs, utils = case
        weights = None if scale is None else [u * scale for u in utils]
        owner = _log_owner(probs, weights)

        def per_order(r):
            terms = []
            for i, (p, w) in enumerate(zip(probs, weights or [1.0] * len(probs))):
                if r == 0:
                    terms.append(w * p)
                elif p:
                    try:
                        a = (w * math.log(p)) ** r
                    except OverflowError:
                        a = math.inf
                    if not math.isfinite(a):
                        scaled = _scaled_sum(probs, [1.0] * len(probs), weights, r)
                        if scaled is not None:
                            return scaled
                        raise DomainError(f"term {i} overflows: ({w!r} * ln {p!r}) ** {r}")
                    terms.append(a * p)
            try:
                s = math.fsum(terms)
            except OverflowError:
                s = math.inf
            if not math.isfinite(s):
                raise DomainError("the sum of the terms overflows")
            return s

        specs = [(owner if r else weights, r) for r in orders]
        assert _collect(_term_sums(probs, None, specs)) == _collect(map(per_order, orders))

    @settings(max_examples=300, deadline=None)
    @given(
        _sparse_schemes(),
        st.one_of(st.none(), st.floats(-4.0, 8.0), st.floats(-4.0, 8.0).map(lambda t: [t])),
        st.lists(
            st.tuples(st.sampled_from([None, 1.0, 1e100, 1e305]), st.integers(0, 6)),
            min_size=1, max_size=6,
        ),
    )
    # 8e305 * 0.5 ** -10 is inf without an OverflowError: the weighted
    # order 0 raises after the unit one gave its value
    @example(case=([0.5, 0.5], [8.0, 1.0]), exps=-10.0, drawn=[(None, 0), (1e305, 0)])
    def test_many_specs_equal_one_call_each(self, case, exps, drawn):
        # one call shares its pass of powers across specs and drops the
        # zeros from its orders r > 0 only, which read one cached log list
        # per scheme; its values (repr) and first error are those of one call
        # per spec.  A one-element list stands for the weighted exponents
        probs, utils = case
        if isinstance(exps, list):
            exps = _WeightedExponents(utils, exps[0])
        vectors = {scale: None if scale is None else [u * scale for u in utils]
                   for scale, _ in drawn}
        owners = {scale: _log_owner(probs, w) for scale, w in vectors.items()}
        specs = [(owners[scale] if r else vectors[scale], r) for scale, r in drawn]
        got = _collect(_term_sums(probs, exps, specs))
        assert got == _collect(next(_term_sums(probs, exps, [spec])) for spec in specs)

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes())
    def test_entropy_is_the_first_moment_exactly(self, case):
        # one log-weighted kernel: the entropy, the first moment and minus
        # the first derivative at t = 1 are one sum, not three that may
        # differ in the last bit
        probs, utils = case
        scheme = make_scheme(probs, utils, generalized=True)
        h = weighted_entropy(scheme)
        assert h == weighted_self_information_moment(scheme, 1)
        assert h == -weighted_igf_derivative(scheme, 1.0, 1)
        assert shannon_entropy(scheme.dist) == self_information_moment(scheme.dist, 1)

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes())
    def test_moments_iterator_equals_per_order_calls(self, case):
        scheme = make_scheme(*case, generalized=True)
        got = [repr(m) for m in weighted_self_information_moments(scheme, range(9))]
        assert got == [repr(weighted_self_information_moment(scheme, r)) for r in range(9)]

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda s, t: weighted_igf(s, t, extended=True),
            lambda s, t: golomb_igf(s.dist, t, extended=True),
            lambda s, t: hooda_bhaker_igf(s, t, extended=True),
            lambda s, t: weighted_igf_derivative(s, t, 1, extended=True),
            lambda s, t: unnormalized_power_igf(s.dist, 1.0, 0.5, t, extended=True),
        ],
    )
    def test_zero_probability_under_exponent_zero(self, evaluate):
        # unit utilities put every exponent at 0 when t = 0, where 0.0 ** 0.0
        # would silently count the zero entry as 1
        scheme = make_scheme([0.0, 0.5, 0.5], [1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="entry 0"):
            evaluate(scheme, 0.0)
        assert math.isfinite(evaluate(scheme, 1e-9))

    @settings(max_examples=200, deadline=None)
    @given(
        _sparse_schemes().flatmap(lambda case: st.tuples(
            st.just(case[0]), st.lists(_BIG_UTILITY, min_size=len(case[0]), max_size=len(case[0]))
        )),
        st.floats(-4.0, 8.0),
        st.integers(1, 3),
        st.floats(0.1, 4.0),
        st.floats(0.2, 4.0),
    )
    # a zero under exponent -2 at entry 1 and an earlier power past the
    # float range: the zero was named, whatever came before it
    @example(case=([1e-300, 0.0, 1.0], [1.0, 1.0, 1.0]), t=-2.0, r=1, u=1.0, beta=1.0)
    # 1e308 * 0.5 ** -1 is inf without an OverflowError, before the zero
    @example(case=([0.5, 0.0, 0.5], [1e308, 1.0, 1.0]), t=-1.0, r=1, u=1.0, beta=1.0)
    def test_the_first_undefined_term_names_the_error(self, case, t, r, u, beta):
        # every t-caller returns the fsum of its terms or raises the error
        # of the first term, in index order, that is undefined or not
        # finite, else of the sum
        probs, utils = case
        scheme = make_scheme(probs, utils, generalized=True)
        w_exps = [1.0 - v * (1.0 - t) for v in utils]
        t_exps = [t] * len(probs)
        e = beta * (1.0 - u * (1.0 - t))
        calls = [
            (lambda: weighted_igf(scheme, t, extended=True), w_exps, None, 0),
            (lambda: golomb_igf(scheme.dist, t, extended=True), t_exps, None, 0),
            (lambda: hooda_bhaker_igf(scheme, t, extended=True), t_exps, utils, 0),
            (lambda: weighted_igf_derivative(scheme, t, r, extended=True), w_exps, utils, r),
            (lambda: unnormalized_power_igf(scheme.dist, u, beta, t, extended=True),
             [e] * len(probs), None, 0),
        ]
        for evaluate, exps, weights, order in calls:
            try:
                got = repr(evaluate())
            except DomainError as exc:
                got = str(exc)
            assert got == _first_fault(probs, exps, weights, order)

    @pytest.mark.parametrize("evaluate, expected", [
        (lambda s: weighted_igf(s, 0.5, extended=True), math.fsum([0.5**-1.0, 0.5**0.5])),
        (lambda s: weighted_igf_derivative(s, 0.5, 1, extended=True),
         math.fsum([4.0 * math.log(0.5) * 0.5**-1.0, 1.0 * math.log(0.5) * 0.5**0.5])),
        (lambda s: golomb_igf(make_generalized([0.5, 0.25]), -1.0, extended=True), 6.0),
        (lambda s: unnormalized_power_igf(make_generalized([0.5]), 2.0, 1.0, 0.0, extended=True),
         2.0),
    ], ids=["weighted", "derivative", "golomb", "power"])
    def test_no_walk_while_every_zero_has_a_term(self, monkeypatch, evaluate, expected):
        # t = 0.5 puts the exponent of the u = 4 entry at -1 and that of the
        # zero entry at 0.5, and the Golomb and raw power sums have negative
        # exponents and no zero: the test in C clears each, and no Python
        # walk over the terms runs
        def walk(*args):
            raise AssertionError("the terms were walked")

        monkeypatch.setattr("igf.generating_functions._audit", walk)
        scheme = make_scheme([0.0, 0.5, 0.5], [1.0, 4.0, 1.0])
        assert evaluate(scheme) == expected


_CACHED_CALLS = {
    "shannon": lambda s: shannon_entropy(s.dist),
    "shannon bits": lambda s: shannon_entropy(s.dist, LogBase.TWO),
    "weighted": weighted_entropy,
    "weighted bits": lambda s: weighted_entropy(s, LogBase.TWO),
    "moments": lambda s: _collect(weighted_self_information_moments(s, range(6))),
    **{f"moment {r}": lambda s, r=r: self_information_moment(s.dist, r) for r in range(5)},
    **{f"weighted moment {r}": lambda s, r=r: weighted_self_information_moment(s, r)
       for r in range(5)},
    **{f"derivative {r} at {t}": lambda s, r=r, t=t: weighted_igf_derivative(s, t, r)
       for r in (1, 2, 3) for t in (1.0, 2.0)},
}


class TestLogWeightCache:
    """Every log-weighted sum reads the packed ``u_i * ln p_i`` that its
    scheme holds once built, and gives what a fresh scheme gives; the plain
    entropy and moments are those of unit utilities, and the powers at
    t = 1 are the probabilities themselves."""

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes())
    def test_the_plain_calls_are_the_unit_utility_calls(self, case):
        # values by repr, errors by message: the plain calls have no log
        # list of their own.  Orders 110 and 200 overflow on tiny entries
        dist = make_generalized(case[0])
        unit = constant_utility_scheme(dist, 1.0)
        calls = [(lambda: shannon_entropy(dist, base), lambda: weighted_entropy(unit, base))
                 for base in LogBase]
        calls += [(lambda r=r: self_information_moment(dist, r),
                   lambda r=r: weighted_self_information_moment(unit, r))
                  for r in [*range(9), 110, 200]]
        for plain, weighted in calls:
            assert repr(_outcome(plain)) == repr(_outcome(weighted))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_sparse_schemes(), st.one_of(
        st.sampled_from([1.0, 0.5, 1e305, 1e308, 1e-300]),
        st.floats(-300.0, 308.0).map(lambda x: 10.0**x),
    ))
    def test_a_float_utility_sums_as_its_constant_scheme(self, case, u):
        # the kernel's float spec (u, r) streams mul(u, ln p), the floats of
        # the cache of constant_utility_scheme(dist, u); values by repr,
        # errors by type and message, rescued and refused sums included
        dist = make_generalized(case[0])
        scheme = constant_utility_scheme(dist, u)
        for r in range(1, 9):
            streamed = _outcome(lambda: generating_functions._moment(dist, u, r))
            cached = _outcome(lambda: weighted_self_information_moment(scheme, r))
            assert repr(streamed) == repr(cached)

    def test_the_plain_calls_build_no_scheme(self, monkeypatch):
        # the unit utility is the float 1.0: no utility vector and no
        # scheme is built
        from igf.distributions import UtilityDistribution, UtilityInformationScheme

        dist = make_generalized([0.5, 0.0, 0.25, 1e-300])
        built = []
        for cls in (UtilityDistribution, UtilityInformationScheme):
            def counted_init(self, *args, _real=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        for base in LogBase:
            shannon_entropy(dist, base)
        for r in range(5):
            self_information_moment(dist, r)
        assert built == []

    def test_a_plain_overflow_names_the_unit_utility(self):
        # (ln 1e-10) ** 300 * 1e-10 is about 1e398, past the float range
        with pytest.raises(DomainError) as info:
            self_information_moment(make_generalized([1e-10, 0.5]), 300)
        assert str(info.value) == "term 0 overflows: (1.0 * ln 1e-10) ** 300"

    def test_a_plain_moment_whose_factor_overflows_is_summed_scaled(self):
        # (ln 5e-324) ** 110 is about 8e315, but times 5e-324 it is 3.9e-8:
        # the moment is finite, and it was refused
        probs = [5e-324, 0.5]
        value = self_information_moment(make_generalized(probs), 110)
        reference = oracles.weighted_moment_mp(probs, [1.0, 1.0], 110)
        assert oracles.relative_error(value, reference) <= 444 * 2.0**-53

    @pytest.mark.parametrize("call, error", [
        (shannon_entropy, ValidationError),
        (lambda s: self_information_moment(s, 2), ValidationError),
        (lambda s: weighted_entropy(s.dist), AttributeError),
        (lambda s: weighted_self_information_moment(s.dist, 2), AttributeError),
        # the distribution is checked before the base and the order
        (lambda s: shannon_entropy(None, "bits"), ValidationError),
        (lambda s: shannon_entropy(list(s.dist.probs), "bits"), ValidationError),
        (lambda s: self_information_moment(None, -1), ValidationError),
        (lambda s: self_information_moment(list(s.dist.probs), -1), ValidationError),
    ], ids=["shannon", "moment", "weighted", "weighted moment",
            "shannon None", "shannon list", "moment None", "moment list"])
    def test_a_wrong_owner_gives_no_number(self, call, error):
        # a scheme is no distribution, and a distribution has no utilities:
        # neither call returns the other's value
        scheme = make_scheme([0.5, 0.5], [1.0, 3.0])
        with pytest.raises(error) as info:
            call(scheme)
        if error is ValidationError:
            assert str(info.value) == "dist must be a ProbabilityDistribution"

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes(), st.sampled_from([1.0, 1e305]),
           st.permutations(sorted(_CACHED_CALLS)))
    def test_every_call_order_gives_the_values_of_a_fresh_scheme(self, case, scale, order):
        # a utility scale of 1e305 makes u ln p overflow for small p, so
        # errors are compared too
        probs, utils = case
        utils = [u * scale for u in utils]
        scheme = make_scheme(probs, utils, generalized=True)
        for name in order:
            fresh = make_scheme(probs, utils, generalized=True)
            call = _CACHED_CALLS[name]
            assert repr(_outcome(lambda: call(scheme))) == repr(_outcome(lambda: call(fresh))), name

    @pytest.mark.parametrize(
        "call, r",
        [
            (lambda s: weighted_self_information_moment(s, 2), 2),
            (lambda s: weighted_igf_derivative(s, 1.0, 3), 3),
            # order 1 is summed scaled; order 2 overflows
            (lambda s: list(weighted_self_information_moments(s, range(4))), 2),
        ],
        ids=["moment", "derivative", "moments"],
    )
    def test_an_overflowing_order_raises_again(self, call, r):
        # 1e308 * ln 0.1 is -inf, and the cached list keeps it; the orders
        # r >= 2 are past the float range, scaled or not
        scheme = make_scheme([0.1, 0.9], [1e308, 1.0])
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                call(scheme)
            assert str(info.value) == f"term 0 overflows: (1e+308 * ln 0.1) ** {r}"

    @pytest.mark.parametrize(
        "call",
        [
            weighted_entropy,
            lambda s: -weighted_igf_derivative(s, 1.0, 1),
            lambda s: list(weighted_self_information_moments(s, [0, 1]))[1],
            lambda s: weighted_self_information_moment(s, 1),
        ],
        ids=["entropy", "derivative", "moments", "moment"],
    )
    def test_an_overflowing_log_weight_of_a_finite_entropy_is_summed_scaled(self, call):
        # 1e308 * ln 0.1 is -inf, and the packed cache keeps it, but the
        # entropy, 2.3e307, is inside the float range: it was refused
        scheme = make_scheme([0.1, 0.9], [1e308, 1.0])
        for _ in range(2):
            assert call(scheme) == 2.3025850929940454e307
        assert list(scheme._logs) == [-math.inf, math.log(0.9)]
        reference = oracles.weighted_entropy_mp([0.1, 0.9], [1e308, 1.0])
        assert oracles.relative_error(2.3025850929940454e307, reference) < 2e-16

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: weighted_self_information_moment(s, 2),
            lambda s: weighted_igf_derivative(s, 1.0, 2),
            lambda s: list(weighted_self_information_moments(s, range(3)))[2],
        ],
        ids=["moment", "derivative", "moments"],
    )
    def test_an_overflowing_factor_of_a_finite_order_is_summed_scaled(self, call):
        # 1e200 * ln 1e-300 is finite, but its square is not, while the
        # term, times 1e-300, is: order 2 was refused
        scheme = make_scheme([1e-300, 1.0], [1e200, 1.0])
        for _ in range(2):
            assert call(scheme) == 4.771708299430558e105
        reference = oracles.weighted_moment_mp([1e-300, 1.0], [1e200, 1.0], 2)
        assert oracles.relative_error(4.771708299430558e105, reference) < 2e-16

    @pytest.mark.parametrize(
        "probs, utils, value, reference, rtol",
        [
            # the reference is mpmath's, rounded; k from the largest weight
            # alone scaled the first term into the subnormal range, and the
            # value was 8.1e-14 relative off
            (
                [9.181345810393197e-305, 2.4409342891402644e-269],
                [1.1980098744600347e308, 1.3784736480985318e-38],
                -2.081116408145078e-304,
                -2.0811164081450780098e-304,
                2.0**-53,
            ),
            # a subnormal value, whose scaled term keeps few bits; k from
            # the largest weight alone rounded that term to 0, and the value
            # was 0.0
            (
                [1.2457272552010357e-93, 1.0696905089129336e-92],
                [3.1427912841456267e-227, 1.3667244871817535e308],
                -8.37556e-318,
                -8.3751251542681240e-318,
                6e-5,
            ),
        ],
        ids=["normal", "subnormal"],
    )
    def test_a_rescued_first_order_takes_k_from_both_factors(
        self, probs, utils, value, reference, rtol
    ):
        # at r = 1 too, k keeps the largest |u_i ln p_i| below 2 ** 1023,
        # not the largest u_i below 2 ** 1000: 13 or more binary places
        # fewer, so fewer scaled terms fall into the subnormal range
        result = weighted_igf_derivative(make_scheme(probs, utils, generalized=True), 3.0, 1)
        assert result == value
        assert abs(result - reference) <= rtol * abs(reference)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-300.0, 0.0), _BIG_UTILITY), min_size=1, max_size=8))
    # 1e308 * ln 8, about 2.1e308, is past the float range, and so is the
    # scaled sum scaled back
    @example(entries=[(0.0, 1e308)] * 8)
    def test_an_entropy_is_refused_only_past_the_float_range(self, entries):
        # p log-uniform down to 1e-300 and u up to 1e308: where some u ln p
        # overflows the entropy is still summed, to a few roundings of its
        # mpmath value, and it is refused only where that value is past the
        # float range, give or take those roundings
        probs = [10.0**x / len(entries) for x, _ in entries]
        utils = [u for _, u in entries]
        reference = oracles.weighted_entropy_mp(probs, utils)
        try:
            value = weighted_entropy(make_scheme(probs, utils, generalized=True))
        except DomainError:
            assert reference > sys.float_info.max * (1 - 8 * 2.0**-53)
        else:
            assert abs(value - reference) <= 8 * 2.0**-53 * reference

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.floats(-300.0, 0.0), _BIG_UTILITY), min_size=1, max_size=8),
        st.integers(2, 8),
    )
    @example(entries=[(0.0, 1e308)] * 8, r=8)
    def test_a_moment_is_refused_only_past_the_float_range(self, entries, r):
        # the entropy's property at orders 2 to 8: the r-th root of u up to
        # 1e308, so that each (u ln p) ** r spans the range u ln p spans at
        # r = 1, and a few roundings per order
        probs = [10.0**x / len(entries) for x, _ in entries]
        utils = [u ** (1.0 / r) for _, u in entries]
        reference = oracles.weighted_moment_mp(probs, utils, r)
        budget = (4 * r + 4) * 2.0**-53
        try:
            value = weighted_self_information_moment(make_scheme(probs, utils, generalized=True), r)
        except DomainError:
            assert reference > sys.float_info.max * (1 - budget)
        else:
            assert abs(value - reference) <= budget * reference

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes(), st.sampled_from(["varied", "unit", "constant"]))
    def test_t1_sums_the_powers_p_to_the_one(self, case, kind):
        # no power is taken at t = 1; the sums equal those of p ** 1.0, in
        # the pointwise calls and in curves that start at t = 1
        probs, utils = case
        if kind != "varied":
            utils = [1.0 if kind == "unit" else utils[0]] * len(probs)
        scheme = make_scheme(probs, utils, generalized=True)
        expected = (
            math.fsum(p ** (1.0 - u * (1.0 - 1.0)) for p, u in zip(probs, utils)),
            math.fsum(p**1.0 for p in probs),
            math.fsum(u * p**1.0 for p, u in zip(probs, utils)),
        )
        assert (
            weighted_igf(scheme, 1.0), golomb_igf(scheme.dist, 1.0), hooda_bhaker_igf(scheme, 1.0)
        ) == expected
        for ts in ([1.0], [1.0, 2.0]):
            assert curve_values(scheme, ts, list(Measure))[0] == expected


_MEASURE_SETS = [
    tuple(m for j, m in enumerate(Measure) if mask >> j & 1) for mask in range(1, 8)
]


def _pointwise_curve(scheme, t_min, t_max, steps, measures, extended):
    """The curve as one scalar call per (t, measure): the reference that the
    shared-pass grid evaluation must equal, errors included."""
    evaluate = {
        Measure.WEIGHTED: lambda t: weighted_igf(scheme, t, extended=extended),
        Measure.GOLOMB: lambda t: golomb_igf(scheme.dist, t, extended=extended),
        Measure.HOODA_BHAKER: lambda t: hooda_bhaker_igf(scheme, t, extended=extended),
    }
    step = (t_max - t_min) / (steps - 1)
    rows = []
    for k in range(steps):
        t = t_max if k == steps - 1 else t_min + k * step
        values = tuple(evaluate[m](t) for m in measures)
        # a value that is not finite raises in the kernel
        assert all(map(math.isfinite, values))
        rows.append((t, values))
    return rows


def _grid_curve(scheme, t_min, t_max, steps, measures, extended):
    """The curve as :func:`curve_values` over :func:`curve_grid`, in the
    (t, values) pairs of :func:`_pointwise_curve`."""
    ts = curve_grid(t_min, t_max, steps, extended)
    return list(zip(ts, curve_values(scheme, ts, measures, extended=extended)))


def _outcome(compute):
    try:
        return compute()
    except IGFError as exc:
        return type(exc), str(exc)


class TestPackedLogs:
    """A scheme packs its log weights in an ``array('d')`` of 8 bytes an
    entry."""

    PROBS = [0.5, 0.0, 0.25, 1e-300, 0.25 - 1e-300]
    UTILS = [1.0, 7.0, 2.5, 1e-3, 3.0]

    def test_the_cache_is_packed_and_holds_the_listed_floats(self):
        scheme = make_scheme(self.PROBS, self.UTILS)
        weighted_entropy(scheme)
        # the list the cache held before it was packed: u * ln p per
        # nonzero entry, in entry order
        listed = [u * math.log(p) for p, u in zip(self.PROBS, self.UTILS) if p]
        assert type(scheme._logs) is array and scheme._logs.typecode == "d"
        assert list(map(repr, scheme._logs)) == list(map(repr, listed))


#: Entries of curve schemes: the sparse ones, or terms that stay large
#: enough to move a sum wherever its entries are paired wrongly.
_CURVE_ENTRY = st.one_of(_ENTRY, st.floats(1e-3, 1.0 / 16.0))
#: The fewest grid points that curve_values sums from sorted copies.
K = generating_functions._SORTED_CURVE_POINTS
#: Grids on both sides of K.
_SORTED_STEPS = [K - 1, K, K + 1, 2 * K + 1]


@st.composite
def _curve_cases(draw):
    """Sparse schemes under unit, constant or varied utilities, the seven
    measure subsets in any order, and grids reaching below t = 1 and below
    t = 0."""
    probs, utils = draw(_sparse_schemes(_CURVE_ENTRY))
    kind = draw(st.sampled_from(["varied", "unit", "constant"]))
    if kind == "unit":
        utils = [1.0] * len(probs)
    elif kind == "constant":
        utils = [draw(st.floats(0.1, 8.0))] * len(probs)
    t_min = draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-4.0, 6.0)))
    t_max = t_min + draw(st.one_of(st.just(2.0), st.floats(1e-3, 10.0)))
    return (
        make_scheme(probs, utils, generalized=True),
        t_min,
        t_max,
        draw(st.one_of(st.integers(2, 12), st.sampled_from(_SORTED_STEPS))),
        draw(st.sampled_from(_MEASURE_SETS).flatmap(st.permutations)),
        t_min < 1.0 or draw(st.booleans()),
    )


class TestCurveGrid:
    """A curve shares element-power passes and sums across its measures and
    drops zero probabilities once, yet every value equals the pointwise
    call's and every failure is the pointwise loop's first failure."""

    @settings(max_examples=300, deadline=None)
    @given(_curve_cases())
    # Golomb and Hooda-Bhaker share a pass whose Hooda-Bhaker sum overflows,
    # but the weighted IGF between them raises first in the pointwise loop
    @example(case=(make_scheme([0.5, 0.5], [1.5e308, 1.4e308]), 0.5, 1.0, 2,
                   (Measure.GOLOMB, Measure.WEIGHTED, Measure.HOODA_BHAKER), True))
    def test_equals_pointwise_calls(self, case):
        got = _outcome(lambda: _grid_curve(*case))
        assert got == _outcome(lambda: _pointwise_curve(*case))

    @pytest.mark.parametrize(
        "utils, measure, message",
        [
            ([1e308, 1e308], Measure.HOODA_BHAKER, "term 0 overflows: 1e+308 * 0.5 ** -2.0"),
            ([3e307, 3e307], Measure.HOODA_BHAKER, "the sum of the terms overflows"),
            ([1e3, 1.0], Measure.WEIGHTED, "term 0 overflows"),
        ],
    )
    def test_overflow_matches_pointwise(self, utils, measure, message):
        # at t = -2: u * 0.5 ** -2 is inf, or two finite terms sum past the
        # float range, or the weighted exponent 1 - 1e3 * 3 overflows a power
        case = (make_scheme([0.5, 0.5], utils), -2.0, 2.0, 5, (measure,), True)
        got = _outcome(lambda: _grid_curve(*case))
        assert got == _outcome(lambda: _pointwise_curve(*case))
        assert got[0] is DomainError and got[1].startswith(message)

    @settings(max_examples=200, deadline=None)
    @given(_curve_cases(), st.lists(st.integers(1, 11), max_size=4))
    def test_consecutive_runs_equal_the_whole_grid(self, case, cuts):
        # the command line evaluates a long grid in runs, in two processes
        scheme, t_min, t_max, steps, measures, extended = case
        ts = curve_grid(t_min, t_max, steps, extended)
        edges = [0, *sorted(c for c in cuts if c < steps), steps]

        def in_runs():
            rows = []
            for a, b in zip(edges, edges[1:]):
                rows += curve_values(scheme, ts[a:b], measures, extended=extended)
            return rows

        whole = _outcome(lambda: curve_values(scheme, ts, measures, extended=extended))
        assert _outcome(in_runs) == whole

    def test_grid_endpoints_and_cap(self):
        assert curve_grid(1.0, 3.0, 5) == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert len(curve_grid(1.0, 3.0, MAX_REALIZED_TERMS)) == MAX_REALIZED_TERMS
        with pytest.raises(InvalidParameter, match="^steps must be at most 1000000, got"):
            curve_grid(1.0, 3.0, MAX_REALIZED_TERMS + 1)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((1.0, 3.0, 1), InvalidParameter, "steps must be an integer >= 2, got 1"),
            ((1.0, 3.0, 2.0), InvalidParameter, "steps must be an integer >= 2, got 2.0"),
            ((1.0, 3.0, True), InvalidParameter, "steps must be an integer >= 2, got True"),
            # steps is checked before either end
            ((math.nan, 3.0, 1), InvalidParameter, "steps must be an integer >= 2, got 1"),
            ((math.nan, 3.0, 5), InvalidParameter, "t_min must be a real number, got nan"),
            ((1.0, "3", 5), InvalidParameter, "t_max must be a real number, got '3'"),
            ((-math.inf, math.inf, 5), InvalidParameter, "t_min must be finite, got -inf"),
            ((1.0, math.inf, 5), InvalidParameter, "t_max must be finite, got inf"),
            ((3.0, 2.0, 5), InvalidParameter, "need t_min < t_max, got 3.0 and 2.0"),
            ((2.0, 2.0, 5), InvalidParameter, "need t_min < t_max, got 2.0 and 2.0"),
            ((-1e308, 1e308, 5), InvalidParameter,
             "the span from t_min = -1e+308 to t_max = 1e+308 overflows"),
            # the domain is checked last, on t_min alone
            ((0.5, 0.4, 5), InvalidParameter, "need t_min < t_max, got 0.5 and 0.4"),
            ((0.5, 3.0, 5), DomainError, "t = 0.5 is below the default domain t >= 1"),
        ],
    )
    def test_grid_is_checked_before_it_is_built(self, args, error, message):
        with pytest.raises(error) as info:
            curve_grid(*args)
        assert str(info.value).startswith(message)

    def test_extended_grid_reaches_below_zero(self):
        assert curve_grid(-1.0, 1.0, 3, extended=True) == [-1.0, 0.0, 1.0]
        # the last point is t_max itself, not t_min + (steps - 1) * step
        ts = curve_grid(0.1, 0.7, 7, extended=True)
        assert len(ts) == 7 and ts[0] == 0.1 and ts[-1] == 0.7

    def test_measures_must_be_measures(self):
        # the string "weighted" was summed as an exponent-t measure: the
        # Golomb value 0.5 in place of the weighted 0.375
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match=r"^unknown measure 'weighted'"):
            curve_values(scheme, [2.0], ["weighted"])
        assert curve_values(scheme, [2.0], [Measure.WEIGHTED]) == [(0.375,)]

    def test_no_t_gives_no_rows(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        assert curve_values(scheme, [], [Measure.WEIGHTED]) == []

    @pytest.mark.parametrize("bad_t", ["x", None, float("nan")])
    def test_non_real_t_is_invalid(self, bad_t):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match=r"^t must be a real number"):
            curve_values(scheme, [2.0, bad_t], [Measure.WEIGHTED])

    def test_each_t_is_checked_against_the_default_domain(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(DomainError, match=r"^t = 0\.5 is below the default domain"):
            curve_values(scheme, [2.0, 0.5], [Measure.WEIGHTED])


def _unordered(outcome):
    """A curve outcome with the entry an error names taken out: the first
    bad term in index order moves with the entries."""
    return outcome[0] if isinstance(outcome[0], type) else outcome


@st.composite
def _permuted_curves(draw):
    """A sparse scheme under varied, unit or constant utilities, the same
    scheme with its entries permuted, and a grid on either side of K whose
    t, and weighted exponents, are mostly positive."""
    probs, utils = draw(_sparse_schemes(_CURVE_ENTRY))
    kind = draw(st.sampled_from(["varied", "unit", "constant"]))
    if kind == "unit":
        utils = [1.0] * len(probs)
    elif kind == "constant":
        utils = [draw(st.floats(0.1, 8.0))] * len(probs)
    order = draw(st.permutations(range(len(probs))))
    t_min = draw(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(0.01, 6.0)))
    t_max = t_min + draw(st.one_of(st.just(2.0), st.floats(1e-3, 10.0)))
    return (
        make_scheme(probs, utils, generalized=True),
        make_scheme([probs[i] for i in order], [utils[i] for i in order], generalized=True),
        curve_grid(t_min, t_max, draw(st.sampled_from([2, 3, *_SORTED_STEPS])), True),
        draw(st.sampled_from(_MEASURE_SETS)),
    )


class TestSortedCurveCopies:
    """From K grid points on, curve_values sums each pass from contiguous
    copies of the nonzero entries, largest term first.  fsum rounds the
    exact sum of its terms once, so no value depends on their order."""

    @settings(max_examples=300, deadline=None)
    @given(_permuted_curves())
    def test_a_permuted_scheme_has_the_same_curve(self, case):
        scheme, permuted, ts, measures = case

        def curve(s):
            return _outcome(lambda: repr(curve_values(s, ts, measures, extended=True)))

        assert _unordered(curve(permuted)) == _unordered(curve(scheme))

    @pytest.fixture
    def copies(self, monkeypatch):
        """The copies each curve_values call builds."""
        built, build = [], generating_functions._descending_copies
        monkeypatch.setattr(
            generating_functions, "_descending_copies",
            lambda *args: built.append(build(*args)) or built[-1],
        )
        return built

    # the zero entry's utility of 2 is the largest: it bounds the weighted
    # exponents below t = 1, dropped or not
    SCHEME = make_scheme([0.1, 0.0, 0.4, 0.2, 0.3], [1.0, 2.0, 0.5, 1.5, 1.2])

    # the entries are not in descending p, so every call that may sort does
    @pytest.mark.parametrize("t_min, steps, built", [
        (1.0, 1, False),
        (1.0, 2, False),
        (1.0, K - 1, False),
        (1.0, K, True),
        (1.0, 2 * K + 1, True),
        (0.6, K, True),  # the smallest exponent is 1 - 2 * 0.4 = 0.2
        (0.5, K, False),  # 1 - 2 * 0.5 = 0: the zero entry has no term
        (0.0, K, False),
        (-1.0, 2 * K + 1, False),
    ])
    @pytest.mark.parametrize("measures", [(Measure.WEIGHTED,), tuple(Measure)])
    def test_built_iff_enough_points_with_positive_exponents(
        self, copies, t_min, steps, built, measures
    ):
        ts = [t_min + 0.1 * k for k in range(steps)]
        _outcome(lambda: curve_values(self.SCHEME, ts, measures, extended=True))
        assert len(copies) == built

    @pytest.mark.parametrize("probs", [[0.4, 0.3, 0.2, 0.1, 0.0], [0.4, 0.3, 0.0, 0.3]])
    def test_entries_in_descending_p_are_summed_as_they_are(self, copies, probs):
        # as those of the realized families are; ties are in order too
        scheme = make_scheme(probs, [1.0, 2.0, 0.5, 1.5, 1.2][:len(probs)])
        ts = [1.0 + 0.1 * k for k in range(K)]
        rows = curve_values(scheme, ts, tuple(Measure))
        assert copies == [None]
        assert rows == [tuple(_one_point(m, scheme, t) for m in Measure) for t in ts]

    @pytest.mark.parametrize("utils", [[1.0, 2.0, 0.5, 1.5, 1.2], [2.0] * 5])
    def test_the_copies_are_descending_arrays(self, copies, utils):
        scheme = make_scheme([0.1, 0.0, 0.4, 0.2, 0.3], utils)
        ts = [1.0 + 0.1 * k for k in range(K)]
        rows = curve_values(scheme, ts, tuple(Measure))
        [(probs, weights, (w_probs, w_utils))] = copies
        assert isinstance(probs, array) and probs.typecode == "d"
        assert list(probs) == [0.4, 0.3, 0.2, 0.1]
        if utils[0] == utils[1]:
            # a constant utility is the same in any order
            assert list(weights) == [2.0] * 4 and w_probs is probs
        else:
            assert list(weights) == [0.5, 1.2, 1.5, 1.0]
            assert isinstance(w_utils, array) and w_utils.typecode == "d"
            # in the order of p ** (1 - u * (1 - t)) at the middle t, 1.8
            terms = [p ** (1.0 - u * (1.0 - ts[K // 2])) for p, u in zip(w_probs, w_utils)]
            assert terms == sorted(terms, reverse=True)
            assert sorted(zip(w_probs, w_utils)) == sorted(zip(probs, weights))
        assert rows == [tuple(_one_point(m, scheme, t) for m in Measure) for t in ts]


def _one_point(measure, scheme, t, extended=False):
    """``igf eval``'s value: the one-point curve of one measure."""
    [(value,)] = curve_values(scheme, (t,), (measure,), extended=extended)
    return value


class TestOnePointCurve:
    """One measure at one t, as ``igf eval`` prints it."""

    POINTWISE = {
        Measure.WEIGHTED: lambda scheme, t, ext: weighted_igf(scheme, t, extended=ext),
        Measure.GOLOMB: lambda scheme, t, ext: golomb_igf(scheme.dist, t, extended=ext),
        Measure.HOODA_BHAKER: lambda scheme, t, ext: hooda_bhaker_igf(scheme, t, extended=ext),
    }

    @pytest.mark.parametrize("measure", list(Measure))
    @pytest.mark.parametrize("t, extended", [(1.0, False), (2.5, False), (0.75, True)])
    def test_equals_the_pointwise_call(self, measure, t, extended):
        scheme = make_scheme([0.5, 0.3, 0.2], [1.0, 2.0, 0.5])
        got = _one_point(measure, scheme, t, extended=extended)
        assert got == self.POINTWISE[measure](scheme, t, extended)

    @pytest.mark.parametrize("measure", list(Measure))
    @pytest.mark.parametrize("utils", ["varied", "constant"])
    def test_a_large_scheme_is_summed_in_place(self, measure, utils):
        # one point drops no zero probability: the value is bit-equal to the
        # pointwise call's, and no copy of the 2e5-entry vectors (1.6 MB
        # each) is made
        rng = np.random.default_rng(7)
        n = 200_000
        probs = rng.random(n)
        probs[rng.choice(n, n // 100, replace=False)] = 0.0
        probs /= probs.sum()
        u = rng.uniform(0.5, 3.0, n) if utils == "varied" else np.full(n, 2.0)
        scheme = make_scheme(probs.tolist(), u.tolist(), generalized=True)
        expected = self.POINTWISE[measure](scheme, 2.0, False)
        tracemalloc.start()
        try:
            got = _one_point(measure, scheme, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert repr(got) == repr(expected)
        assert peak < 1_000_000

    @pytest.mark.parametrize("measure", list(Measure))
    def test_below_the_default_domain(self, measure):
        with pytest.raises(DomainError, match=r"^t = 0\.5 is below the default domain"):
            _one_point(measure, make_scheme([0.5, 0.5], [1.0, 2.0]), 0.5)

    def test_a_non_finite_value_is_a_domain_error(self):
        # u * 0.5 ** -2 overflows to inf in the weight product
        scheme = make_scheme([0.5, 0.5], [1e308, 1e308])
        with pytest.raises(DomainError) as info:
            _one_point(Measure.HOODA_BHAKER, scheme, -2.0, extended=True)
        assert str(info.value) == "term 0 overflows: 1e+308 * 0.5 ** -2.0"

    def test_measure_must_be_a_measure(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match=r"^unknown measure 'weighted'"):
            _one_point("weighted", scheme, 2.0)


class TestMomentValidation:
    @pytest.mark.parametrize("bad_r", [-1, 1.5, True])
    def test_moment_order_must_be_non_negative_integer(self, bad_r):
        scheme = make_scheme([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(InvalidParameter):
            self_information_moment(scheme.dist, bad_r)
        with pytest.raises(InvalidParameter):
            weighted_self_information_moment(scheme, bad_r)
        # raised by the call itself, so before the lazy sums take any pass
        with pytest.raises(InvalidParameter):
            weighted_self_information_moments(scheme, [0, 1, bad_r])

    @pytest.mark.parametrize("bad_r", [0, -1, 1.5, True])
    def test_derivative_order_must_be_positive(self, bad_r):
        scheme = make_scheme([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(InvalidParameter):
            weighted_igf_derivative(scheme, 2.0, bad_r)

    def test_moment_zero_returns_mass_for_generalized(self):
        scheme = make_scheme([0.25, 0.25], [1.0, 2.0], generalized=True)
        assert weighted_self_information_moment(scheme, 0) == 0.5


def test_large_vector_accuracy_survives_a_million_terms():
    # equal mass over 1e6 outcomes: IGF at t=2 is exactly n * (1/n)**2
    n = 1_000_000
    dist = make_generalized([1.0 / n] * n)
    scheme = make_scheme(dist.probs, [1.0] * n, generalized=True)
    assert weighted_igf(scheme, 2.0) == pytest.approx(1.0 / n, rel=1e-12)
    assert abs(weighted_igf(scheme, 1.0) - dist.total) <= 1e-12
