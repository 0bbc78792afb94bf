"""Generating functions, derivatives, entropies, moments, and their links.

Expected values were frozen from the direct-summation oracles in
``oracles.py``; tolerance-bearing identities run over seeded random scheme
populations so failures reproduce.
"""

from __future__ import annotations

import math

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
    curve_values,
    evaluate_measure,
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
from igf.cli import CurveRequest, Measure, evaluate_curve
from igf.generating_functions import _WeightedExponents, _moments, curve_grid

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
        rng = np.random.default_rng(11)
        for _ in range(100):
            probs, utils = oracles.random_scheme(rng)
            scheme = make_scheme(probs, utils)
            lhs = (-1.0) ** r * weighted_igf_derivative(scheme, 1.0, r)
            rhs = weighted_self_information_moment(scheme, r)
            assert abs(lhs - rhs) <= 1e-10

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
        assert golomb_igf(half_half.dist, float("-inf"), extended=True) == float("inf")


def _defined_fsum(probs, exps, term):
    """math.fsum of term(i) over the positive entries, or None where the sum
    is undefined: a zero probability under an exponent <= 0, or a term or
    total too large for a float."""
    if any(p == 0.0 and e <= 0.0 for p, e in zip(probs, exps)):
        return None
    try:
        return math.fsum(term(i) for i, p in enumerate(probs) if p > 0.0)
    except OverflowError:
        return None


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
def _sparse_schemes(draw):
    """Generalized schemes with zeros and subnormal entries; the last entry
    keeps the total mass positive."""
    probs = draw(st.lists(_ENTRY, min_size=0, max_size=12))
    probs.append(draw(st.floats(0.01, 1.0 / 16.0)))
    utils = [draw(st.floats(0.1, 8.0)) for _ in probs]
    return probs, utils


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
    """Every measure built on the shared power-sum kernel equals, exactly,
    the fsum of its defining per-term expression, and raises DomainError
    where that expression is undefined."""

    @settings(max_examples=150, deadline=None)
    @given(_sparse_schemes(), st.floats(-4.0, 8.0), st.integers(1, 3))
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
    # a point mass sums odd orders to zero, which must stay +0.0
    @example(case=([0.0, 1.0], [2.0, 3.0]), scale=None, orders=[0, 1, 2, 3])
    @example(case=([1.0], [3.0]), scale=1.0, orders=[5, 1])
    def test_moments_share_one_log_pass(self, case, scale, orders):
        # every order of the one-pass moments equals (repr: sign of zero
        # included) the fsum of its defining per-term expression; an order
        # whose (u ln p) ** r overflows raises the error naming the first
        # term that overflows and ends the iteration there
        probs, utils = case
        weights = None if scale is None else [u * scale for u in utils]

        def per_order(r):
            if r == 0:
                return math.fsum(probs)
            terms = []
            for i, (p, w) in enumerate(zip(probs, weights or [1.0] * len(probs))):
                if p:
                    try:
                        terms.append((w * math.log(p)) ** r * p)
                    except OverflowError:
                        raise DomainError(
                            f"term {i} overflows: probability {p!r}, exponent 1.0"
                        ) from None
            try:
                s = math.fsum(terms)
            except OverflowError:
                raise DomainError("the sum of the terms overflows") from None
            return 0.0 - s if r % 2 else s

        def collect(values):
            got = []
            try:
                for v in values:
                    got.append(repr(v))
            except DomainError as exc:
                got.append(str(exc))
            return got

        assert collect(_moments(probs, weights, orders)) == collect(map(per_order, orders))

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
        for v in values:
            if not math.isfinite(v):
                raise DomainError(f"non-finite curve value at t = {t}")
        rows.append((t, values))
    return rows


def _outcome(compute):
    try:
        return compute()
    except IGFError as exc:
        return type(exc), str(exc)


@st.composite
def _curve_cases(draw):
    """Sparse schemes under unit, constant or varied utilities, the seven
    measure subsets, and grids reaching below t = 1 and below t = 0."""
    probs, utils = draw(_sparse_schemes())
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
        draw(st.integers(2, 12)),
        draw(st.sampled_from(_MEASURE_SETS)),
        t_min < 1.0 or draw(st.booleans()),
    )


class TestCurveGrid:
    """A curve shares element-power passes and sums across its measures and
    drops zero probabilities once, yet every value equals the pointwise
    call's and every failure is the pointwise loop's first failure."""

    @settings(max_examples=300, deadline=None)
    @given(_curve_cases())
    def test_equals_pointwise_calls(self, case):
        scheme, t_min, t_max, steps, measures, extended = case
        request = CurveRequest(scheme, t_min, t_max, steps, measures, extended)
        got = _outcome(lambda: evaluate_curve(request))
        assert got == _outcome(lambda: _pointwise_curve(*case))

    @pytest.mark.parametrize(
        "utils, measure, message",
        [
            ([1e308, 1e308], Measure.HOODA_BHAKER, "non-finite curve value at t = -2.0"),
            ([3e307, 3e307], Measure.HOODA_BHAKER, "the sum of the terms overflows"),
            ([1e3, 1.0], Measure.WEIGHTED, "term 0 overflows"),
        ],
    )
    def test_overflow_matches_pointwise(self, utils, measure, message):
        # at t = -2: u * 0.5 ** -2 is inf, or two finite terms sum past the
        # float range, or the weighted exponent 1 - 1e3 * 3 overflows a power
        case = (make_scheme([0.5, 0.5], utils), -2.0, 2.0, 5, (measure,), True)
        request = CurveRequest(*case)
        got = _outcome(lambda: evaluate_curve(request))
        assert got == _outcome(lambda: _pointwise_curve(*case))
        assert got[0] is DomainError and got[1].startswith(message)

    @settings(max_examples=200, deadline=None)
    @given(_curve_cases(), st.lists(st.integers(1, 11), max_size=4))
    def test_consecutive_runs_equal_the_whole_grid(self, case, cuts):
        # the command line evaluates a long grid in runs, in two processes
        scheme, t_min, t_max, steps, measures, extended = case
        ts = curve_grid(CurveRequest(scheme, t_min, t_max, steps, measures, extended))
        edges = [0, *sorted(c for c in cuts if c < steps), steps]

        def in_runs():
            rows = []
            for a, b in zip(edges, edges[1:]):
                rows += curve_values(scheme, ts[a:b], measures, extended=extended)
            return rows

        whole = _outcome(lambda: curve_values(scheme, ts, measures, extended=extended))
        assert _outcome(in_runs) == whole

    def test_grid_endpoints_and_cap(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        assert curve_grid(CurveRequest(scheme, 1.0, 3.0, 5)) == [1.0, 1.5, 2.0, 2.5, 3.0]
        assert len(curve_grid(CurveRequest(scheme, 1.0, 3.0, MAX_REALIZED_TERMS))) == (
            MAX_REALIZED_TERMS
        )
        with pytest.raises(InvalidParameter, match="^steps must be at most 1000000, got"):
            CurveRequest(scheme, 1.0, 3.0, MAX_REALIZED_TERMS + 1)

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


class TestEvaluateMeasure:
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
        got = evaluate_measure(measure, scheme, t, extended=extended)
        assert got == self.POINTWISE[measure](scheme, t, extended)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_below_the_default_domain(self, measure):
        with pytest.raises(DomainError, match=r"^t = 0\.5 is below the default domain"):
            evaluate_measure(measure, make_scheme([0.5, 0.5], [1.0, 2.0]), 0.5)

    def test_a_non_finite_value_is_a_domain_error(self):
        # u * 0.5 ** -2 overflows to inf in the weight product
        scheme = make_scheme([0.5, 0.5], [1e308, 1e308])
        with pytest.raises(DomainError) as info:
            evaluate_measure(Measure.HOODA_BHAKER, scheme, -2.0, extended=True)
        assert str(info.value) == "non-finite hooda_bhaker value at t = -2.0"

    def test_measure_must_be_a_measure(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(InvalidParameter, match=r"^unknown measure 'weighted'"):
            evaluate_measure("weighted", scheme, 2.0)


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
