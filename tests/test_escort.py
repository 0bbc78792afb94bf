"""Escort (power) transforms and the constant-utility scaling identity."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from igf import (
    AllZeroProbabilities,
    DomainError,
    EscortPair,
    IGFError,
    InvalidParameter,
    Kind,
    ProbabilityDistribution,
    ValidationError,
    constant_utility_scheme,
    escort_transform,
    generalized_igf,
    golomb_igf,
    make_complete,
    make_generalized,
    make_scheme,
    scheme_from_dict,
    unnormalized_power_igf,
    verify_scaling_identity,
    weighted_igf,
)
from igf import escort as escort_module
from igf.distributions import UtilityDistribution, UtilityInformationScheme


def floored_simplex(rng: np.random.Generator, n: int) -> list[float]:
    # keep entries above the 1e-6 floor the identity population assumes
    raw = rng.dirichlet(np.ones(n))
    floored = (raw + 1e-6) / (1.0 + n * 1e-6)
    return floored.tolist()


class TestEscortTransform:
    def test_uniform_is_a_fixed_point(self):
        pair = escort_transform(make_complete([0.5, 0.5]), 2.0)
        assert pair.normalized.probs == (0.5, 0.5)
        assert pair.mass == 0.5
        assert pair.beta == 2.0

    def test_hand_computed_two_point_case(self):
        pair = escort_transform(make_complete([0.8, 0.2]), 2.0)
        assert pair.mass == pytest.approx(0.68, rel=1e-14)
        assert pair.normalized.probs[0] == pytest.approx(16.0 / 17.0, rel=1e-14)
        assert pair.normalized.probs[1] == pytest.approx(1.0 / 17.0, rel=1e-14)

    def test_power_one_is_the_identity(self):
        pair = escort_transform(make_complete([0.8, 0.2]), 1.0)
        assert pair.mass == pytest.approx(1.0, abs=1e-15)
        for out, src in zip(pair.normalized.probs, (0.8, 0.2)):
            assert abs(out - src) <= 1e-15

    def test_power_one_identity_over_random_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            probs = oracles.random_simplex(rng, int(rng.integers(2, 17)))
            pair = escort_transform(make_complete(probs), 1.0)
            for out, src in zip(pair.normalized.probs, probs):
                assert abs(out - src) <= 1e-15

    def test_output_is_complete_even_for_generalized_input(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            probs = oracles.random_simplex(rng, int(rng.integers(2, 17)))
            scale = rng.uniform(0.1, 1.0)
            dist = make_generalized([scale * p for p in probs])
            pair = escort_transform(dist, rng.uniform(0.2, 5.0))
            assert abs(math.fsum(pair.normalized.probs) - 1.0) <= 1e-12
            assert pair.normalized.kind is Kind.COMPLETE

    def test_mass_matches_direct_powered_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            probs = oracles.random_simplex(rng, 8)
            beta = rng.uniform(0.2, 5.0)
            pair = escort_transform(make_complete(probs), beta)
            assert pair.mass == pytest.approx(sum(p**beta for p in probs), rel=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.7])
    def test_mass_is_the_correctly_rounded_powered_sum(self, beta):
        # the mass goes through the power-sum kernel: one math.fsum of the
        # float powers, so it is bit-equal to that sum, zeros included
        probs = [*oracles.random_simplex(np.random.default_rng(29), 64), 0.0]
        pair = escort_transform(make_generalized(probs), beta)
        assert pair.mass == math.fsum(p**beta for p in probs)

    def test_zeros_stay_at_zero(self):
        pair = escort_transform(make_generalized([0.5, 0.0, 0.25]), 2.0)
        assert pair.normalized.probs[1] == 0.0
        assert pair.mass == pytest.approx(0.3125, rel=1e-15)

    def test_all_zero_vector_rejected(self):
        with pytest.raises(AllZeroProbabilities):
            escort_transform(make_generalized([0.0, 0.0, 0.0]), 2.0)

    def test_underflow_to_zero_rejected(self):
        with pytest.raises(AllZeroProbabilities):
            escort_transform(make_generalized([1e-300, 1e-300]), 2.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_bad_power_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            escort_transform(make_complete([0.5, 0.5]), bad)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10),
        st.floats(0.3, 3.0),
        st.floats(0.3, 3.0),
    )
    def test_composition_multiplies_the_powers(self, raw, a, b):
        total = math.fsum(raw)
        dist = make_complete([x / total for x in raw])
        twice = escort_transform(escort_transform(dist, a).normalized, b)
        once = escort_transform(dist, a * b)
        for x, y in zip(twice.normalized.probs, once.normalized.probs):
            assert abs(x - y) <= 1e-12


class TestEscortPair:
    def test_rejects_non_positive_mass(self):
        dist = make_complete([0.5, 0.5])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                EscortPair(normalized=dist, mass=bad, beta=2.0)

    def test_rejects_loosely_normalized_distribution(self):
        # passes the general 1e-9 completeness gate, fails the escort's 1e-12
        loose = ProbabilityDistribution((0.5, 0.5 - 1e-10), Kind.COMPLETE)
        with pytest.raises(ValidationError):
            EscortPair(normalized=loose, mass=1.0, beta=2.0)


class TestGeneralizedIGF:
    def test_power_one_reduces_to_plain_measures(self):
        dist = make_complete([0.8, 0.2])
        util = UtilityDistribution((1.0, 1.0))
        value = generalized_igf(dist, util, 1.0, 2.0)
        assert value == pytest.approx(golomb_igf(dist, 2.0), abs=1e-15)
        assert value == pytest.approx(0.68, rel=1e-14)

    def test_hand_computed_power_two_case(self):
        dist = make_complete([0.8, 0.2])
        util = UtilityDistribution((1.0, 1.0))
        assert generalized_igf(dist, util, 2.0, 2.0) == pytest.approx(
            257.0 / 289.0, rel=1e-14
        )

    def test_is_one_at_t_equal_one(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            probs = oracles.random_simplex(rng, 6)
            util = UtilityDistribution(tuple(rng.uniform(0.1, 10.0, 6)))
            value = generalized_igf(make_complete(probs), util, 2.0, 1.0)
            assert abs(value - 1.0) <= 1e-13

    def test_power_one_matches_weighted_igf_exactly_enough(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            probs, utils = oracles.random_scheme(rng, n_hi=16)
            scheme = make_scheme(probs, utils)
            util = UtilityDistribution(tuple(utils))
            for t in (1.0, 1.5, 2.0, 3.0):
                lhs = generalized_igf(scheme.dist, util, 1.0, t)
                assert abs(lhs - weighted_igf(scheme, t)) <= 1e-13

    def test_respects_t_domain(self):
        dist = make_complete([0.8, 0.2])
        util = UtilityDistribution((1.0, 1.0))
        with pytest.raises(DomainError):
            generalized_igf(dist, util, 2.0, 0.5)
        assert generalized_igf(dist, util, 2.0, 0.5, extended=True) > 1.0


class TestUnnormalizedPowerIGF:
    def test_hand_computed_values(self):
        dist = make_complete([0.8, 0.2])
        assert unnormalized_power_igf(dist, 1.0, 2.0, 2.0) == pytest.approx(
            0.4112, rel=1e-14
        )
        assert unnormalized_power_igf(dist, 1.0, 1.0, 2.0) == pytest.approx(
            0.68, rel=1e-14
        )
        assert unnormalized_power_igf(make_complete([1.0]), 3.0, 5.0, 2.0) == 1.0

    def test_zero_entries_contribute_nothing(self):
        dist = make_generalized([0.8, 0.0, 0.2])
        assert unnormalized_power_igf(dist, 1.0, 2.0, 2.0) == pytest.approx(
            0.4112, rel=1e-14
        )

    def test_respects_t_domain(self):
        dist = make_complete([0.8, 0.2])
        with pytest.raises(DomainError):
            unnormalized_power_igf(dist, 1.0, 2.0, 0.5)
        expected = 0.8 + 0.2  # beta*s = 1 at u=1, t=0.5, beta=2
        assert unnormalized_power_igf(dist, 1.0, 2.0, 0.5, extended=True) == (
            pytest.approx(expected, rel=1e-15)
        )

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf"), True])
    def test_bad_constant_utility_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            unnormalized_power_igf(make_complete([0.5, 0.5]), bad, 2.0, 2.0)


class TestScalingIdentity:
    def test_hand_computed_case(self):
        report = verify_scaling_identity(make_complete([0.8, 0.2]), 1.0, 2.0, 2.0)
        assert report.lhs == pytest.approx(0.4112, rel=1e-14)
        assert report.rhs == pytest.approx((257.0 / 289.0) * 0.68**2, rel=1e-12)
        assert report.abs_diff == abs(report.lhs - report.rhs)
        assert report.passed

    def test_t_equal_one_collapses_to_the_mass(self):
        report = verify_scaling_identity(make_complete([0.5, 0.5]), 3.0, 5.0, 1.0)
        assert report.lhs == 0.0625
        assert report.rhs == pytest.approx(0.0625, rel=1e-14)
        assert report.passed

    def test_holds_over_random_population(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(2, 17))
            probs = floored_simplex(rng, n)
            if rng.random() < 0.5:
                scale = rng.uniform(0.3, 0.95)
                dist = make_generalized([scale * p for p in probs])
            else:
                dist = make_complete(probs)
            report = verify_scaling_identity(
                dist,
                rng.uniform(0.3, 4.0),
                rng.uniform(0.3, 5.0),
                rng.uniform(1.0, 3.0),
            )
            assert report.passed
            assert report.abs_diff <= 1e-10 * max(1.0, abs(report.lhs))

    def test_a_side_far_below_one_is_compared_relatively(self):
        # rhs underflows to 0 while lhs is 6.7e-117; against max(1, |lhs|)
        # their difference passed as below 1e-10
        report = verify_scaling_identity(make_complete([0.3, 0.7]), 1.0, 0.5, 1500.0)
        assert report.lhs == pytest.approx(6.66085547667e-117, rel=1e-11)
        assert (report.rhs, report.passed) == (0.0, False)

    @pytest.mark.parametrize("t, lhs, rhs", [
        (1000.0, "1.57065220561795e-310", "1.5706522056179e-310"),
        (1500.0, "0.0", "0.0"),
        (2000.0, "0.0", "0.0"),
        (math.inf, "0.0", "0.0"),
    ])
    def test_two_sides_below_the_normal_range_are_a_domain_error(self, t, lhs, rhs):
        # 0 and 0 passed, as did two subnormals: an agreement that shows
        # nothing about the identity
        with pytest.raises(DomainError) as info:
            verify_scaling_identity(make_complete([0.3, 0.7]), 1.0, 2.0, t)
        assert str(info.value) == (
            f"both sides of the scaling identity are below the normal range, "
            f"lhs {lhs} and rhs {rhs}: their agreement shows nothing"
        )

    def test_the_last_normal_sides_still_pass(self):
        report = verify_scaling_identity(make_complete([0.3, 0.7]), 1.0, 2.0, 990.0)
        assert report.lhs > sys.float_info.min and report.passed

    @pytest.mark.parametrize(
        "beta, t, message",
        [
            # 1.384 ** inf is inf without an OverflowError: rhs was 0 * inf
            (0.5, math.inf, "escort mass 1.3843825840392416 ** inf overflows"),
            # every p ** -inf is inf: lhs was inf, rhs inf or nan
            (0.5, -math.inf, "term 0 overflows: probability 0.3, exponent -inf"),
            (2.0, -math.inf, "term 0 overflows: probability 0.3, exponent -inf"),
        ],
    )
    def test_an_infinite_t_without_finite_sides_is_a_domain_error(self, beta, t, message):
        with pytest.raises(DomainError) as info:
            verify_scaling_identity(make_complete([0.3, 0.7]), 1.0, beta, t, extended=True)
        assert str(info.value) == message

    def test_breaks_for_non_constant_utilities_by_construction(self):
        # the identity is only stated for a shared u; the report type takes a
        # scalar, so there is nothing to verify for per-outcome utilities
        with pytest.raises(InvalidParameter):
            verify_scaling_identity(make_complete([0.5, 0.5]), (1.0, 2.0), 2.0, 2.0)


@pytest.mark.parametrize(
    "name", ["nonuniform_constant", "nonuniform_mixed", "uniform_constant", "uniform_increasing"]
)
@pytest.mark.parametrize("u, beta, t", [(1.0, 2.0, 2.0), (0.5, 0.7, 3.0), (2.0, 3.0, 0.75)])
def test_a_held_escort_gives_the_same_report(name, u, beta, t):
    path = Path(__file__).parent / "fixtures" / f"{name}.json"
    dist = scheme_from_dict(json.loads(path.read_text())).dist
    pair = escort_transform(dist, beta)
    escort_igf = weighted_igf(constant_utility_scheme(pair.normalized, u), t, extended=True)
    held = verify_scaling_identity(dist, u, beta, t, extended=True, escort=(pair, escort_igf))
    assert held == verify_scaling_identity(dist, u, beta, t, extended=True)
    assert held.passed


def _outcome(compute):
    try:
        return compute()
    except IGFError as exc:
        return type(exc), str(exc)


def _held_report(dist, u, beta, t):
    """The report of the escort built and summed, with the lhs first, as
    every error of the identity is raised in that order."""
    unnormalized_power_igf(dist, u, beta, t, extended=True)
    pair = escort_transform(dist, beta)
    escort_igf = weighted_igf(constant_utility_scheme(pair.normalized, u), t, extended=True)
    return verify_scaling_identity(dist, u, beta, t, extended=True, escort=(pair, escort_igf))


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(st.just(0.0), _log_uniform(-320.0, 0.0)), max_size=63),
    _log_uniform(-320.0, 0.0),
    _log_uniform(-300.0, 300.0),
    _log_uniform(-3.0, 4.0),
    st.one_of(st.sampled_from([math.inf, -math.inf, 1.0, 1500.0]), st.floats(allow_nan=False)),
)
def test_the_streamed_escort_gives_the_report_of_the_built_one(probs, last, u, beta, t):
    # zeros, p down to 1e-320 and extended t: the escort summed as a stream
    # gives the report, or the error type and message, of the escort built
    # as a distribution and summed under a scheme of constant utility
    probs = [p / 64 for p in [*probs, last]]
    dist = make_generalized(probs)
    streamed = _outcome(lambda: verify_scaling_identity(dist, u, beta, t, extended=True))
    assert streamed == _outcome(lambda: _held_report(dist, u, beta, t))


def test_a_verify_without_escort_builds_nothing(monkeypatch):
    # no value type, no escort tuple and no weighted IGF of a scheme: the
    # escort is summed from the stream its transform builds its tuple from
    dist = make_generalized([0.5, 0.0, 0.25, 1e-300])
    held = _held_report(dist, 1.5, 2.0, 3.0)
    calls = dict.fromkeys(
        ["ProbabilityDistribution", "UtilityDistribution", "UtilityInformationScheme",
         "EscortPair", "escort_transform", "weighted_igf"], 0
    )
    for cls in (ProbabilityDistribution, UtilityDistribution, UtilityInformationScheme, EscortPair):
        def counted_init(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
    for name in ("escort_transform", "weighted_igf"):
        def counted(*args, _real=getattr(escort_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(escort_module, name, counted)
    assert verify_scaling_identity(dist, 1.5, 2.0, 3.0, extended=True) == held
    assert calls == dict.fromkeys(calls, 0)
    for beta in (0.5, 2.0, 3.7):
        entries = escort_module._EscortEntries(dist.probs, beta)
        assert tuple(entries) == escort_module.escort_transform(dist, beta).normalized.probs
