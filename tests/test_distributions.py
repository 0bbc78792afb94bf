"""Construction, validation, and serialization of schemes and families."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from igf import distributions
from igf import (
    AllZeroProbabilities,
    COMPLETENESS_TOL,
    EmptyInput,
    InvalidParameter,
    Kind,
    LengthMismatch,
    NegativeProbability,
    NonPositiveUtility,
    ParametricFamily,
    ProbabilityAboveOne,
    ProbabilityDistribution,
    SumExceedsOne,
    SumNotOne,
    TruncationRequired,
    UtilityDistribution,
    UtilityInformationScheme,
    ValidationError,
    constant_utility_scheme,
    make_complete,
    make_generalized,
    make_scheme,
    realize_family,
    scheme_from_dict,
    scheme_to_dict,
    zeta,
)
from igf.distributions import MAX_REALIZED_TERMS, nonzero_terms


class TestProbabilityDistribution:
    def test_complete_accepts_exact_simplex(self):
        dist = make_complete([0.5, 0.25, 0.25])
        assert dist.kind is Kind.COMPLETE
        assert dist.total == 1.0

    def test_zero_entries_are_allowed(self):
        dist = make_complete([0.0, 1.0])
        assert dist.probs == (0.0, 1.0)

    def test_empty_vector_rejected(self):
        with pytest.raises(EmptyInput):
            make_complete([])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeProbability):
            make_complete([-0.1, 1.1])

    def test_entry_above_one_rejected(self):
        with pytest.raises(ProbabilityAboveOne):
            make_generalized([1.2])

    def test_complete_sum_enforced_and_reported(self):
        with pytest.raises(SumNotOne) as excinfo:
            make_complete([0.5, 0.4])
        assert "0.9" in str(excinfo.value)

    def test_complete_sum_tolerance_is_loose_enough(self):
        # just inside the documented 1e-9 band
        make_complete([0.5, 0.5 + 9e-10])

    def test_generalized_may_sum_below_one(self):
        dist = make_generalized([0.25, 0.25])
        assert dist.kind is Kind.GENERALIZED

    def test_generalized_sum_above_one_rejected(self):
        with pytest.raises(SumExceedsOne):
            make_generalized([0.7, 0.7])

    def test_generalized_all_zero_rejected(self):
        with pytest.raises(AllZeroProbabilities):
            make_generalized([0.0, 0.0])

    def test_nan_entries_cannot_slip_through(self):
        with pytest.raises(ValidationError):
            make_complete([float("nan"), 0.5])

    @pytest.mark.parametrize("make", [make_complete, make_generalized])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_entry_is_one_error_wherever_it_sits(self, make, bad, position):
        probs = [0.25, 0.5, 0.25]
        probs[position] = bad
        with pytest.raises(ValidationError, match=f"entry {position} .* not a finite") as excinfo:
            make(probs)
        assert excinfo.type is ValidationError

    def test_opposite_infinities_do_not_escape_as_plain_value_error(self):
        # math.fsum([inf, -inf]) raises a bare ValueError
        with pytest.raises(ValidationError, match="not a finite") as excinfo:
            make_generalized([float("inf"), -float("inf")])
        assert excinfo.type is ValidationError

    def test_overflowing_sum_still_reports_the_range(self):
        with pytest.raises(ProbabilityAboveOne):
            make_generalized([1e308, 1e308])
        with pytest.raises(NegativeProbability):
            make_generalized([-1e308, -1e308])

    def test_non_numeric_entries_rejected(self):
        with pytest.raises(ValidationError):
            make_complete(["0.5", "0.5"])

    def test_revalidation_is_idempotent(self):
        dist = make_complete([0.3, 0.3, 0.4])
        again = ProbabilityDistribution(dist.probs, dist.kind)
        assert again == dist

    def test_total_is_the_validated_sum_outside_eq_hash_and_repr(self):
        probs = [0.1] * 10
        dist = make_complete(probs)
        assert dist.total == math.fsum(probs) == 1.0
        twin = make_complete(probs)
        object.__setattr__(twin, "total", 0.5)
        assert twin == dist and hash(twin) == hash(dist)
        assert repr(dist) == (
            f"ProbabilityDistribution(probs={dist.probs!r}, kind={Kind.COMPLETE!r})"
        )

    def test_immutable_after_construction(self):
        dist = make_complete([0.5, 0.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.probs = (1.0,)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=32))
    def test_normalized_vectors_always_construct(self, raw):
        total = math.fsum(raw)
        make_complete([x / total for x in raw])


class TestUtilityDistribution:
    def test_positive_utilities_accepted(self):
        util = UtilityDistribution((0.1, 10.0))
        assert len(util) == 2

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_rejected(self, bad):
        with pytest.raises(NonPositiveUtility):
            UtilityDistribution((1.0, bad))

    @pytest.mark.parametrize(
        "utils, first_bad",
        [
            ((-1.0, 1.0, 2.0), "-1.0"),
            ((1.0, 2.0, 0.0), "0.0"),
            ((float("nan"), 1.0, -2.0), "nan"),
            ((1.0, float("nan"), -2.0), "nan"),
            ((1.0, float("inf")), "inf"),
            ((float("-inf"), 1.0), "-inf"),
            ((1.0, 1e308, float("inf"), -1.0), "inf"),
        ],
    )
    def test_message_names_the_first_bad_entry(self, utils, first_bad):
        with pytest.raises(NonPositiveUtility) as info:
            UtilityDistribution(utils)
        assert str(info.value) == (
            f"utilities must be positive finite numbers, got {first_bad}"
        )

    def test_valid_entries_whose_sum_overflows_are_accepted(self):
        assert UtilityDistribution((1e308, 1e308)).utils == (1e308, 1e308)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            UtilityDistribution(())


class TestScheme:
    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            make_scheme([0.5, 0.5], [1.0])

    def test_length_mismatch_comes_before_the_entry_checks(self):
        with pytest.raises(LengthMismatch):
            make_scheme(["0.5", "0.5"], [1.0])
        with pytest.raises(LengthMismatch):
            make_scheme([0.5, 0.5], ["1"])

    def test_labels_carried_and_checked(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0], labels=["a", "b"])
        assert scheme.labels == ("a", "b")
        with pytest.raises(LengthMismatch):
            make_scheme([0.5, 0.5], [1.0, 2.0], labels=["a"])

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("position", [0, 1])
    def test_integer_too_large_for_a_float_names_the_entry(self, sign, position):
        # 2**1024 - 2**970 is the first integer that rounds past the largest
        # float; the one below it converts
        utils = [1, 2**1024 - 2**970 - 1]
        utils[position] = sign * 10**400
        with pytest.raises(ValidationError) as excinfo:
            make_scheme([0.5, 0.5], utils)
        assert excinfo.type is ValidationError
        assert str(excinfo.value) == (
            f"utility entry {position} is an integer too large for a float"
        )
        probs = [0.5, 0.5]
        probs[position] = sign * (2**1024 - 2**970)
        with pytest.raises(ValidationError, match=(
            f"^probability entry {position} is an integer too large for a float$"
        )):
            make_scheme(probs, [1.0, 1.0])

    @pytest.mark.parametrize(
        "u, message",
        [
            ("2", "constant utility u must lie in (0, inf), got '2'"),
            (True, "constant utility u must lie in (0, inf), got True"),
            (None, "constant utility u must lie in (0, inf), got None"),
            (0, "constant utility u must lie in (0, inf), got 0"),
            (-1.0, "constant utility u must lie in (0, inf), got -1.0"),
            (float("nan"), "constant utility u must lie in (0, inf), got nan"),
            (10**400, "constant utility u is an integer too large for a float"),
        ],
        ids=["str", "bool", "none", "zero", "negative", "nan", "huge_int"],
    )
    def test_a_constant_utility_is_checked_as_a_scalar(self, u, message):
        # float(u) came first: "2" gave utilities (2.0, 2.0), True gave
        # (1.0, 1.0), and None and 10**400 raised TypeError and OverflowError
        with pytest.raises(InvalidParameter) as excinfo:
            constant_utility_scheme(make_complete([0.5, 0.5]), u)
        assert str(excinfo.value) == message

    def test_an_integer_constant_utility_is_a_float(self):
        scheme = constant_utility_scheme(make_complete([0.5, 0.5]), 2)
        assert scheme.util.utils == (2.0, 2.0) and type(scheme.util.utils[0]) is float

    def test_entries_convert_in_c_or_are_named(self):
        floats = (0.5, 0.5)
        assert make_complete(floats).probs is floats
        probs = make_complete([1, 0.0]).probs
        assert probs == (1.0, 0.0) and set(map(type, probs)) == {float}
        utils = UtilityDistribution(np.array([1.0, 2.0])).utils
        assert utils == (1.0, 2.0) and set(map(type, utils)) == {float}
        for bad, message in [
            ([np.float64(1.0), True, "2"], "utility entries must be numbers, got True"),
            ([np.float64(1.0), 2, -(10**400)],
             "utility entry 2 is an integer too large for a float"),
        ]:
            with pytest.raises(ValidationError) as excinfo:
                UtilityDistribution(bad)
            assert (excinfo.type, str(excinfo.value)) == (ValidationError, message)

    def test_generalized_flag(self):
        scheme = make_scheme([0.25, 0.25], [1.0, 1.0], generalized=True)
        assert scheme.dist.kind is Kind.GENERALIZED

    def test_scheme_is_immutable(self):
        scheme = make_scheme([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            scheme.labels = ("x", "y")


class TestParametricFamily:
    def test_uniform_validation(self):
        ParametricFamily.uniform(1)
        with pytest.raises(InvalidParameter):
            ParametricFamily.uniform(0)
        with pytest.raises(InvalidParameter):
            ParametricFamily.uniform(2.5)  # type: ignore[arg-type]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_geometric_ratio_bounds(self, bad):
        with pytest.raises(InvalidParameter):
            ParametricFamily.geometric(bad)

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0])
    def test_beta_power_needs_beta_above_one(self, bad):
        with pytest.raises(InvalidParameter):
            ParametricFamily.beta_power(bad)


class TestRealizeFamily:
    def test_uniform_is_complete_and_exact(self):
        for n in (1, 2, 3, 10, 1000):
            dist = realize_family(ParametricFamily.uniform(n))
            assert dist.kind is Kind.COMPLETE
            assert abs(dist.total - 1.0) <= 1e-15 * n
            assert dist.probs[0] == 1.0 / n

    def test_infinite_families_require_truncation(self):
        with pytest.raises(TruncationRequired):
            realize_family(ParametricFamily.geometric(0.5))
        with pytest.raises(TruncationRequired):
            realize_family(ParametricFamily.beta_power(2.0))
        with pytest.raises(InvalidParameter):
            realize_family(ParametricFamily.geometric(0.5), truncation=0)

    @pytest.mark.parametrize("p,trunc", [(0.1, 20), (0.5, 60), (0.9, 300)])
    def test_geometric_mass_matches_analytic(self, p, trunc):
        dist = realize_family(ParametricFamily.geometric(p), truncation=trunc)
        assert dist.kind is Kind.GENERALIZED
        assert len(dist) == trunc
        # truncated mass is 1 - p**T up to per-term rounding
        assert dist.total == pytest.approx(1.0 - p**trunc, abs=1e-12)
        assert dist.probs[0] == 1.0 - p

    def test_geometric_terms_are_the_defining_sequence(self):
        dist = realize_family(ParametricFamily.geometric(0.25), truncation=8)
        for i, prob in enumerate(dist.probs):
            assert prob == pytest.approx(0.75 * 0.25**i, rel=1e-15)

    def test_beta_power_small_truncation_values(self):
        # leading terms are 1/zeta(2) and (1/4)/zeta(2)
        dist = realize_family(ParametricFamily.beta_power(2.0), truncation=2)
        z2 = math.pi**2 / 6.0
        assert dist.probs[0] == pytest.approx(1.0 / z2, rel=1e-14)
        assert dist.probs[1] == pytest.approx(0.25 / z2, rel=1e-14)
        assert dist.kind is Kind.GENERALIZED

    def test_beta_power_mass_approaches_one(self):
        dist = realize_family(ParametricFamily.beta_power(2.0), truncation=10_000)
        # missing tail is roughly 1/(T * zeta(2))
        tail = dist.total - 1.0
        assert -2e-4 < tail < 0.0

    @pytest.mark.parametrize(
        "family, truncation",
        [
            (ParametricFamily.uniform(MAX_REALIZED_TERMS + 1), None),
            (ParametricFamily.geometric(0.5), MAX_REALIZED_TERMS + 1),
            (ParametricFamily.beta_power(2.0), MAX_REALIZED_TERMS + 1),
        ],
    )
    def test_above_the_cap_is_refused_before_building(self, monkeypatch, family, truncation):
        def refuse(*args):
            raise AssertionError("a distribution was built above the cap")

        monkeypatch.setattr(distributions, "ProbabilityDistribution", refuse)
        with pytest.raises(ValidationError) as info:
            realize_family(family, truncation)
        assert str(info.value) == (
            "the realized family needs at least 1000001 terms, above the cap of 1000000"
        )

    def test_the_cap_itself_is_realized(self):
        dist = realize_family(ParametricFamily.uniform(MAX_REALIZED_TERMS))
        assert len(dist) == MAX_REALIZED_TERMS

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.floats(-300.0, -1e-3).map(lambda x: ParametricFamily.geometric(10.0**x)),
            st.floats(0.999, 1.0, exclude_max=True).map(ParametricFamily.geometric),
            st.floats(1.0, 1.001, exclude_min=True).map(ParametricFamily.beta_power),
            st.floats(1.001, 1075.0).map(ParametricFamily.beta_power),
            # 2 ** -beta underflows: every term after the first is 0
            st.floats(1076.0, 1e300).map(ParametricFamily.beta_power),
            st.integers(1, 1000).map(ParametricFamily.uniform),
        ),
        st.integers(1, 20_000),
    )
    @example(family=ParametricFamily.geometric(0.5), truncation=MAX_REALIZED_TERMS)
    @example(family=ParametricFamily.geometric(0.99), truncation=100_000)
    @example(family=ParametricFamily.beta_power(1.0 + 2**-52), truncation=MAX_REALIZED_TERMS)
    @example(family=ParametricFamily.beta_power(60.0), truncation=MAX_REALIZED_TERMS)
    def test_nonzero_terms_counts_the_realized_nonzeros(self, family, truncation):
        # the count is taken by bisection, without the family; the
        # uniform family ignores the truncation
        probs = realize_family(family, truncation).probs
        assert nonzero_terms(family, truncation) == len(probs) - probs.count(0.0)

    @pytest.mark.parametrize(
        "family, truncation, error",
        [
            (ParametricFamily.uniform(MAX_REALIZED_TERMS + 1), None, ValidationError),
            (ParametricFamily.geometric(0.5), MAX_REALIZED_TERMS + 1, ValidationError),
            (ParametricFamily.geometric(0.5), None, TruncationRequired),
            (ParametricFamily.beta_power(2.0), 0, InvalidParameter),
        ],
    )
    def test_nonzero_terms_refuses_what_realize_family_refuses(self, family, truncation, error):
        with pytest.raises(error) as counted:
            nonzero_terms(family, truncation)
        with pytest.raises(error) as built:
            realize_family(family, truncation)
        assert str(counted.value) == str(built.value)

    def test_beta_power_large_truncation_matches_formula(self):
        trunc = 200_000
        dist = realize_family(ParametricFamily.beta_power(1.5), truncation=trunc)
        z = zeta(1.5)
        assert len(dist) == trunc
        assert dist.probs[12345] == pytest.approx(12346.0 ** -1.5 / z, rel=1e-13)


class TestSchemeDocuments:
    def test_defaults_fill_in(self):
        scheme = scheme_from_dict({"probabilities": [0.5, 0.5]})
        assert scheme.util.utils == (1.0, 1.0)
        assert scheme.dist.kind is Kind.COMPLETE

    def test_explicit_fields_respected(self):
        doc = {
            "probabilities": [0.25, 0.25],
            "utilities": [1.0, 2.0],
            "kind": "generalized",
            "labels": ["hot", "cold"],
        }
        scheme = scheme_from_dict(doc)
        assert scheme.dist.kind is Kind.GENERALIZED
        assert scheme.labels == ("hot", "cold")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            scheme_from_dict({"probabilities": [1.0], "probs": [1.0]})

    def test_missing_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            scheme_from_dict({"utilities": [1.0]})

    @pytest.mark.parametrize("key, message", [
        ("utilities", '"utilities" must be an array'),
        ("labels", '"labels" must be an array of strings'),
    ])
    def test_null_is_not_a_missing_key(self, key, message):
        # a null utilities read as all ones, and a null labels as none
        with pytest.raises(ValidationError) as info:
            scheme_from_dict({"probabilities": [0.5, 0.5], key: None})
        assert str(info.value) == message

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            scheme_from_dict({"probabilities": [1.0], "kind": "partial"})

    def test_round_trip_through_dict(self):
        scheme = make_scheme([0.4, 0.6], [2.0, 0.5], labels=["x", "y"])
        again = scheme_from_dict(scheme_to_dict(scheme))
        assert again == scheme


def test_random_simplex_draws_construct_and_sum_close(seeded_rng=None):
    rng = np.random.default_rng(1234)
    for _ in range(200):
        probs, utils = oracles.random_scheme(rng)
        scheme = make_scheme(probs, utils)
        assert abs(scheme.dist.total - 1.0) <= COMPLETENESS_TOL


def test_scheme_needs_distribution_types():
    with pytest.raises(ValidationError):
        UtilityInformationScheme([0.5, 0.5], UtilityDistribution((1.0, 1.0)))  # type: ignore[arg-type]
