"""One number reader under every scalar checker: an integer too large for a
float, or a value that is no number, is an InvalidParameter naming the
parameter at every public entry point that takes a real scalar."""

from __future__ import annotations

import pytest

from igf import (
    EscortPair,
    FamilyKind,
    InvalidParameter,
    Measure,
    ParametricFamily,
    ValidationError,
    beta_power_entropy,
    beta_power_igf,
    closed_form_value,
    constant_utility_scheme,
    curve_grid,
    curve_values,
    direct_sum_value,
    escort_transform,
    generalized_igf,
    geometric_entropy,
    geometric_igf,
    golomb_igf,
    hooda_bhaker_igf,
    make_complete,
    make_scheme,
    unnormalized_power_igf,
    uniform_entropy,
    uniform_igf,
    verify_scaling_identity,
    weighted_igf,
    weighted_igf_derivative,
    zeta,
    zeta_derivative,
)

DIST = make_complete([0.5, 0.5])
SCHEME = make_scheme([0.5, 0.5], [1.0, 2.0])
UNIFORM = ParametricFamily(FamilyKind.UNIFORM, n=4)

# each call puts x in one real-valued parameter, named as its checker names it
CALLS = {
    "weighted_igf": (lambda x: weighted_igf(SCHEME, x), "t"),
    "golomb_igf": (lambda x: golomb_igf(DIST, x), "t"),
    "hooda_bhaker_igf": (lambda x: hooda_bhaker_igf(SCHEME, x), "t"),
    "weighted_igf_derivative": (lambda x: weighted_igf_derivative(SCHEME, x, 1), "t"),
    "curve_values": (lambda x: curve_values(SCHEME, (2.0, x), (Measure.WEIGHTED,)), "t"),
    "curve_grid": (lambda x: curve_grid(1.0, x, 3), "t_max"),
    "escort_transform": (lambda x: escort_transform(DIST, x), "escort power beta"),
    "unnormalized_power_igf": (
        lambda x: unnormalized_power_igf(DIST, x, 2.0, 2.0), "constant utility u"
    ),
    "verify_scaling_identity": (
        lambda x: verify_scaling_identity(DIST, 1.0, x, 2.0), "escort power beta"
    ),
    "generalized_igf": (lambda x: generalized_igf(DIST, SCHEME.util, 2.0, x), "t"),
    "zeta": (zeta, "zeta argument beta"),
    "zeta_derivative": (zeta_derivative, "zeta_derivative argument beta"),
    "uniform_igf": (lambda x: uniform_igf(4, x, 2.0), "constant utility u"),
    "uniform_entropy": (lambda x: uniform_entropy(4, x), "constant utility u"),
    "geometric_igf": (lambda x: geometric_igf(0.5, 1.0, x), "t"),
    "geometric_entropy": (lambda x: geometric_entropy(x, 1.0), "geometric ratio p"),
    "beta_power_igf": (lambda x: beta_power_igf(x, 1.0, 2.0), "power-law exponent beta"),
    "beta_power_entropy": (lambda x: beta_power_entropy(2.0, x), "constant utility u"),
    "closed_form_value": (
        lambda x: closed_form_value(UNIFORM, x, 2.0), "constant utility u"
    ),
    "direct_sum_value": (
        lambda x: direct_sum_value(UNIFORM, x, 2.0), "constant utility u"
    ),
    "ParametricFamily.beta_power": (ParametricFamily.beta_power, "power-law family beta"),
    "EscortPair.mass": (lambda x: EscortPair(DIST, x, 2.0), "escort mass"),
    "EscortPair.beta": (lambda x: EscortPair(DIST, 1.0, x), "escort power beta"),
    "constant_utility_scheme": (
        lambda x: constant_utility_scheme(DIST, x), "constant utility u"
    ),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("entry", CALLS)
def test_an_integer_too_large_for_a_float_names_the_parameter(entry, sign):
    # each raised a bare OverflowError, and EscortPair took such a beta
    call, name = CALLS[entry]
    with pytest.raises(InvalidParameter) as excinfo:
        call(sign * 10**400)
    assert str(excinfo.value) == f"{name} is an integer too large for a float"


@pytest.mark.parametrize("value", ["x", None, True])
@pytest.mark.parametrize("entry", CALLS)
def test_a_value_that_is_no_number_names_the_parameter(entry, value):
    call, name = CALLS[entry]
    with pytest.raises(InvalidParameter) as excinfo:
        call(value)
    assert str(excinfo.value).startswith(f"{name} must ")
    assert str(excinfo.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("mass, beta, message", [
    (True, 2.0, "escort mass must lie in (0, inf), got True"),
    (1.0, "x", "escort power beta must lie in (0, inf), got 'x'"),
    (1.0, -3.0, "escort power beta must lie in (0, inf), got -3.0"),
])
def test_escort_pair_checks_both_numbers(mass, beta, message):
    # each was built: a bool mass, and any beta at all
    with pytest.raises(InvalidParameter) as excinfo:
        EscortPair(DIST, mass, beta)
    assert str(excinfo.value) == message


def test_escort_pair_holds_floats():
    pair = EscortPair(DIST, 1, 2)
    assert (pair.mass, pair.beta) == (1.0, 2.0)
    assert (type(pair.mass), type(pair.beta)) == (float, float)


@pytest.mark.parametrize("normalized", [(0.5, 0.5), None, SCHEME])
def test_escort_pair_takes_only_a_distribution(normalized):
    # it read normalized.total and leaked AttributeError
    with pytest.raises(ValidationError) as excinfo:
        EscortPair(normalized, 1.0, 2.0)
    assert str(excinfo.value) == "escort distribution must be a ProbabilityDistribution"


@pytest.mark.parametrize("kind, own, name, value", [
    (FamilyKind.UNIFORM, dict(n=3), "p", "x"),
    (FamilyKind.UNIFORM, dict(n=3), "beta", 2.0),
    (FamilyKind.GEOMETRIC, dict(p=0.5), "n", 3),
    (FamilyKind.GEOMETRIC, dict(p=0.5), "beta", 0),
    (FamilyKind.BETA_POWER, dict(beta=2.0), "p", 0.5),
    (FamilyKind.BETA_POWER, dict(beta=2.0), "n", False),
])
def test_a_family_takes_no_field_of_another_kind(kind, own, name, value):
    # each was built, held the stray field and was unequal to its twin
    with pytest.raises(InvalidParameter) as excinfo:
        ParametricFamily(kind, **own, **{name: value})
    assert str(excinfo.value) == f"the {kind.value} family takes no {name}, got {value!r}"
    assert ParametricFamily(kind, **own, **{name: None}) == ParametricFamily(kind, **own)
