"""The value types as values: equality, hash, repr, immutability, copies and
construction, the same for all six."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from igf import (
    EscortPair,
    FamilyKind,
    Kind,
    ParametricFamily,
    ProbabilityDistribution,
    ScalingIdentityReport,
    UtilityDistribution,
    UtilityInformationScheme,
)


def _dist():
    return ProbabilityDistribution((0.25, 0.75), Kind.COMPLETE)


def _util():
    return UtilityDistribution((1.0, 2.0))


def _scheme():
    return UtilityInformationScheme(_dist(), _util(), ("a", "b"))


DIST_REPR = "ProbabilityDistribution(probs=(0.25, 0.75), kind=<Kind.COMPLETE: 'complete'>)"
UTIL_REPR = "UtilityDistribution(utils=(1.0, 2.0))"
SCHEME_REPR = f"UtilityInformationScheme(dist={DIST_REPR}, util={UTIL_REPR}, labels=('a', 'b'))"
# name -> (a factory of fresh equal instances, the field names, the exact repr)
TYPES = {
    "ProbabilityDistribution": (_dist, ("probs", "kind"), DIST_REPR),
    "UtilityDistribution": (_util, ("utils",), UTIL_REPR),
    "UtilityInformationScheme": (_scheme, ("dist", "util", "labels"), SCHEME_REPR),
    "ParametricFamily": (
        lambda: ParametricFamily(FamilyKind.GEOMETRIC, p=0.5),
        ("kind", "n", "p", "beta"),
        "ParametricFamily(kind=<FamilyKind.GEOMETRIC: 'geometric'>, n=None, p=0.5, beta=None)",
    ),
    "EscortPair": (
        lambda: EscortPair(ProbabilityDistribution((0.5, 0.5), Kind.COMPLETE), 0.5, 2.0),
        ("normalized", "mass", "beta"),
        "EscortPair(normalized=ProbabilityDistribution(probs=(0.5, 0.5), "
        "kind=<Kind.COMPLETE: 'complete'>), mass=0.5, beta=2.0)",
    ),
    "ScalingIdentityReport": (
        lambda: ScalingIdentityReport(0.5, 0.5, 0.0, True),
        ("lhs", "rhs", "abs_diff", "passed"),
        "ScalingIdentityReport(lhs=0.5, rhs=0.5, abs_diff=0.0, passed=True)",
    ),
}
NAMES = sorted(TYPES)


@pytest.mark.parametrize("name", NAMES)
def test_twins_are_equal_and_hash_alike(name):
    make = TYPES[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_unequal_across_classes_and_to_tuples(name):
    a = TYPES[name][0]()
    for other in NAMES:
        if other != name:
            assert a != TYPES[other][0]()
    fields = TYPES[name][1]
    assert a != tuple(getattr(a, f) for f in fields)


def test_a_changed_field_breaks_equality():
    assert ScalingIdentityReport(0.5, 0.5, 0.0, True) != ScalingIdentityReport(
        0.5, 0.5, 0.0, False
    )
    assert ParametricFamily.geometric(0.5) != ParametricFamily.geometric(0.25)
    assert _scheme() != UtilityInformationScheme(_dist(), _util())


@pytest.mark.parametrize("name", NAMES)
def test_exact_repr(name):
    _, _, expected = TYPES[name]
    assert repr(TYPES[name][0]()) == expected


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    make, fields, _ = TYPES[name]
    value = make()
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(name, duplicate):
    value = TYPES[name][0]()
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", ["UtilityInformationScheme"])
def test_the_log_list_is_no_field(name):
    # a log-weighted sum fills the slot; it takes no part in equality,
    # hash, repr or pickles, and copies start without it.  Only a scheme
    # has the slot
    from igf import weighted_entropy

    filled, fresh = TYPES[name][0](), TYPES[name][0]()
    weighted_entropy(filled)
    assert filled._logs is not None and fresh._logs is None
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == TYPES[name][2]
    assert pickle.dumps(filled) == pickle.dumps(fresh)
    for twin in (copy.copy(filled), copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))):
        assert twin._logs is None


def test_copies_keep_the_total():
    dist = ProbabilityDistribution((0.1, 0.2, 0.7), Kind.COMPLETE)
    for twin in (copy.copy(dist), copy.deepcopy(dist), pickle.loads(pickle.dumps(dist))):
        assert twin.total == dist.total == 1.0


class TestConstruction:
    def test_distributions_by_keyword(self):
        assert ProbabilityDistribution(probs=(0.25, 0.75), kind=Kind.COMPLETE) == _dist()
        assert UtilityDistribution(utils=[1, 2]) == _util()
        with pytest.raises(TypeError):
            ProbabilityDistribution((1.0,), Kind.COMPLETE, 1.0)  # total is no argument
        with pytest.raises(TypeError):
            ProbabilityDistribution(probs=(1.0,))

    def test_scheme_labels_default_to_none(self):
        scheme = UtilityInformationScheme(_dist(), _util())
        assert scheme.labels is None
        assert scheme == UtilityInformationScheme(dist=_dist(), util=_util(), labels=None)
        assert UtilityInformationScheme(_dist(), _util(), ["a", "b"]) == _scheme()

    def test_family_defaults(self):
        family = ParametricFamily(FamilyKind.UNIFORM, n=3)
        assert (family.n, family.p, family.beta) == (3, None, None)
        assert family == ParametricFamily.uniform(3) == ParametricFamily(FamilyKind.UNIFORM, 3)
        assert ParametricFamily(FamilyKind.GEOMETRIC, None, 0.5) == ParametricFamily.geometric(0.5)
        assert ParametricFamily(
            kind=FamilyKind.BETA_POWER, n=None, p=None, beta=2.0
        ) == ParametricFamily.beta_power(2.0)

    def test_escort_types_by_position_and_keyword(self):
        normalized = ProbabilityDistribution((0.5, 0.5), Kind.COMPLETE)
        assert EscortPair(normalized=normalized, mass=0.5, beta=2.0) == TYPES["EscortPair"][0]()
        report = ScalingIdentityReport(lhs=0.5, rhs=0.5, abs_diff=0.0, passed=True)
        assert report == TYPES["ScalingIdentityReport"][0]()
        with pytest.raises(TypeError):
            ScalingIdentityReport(0.5, 0.5, 0.0)
