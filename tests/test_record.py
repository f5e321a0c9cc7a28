"""The package's value types: fields, equality, hashing and immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from qkostant import (
    BenderReport,
    CheckResult,
    DistSummary,
    MomentPair,
    RootSystem,
    SupportSpec,
    build_root_system,
    check_bender_conditions,
)

FIELDS = {
    RootSystem: ("lie_type", "rank", "positive_roots", "highest_root"),
    SupportSpec: ("lie_type", "rank", "entries"),
    BenderReport: ("small_root", "large_root", "numerator_values", "passed"),
    MomentPair: ("mean", "variance"),
    DistSummary: ("family", "rank", "mean", "variance", "ks_distance", "skewness",
                  "excess_kurtosis", "mgf_errors"),
    CheckResult: ("name", "status", "detail"),
}

SAMPLES = [
    build_root_system("B", 3),
    SupportSpec("A", 7, ((2, 1), (5, 3))),
    check_bender_conditions(),
    MomentPair(Fraction(3, 2), Fraction(1, 4)),
    DistSummary("C", 5, Fraction(7, 2), Fraction(5, 4), 0.1, 0.2, -0.3, ((1.0, 0.01),)),
    CheckResult("fixed-examples", "PASS", "14 pinned values"),
]


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_fields_equality_and_immutability(value):
    cls = type(value)
    names = FIELDS[cls]
    values = [getattr(value, n) for n in names]
    again = cls(*values)
    assert again == value and not again != value
    assert cls(**dict(zip(names, values))) == value
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert value != values and value != tuple(values)
    if cls is not BenderReport:  # its numerator_values is a dict
        assert hash(again) == hash(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_fields_distinguish_values():
    assert MomentPair(1, 2) != MomentPair(2, 1)
    assert CheckResult("a", "PASS", "") != CheckResult("a", "FAIL", "")
    assert len({MomentPair(1, 2), MomentPair(1, 2), MomentPair(1, 3)}) == 2


def test_reprs():
    assert repr(build_root_system("A", 3)) == "RootSystem(A3, 6 positive roots)"
    assert repr(MomentPair(Fraction(1, 2), 3)) == "MomentPair(mean=Fraction(1, 2), variance=3)"
    assert repr(SupportSpec("A", 5, [(3, 1)])) == (
        "SupportSpec(lie_type='A', rank=5, entries=((3, 1),))"
    )
