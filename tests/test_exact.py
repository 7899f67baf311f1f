"""Exact weight forms and rationality machinery."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrn_detect import ExactWeight, best_rational, squared_ratio
from lrn_detect.errors import OutOfRange


def test_best_rational_simple():
    assert best_rational(0.75) == Fraction(3, 4)
    assert best_rational(1.0 / 3.0) == Fraction(1, 3)


def test_best_rational_rejects_sqrt3():
    assert best_rational(math.sqrt(3), q_max=10**6, tau=1e-9) is None


def test_best_rational_rejects_pi_like():
    assert best_rational(math.pi, q_max=10**4, tau=1e-12) is None


@given(st.integers(1, 999), st.integers(1, 1000))
@settings(max_examples=300, deadline=None)
def test_best_rational_recovers_fractions(p, q):
    frac = Fraction(p, q)
    got = best_rational(p / q, q_max=10**6, tau=1e-9)
    assert got == frac


def test_exact_weight_values_and_json():
    w1 = ExactWeight.from_rational(3, 10)
    w2 = ExactWeight.from_root(Fraction(1, 10), Fraction(1, 3), 4)
    w3 = ExactWeight.from_float(0.125)
    assert abs(w1.value() - 0.3) < 1e-15
    assert abs(w2.value() - 3 ** (-0.25) / 10) < 1e-15
    for w in (w1, w2, w3):
        assert ExactWeight.from_json(w.to_json()) == w
    assert ExactWeight.from_json(0.5) == ExactWeight.from_float(0.5)


@pytest.mark.parametrize(
    "obj",
    [
        {"rat": [1, 2.5]},
        {"rat": [True, 2]},
        {"root": {"r": [1, 1], "base": [2, 1], "n": 2.7}},
        True,
        {"float": "0.5"},
        {"root": {"r": [], "base": [2, 1], "n": 2}},
    ],
    ids=["rat-float", "rat-bool", "root-index-float", "bare-bool", "float-text", "root-r-empty"],
)
def test_from_json_rejects_fields_of_the_wrong_type(obj):
    # Truncated or coerced, they would read as 1/2, 1/2, index 2, 1.0, 0.5
    # and a zero coefficient.
    with pytest.raises(OutOfRange):
        ExactWeight.from_json(obj)


def test_root_index_one_collapses_to_rational():
    w = ExactWeight.from_root(Fraction(2, 3), Fraction(5, 7), 1)
    assert w.kind == "rational"
    assert w.rational == Fraction(10, 21)


def test_squared_ratio_sqrt3():
    w1 = ExactWeight.from_rational(1, 10)
    w2 = ExactWeight.from_root(Fraction(1, 10), Fraction(1, 3), 4)
    dec = squared_ratio(w1, w2)
    assert not dec.rational
    assert abs(dec.value() - math.sqrt(3)) < 1e-12
    assert dec.describe() == "3^(1/2)"


def test_squared_ratio_rational_cases():
    third, two_thirds = ExactWeight.from_rational(1, 3), ExactWeight.from_rational(2, 3)
    dec = squared_ratio(third, two_thirds)
    assert dec.rational and dec.coeff == Fraction(1, 4)
    # Roots with matching radicals cancel.
    a = ExactWeight.from_root(Fraction(1, 2), Fraction(2, 1), 2)
    b = ExactWeight.from_root(Fraction(3, 5), Fraction(2, 1), 2)
    dec = squared_ratio(a, b)
    assert dec.rational and dec.coeff == Fraction(25, 36)


def test_squared_ratio_scaling_invariance():
    # Scaling both weights by a common rational never changes the verdict.
    w1 = ExactWeight.from_rational(1, 10)
    w2 = ExactWeight.from_root(Fraction(1, 10), Fraction(1, 3), 4)
    s1 = ExactWeight.from_rational(3, 70)
    s2 = ExactWeight.from_root(Fraction(3, 70), Fraction(1, 3), 4)
    assert squared_ratio(w1, w2).rational == squared_ratio(s1, s2).rational
    assert abs(squared_ratio(s1, s2).value() - squared_ratio(w1, w2).value()) < 1e-12


def test_zero_denominator_rejected():
    with pytest.raises(OutOfRange):
        ExactWeight.from_rational(1, 0)
    with pytest.raises(OutOfRange):
        ExactWeight.from_root(Fraction(1, 2), Fraction(-1, 3), 2)


def test_radical_ratio_distinct_bases():
    # 2^(1/2) / 3^(1/2) stays irrational; 8^(1/2)/2^(1/2) = 2 is rational.
    r2 = ExactWeight.from_root(Fraction(1), Fraction(2), 4)   # 2^(1/4)
    r3 = ExactWeight.from_root(Fraction(1), Fraction(3), 4)
    assert not squared_ratio(r2, r3).rational
    r8 = ExactWeight.from_root(Fraction(1), Fraction(8), 4)
    dec = squared_ratio(r8, r2)
    assert dec.rational and dec.coeff == Fraction(2)
