"""Arithmetic layer: coercion, ordering and semiring laws."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wdpoly import INF, Infinity, TropicalError, is_finite, tadd, tmul, tsum, tval

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=12
)
tropicals = st.one_of(rationals, st.just(INF))


def test_tval_accepts_ints_fractions_strings():
    assert tval(3) == Fraction(3)
    assert tval(Fraction(-1, 2)) == Fraction(-1, 2)
    assert tval("5/7") == Fraction(5, 7)
    assert tval("-3") == Fraction(-3)
    assert tval("inf") is INF
    assert tval(" INF ") is INF


def test_tval_rejects_floats_and_bools():
    with pytest.raises(TypeError) as exc:
        tval(0.5)
    assert isinstance(exc.value, TropicalError)
    with pytest.raises(TypeError):
        tval(True)
    with pytest.raises(TypeError):
        tval(None)
    for text in ("abc", "1/0"):
        with pytest.raises(ValueError) as exc:
            tval(text)
        assert isinstance(exc.value, TropicalError)


def test_infinity_is_a_singleton():
    assert Infinity() is INF
    assert tval("inf") is tval("∞")


def test_infinity_ordering():
    assert Fraction(10**9) < INF
    assert not (INF < INF)
    assert INF <= INF
    assert INF >= Fraction(-5)
    assert not (INF <= Fraction(3))


def test_infinity_cannot_be_negated():
    with pytest.raises(ArithmeticError):
        -INF


def test_tsum_empty_is_neutral():
    assert tsum([]) is INF


@given(tropicals, tropicals)
def test_tadd_commutes(a, b):
    assert tadd(a, b) == tadd(b, a)


@given(tropicals, tropicals, tropicals)
def test_tadd_tmul_associate(a, b, c):
    assert tadd(tadd(a, b), c) == tadd(a, tadd(b, c))
    assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))


@given(tropicals, tropicals, tropicals)
def test_distributivity(a, b, c):
    assert tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c))


@given(tropicals)
def test_neutral_elements(a):
    assert tadd(a, INF) == a
    assert tmul(a, Fraction(0)) == a
    assert tmul(a, INF) is INF


def test_is_finite():
    assert is_finite(Fraction(0))
    assert not is_finite(INF)
