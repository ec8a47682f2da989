"""Arithmetic layer: coercion, ordering and semiring laws."""

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wdpoly import (
    INF,
    DomainError,
    Infinity,
    TropicalError,
    TropicalMatrix,
    ValueTypeError,
    WeightedDigraph,
    is_finite,
    tadd,
    tmul,
    membership,
    tsum,
    tval,
)

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


_W = WeightedDigraph.make(2, {})


class _FractionKind(Fraction):
    """A Fraction subclass, which ``tval`` passes through unchanged."""


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tval("x"), DomainError, "'x' is not a rational number"),
        (lambda: tval(True), ValueTypeError, "boolean is not a tropical value"),
        (lambda: tval(0.5), ValueTypeError,
         "floating point weights are not supported; use exact rationals"),
        (lambda: tval(None), ValueTypeError, "cannot interpret None as a tropical value"),
        (lambda: tval([1]), ValueTypeError, "cannot interpret [1] as a tropical value"),
        (lambda: membership(_W, "01"), ValueTypeError, "cannot interpret '01' as a point"),
        (lambda: membership(_W, True), ValueTypeError, "cannot interpret True as a point"),
        (lambda: membership(_W, 0.5), ValueTypeError, "cannot interpret 0.5 as a point"),
        (lambda: membership(_W, 7), ValueTypeError, "cannot interpret 7 as a point"),
        (lambda: TropicalMatrix.make(["01"]), ValueTypeError,
         "cannot interpret '01' as a matrix row"),
        (lambda: WeightedDigraph(2, "ab"), ValueTypeError, "'ab' is not a Mapping"),
        (lambda: WeightedDigraph(2, True), ValueTypeError, "True is not a Mapping"),
        (lambda: WeightedDigraph(2, 0.5), ValueTypeError, "0.5 is not a Mapping"),
        (lambda: WeightedDigraph(2, [((1, 2), Fraction(1))]), ValueTypeError,
         "[((1, 2), Fraction(1, 1))] is not a Mapping"),
        (lambda: WeightedDigraph.make(2, "ab"), ValueTypeError, "cannot interpret 'ab' as arcs"),
        (lambda: WeightedDigraph.make(2, False), ValueTypeError, "cannot interpret False as arcs"),
        (lambda: WeightedDigraph.make(2, 0.5), ValueTypeError, "cannot interpret 0.5 as arcs"),
        (lambda: WeightedDigraph.make(2, 3), ValueTypeError, "cannot interpret 3 as arcs"),
    ],
)
def test_coercion_keeps_its_exception_types_and_messages(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_coercion_takes_fractions_mappings_and_iterables_of_any_kind():
    kind = _FractionKind(1, 3)
    assert tval(kind) is kind and tval(Infinity()) is INF
    assert membership(_W, iter([1, "1/2"])) == (True, frozenset())
    arcs = MappingProxyType({(1, 2): Fraction(1)})
    made = WeightedDigraph.make(2, [((1, 2), 1)])
    assert WeightedDigraph(2, arcs) == WeightedDigraph.make(2, arcs) == made
