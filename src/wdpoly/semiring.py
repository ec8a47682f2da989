"""Exact min-plus arithmetic over the rationals extended by infinity.

Values are either ``fractions.Fraction`` or the singleton ``INF``.  All
arithmetic is exact; floating point input is rejected.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from math import lcm
from operator import attrgetter
from typing import Union

from .errors import DomainError, ShapeError, ValueTypeError


class Infinity:
    """The neutral element of min and the absorbing element of +.

    Compares strictly greater than every rational.  There is a single
    instance, ``INF``; never construct a rational sentinel instead.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("infinity cannot be negated")

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (Infinity, ())


INF = Infinity()

TVal = Union[Fraction, Infinity]


def tval(x) -> TVal:
    """Coerce ``x`` to a tropical value (Fraction or INF).

    Accepts Fractions, ints, and strings like ``"-3"``, ``"5/7"`` or
    ``"inf"``.  Floats, bools and other types raise ``ValueTypeError``, so
    every computation stays exact; a string that is not a rational raises
    ``DomainError``.
    """
    if type(x) is Fraction or x is INF or isinstance(x, Fraction):  # exact types first, cheaply
        return x
    if isinstance(x, bool):
        raise ValueTypeError("boolean is not a tropical value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if s.lower() == "inf" or s == "∞":
            return INF
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{x!r} is not a rational number") from None
    if isinstance(x, float):
        raise ValueTypeError("floating point weights are not supported; use exact rationals")
    raise ValueTypeError(f"cannot interpret {x!r} as a tropical value")


class _Record:
    """Base of the frozen value classes; the fields are a subclass's own annotations, in order.

    A record is built from its fields by position or name, then ``__post_init__``
    checks it.  Assignment and deletion raise ``AttributeError``.  Equality holds
    only within one class and, like the hash, reads every field.  The repr leaves
    out private fields, and pickle and copy rebuild a record through ``__init__``.
    No method is generated per class, so defining the records costs a process
    only their class bodies.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)
        # a slot's descriptor sets it with no lookup by name, as cheaply as generated code
        own = vars(cls)
        cls._setters = tuple(own[f].__set__ if f in own else partial(_set, f) for f in cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        if self.__post_init__ is not None:
            self.__post_init__()

    __post_init__ = None  # or a method that checks the fields once they are set

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if not f.startswith("_"))
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _set(name: str, record: _Record, value) -> None:
    object.__setattr__(record, name, value)


def _iterable(xs, what: str) -> Iterable:
    """``xs`` itself; a bare string or a non-iterable raises ``ValueTypeError``."""
    if isinstance(xs, str) or not isinstance(xs, Iterable):
        raise ValueTypeError(f"cannot interpret {xs!r} as {what}")
    return xs


def _instance(x, cls):
    """``x`` itself if it is a ``cls``; else ``ValueTypeError``."""
    if not isinstance(x, cls):
        raise ValueTypeError(f"{x!r} is not a {cls.__name__}")
    return x


def _index(x, what: str, pair: bool = False):
    """A plain int (not a bool), or with ``pair`` a 2-tuple of them; else ``ValueTypeError``."""
    if pair:
        xs = x if isinstance(x, tuple) else tuple(_iterable(x, what))
        if len(xs) == 2 and type(xs[0]) is int and type(xs[1]) is int:
            return xs
    elif type(x) is int:
        return x
    raise ValueTypeError(f"cannot interpret {x!r} as {what}")


def _bound(x, what: str) -> int:
    """A capability bound: a plain int (not a bool) of at least 0; ``DomainError`` below 0."""
    if _index(x, what) < 0:
        raise DomainError(f"{what} must be at least 0, got {x}")
    return x


def _position(i, size: int, what: str) -> int:
    """0-based position of the 1-based index ``i``; ``DomainError`` outside 1..size."""
    if not 1 <= _index(i, f"a {what} index") <= size:
        raise DomainError(f"{what} index {i} is not in 1..{size}")
    return i - 1


def tpoint(xs) -> tuple[TVal, ...]:
    """Coerce a point with ``tval``; a bare string or a non-iterable raises ``ValueTypeError``."""
    return tuple(tval(x) for x in _iterable(xs, "a point"))


def _point(xs, size: int, shape: str, finite: str = "") -> tuple[TVal, ...]:
    """``tpoint(xs)`` with ``size`` coordinates, else ``ShapeError(shape.format(length, size))``.

    A point of the query named ``finite`` must be finite (checked after the length), any other
    point needs a finite coordinate (checked before it); each raises ``DomainError``.
    """
    pt = tpoint(xs)
    if not finite and all(c is INF for c in pt):
        raise DomainError("projective point needs at least one finite coordinate")
    if len(pt) != size:
        raise ShapeError(shape.format(len(pt), size))
    if finite and any(c is INF for c in pt):
        raise DomainError(f"{finite} needs a finite point")
    return pt


def is_finite(v: TVal) -> bool:
    """Whether v is rational; a value other than a Fraction or INF raises ``ValueTypeError``."""
    return v is not INF and _instance(v, Fraction) is v


def tadd(a: TVal, b: TVal) -> TVal:
    """Tropical addition: min."""
    return b if b < a else a


def tmul(a: TVal, b: TVal) -> TVal:
    """Tropical multiplication: ordinary addition, INF absorbing."""
    if a is INF or b is INF:
        return INF
    return a + b


def tsum(values: Iterable[TVal]) -> TVal:
    """Tropical sum (minimum) of an iterable, INF if empty."""
    out: TVal = INF
    for v in values:
        if v < out:
            out = v
    return out


def _scaled(weights: Mapping) -> tuple[int, dict]:
    """(L, each weight times L as an int), L the LCM of the denominators: the one int view
    that digraphs, configurations and matrices add and compare, exact since L > 0."""
    scale = lcm(*(x.denominator for x in weights.values()))
    return scale, {a: x.numerator * (scale // x.denominator) for a, x in weights.items()}


def _rescaled(scale: int, pt: Sequence[TVal]) -> tuple[int, int, list]:
    """(L', L' / scale, pt times L' as ints or INF): L' = lcm(scale, pt's denominators)."""
    big = lcm(scale, *(c.denominator for c in pt if c is not INF))
    return big, big // scale, [c if c is INF else c.numerator * (big // c.denominator) for c in pt]
