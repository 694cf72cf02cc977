"""Exact rational interval arithmetic (closed intervals, Fraction endpoints)."""

from fractions import Fraction

from .errors import InternalError


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise InternalError(f"empty interval [{self.lo}, {self.hi}]")

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def width(self):
        return self.hi - self.lo

    def mid(self):
        return (self.lo + self.hi) / 2

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def inverse(self):
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def distance_to(self, other):
        """Gap between two intervals; 0 if they overlap."""
        other = _coerce(other)
        if self.lo > other.hi:
            return self.lo - other.hi
        if other.lo > self.hi:
            return other.lo - self.hi
        return Fraction(0)

    def abs_lower(self):
        """Lower bound for |value|; 0 if the interval straddles zero."""
        if self.contains_zero():
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def abs_upper(self):
        return max(abs(self.lo), abs(self.hi))


def _coerce(x):
    if isinstance(x, Interval):
        return x
    return Interval(Fraction(x))


def eval_poly(coeff_intervals, x: Interval) -> Interval:
    """Horner evaluation of a polynomial with interval coefficients
    (lowest degree first) on an interval."""
    acc = Interval(0)
    for c in reversed(coeff_intervals):
        acc = acc * x + c
    return acc
