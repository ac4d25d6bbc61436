"""Exact arithmetic in Q/Z.

A value p/q stands for the root of unity e^(2*pi*i*p/q); multiplying roots
of unity corresponds to adding QZ values.  Every value is kept in canonical
reduced form 0 <= num < den, gcd(num, den) = 1, so equality and hashing are
structural and zero is always QZ(0, 1).
"""

from __future__ import annotations

import re
from math import gcd

from .errors import ParseError

__all__ = ["QZ", "ZERO", "qz", "root_of_unity_str"]


class QZ:
    """An element of Q/Z in canonical reduced form.

    >>> QZ(5, 4) + QZ(3, 4)
    QZ(0, 1)
    >>> -QZ(1, 6)
    QZ(5, 6)
    >>> 3 * QZ(1, 6)
    QZ(1, 2)
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError("QZ denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("QZ values are immutable")

    def __bool__(self):
        return self.num != 0

    def __eq__(self, other):
        if not isinstance(other, QZ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, QZ):
            return NotImplemented
        return QZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if not isinstance(other, QZ):
            return NotImplemented
        return QZ(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return QZ(-self.num, self.den)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return QZ(self.num * k, self.den)

    __rmul__ = __mul__

    def __lt__(self, other):
        # canonical-form comparison, used only for deterministic ordering
        return (self.num * other.den) < (other.num * self.den)

    def __repr__(self):
        return f"QZ({self.num}, {self.den})"

    def __str__(self):
        return f"{self.num}/{self.den}"

    def scaled_num(self, m):
        """Numerator of this value over common denominator m (m must clear it).

        >>> QZ(1, 4).scaled_num(8)
        2
        """
        if (m * self.num) % self.den:
            raise ValueError(f"{self} has no exact representative over 1/{m}")
        return (m * self.num) // self.den


ZERO = QZ(0, 1)

_FRACTION_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def qz(value) -> QZ:
    """Parse a QZ value from a string "p/q" (or "p"), an int, or a QZ.

    Rejects anything inexact or with a zero denominator; in particular JSON
    floats are refused, since a float cannot certify a torsion value.
    """
    if isinstance(value, QZ):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not an exact Q/Z value: {value!r}")
    if isinstance(value, int):
        return QZ(value)
    if isinstance(value, str):
        m = _FRACTION_RE.match(value.strip())
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            if m and int(m.group(2) or 1):
                return QZ(int(m.group(1)), int(m.group(2) or 1))
        except ValueError as exc:
            raise ParseError(f"cannot parse Q/Z value: {exc}") from exc
        raise ParseError(f"cannot parse Q/Z value from {value!r}")
    raise ParseError(
        f"not an exact Q/Z value: {value!r} (use a string like \"3/4\")"
    )


def root_of_unity_str(v: QZ) -> str:
    """Render a QZ value as the root of unity it stands for."""
    if v.num == 0:
        return "1"
    if (v.num, v.den) == (1, 2):
        return "-1"
    if (v.num, v.den) == (1, 4):
        return "i"
    if (v.num, v.den) == (3, 4):
        return "-i"
    return f"e({v})"
