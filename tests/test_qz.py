import pytest
from hypothesis import given, strategies as st

from modcat import QZ, ZERO, qz, root_of_unity_str
from modcat.errors import ParseError

ints = st.integers(min_value=-400, max_value=400)
dens = st.integers(min_value=1, max_value=60)
qzs = st.builds(QZ, ints, dens)


def test_canonical_form():
    assert QZ(5, 4) == QZ(1, 4)
    assert QZ(-1, 4) == QZ(3, 4)
    assert QZ(2, 4) == QZ(1, 2)
    assert QZ(0, 7) == ZERO
    assert QZ(7, 7) == ZERO
    assert QZ(3, -4) == QZ(1, 4)


@given(qzs)
def test_canonical_invariant(a):
    from math import gcd
    assert 0 <= a.num < a.den
    assert gcd(a.num, a.den) == 1


@given(qzs, qzs, qzs)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(qzs, qzs)
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(qzs)
def test_negation_inverse(a):
    assert a + (-a) == ZERO
    assert -(-a) == a


@given(qzs, ints)
def test_integer_scaling(a, k):
    total = ZERO
    for _ in range(abs(k)):
        total = total + a
    if k < 0:
        total = -total
    assert k * a == total


@given(qzs)
def test_str_round_trip(a):
    assert qz(str(a)) == a


def test_parse_forms():
    assert qz("3/4") == QZ(3, 4)
    assert qz("-1/4") == QZ(3, 4)
    assert qz("0") == ZERO
    assert qz("2") == ZERO
    assert qz(5) == ZERO
    assert qz(QZ(1, 3)) == QZ(1, 3)


@pytest.mark.parametrize("bad", [0.5, "a/b", "1/2/3", "", None, True, [1, 2],
                                 "1/0", "-3/00"])
def test_parse_rejects_inexact(bad):
    with pytest.raises(ParseError):
        qz(bad)


def test_scaled_num():
    assert QZ(1, 4).scaled_num(8) == 2
    assert QZ(3, 4).scaled_num(4) == 3
    with pytest.raises(ValueError):
        QZ(1, 3).scaled_num(4)


def test_root_of_unity_rendering():
    assert root_of_unity_str(ZERO) == "1"
    assert root_of_unity_str(QZ(1, 2)) == "-1"
    assert root_of_unity_str(QZ(1, 4)) == "i"
    assert root_of_unity_str(QZ(3, 4)) == "-i"
    assert root_of_unity_str(QZ(1, 3)) == "e(1/3)"


def test_immutable():
    a = QZ(1, 2)
    with pytest.raises(AttributeError):
        a.num = 3
