from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexforge.laurent import (
    EquivariantCharacter,
    LaurentPoly,
    NonPolynomialCharacter,
    divide_one_minus,
    divide_t3_lines,
    exp_pleth,
    exp_pleth_extended,
    over_common_denominator,
    pochhammer,
)

T1, T2, T3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def mono(e, c=1):
    return LaurentPoly.monomial(e, c)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(7, 3), 0) == 1

    def test_rising(self):
        # 2*3*4
        assert pochhammer(F(2), 3) == 24

    def test_negative(self):
        # 1/((5-1)(5-2))
        assert pochhammer(F(5), -2) == F(1, 12)

    def test_inverse_pair(self):
        x = F(9, 4)
        for n in (-3, -1, 0, 2, 5):
            assert pochhammer(x, n) * pochhammer(x + n, -n) == 1

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            pochhammer(F(2), -3)

    @given(
        num=st.integers(-30, 30),
        den=st.integers(1, 9),
        m=st.integers(-4, 4),
        n=st.integers(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, num, den, m, n):
        # [x]_{m+n} = [x]_m [x+m]_n wherever defined
        x = F(num, den) + F(1, 11)  # avoid integer gaps
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


class TestReduce:
    def test_geometric(self):
        num = LaurentPoly.one() - mono((0, 0, 2))
        c = EquivariantCharacter(num, [T3])
        assert c.reduce() == LaurentPoly.one() + mono(T3)

    def test_no_cancellation(self):
        c = EquivariantCharacter(LaurentPoly.one(), [T3])
        with pytest.raises(NonPolynomialCharacter):
            c.reduce()

    def test_exact_cancellation(self):
        num = (LaurentPoly.one() - mono(T1)) * (LaurentPoly.one() - mono(T3))
        c = EquivariantCharacter(num, [T3])
        assert c.reduce() == LaurentPoly.one() - mono(T1)

    def test_negative_direction(self):
        # (1 - t3^-2)/(1 - t3^-1) = 1 + t3^-1
        num = LaurentPoly.one() - mono((0, 0, -2))
        c = EquivariantCharacter(num, [(0, 0, -1)])
        assert c.reduce() == LaurentPoly.one() + mono((0, 0, -1))

    def test_multiplicative(self):
        a = EquivariantCharacter(LaurentPoly.one() - mono((0, 0, 2)), [T3])
        b = EquivariantCharacter(LaurentPoly.one() - mono((2, 0, 0)), [T1])
        assert (a * b).reduce() == a.reduce() * b.reduce()

    def test_equality_cross_multiplication(self):
        a = EquivariantCharacter(LaurentPoly.one() - mono((0, 0, 2)), [T3])
        b = EquivariantCharacter(LaurentPoly.one() + mono(T3), ())
        assert a == b


# terms ((a, b), l, c) on three t3-lines with few powers, so exponents repeat
_LINE_TERMS = st.lists(st.tuples(st.sampled_from([(0, 0), (1, -1), (-2, 3)]), st.integers(-3, 3),
                                 st.integers(-3, 3)), max_size=12)


def _oracle_t3(terms):
    """EquivariantCharacter(num, [t3]).reduce() of num = the terms' sum, or
    the NonPolynomialCharacter it raises."""
    num: dict = {}
    for (a, b), l, c in terms:
        num[(a, b, l)] = num.get((a, b, l), 0) + c
    try:
        return EquivariantCharacter(LaurentPoly(num), [T3]).reduce()
    except NonPolynomialCharacter:
        return NonPolynomialCharacter


def _divided_t3(terms):
    try:
        return divide_t3_lines(terms)
    except NonPolynomialCharacter:
        return NonPolynomialCharacter


class TestDivideT3Lines:
    """The one-pass line division against the factor-by-factor oracle."""

    @given(terms=_LINE_TERMS)
    @settings(max_examples=150, deadline=None)
    def test_any_terms(self, terms):
        # mostly non-polynomial: both sides raise
        assert _divided_t3(terms) == _oracle_t3(terms)

    @given(quot=_LINE_TERMS, shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_multiples_of_one_minus_t3(self, quot, shuffle):
        # num = Q (1 - t3), its terms in any order: both sides give Q
        terms = [t for base, l, c in quot for t in ((base, l, c), (base, l + 1, -c))]
        shuffle.shuffle(terms)
        got = _divided_t3(terms)
        assert got == _oracle_t3(terms)
        want: dict = {}
        for (a, b), l, c in quot:
            want[(a, b, l)] = want.get((a, b, l), 0) + c
        assert got == LaurentPoly(want)


@given(xs=st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)),
                  min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_over_common_denominator(xs):
    *ns, D = over_common_denominator(*xs)
    assert all(type(n) is int and F(n, D) == x for n, x in zip(ns, xs, strict=True))
    # no smaller D writes every x_i as an integer over it: D is their lcm
    assert D > 0 and gcd(D, *ns) == 1


class TestExpPleth:
    T = (F(2), F(3), F(5))

    def test_empty(self):
        assert exp_pleth(LaurentPoly.zero(), *self.T) == 1

    def test_two_monomials(self):
        p = mono(T1) + mono(T2)
        assert exp_pleth(p, *self.T) == 6

    def test_negative_exponent(self):
        p = mono(T1, -1)
        assert exp_pleth(p, *self.T) == F(1, 2)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            exp_pleth(LaurentPoly.one(), *self.T)

    def test_extended(self):
        p = LaurentPoly({(0, 0, 0): F(2), (1, 0, 0): F(1)})
        val, z = exp_pleth_extended(p, *self.T)
        assert (val, z) == (F(2), 2)

    def test_homomorphism(self):
        p = mono(T1) + mono((1, 2, 0), 2)
        q = mono((0, -1, 1)) - mono(T1)
        lhs = exp_pleth(p + q, *self.T)
        assert lhs == exp_pleth(p, *self.T) * exp_pleth(q, *self.T)


small_poly = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    max_size=4,
)


class TestRingAxioms:
    @given(a=small_poly, b=small_poly, c=small_poly)
    @settings(max_examples=40, deadline=None)
    def test_laurent_ring(self, a, b, c):
        pa, pb, pc = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
        assert (pa + pb) + pc == pa + (pb + pc)
        assert pa * pb == pb * pa
        assert pa * (pb + pc) == pa * pb + pa * pc
        assert (pa * pb) * pc == pa * (pb * pc)

    @given(a=small_poly)
    @settings(max_examples=20, deadline=None)
    def test_bar_involution(self, a):
        p = LaurentPoly(a)
        assert p.bar().bar() == p

    @given(a=small_poly, b=small_poly)
    @settings(max_examples=20, deadline=None)
    def test_bar_multiplicative(self, a, b):
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        assert (pa * pb).bar() == pa.bar() * pb.bar()


def test_divide_one_minus_roundtrip():
    q = LaurentPoly({(1, 0, -1): F(3), (0, 2, 0): F(-1, 2), (-1, 0, 0): F(5)})
    for d in [(0, 0, 1), (1, -1, 0), (0, 0, -2)]:
        num = q * (LaurentPoly.one() - mono(d))
        assert divide_one_minus(num, d) == q


def test_serialization_roundtrip():
    p = LaurentPoly({(1, -2, 3): F(5, 7), (0, 0, -1): F(-2)})
    assert LaurentPoly.from_json(p.to_json()) == p


# ---------------------------------------------------------------------------
# integer coefficients against all-Fraction references

exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
mixed_coeff = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
mixed_poly = st.dictionaries(exps, mixed_coeff, max_size=5)
nonzero_t = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


def _ref_add(a, b):
    out = {e: F(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + F(c)
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + F(c1) * F(c2)
    return {e: c for e, c in out.items() if c}


class TestIntegerCoefficients:
    @given(a=mixed_poly, b=mixed_poly, k=mixed_coeff)
    @settings(max_examples=60, deadline=None)
    def test_mixed_arithmetic_matches_fraction_reference(self, a, b, k):
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        assert (pa + pb).terms == _ref_add(a, b)
        assert (pa - pb).terms == _ref_add(a, {e: -F(c) for e, c in b.items()})
        assert (pa * pb).terms == _ref_mul(a, b)
        assert (pa * k).terms == _ref_mul(a, {(0, 0, 0): k})
        swap = pa.substitute_monomials([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
        assert swap.terms == {(y, x, z): F(c) for (x, y, z), c in _ref_add(a, {}).items()}
        # integral coefficients are stored as int, and int arithmetic stays int
        assert all(type(c) is int or c.denominator != 1 for c in pa.terms.values())
        if all(F(c).denominator == 1 for c in list(a.values()) + list(b.values())):
            for p in (pa + pb, pa * pb, swap):
                assert all(type(c) is int for c in p.terms.values())
        assert LaurentPoly.from_json(pa.to_json()) == pa
        assert hash(pa) == hash(LaurentPoly({e: F(c) for e, c in a.items()}))

    @given(a=mixed_poly, d=exps.filter(any))
    @settings(max_examples=60, deadline=None)
    def test_divide_one_minus(self, a, d):
        pa = LaurentPoly(a)
        factor = LaurentPoly.one() - mono(d)
        assert divide_one_minus(pa * factor, d) == pa
        try:
            q = divide_one_minus(pa, d)
        except NonPolynomialCharacter:
            assert not pa.is_zero()
        else:
            assert q * factor == pa

    @given(
        a=st.dictionaries(exps.filter(any), st.integers(-3, 3), max_size=5),
        t=st.tuples(nonzero_t, nonzero_t, nonzero_t),
        as_fraction=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_exp_pleth_matches_naive_product(self, a, t, as_fraction):
        p = LaurentPoly({e: F(c) if as_fraction else c for e, c in a.items()})
        weights = {e: e[0] * t[0] + e[1] * t[1] + e[2] * t[2] for e, c in a.items() if c}
        if any(w == 0 for w in weights.values()):
            with pytest.raises(ValueError, match="genericity"):
                exp_pleth(p, *t)
            return
        naive = F(1)
        for e, w in weights.items():
            naive *= w ** a[e]
        value = exp_pleth(p, *t)
        assert type(value) is F and value == naive

    def test_exp_pleth_rejects_non_integer_exponent(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            exp_pleth(mono(T1, F(1, 2)), F(2), F(3), F(5))
