"""Exact multivariate Laurent polynomials in t1, t2, t3 and structured-
denominator characters num / prod(1 - t^d).

Coefficients are exact rationals: `int` when integral, `fractions.Fraction`
otherwise (the two mix exactly, compare and hash alike).  Every character the
localization route builds is integral, so its arithmetic stays on `int`.
No floating point anywhere.  Exponent triples are plain tuples (a, b, c) in
Z^3.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

Exponent = Tuple[int, int, int]
Coeff = Union[int, Fraction]


class NonPolynomialCharacter(ValueError):
    """Raised when a character does not reduce to a Laurent polynomial."""


def _add_exp(e: Exponent, f: Exponent) -> Exponent:
    return (e[0] + f[0], e[1] + f[1], e[2] + f[2])


def _neg_exp(e: Exponent) -> Exponent:
    return (-e[0], -e[1], -e[2])


def over_common_denominator(*xs: Coeff) -> Tuple[int, ...]:
    """(n_1, ..., n_k, D) with x_i = n_i / D, D the least common denominator
    of the ints or Fractions x_i."""
    D = lcm(*(x.denominator for x in xs))
    return (*(x.numerator * (D // x.denominator) for x in xs), D)


def _coeff(c) -> Coeff:
    """An exact coefficient: `int` when integral, else `Fraction`."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class LaurentPoly:
    """Finite map {(a,b,c): int | Fraction}, zero coefficients never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Coeff] | None = None):
        self.terms: Dict[Exponent, Coeff] = {}
        if terms:
            for e, c in terms.items():
                if c != 0:
                    self.terms[tuple(e)] = _coeff(c)

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({(0, 0, 0): c})

    @staticmethod
    def monomial(e: Exponent, c=1) -> "LaurentPoly":
        return LaurentPoly({tuple(e): c})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.const(1)

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[Tuple[Exponent, Coeff]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentPoly()
        r.terms = out
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly()
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly()
            r = LaurentPoly()
            q = _coeff(other)
            r.terms = {e: c * q for e, c in self.terms.items()}
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: Dict[Exponent, Coeff] = {}
        get = out.get
        rhs = list(other.terms.items())
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in rhs:
                e = (a1 + a2, b1 + b2, c1 + c2)
                out[e] = get(e, 0) + x * y
        r = LaurentPoly()
        r.terms = {e: c for e, c in out.items() if c}
        return r

    __rmul__ = __mul__

    def shift(self, e: Exponent) -> "LaurentPoly":
        """Multiply by the monomial t^e."""
        r = LaurentPoly()
        r.terms = {_add_exp(f, e): c for f, c in self.terms.items()}
        return r

    def bar(self) -> "LaurentPoly":
        """Involution t_i -> t_i^{-1} (negate all exponents)."""
        r = LaurentPoly()
        r.terms = {_neg_exp(e): c for e, c in self.terms.items()}
        return r

    def substitute_monomials(self, images: Iterable[Exponent]) -> "LaurentPoly":
        """Ring map t_i -> t^{images[i]} for i = 1, 2, 3."""
        im = [tuple(e) for e in images]
        out: Dict[Exponent, Coeff] = {}
        for (a, b, c), coeff in self.terms.items():
            e = (
                a * im[0][0] + b * im[1][0] + c * im[2][0],
                a * im[0][1] + b * im[1][1] + c * im[2][1],
                a * im[0][2] + b * im[1][2] + c * im[2][2],
            )
            s = out.get(e, 0) + coeff
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentPoly()
        r.terms = out
        return r

    def coeff(self, e: Exponent) -> Coeff:
        return self.terms.get(tuple(e), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            bits.append(f"{c}*t^{e}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [
            {"e": list(e), "c": f"{c.numerator}/{c.denominator}"}
            for e, c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(data: list) -> "LaurentPoly":
        terms = {}
        for item in data:
            num, den = item["c"].split("/")
            terms[tuple(item["e"])] = Fraction(int(num), int(den))
        return LaurentPoly(terms)


def divide_one_minus(num: LaurentPoly, d: Exponent) -> LaurentPoly:
    """Exact quotient num / (1 - t^d) in the Laurent ring.

    num = Q (1 - t^d) says num(x) = Q(x) - Q(x - d): on each line x + Z d the
    quotient is the running sum of num along the line, and it is a Laurent
    polynomial exactly when every line's sum is zero.  Raises
    NonPolynomialCharacter otherwise.
    """
    d = tuple(d)
    if d == (0, 0, 0):
        raise NonPolynomialCharacter("division by (1 - t^0) = 0")
    # position of x on its line: floor(x[axis] / d[axis]) for a nonzero entry
    axis = next(i for i in range(3) if d[i] != 0)
    step = d[axis]
    lines: Dict[Exponent, list] = {}
    for e, c in num.terms.items():
        m = e[axis] // step
        base = (e[0] - m * d[0], e[1] - m * d[1], e[2] - m * d[2])
        lines.setdefault(base, []).append((m, c))
    quot: Dict[Exponent, Coeff] = {}
    for (b0, b1, b2), pts in lines.items():
        pts.sort()
        acc = 0
        for (m, c), (m_next, _) in zip(pts, pts[1:]):
            acc += c
            if acc:
                for mm in range(m, m_next):
                    quot[(b0 + mm * d[0], b1 + mm * d[1], b2 + mm * d[2])] = acc
        if acc + pts[-1][1]:
            raise NonPolynomialCharacter(
                f"non-polynomial character: remainder survives division by (1 - t^{d})"
            )
    out = LaurentPoly()
    out.terms = quot
    return out


def divide_t3_lines(terms: Iterable[Tuple[Tuple[int, int], int, Coeff]]) -> LaurentPoly:
    """Exact quotient num / (1 - t3) of num = sum of c t^(a,b,l) over the
    terms ((a, b), l, c), a repeated exponent adding up.

    The terms are collected by t3-line (a, b).  As in `divide_one_minus`,
    the quotient on each line is the running sum of num along it, and it is
    a Laurent polynomial exactly when every line's sum is zero.  Raises
    NonPolynomialCharacter otherwise.
    """
    lines: Dict[Tuple[int, int], Dict[int, Coeff]] = {}
    for base, l, c in terms:
        line = lines.get(base)
        if line is None:
            lines[base] = {l: c}
        else:
            line[l] = line.get(l, 0) + c
    quot: Dict[Exponent, Coeff] = {}
    for (a, b), line in lines.items():
        # one pass up the line: acc is the sum of num up to the previous
        # power lo, the quotient's coefficient from lo up to this power
        acc = lo = 0
        for hi in sorted(line):
            if acc:
                for l in range(lo, hi):
                    quot[(a, b, l)] = acc
            acc += line[hi]
            lo = hi
        if acc:
            raise NonPolynomialCharacter(
                "non-polynomial character: remainder survives division by (1 - t^(0, 0, 1))"
            )
    out = LaurentPoly()
    out.terms = quot
    return out


class EquivariantCharacter:
    """num / prod_{d in den} (1 - t^d), den a multiset of exponent triples."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[Exponent] = ()):
        self.num = num
        self.den: Tuple[Exponent, ...] = tuple(sorted(tuple(d) for d in den))

    def den_poly(self) -> LaurentPoly:
        p = LaurentPoly.one()
        for d in self.den:
            p = p * (LaurentPoly.one() - LaurentPoly.monomial(d))
        return p

    def __add__(self, other: "EquivariantCharacter") -> "EquivariantCharacter":
        if not isinstance(other, EquivariantCharacter):
            return NotImplemented
        # common denominator: multiset union (cancel shared factors once)
        shared = []
        rest_a = list(self.den)
        rest_b = list(other.den)
        for d in list(rest_a):
            if d in rest_b:
                shared.append(d)
                rest_a.remove(d)
                rest_b.remove(d)
        num = self.num
        for d in rest_b:
            num = num * (LaurentPoly.one() - LaurentPoly.monomial(d))
        num2 = other.num
        for d in rest_a:
            num2 = num2 * (LaurentPoly.one() - LaurentPoly.monomial(d))
        return EquivariantCharacter(num + num2, shared + rest_a + rest_b)

    def __neg__(self) -> "EquivariantCharacter":
        return EquivariantCharacter(-self.num, self.den)

    def __sub__(self, other: "EquivariantCharacter") -> "EquivariantCharacter":
        return self + (-other)

    def __mul__(self, other) -> "EquivariantCharacter":
        if isinstance(other, (int, Fraction)):
            return EquivariantCharacter(self.num * other, self.den)
        if isinstance(other, LaurentPoly):
            return EquivariantCharacter(self.num * other, self.den)
        if not isinstance(other, EquivariantCharacter):
            return NotImplemented
        return EquivariantCharacter(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def shift(self, e: Exponent) -> "EquivariantCharacter":
        return EquivariantCharacter(self.num.shift(e), self.den)

    def bar(self) -> "EquivariantCharacter":
        return EquivariantCharacter(
            self.num.bar(), tuple(_neg_exp(d) for d in self.den)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquivariantCharacter):
            return NotImplemented
        # cross-multiplication
        return self.num * other.den_poly() == other.num * self.den_poly()

    def reduce(self) -> LaurentPoly:
        """Exact quotient as a finite LaurentPoly, factor by factor."""
        p = self.num
        for d in self.den:
            p = divide_one_minus(p, d)
        return p

    def __repr__(self) -> str:
        if not self.den:
            return repr(self.num)
        return f"({self.num!r}) / prod(1 - t^d for d in {list(self.den)})"


def pochhammer(x, n: int):
    """[x]_n = Gamma(x+n)/Gamma(x) for integer n.

    n >= 0: x(x+1)...(x+n-1); n < 0: 1/((x-1)(x-2)...(x-|n|)).
    Works for any field element supporting * and -.
    """
    if n >= 0:
        out = x - x + 1 if not isinstance(x, (int, Fraction)) else Fraction(1)
        for l in range(n):
            out = out * (x + l)
        return out
    denom = Fraction(1) if isinstance(x, (int, Fraction)) else x - x + 1
    for l in range(1, -n + 1):
        f = x - l
        if f == 0:
            raise ZeroDivisionError(f"pole at non-generic input: [x]_{n} with x - {l} = 0")
        denom = denom * f
    return 1 / denom


def exp_pleth_extended(p: LaurentPoly, t1: Fraction, t2: Fraction, t3: Fraction):
    """Plethystic exponential allowing a zero-weight monomial: returns
    (value, zero_order) where zero_order is the constant-monomial
    coefficient; the product is value * 0^zero_order (0 when positive,
    a pole when negative).

    The linear form of exponent (i,j,k) is i*t1 + j*t2 + k*t3; requires
    integer coefficients, and no other form may vanish.  Evaluated in
    integers: with t_i = x_i / D the product of the other monomials is
    prod (i*x1 + j*x2 + k*x3)^{a_e} times D^{-sum a_e}, and only the final
    quotient is a Fraction.
    """
    x1, x2, x3, d = over_common_denominator(t1, t2, t3)
    num = den = 1
    degree = zorder = 0
    for (i, j, k), a in p.terms.items():
        if type(a) is not int:
            if a.denominator != 1:
                raise ValueError("plethystic exponent requires integer coefficients")
            a = a.numerator
        w = i * x1 + j * x2 + k * x3
        if w == 0:
            if i == j == k == 0:
                # the constant monomial is set aside as the zero order
                zorder = a
                continue
            raise ValueError(
                f"sample genericity insufficient: weight {i}*t1+{j}*t2+{k}*t3 vanishes"
            )
        if a > 0:
            num *= w**a
        else:
            den *= w ** (-a)
        degree += a
    if degree > 0:
        den *= d**degree
    else:
        num *= d ** (-degree)
    return Fraction(num, den), zorder


def exp_pleth(p: LaurentPoly, t1: Fraction, t2: Fraction, t3: Fraction) -> Fraction:
    """Plethystic exponential: Exp(sum a_e t^e) = prod (e.t)^{a_e}, the
    `exp_pleth_extended` value of a character with no constant monomial."""
    if p.coeff((0, 0, 0)) != 0:
        raise ValueError("zero-weight monomial: constant term in plethystic exponent")
    return exp_pleth_extended(p, t1, t2, t3)[0]
