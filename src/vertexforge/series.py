"""Truncated exact power series: one q variable (QSeries) and several
descendent variables (DescSeries).

A QSeries carries an integer leading shift, so that series graded by q^chi
with different chi-normalizations stay comparable, and its coefficients may
be DescSeries: every vertex, residue and glued series is one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, le
from typing import Dict, List, Sequence, Tuple


class QSeries:
    """The coefficients of q^shift .. q^(shift + len - 1): all exact numbers,
    or all DescSeries in one set of variables and orders, which the operands
    of `+` and `*` share.

    `+` and series `*` keep the lower top q-power that both operands
    determine; a scalar operand is an int or a Fraction.  Equal series have
    equal shifts and equal coefficient lists."""

    __slots__ = ("coeffs", "shift")

    def __init__(self, coeffs: Sequence, shift: int = 0):
        self.coeffs: List = list(coeffs)
        self.shift = shift

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.shift == other.shift and self.coeffs == other.coeffs

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = (self, other) if self.shift <= other.shift else (other, self)
        top = min(a.shift + len(a.coeffs), b.shift + len(b.coeffs))
        # the lower-shift operand covers every degree below the top
        out = a.coeffs[:top - a.shift]
        off = b.shift - a.shift
        for i, c in enumerate(b.coeffs[:max(top - b.shift, 0)]):
            out[off + i] = out[off + i] + c
        return QSeries(out, a.shift)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries([c * other for c in self.coeffs], self.shift)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        out = [a[0] * c for c in b[:n]]
        for i in range(1, n):
            x = a[i]
            for j in range(n - i):
                out[i + j] = out[i + j] + x * b[j]
        return QSeries(out, self.shift + other.shift)

    __rmul__ = __mul__

    def coeff_at(self, n: int):
        """Coefficient of q^n (absolute grading, shift included)."""
        m = n - self.shift
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return self.coeffs[0] * 0 if self.coeffs else Fraction(0)

    def scalars(self) -> List[Fraction]:
        """The constant terms: each DescSeries' coefficient at exponent 0,
        or the number itself."""
        return [c.coeff((0,) * len(c.variables)) if isinstance(c, DescSeries) else c
                for c in self.coeffs]

    def to_json(self) -> list:
        """The JSON of each DescSeries coefficient."""
        return [c.to_json() for c in self.coeffs]


class DescSeries:
    """Truncated multivariate power series in the descendent variables,
    truncated at the per-variable orders `orders[v]`.

    Invariant: `coeffs` holds only nonzero `Fraction`s, at exponents inside
    `orders`. Only the public constructor validates; the operations build
    their dicts from operands that already hold the invariant. `+`, `-` and
    `*` of two series take each variable's lower order of the two operands,
    as `QSeries` does, and raise `ValueError` for operands in different
    variables (`localcurve._lift` re-indexes a series into new variables).
    Equal series have equal variables, orders and terms.
    """

    __slots__ = ("variables", "orders", "coeffs")

    def __init__(
        self,
        variables: Sequence[str],
        orders: Sequence[int],
        coeffs: Dict[Tuple[int, ...], Fraction] | None = None,
    ):
        self.variables = tuple(variables)
        self.orders = tuple(orders)
        self.coeffs: Dict[Tuple[int, ...], Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c != 0 and self._inside(e):
                    self.coeffs[tuple(e)] = Fraction(c)

    def _inside(self, e: Tuple[int, ...]) -> bool:
        return all(map(le, e, self.orders))

    @classmethod
    def const(cls, variables, orders, c) -> "DescSeries":
        out = cls(variables, orders)
        if c != 0:
            out.coeffs[(0,) * len(out.variables)] = Fraction(c)
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = DescSeries.const(self.variables, self.orders, other)
        if not isinstance(other, DescSeries):
            return NotImplemented
        return (self.variables == other.variables and self.orders == other.orders
                and self.coeffs == other.coeffs)

    def _orders_with(self, other: "DescSeries") -> Tuple[int, ...]:
        """The orders of self + other, self - other and self * other."""
        if other.variables != self.variables:
            raise ValueError(f"series in variables {self.variables} and {other.variables}")
        if other.orders == self.orders:
            return self.orders
        return tuple(map(min, self.orders, other.orders))

    def _truncated(self, orders: Tuple[int, ...]) -> "DescSeries":
        """self's terms inside `orders`, in a dict of their own."""
        out = DescSeries(self.variables, orders)
        if orders == self.orders:
            out.coeffs = dict(self.coeffs)
        else:
            out.coeffs = {e: c for e, c in self.coeffs.items() if out._inside(e)}
        return out

    # a scalar operand is an int or a Fraction: a float has no exact value
    def __add__(self, other) -> "DescSeries":
        if not isinstance(other, DescSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = DescSeries.const(self.variables, self.orders, other)
        out = self._truncated(self._orders_with(other))
        coeffs, get, orders = out.coeffs, out.coeffs.get, out.orders
        check = orders != other.orders
        for e, c in other.coeffs.items():
            if check and not all(map(le, e, orders)):
                continue
            s = get(e)
            if s is None:
                coeffs[e] = c
            else:
                s += c
                if s:
                    coeffs[e] = s
                else:
                    del coeffs[e]
        return out

    __radd__ = __add__

    def __neg__(self) -> "DescSeries":
        out = DescSeries(self.variables, self.orders)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other) -> "DescSeries":
        if not isinstance(other, DescSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self + -Fraction(other)
        out = self._truncated(self._orders_with(other))
        coeffs, get, orders = out.coeffs, out.coeffs.get, out.orders
        check = orders != other.orders
        for e, c in other.coeffs.items():
            if check and not all(map(le, e, orders)):
                continue
            s = get(e)
            if s is None:
                coeffs[e] = -c
            else:
                s -= c
                if s:
                    coeffs[e] = s
                else:
                    del coeffs[e]
        return out

    def __rsub__(self, other) -> "DescSeries":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other) -> "DescSeries":
        if isinstance(other, (int, Fraction)):
            out = DescSeries(self.variables, self.orders)
            if other:
                k = Fraction(other)
                out.coeffs = {e: c * k for e, c in self.coeffs.items()}
            return out
        if not isinstance(other, DescSeries):
            return NotImplemented
        out = DescSeries(self.variables, self._orders_with(other))
        orders = out.orders
        coeffs = {}
        get = coeffs.get
        terms = other.coeffs.items()
        for e1, c1 in self.coeffs.items():
            for e2, c2 in terms:
                e = tuple(map(add, e1, e2))
                if all(map(le, e, orders)):
                    s = get(e)
                    coeffs[e] = c1 * c2 if s is None else s + c1 * c2
        # a product of nonzero terms is nonzero; only a sum can cancel
        out.coeffs = {e: c for e, c in coeffs.items() if c}
        return out

    __rmul__ = __mul__

    def coeff(self, e: Tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(e), Fraction(0))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(f"{v}^{x}" for v, x in zip(self.variables, e) if x)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "orders": list(self.orders),
            "coeffs": {
                ",".join(map(str, e)): f"{c.numerator}/{c.denominator}"
                for e, c in sorted(self.coeffs.items())
            },
        }


def exp_single(variables, orders, var: str, rate: Fraction) -> DescSeries:
    """e^{rate * var} truncated: sum_m rate^m var^m / m!, as a running
    product, each coefficient the previous one times rate / m."""
    out = DescSeries(variables, orders)
    idx = out.variables.index(var)
    rate = Fraction(rate)
    e = [0] * len(out.variables)
    c = Fraction(1)
    out.coeffs[tuple(e)] = c
    for m in range(1, orders[idx] + 1 if rate else 1):
        c = c * rate / m
        e[idx] = m
        out.coeffs[tuple(e)] = c
    return out


def enumerate_exponents(orders: Sequence[int], total: int | None = None):
    for e in product(*(range(o + 1) for o in orders)):
        if total is None or sum(e) <= total:
            yield e
