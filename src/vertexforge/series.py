"""Truncated exact power series: one q variable (QSeries) and several
descendent variables (DescSeries).

QSeries carries an explicit integer leading shift so that series graded by
q^chi with different chi-normalizations stay comparable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, le
from typing import Dict, List, Sequence, Tuple


class QSeries:
    """shift + exact coefficients of q^0..q^order (relative to the shift)."""

    __slots__ = ("order", "coeffs", "shift")

    def __init__(self, order: int, coeffs: Sequence[Fraction] | None = None, shift: int = 0):
        self.order = order
        self.shift = shift
        self.coeffs: List[Fraction] = [Fraction(0)] * (order + 1)
        if coeffs is not None:
            for n, c in enumerate(coeffs):
                if n <= order:
                    self.coeffs[n] = Fraction(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.normalized_pairs() == other.normalized_pairs()

    def normalized_pairs(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple(
            (self.shift + n, c) for n, c in enumerate(self.coeffs) if c != 0
        )

    def __add__(self, other: "QSeries") -> "QSeries":
        lo = min(self.shift, other.shift)
        hi = min(self.shift + self.order, other.shift + other.order)
        out = QSeries(hi - lo, shift=lo)
        for n, c in enumerate(self.coeffs):
            if lo <= self.shift + n <= hi:
                out.coeffs[self.shift + n - lo] += c
        for n, c in enumerate(other.coeffs):
            if lo <= other.shift + n <= hi:
                out.coeffs[other.shift + n - lo] += c
        return out

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries(self.order, [c * other for c in self.coeffs], self.shift)
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = QSeries(order, shift=self.shift + other.shift)
        for i in range(min(self.order, order) + 1):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(min(other.order, order - i) + 1):
                out.coeffs[i + j] += a * other.coeffs[j]
        return out

    __rmul__ = __mul__

    def truncate(self, order: int) -> "QSeries":
        return QSeries(min(order, self.order), self.coeffs[: order + 1], self.shift)

    def coeff_at(self, n: int) -> Fraction:
        """Coefficient of q^n (absolute grading, shift included)."""
        m = n - self.shift
        if 0 <= m <= self.order:
            return self.coeffs[m]
        return Fraction(0)

    def __repr__(self) -> str:
        bits = [f"({c})*q^{self.shift + n}" for n, c in enumerate(self.coeffs)]
        return " + ".join(bits) if bits else "0"


class DescSeries:
    """Truncated multivariate power series in the descendent variables,
    truncated at the per-variable orders `orders[v]`.

    Invariant: `coeffs` holds only nonzero `Fraction`s, at exponents inside
    `orders`. Only the public constructor validates; the operations build
    their dicts from operands that already hold the invariant. `+`, `-` and
    `*` of two series take each variable's lower order of the two operands,
    as `QSeries` does, and raise `ValueError` for operands in different
    variables (`localcurve._lift` re-indexes a series into new variables).
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
        return self.variables == other.variables and self.coeffs == other.coeffs

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
