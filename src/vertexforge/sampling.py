"""Generic rational samples of the equivariant parameters (t1, t2, t3).

A sample is generic at bound L when no linear form i*t1 + j*t2 + k*t3 with
|i|, |j|, |k| <= L (not all zero) vanishes.  The constrained mode pins the
sample to the line t1 + t2 = c*t3 and demands genericity among all relations
not implied by that line.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .laurent import LaurentPoly, exp_pleth, exp_pleth_extended, over_common_denominator

_RETRY_BUDGET = 200


class ParamSample(NamedTuple):
    t1: Fraction
    t2: Fraction
    t3: Fraction
    genericity_bound: int
    line: int | None = None  # c when constrained to t1 + t2 = c*t3

    @property
    def a1(self) -> Fraction:
        return self.t1 / self.t3

    @property
    def a2(self) -> Fraction:
        return self.t2 / self.t3

    def exp(self, p: LaurentPoly) -> Fraction:
        return exp_pleth(p, self.t1, self.t2, self.t3)

    def exp_extended(self, p: LaurentPoly):
        """(value, zero_order): the plethystic exponential as value * 0^order."""
        return exp_pleth_extended(p, self.t1, self.t2, self.t3)

    def substituted(self, d1: int, d2: int) -> "ParamSample":
        """Parameters at the infinity vertex: s1=t1-d1*t3, s2=t2-d2*t3, s3=-t3
        (MNOP1's weights at infinity for normal degrees (d1, d2))."""
        return ParamSample(
            self.t1 - d1 * self.t3,
            self.t2 - d2 * self.t3,
            -self.t3,
            self.genericity_bound,
        )

    def to_json(self) -> dict:
        return {
            "t1": str(self.t1),
            "t2": str(self.t2),
            "t3": str(self.t3),
            "L": self.genericity_bound,
            "line": self.line,
        }


def _is_generic(t1: Fraction, t2: Fraction, t3: Fraction, L: int, line: int | None) -> bool:
    # integer triple (x1, x2, x3) with the same vanishing locus
    x1, x2, x3, _ = over_common_denominator(t1, t2, t3)
    if x3 == 0:
        return False  # (0, 0, 1) vanishes
    # for each (i, j) at most one k solves i*x1 + j*x2 + k*x3 = 0; the
    # solutions within the bound must be exactly the allowed ones: (0, 0, 0),
    # and on the line t1 + t2 = c*t3 the multiples m*(1, 1, -c).  x3 divides
    # i*x1 + j*x2 only for j in one residue class modulo x3/gcd(x2, x3) (none
    # unless the gcd divides i*x1), so only those j are tried; every solution
    # found must be allowed, and there must be as many as allowed ones
    if line is None:
        allowed_count = 1
    else:
        allowed_count = 2 * (L // abs(line)) + 1 if line else 2 * L + 1
    g = gcd(x2, x3)
    mod = abs(x3) // g
    inverse = pow(x2 // g, -1, mod) if mod > 1 else 0
    found = 0
    for i in range(-L, L + 1):
        if (i * x1) % g:
            continue
        j = (-(i * x1) // g * inverse) % mod if mod > 1 else 0
        for j in range(j - (j + L) // mod * mod, L + 1, mod):
            r = i * x1 + j * x2
            if abs(r) > L * abs(x3):
                continue
            k = -r // x3
            if line is None:
                allowed = 0 if i == j == 0 else None
            else:
                allowed = -line * j if i == j and abs(line * j) <= L else None
            if k != allowed:
                return False
            found += 1
    return found == allowed_count


def sample_random(seed: int, L: int, line: int | None = None) -> ParamSample:
    """Deterministic generic sample; heights >= 10^3 per the certification
    standard.  `line` = c constrains to t1 + t2 = c*t3.
    """
    if L < 1:
        raise ValueError("genericity bound must be >= 1")
    rng = random.Random(f"vertexforge:{seed}:{L}:{line}")

    def draw() -> Fraction:
        num = rng.randint(1000, 5000) * rng.choice((1, -1))
        den = rng.randint(1000, 5000)
        return Fraction(num, den)

    for _ in range(_RETRY_BUDGET):
        if line is None:
            t1, t2, t3 = draw(), draw(), draw()
        else:
            t1, t3 = draw(), draw()
            t2 = line * t3 - t1
        if t3 == 0 or t1 == 0 or t2 == 0:
            continue
        if _is_generic(t1, t2, t3, L, line):
            return ParamSample(t1, t2, t3, L, line)
    raise RuntimeError("sampling exhausted: no generic sample within retry budget")


def seeded_samples(base_seed: int, L: int, n: int) -> list[ParamSample]:
    """n independent generic samples from the distinct seeds base_seed + 101 i;
    every prefix is the same for every n."""
    return [sample_random(base_seed + 101 * i, L) for i in range(n)]

