"""Iterated-residue evaluation in nested contour regions |z_1| > ... > |z_n|.

Two exact evaluators:

* `residue_sum` / `residue_sum_series` — the factored pole engine.  An
  integrand is a small dense z-polynomial (a Chern or interpolation basis
  polynomial, descendent or EGL u-buckets) times linear forms with signed
  exponents.  Every form is normalized to leading coefficient 1, so equal
  numerator and denominator forms cancel; a monomial z_i^m is the form z_i
  to the power m.  The residue in z_v at an enclosed pole of order m is a
  sum over the ways to put m - 1 derivatives on the other forms
  (d/dz_v L^e = e c_v L^(e-1)), after which the root is substituted into
  each form; terms stay factored throughout.  Pole locations carry a split
  constant (an integer-scale part and an infinitesimal-scale part built
  from a_1, a_2); in the `inner` region only poles with vanishing
  integer-scale part are enclosed, in the `full` region every finite pole
  is enclosed.  The dense parts enter by linearity: residues are taken per
  z-monomial and memoized.

* `iterated_residue` — formal Laurent expansion with per-variable truncation
  windows (valid when every reciprocal factor is expanded in negative powers
  of its leading z, i.e. all finite poles sit inside every contour); window
  stability is asserted by recomputation at enlarged windows.

Both treat "integration" as coefficient extraction, never quadrature.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod
from typing import Dict, Iterable, List, Sequence, Tuple

ZERO = Fraction(0)


class WindowInstability(ArithmeticError):
    """Enlarging the truncation windows changed an extracted coefficient."""


# ---------------------------------------------------------------------------
# linear forms with scale-split constants


@dataclass(frozen=True)
class LinForm:
    """c . z + big + small, the constant split by formal scale class.

    `big` collects integer-scale shifts (outside every inner contour),
    `small` collects combinations of the infinitesimal parameters.
    """

    coeffs: Tuple[Fraction, ...]
    big: Fraction
    small: Fraction

    @staticmethod
    def make(nvars: int, var_coeffs: Dict[int, Fraction] | None = None, big=0, small=0) -> "LinForm":
        c = [ZERO] * nvars
        for v, x in (var_coeffs or {}).items():
            c[v] = Fraction(x)
        return LinForm(tuple(c), Fraction(big), Fraction(small))


# ---------------------------------------------------------------------------
# polynomials in the z variables over an arbitrary coefficient ring


def zp_mul(p: Dict, q: Dict) -> Dict:
    out: Dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if isinstance(s, Fraction) and s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def zp_const(nvars: int, c) -> Dict:
    return {(0,) * nvars: c}


def zp_linform(nvars: int, lf: LinForm) -> Dict:
    """The linear form as a polynomial (scale classes merge to a value)."""
    out: Dict = {}
    for v, x in enumerate(lf.coeffs):
        if x:
            e = tuple(1 if w == v else 0 for w in range(nvars))
            out[e] = x
    c = lf.big + lf.small
    if c:
        out[(0,) * nvars] = c
    return out


# ---------------------------------------------------------------------------
# the factored pole engine


@dataclass
class Term:
    """poly * prod L^e: a dense z-polynomial times linear forms with signed
    exponents (e > 0 numerator, e < 0 denominator)."""

    poly: Dict
    factors: Tuple[Tuple[LinForm, int], ...]


def _binom(e: int, k: int) -> int:
    """Generalized binomial coefficient e(e-1)...(e-k+1)/k!, any integer e."""
    return prod(range(e, e - k, -1)) // factorial(k)


class _PoleEngine:
    """Iterated residues of z^m * prod L^e for one fixed list of linear forms.

    Forms are interned by id with leading coefficient 1; a term is a
    coefficient and a sorted tuple of (form id, signed exponent).  The
    variables are taken innermost first, so at z_v every form has lost its
    dependence on z_(v+1)..z_n and a pole lies inside the z_v contour
    exactly when its form is z_v + constant (in the `inner` region, with no
    integer-scale part).  Residues of monomials are memoized.
    """

    def __init__(self, factors: Iterable[Tuple[LinForm, int]], nvars: int, region: str):
        if region not in ("inner", "full"):
            raise ValueError(f"unknown region {region!r}")
        self.nvars = nvars
        self.region = region
        self.forms: List[Tuple[Tuple[Fraction, ...], Fraction, Fraction]] = []
        self.ids: Dict[tuple, int] = {}
        self.lead: List[int] = []
        self.subs: Dict[Tuple[int, int], Tuple[bool, object]] = {}
        self.memo: Dict[tuple, Fraction] = {}
        self.var = [
            self._intern(tuple(Fraction(v == w) for w in range(nvars)), ZERO, ZERO, v)
            for v in range(nvars)
        ]
        self.coef = Fraction(1)
        self.base: Dict[int, int] = {}
        for lf, e in factors:
            nz = [v for v, x in enumerate(lf.coeffs) if x]
            if nz:
                c = lf.coeffs[nz[0]]
                i = self._intern(tuple(x / c for x in lf.coeffs), lf.big / c, lf.small / c, nz[0])
                self.coef *= c ** e
                self.base[i] = self.base.get(i, 0) + e
                continue
            # a constant folds into the coefficient; zero kills a numerator
            x = lf.big + lf.small
            if x == 0 and e < 0:
                raise ZeroDivisionError("pole at non-generic input: constant factor vanishes")
            if e:
                self.coef *= x ** e if x else ZERO

    def _intern(self, coeffs, big, small, lead: int) -> int:
        key = (coeffs, big, small)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.forms)
            self.forms.append(key)
            self.lead.append(lead)
        return i

    def _substitute(self, i: int, p: int) -> Tuple[bool, object]:
        """Form i at the root of pole form p: (True, form id) or (False, value)."""
        key = (i, p)
        out = self.subs.get(key)
        if out is None:
            coeffs, big, small = self.forms[i]
            v = self.lead[p]
            _, pbig, psmall = self.forms[p]
            cv = coeffs[v]
            rest = coeffs[:v] + (ZERO,) + coeffs[v + 1:]
            big, small = big - cv * pbig, small - cv * psmall
            if any(rest):
                out = (True, self._intern(rest, big, small, self.lead[i]))
            else:
                out = (False, big + small)
            self.subs[key] = out
        return out

    def _residues(self, key: tuple, coef: Fraction, v: int, out: Dict[tuple, Fraction]) -> None:
        """Add to `out` the residues of one term in z_v at its enclosed poles."""
        forms = self.forms
        active = [(i, e) for i, e in key if forms[i][0][v]]
        passive = [(i, e) for i, e in key if not forms[i][0][v]]
        for p, m in active:
            if m >= 0 or self.lead[p] != v or (self.region == "inner" and forms[p][1]):
                continue
            others = []
            for i, e in active:
                if i == p:
                    continue
                is_form, val = self._substitute(i, p)
                if not is_form and val == 0 and e < 0:
                    raise ZeroDivisionError("pole at non-generic input: factor vanished on substitution")
                others.append((i, e, forms[i][0][v], is_form, val))
            for ks in combinations_with_replacement(range(len(others)), -m - 1):
                counts = Counter(ks)
                c = coef
                exps = dict(passive)
                for j, (i, e, cv, is_form, val) in enumerate(others):
                    k = counts.get(j, 0)
                    if k:
                        c *= _binom(e, k) * cv ** k
                    x = e - k
                    if is_form:
                        exps[val] = exps.get(val, 0) + x
                    elif val:
                        c *= val ** x
                    elif x:
                        c = ZERO
                    if not c:
                        break
                else:
                    k2 = tuple(sorted((i, x) for i, x in exps.items() if x))
                    out[k2] = out.get(k2, ZERO) + c

    def monomial(self, mono: Tuple[int, ...]) -> Fraction:
        """Iterated residue of z^mono times the linear part."""
        val = self.memo.get(mono)
        if val is not None:
            return val
        exps = dict(self.base)
        for v, m in enumerate(mono):
            if m:
                exps[self.var[v]] = exps.get(self.var[v], 0) + m
        work = {tuple(sorted((i, x) for i, x in exps.items() if x)): self.coef} if self.coef else {}
        for v in range(self.nvars - 1, -1, -1):
            nxt: Dict[tuple, Fraction] = {}
            for key, c in work.items():
                self._residues(key, c, v, nxt)
            work = {k: c for k, c in nxt.items() if c}
        # every form is constant once all variables are substituted
        val = self.memo[mono] = sum(work.values(), ZERO)
        return val


def residue_sum(terms: Iterable[Term], nvars: int, region: str = "inner") -> Fraction:
    """Iterated residue over z_n, ..., z_1 (innermost contour first).

    Region 'inner': only poles at infinitesimal locations are enclosed;
    'full': all finite poles (expansion at infinity).
    """
    total = ZERO
    for t in terms:
        engine = _PoleEngine(t.factors, nvars, region)
        total += sum((c * engine.monomial(e) for e, c in t.poly.items()), ZERO)
    return total


def _u_buckets(dense: Dict) -> Dict[tuple, Dict]:
    """A z-polynomial with DescSeries coefficients as scalar z-polynomials
    keyed by descendent exponent."""
    out: Dict[tuple, Dict] = {}
    for ze, c in dense.items():
        for ue, x in c.coeffs.items():
            b = out.setdefault(ue, {})
            b[ze] = b.get(ze, ZERO) + x
    return out


def residue_sum_series(term: Term, buckets: Dict[tuple, Dict] | None, nvars: int, region: str,
                       vs, orders, total=None):
    """Iterated residue of term.poly * sum_ue u^ue buckets[ue] * prod L^e as a
    series in the descendent variables u (buckets None: the scalar integrand).

    The residue is linear in the integrand, so each z-monomial of the dense
    parts is taken once against the shared linear forms."""
    from .series import DescSeries

    if buckets is None:
        buckets = {(0,) * len(vs): zp_const(nvars, Fraction(1))}
    engine = _PoleEngine(term.factors, nvars, region)
    weights: Dict[tuple, Fraction] = {}

    def weight(ze):
        # residue of term.poly * z^ze
        w = weights.get(ze)
        if w is None:
            w = weights[ze] = sum(
                (c * engine.monomial(tuple(x + y for x, y in zip(e, ze))) for e, c in term.poly.items()),
                ZERO,
            )
        return w

    out = DescSeries(vs, orders, total)
    for ue, zp in buckets.items():
        val = sum((x * weight(ze) for ze, x in zp.items()), ZERO)
        if val:
            out.coeffs[ue] = val
    return out


# ---------------------------------------------------------------------------
# window-based expansion engine (all factors expanded at z = infinity)


@dataclass(frozen=True)
class RationalFactor:
    """Factor kinds for the expansion engine.

    kind 'poly': payload is a z-polynomial dict.
    kind 'inv_lin': 1/(z_i - c), expanded z_i^{-1} sum (c/z_i)^m.
    kind 'inv_pair': 1/(z_i - z_j - c), i < j, expanded in (z_j + c)/z_i.
    """

    kind: str
    i: int = 0
    j: int = 0
    c: Fraction = ZERO
    poly: tuple = ()

    @staticmethod
    def of_poly(p: Dict) -> "RationalFactor":
        return RationalFactor("poly", poly=tuple(sorted((e, c) for e, c in p.items())))

    def poly_dict(self) -> Dict:
        return {e: c for e, c in self.poly}


def _positive_budgets(factors: Sequence[RationalFactor], nvars: int, slack: int) -> List[int]:
    """Per-variable bound on the total positive degree the product can carry.

    Polynomial factors contribute their max degree; a pair factor
    1/(z_i - z_j - c) dumps positive powers of z_j bounded by the z_i budget,
    so budgets are propagated in increasing variable order (i < j).
    """
    pos = [slack] * nvars
    for f in factors:
        if f.kind == "poly":
            for v in range(nvars):
                pos[v] += max((e[v] for e, _ in f.poly), default=0)
    for v in range(nvars):
        for f in factors:
            if f.kind == "inv_pair" and f.j == v:
                pos[v] += pos[f.i] + 1
    return pos


def _expand_product(factors: Sequence[RationalFactor], nvars: int, windows: List[int]) -> Dict:
    from math import comb

    acc: Dict = {(0,) * nvars: Fraction(1)}

    def clip(d: Dict) -> Dict:
        return {
            e: c
            for e, c in d.items()
            if c and all(-windows[v] <= e[v] <= windows[v] for v in range(nvars))
        }

    for f in factors:
        if f.kind == "poly":
            acc = clip(zp_mul(acc, f.poly_dict()))
            continue
        out: Dict = {}
        if f.kind == "inv_lin":
            # 1/(z_i - c) = sum_m c^m z_i^{-m-1}
            for e, coeff in acc.items():
                cm = Fraction(1)
                for m in range(0, e[f.i] + windows[f.i] + 1):
                    e2 = tuple(x - m - 1 if v == f.i else x for v, x in enumerate(e))
                    if e2[f.i] < -windows[f.i]:
                        break
                    val = coeff * cm
                    s = out.get(e2)
                    out[e2] = val if s is None else s + val
                    cm *= f.c
        elif f.kind == "inv_pair":
            # 1/(z_i - z_j - c) = sum_m (z_j + c)^m z_i^{-m-1}
            for e, coeff in acc.items():
                for m in range(0, e[f.i] + windows[f.i] + 1):
                    ei = e[f.i] - m - 1
                    if ei < -windows[f.i]:
                        break
                    for r in range(m + 1):
                        ej = e[f.j] + r
                        if ej > windows[f.j]:
                            break
                        e2 = list(e)
                        e2[f.i] = ei
                        e2[f.j] = ej
                        e2t = tuple(e2)
                        val = coeff * comb(m, r) * f.c ** (m - r)
                        s = out.get(e2t)
                        out[e2t] = val if s is None else s + val
        else:
            raise ValueError(f"unknown factor kind {f.kind}")
        acc = clip(out)
    return acc


def iterated_residue(factors: Sequence[RationalFactor], nvars: int, slack: int = 2) -> Fraction:
    """Coefficient of z_1^0 ... z_n^0 of the product expanded in the region
    |z_1| > ... > |z_n| (all reciprocals in negative powers of the leading
    variable).  Recomputed at enlarged windows; disagreement raises
    WindowInstability.
    """
    w1 = _positive_budgets(factors, nvars, slack)
    a = _expand_product(factors, nvars, w1).get((0,) * nvars, Fraction(0))
    w2 = [w + 2 for w in w1]
    b = _expand_product(factors, nvars, w2).get((0,) * nvars, Fraction(0))
    if a != b:
        raise WindowInstability(f"window instability: {a} vs {b}")
    return a


# ---------------------------------------------------------------------------
# integrand builders (a-scale variables: z ~ content / t3, a_i = t_i / t3)


def _lf(nv: int, coeffs: Dict[int, Fraction], big=0, small=0) -> LinForm:
    return LinForm.make(nv, coeffs, big, small)


def _neg(coeffs: Dict[int, Fraction]) -> Dict[int, Fraction]:
    return {v: -c for v, c in coeffs.items()}


def omega_kernel(n: int, s) -> List[RationalFactor]:
    """Factors of prod_{i<j} omega(z_i - z_j) for the expansion engine,
    omega(z) = z(z - a1 - a2)/((z - a1)(z - a2)); the dz_i/z_i measure is the
    engine's zero-coefficient extraction itself."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a1, a2 = s.a1, s.a2
    out: List[RationalFactor] = []
    for i, j in combinations(range(n), 2):
        w = _lf(n, {i: Fraction(1), j: Fraction(-1)})
        num = zp_mul(zp_linform(n, w), zp_linform(n, LinForm(w.coeffs, w.big, -a1 - a2)))
        out.append(RationalFactor.of_poly(num))
        out.append(RationalFactor("inv_pair", i=i, j=j, c=a1))
        out.append(RationalFactor("inv_pair", i=i, j=j, c=a2))
    return out


def _kernel_factors(nv: int, x1: Fraction, x2: Fraction):
    """The measure prod_i dz_i/z_i and prod_{i<j} omega(z_i - z_j),
    omega(w) = w(w - x1 - x2)/((w - x1)(w - x2)), as signed linear forms."""
    out = [(_lf(nv, {i: Fraction(1)}), -1) for i in range(nv)]
    for i, j in combinations(range(nv), 2):
        w = {i: Fraction(1), j: Fraction(-1)}
        out += [(_lf(nv, w), 1), (_lf(nv, w, small=-x1 - x2), 1),
                (_lf(nv, w, small=-x1), -1), (_lf(nv, w, small=-x2), -1)]
    return out


def _signed(polys: Sequence[LinForm], recips: Sequence[LinForm]):
    """A block's (numerator, denominator) forms as (form, +-1) factors."""
    return [(L, 1) for L in polys] + [(L, -1) for L in recips]


def _column_block(nv: int, i: int, k: int, a1: Fraction, a2: Fraction):
    """Single-column weight [-z_i - a1 - a2]_k / [z_i - k]_k."""
    A = a1 + a2
    polys = [_lf(nv, {i: Fraction(-1)}, big=l, small=-A) for l in range(k)]
    recips = [_lf(nv, {i: Fraction(1)}, big=-l) for l in range(1, k + 1)]
    return polys, recips


def _pair_block(nv: int, i: int, j: int, b: int, a1: Fraction, a2: Fraction):
    """Two-column interaction for outer variable z_i, inner z_j, b = k_j - k_i.

    Derived from Exp(V(pi') - V(pi)) for adding a column; equals, with
    w = z_j - z_i,
      prod_{l=1..b}   (w-A-l)(w-l) / ((w-a1-l)(w-a2-l))
    * prod_{l=0..b-1} (-w-a1+l)(-w-a2+l) / ((-w-A+l)(-w+l))
    for b >= 0, and the reciprocal mirror for b < 0.
    """
    A = a1 + a2
    w = {j: Fraction(1), i: Fraction(-1)}
    polys: List[LinForm] = []
    recips: List[LinForm] = []
    if b >= 0:
        for l in range(1, b + 1):
            polys += [_lf(nv, w, big=-l, small=-A), _lf(nv, w, big=-l)]
            recips += [_lf(nv, w, big=-l, small=-a1), _lf(nv, w, big=-l, small=-a2)]
        for l in range(b):
            polys += [_lf(nv, _neg(w), big=l, small=-a1), _lf(nv, _neg(w), big=l, small=-a2)]
            recips += [_lf(nv, _neg(w), big=l, small=-A), _lf(nv, _neg(w), big=l)]
    else:
        beta = -b
        for l in range(beta):
            polys += [_lf(nv, w, big=l, small=-a1), _lf(nv, w, big=l, small=-a2)]
            recips += [_lf(nv, w, big=l, small=-A), _lf(nv, w, big=l)]
        for l in range(1, beta + 1):
            polys += [_lf(nv, _neg(w), big=-l, small=-A), _lf(nv, _neg(w), big=-l)]
            recips += [_lf(nv, _neg(w), big=-l, small=-a1), _lf(nv, _neg(w), big=-l, small=-a2)]
    return polys, recips


def _pt_factors(nv: int, kvec, a1: Fraction, a2: Fraction):
    """Linear part of the stable-pairs integrand at one k-vector: the
    kernel, the single-column blocks and the two-column interactions."""
    out = _kernel_factors(nv, a1, a2)
    for i, k in enumerate(kvec):
        out += _signed(*_column_block(nv, i, k, a1, a2))
    for i, j in combinations(range(nv), 2):
        out += _signed(*_pair_block(nv, i, j, kvec[j] - kvec[i], a1, a2))
    return out


def elementary_symmetric_poly(nv: int, degree: int) -> Dict:
    out: Dict = {}
    for idxs in combinations(range(nv), degree):
        out[tuple(1 if v in idxs else 0 for v in range(nv))] = Fraction(1)
    return out


def chern_monomial_poly(nv: int, parts: Sequence[int]) -> Dict:
    """c_lambda written in Chern roots: prod_i e_{lambda_i}(z_1..z_n)."""
    out = zp_const(nv, Fraction(1))
    for p in parts:
        out = zp_mul(out, elementary_symmetric_poly(nv, p))
    return out


# ---------------------------------------------------------------------------
# EGL tautological integrals: localization sum vs iterated residue


def egl_localization(n: int, u_orders: Sequence[int], s, conv=None, total: int | None = None):
    """Method A: sum over partitions of n of prod_l prod_cells (1 - u_l c(cell)) / e_mu."""
    from .characters import DEFAULT_CONVENTION, euler_hilb
    from .partitions import enum_partitions
    from .series import DescSeries

    conv = conv or DEFAULT_CONVENTION
    vs = tuple(f"u{l+1}" for l in range(len(u_orders)))
    out = DescSeries(vs, tuple(u_orders), total)
    for mu in enum_partitions(n):
        e_mu = euler_hilb(mu, s, conv)
        term = DescSeries.const(vs, u_orders, Fraction(1), total)
        for (i, j) in mu.cells():
            c = i * s.t1 + j * s.t2
            for l, v in enumerate(vs):
                lin = DescSeries.const(vs, u_orders, Fraction(1), total)
                e = tuple(1 if w == l else 0 for w in range(len(vs)))
                lin.coeffs[e] = -c
                term = term * lin
        out = out + term * (Fraction(1) / e_mu)
    return out


def egl_residue(n: int, u_orders: Sequence[int], s, conv=None, total: int | None = None,
                engine: str = "pole"):
    """Method B: (1/n!) (t1 t2)^{gamma n} x iterated residue of
    prod_{i<j} omega(z_i - z_j) prod_k prod_l (1 - u_l z_k), t-scale roots."""
    from .characters import DEFAULT_CONVENTION
    from .series import DescSeries, enumerate_exponents

    conv = conv or DEFAULT_CONVENTION
    vs = tuple(f"u{l+1}" for l in range(len(u_orders)))
    u_orders = tuple(u_orders)
    t1, t2 = s.t1, s.t2
    # u-buckets of prod_k prod_l (1 - u_l z_k): u^a has coefficient
    # prod_l (-1)^{a_l} e_{a_l}(z)
    buckets: Dict[tuple, Dict] = {}
    for a in enumerate_exponents(u_orders, total):
        p = zp_const(n, Fraction((-1) ** sum(a)))
        for al in a:
            p = zp_mul(p, elementary_symmetric_poly(n, al))
        if p:
            buckets[a] = p
    norm = Fraction(t1 * t2) ** (conv.hilb_norm * n) / factorial(n)
    if engine == "window":
        # expansion engine: exact but exponential in n; kept for small-n
        # cross-checks of the pole-summation engine
        factors: List[RationalFactor] = []
        for i, j in combinations(range(n), 2):
            w = {i: Fraction(1), j: Fraction(-1)}
            num = zp_mul(zp_linform(n, _lf(n, w)), zp_linform(n, _lf(n, w, small=-t1 - t2)))
            factors.append(RationalFactor.of_poly(num))
            factors.append(RationalFactor("inv_pair", i=i, j=j, c=t1))
            factors.append(RationalFactor("inv_pair", i=i, j=j, c=t2))
        upoly: Dict = {}
        for a, p in buckets.items():
            for ze, c in p.items():
                upoly.setdefault(ze, DescSeries(vs, u_orders, total)).coeffs[a] = c
        factors.append(RationalFactor.of_poly(upoly))
        res = _window_extract_ring(factors, n)
        if isinstance(res, Fraction):
            res = DescSeries.const(vs, u_orders, res, total)
    else:
        term = Term(zp_const(n, Fraction(1)), tuple(_kernel_factors(n, t1, t2)))
        res = residue_sum_series(term, buckets, n, "inner", vs, u_orders, total)
    return res * norm


def _window_extract_ring(factors: List[RationalFactor], nvars: int, slack: int = 2):
    """iterated_residue for ring-valued polynomial coefficients, measure
    prod dz_i / z_i included (zero-coefficient extraction)."""
    w1 = _positive_budgets(factors, nvars, slack)
    a = _expand_product(factors, nvars, w1).get((0,) * nvars, Fraction(0))
    w2 = [w + 2 for w in w1]
    b = _expand_product(factors, nvars, w2).get((0,) * nvars, Fraction(0))
    if not a == b:
        raise WindowInstability("window instability in ring-valued extraction")
    return a


# ---------------------------------------------------------------------------
# the one-leg stable-pairs residue vertex


def _descendent_zpoly(nv, kvec, desc_specs, s, sigma, orders_all, total):
    """prod_r (1-e^{u_r t1})(1-e^{u_r t2}) sum_i e^{t3 u_r (z_i + sigma k_i)}
    as a z-polynomial with truncated-series coefficients."""
    from .series import DescSeries, exp_single

    vs = tuple(sp.variable for sp in desc_specs)
    out = zp_const(nv, DescSeries.const(vs, orders_all, Fraction(1), total))
    for r, sp in enumerate(desc_specs):
        one = DescSeries.const(vs, orders_all, Fraction(1), total)
        pref = (one - exp_single(vs, orders_all, sp.variable, s.t1, total)) * (
            one - exp_single(vs, orders_all, sp.variable, s.t2, total)
        )
        factor: Dict = {}
        uord = orders_all[r] if total is None else min(orders_all[r], total)
        for i, k in enumerate(kvec):
            shift = exp_single(vs, orders_all, sp.variable, s.t3 * sigma * k, total)
            base = pref * shift
            for m in range(uord + 1):
                c = DescSeries(vs, orders_all, total)
                ce = tuple(m if w == r else 0 for w in range(len(vs)))
                c.coeffs[ce] = Fraction(s.t3) ** m / factorial(m)
                e = tuple(m if v == i else 0 for v in range(nv))
                term = base * c
                factor[e] = factor.get(e, DescSeries(vs, orders_all, total)) + term
        out = zp_mul(out, factor)
    return out


def pt_vertex_integrand(shape_parts, kvec, s, conv, desc_specs=(), basis="chern",
                        basis_poly=None, total=None) -> Tuple[Term, Dict | None]:
    """Integrand for one k-vector of the residue vertex, a-scale variables:
    the basis polynomial times the linear part, and the descendent
    z-polynomial with series coefficients (None without descendents)."""
    nv = len(kvec)
    if basis == "chern":
        poly = chern_monomial_poly(nv, shape_parts)
    elif basis == "interp":
        poly = basis_poly
    else:
        raise ValueError(f"unknown basis {basis!r}")
    desc_poly = None
    if desc_specs:
        orders_all = tuple(sp.order for sp in desc_specs)
        sigma = conv.pt_column_sign
        desc_poly = _descendent_zpoly(nv, kvec, desc_specs, s, sigma, orders_all, total)
    return Term(poly, tuple(_pt_factors(nv, kvec, s.a1, s.a2))), desc_poly


def pt_residue_vertex(shape, qorder: int, desc_specs, s, conv=None, basis="chern",
                      region: str = "inner", total=None):
    """Iterated-residue evaluation of the one-leg stable-pairs vertex.

    Returns a list of series coefficients by q-power (0..qorder), normalized
    to match the localization vertex: chern basis is divided by t3^n (the
    root-scale factor), interp basis by the fixed-point Euler class.
    """
    from .characters import DEFAULT_CONVENTION, euler_hilb
    from .series import DescSeries

    conv = conv or DEFAULT_CONVENTION
    n = shape.size
    vs = tuple(sp.variable for sp in desc_specs)
    orders_all = tuple(sp.order for sp in desc_specs)
    zero = DescSeries(vs, orders_all, total)
    out = [zero for _ in range(qorder + 1)]
    basis_poly = None
    scale = Fraction(s.t3) ** (-n)
    if basis == "interp":
        from .localcurve import interp_poly

        basis_poly = interp_poly(shape, s).as_zpoly(n)
        scale = Fraction(1) / euler_hilb(shape, s, conv)
    norm = (s.a1 * s.a2) ** (conv.hilb_norm * n) / factorial(n) * scale
    from itertools import product as iproduct

    for kvec in iproduct(range(qorder + 1), repeat=n):
        d = sum(kvec)
        if d > qorder:
            continue
        t, dpoly = pt_vertex_integrand(shape.parts, kvec, s, conv, desc_specs, basis, basis_poly, total)
        buckets = None if dpoly is None else _u_buckets(dpoly)
        val = residue_sum_series(t, buckets, n, region, vs, orders_all, total)
        out[d] = out[d] + val * norm
    return out


# ---------------------------------------------------------------------------
# closed Pochhammer form of the measure ratio


def _interval(terms: Dict, base, lo: int, hi: int, sign: int) -> None:
    # terms += sign * sum_{l=lo}^{hi} t^base t3^l  (base has no t3 part)
    a, b = base
    for l in range(lo, hi + 1):
        e = (a, b, l)
        terms[e] = terms.get(e, 0) + sign


def _a_char(terms: Dict, base, k: int, sign: int) -> None:
    # terms += sign * (t3^{-k} - 1)/(1 - t3) at base, any integer k
    if k >= 0:
        _interval(terms, base, -k, -1, sign)
    else:
        _interval(terms, base, 0, -k - 1, -sign)


def _h_char(terms: Dict, base, b: int, sign: int) -> None:
    # terms += sign * (t3^b - t3^{-b})/(1 - t3) at base
    if b < 0:
        b, sign = -b, -sign
    _interval(terms, base, 0, b - 1, -sign)
    _interval(terms, base, -b, -1, -sign)


def measure_ratio_extended(mu, kvec: Dict, s):
    """(value, zero_order) form of the closed measure ratio; zero_order > 0
    means the ideal-sheaf weight vanishes to that order against the
    stable-pairs weight (non-monotone column data), < 0 the reverse.

    The character is a signed sum of t3-intervals, accumulated in one dict."""
    from .laurent import LaurentPoly

    cells = mu.cells()
    terms: Dict = {}
    for (i, j) in cells:
        k = kvec.get((i, j), 0)
        for base in ((i, j), (-i - 1, -j - 1)):
            _a_char(terms, base, k, 1)
            _a_char(terms, base, -k, 1)
    for (ic, jc) in cells:
        kc = kvec.get((ic, jc), 0)
        for (id_, jd) in cells:
            kd = kvec.get((id_, jd), 0)
            for (sh0, sh1), sg in (((-1, -1), 1), ((-1, 0), -1), ((0, -1), -1), ((0, 0), 1)):
                base = (ic - id_ + sh0, jc - jd + sh1)
                _h_char(terms, base, kd - kc, -sg)
                _a_char(terms, base, kd, -sg)
                _a_char(terms, base, -kc, -sg)
    return s.exp_extended(LaurentPoly(terms))


def measure_ratio_closed(mu, kvec: Dict, s) -> Fraction:
    """Closed Pochhammer-product value of Exp(V^PT - V^DT) on the common
    column parametrization: the product over cells c and ordered cell pairs
    (c, d) of rising-factorial blocks with arguments shifted by
    {0, -a1, -a2, -a1-a2} at base points z_c and z_c - z_d, all indices
    built from the column depths.  Assembled in the character ring so the
    structurally-cancelling zero factors cancel exactly, then evaluated by
    the plethystic exponential.  Vanishing weights give 0; a ratio with the
    vanishing on the stable-pairs side raises.
    """
    value, zorder = measure_ratio_extended(mu, kvec, s)
    if zorder > 0:
        return Fraction(0)
    if zorder < 0:
        raise ZeroDivisionError("pole at non-generic input: stable-pairs weight vanishes")
    return value


# ---------------------------------------------------------------------------
# degree-0 ideal-sheaf slice sums: residue exploration report


def _ratio_cell_blocks_symbolic(nv: int, i: int, k: int, a1, a2):
    """Measure-ratio per-cell blocks at symbolic z_i:
    [z-k]_k [-z-A-k]_k / ([z]_k [-z-A]_k)."""
    A = a1 + a2
    polys, recips = [], []
    for l in range(1, k + 1):
        polys += [_lf(nv, {i: Fraction(1)}, big=-l), _lf(nv, {i: Fraction(-1)}, big=-l, small=-A)]
    for l in range(k):
        recips += [_lf(nv, {i: Fraction(1)}, big=l), _lf(nv, {i: Fraction(-1)}, big=l, small=-A)]
    return polys, recips


def _ratio_pair_blocks_symbolic(nv: int, i: int, j: int, kc: int, kd: int, a1, a2):
    """Measure-ratio blocks for the ordered cell pair (c, d) mapped to
    variables (i, j): Exp(-G m_c/m_d (H(kd-kc) + A(kd) + B(kc))) with w =
    z_i - z_j symbolic; the degenerate diagonal (c = d) is excluded upstream."""
    A = a1 + a2
    b = kd - kc
    w = {i: Fraction(1), j: Fraction(-1)}
    polys, recips = [], []

    def emit(base_coeffs, lo, hi, small, sign):
        # sign +1: poly factors, -1: recips, for each l in lo..hi
        for l in range(lo, hi + 1):
            L = _lf(nv, base_coeffs, big=l, small=small)
            (polys if sign > 0 else recips).append(L)

    # X = H(b) + A(kd) + B(kc) as t3-intervals at the four G-shifts
    # shifts with plethystic signs: -A: -1(recip-part of G: +), careful below
    intervals = []
    if b >= 0:
        intervals += [(-1, 0, b - 1), (-1, -b, -1)]
    else:
        intervals += [(1, 0, -b - 1), (1, b, -1)]
    intervals += [(1, -kd, -1)]          # A(kd)
    intervals += [(-1, 0, kc - 1)]       # B(kc)
    # Exp(-G m X): G-shift signs {(-A): -, (-a1): +, (-a2): +, (0): -}
    for small, gsign in ((-A, -1), (-a1, 1), (-a2, 1), (Fraction(0), -1)):
        for isign, lo, hi in intervals:
            emit(w, lo, hi, small, gsign * isign)
    return polys, recips


def _g_factor_zpoly(nv, kvec, wspec, s, orders_all, total, with_kappa=True):
    """g(k, w, z): prod(1 - e^{w t_i}) / (t1 t2 t3) x
    sum_i e^{t3 z_i w} (1 - e^{k_i w t3})/(1 - e^{w t3}), the interval sum
    written exactly as sum_{m} e^{m w t3} with m ranging over 0..k-1
    (or -(grid) for negative k)."""
    from .series import DescSeries, exp_single

    vs = wspec["vs"]
    var = wspec["var"]
    one = DescSeries.const(vs, orders_all, Fraction(1), total)
    pref = (
        (one - exp_single(vs, orders_all, var, s.t1, total))
        * (one - exp_single(vs, orders_all, var, s.t2, total))
        * (one - exp_single(vs, orders_all, var, s.t3, total))
    )
    if with_kappa:
        pref = pref * (Fraction(1) / (s.t1 * s.t2 * s.t3))
    r = vs.index(var)
    uord = orders_all[r] if total is None else min(orders_all[r], total)
    out: Dict = {}
    for i, k in enumerate(kvec):
        mrange = range(k) if k >= 0 else range(k, 0)
        sgn = 1 if k >= 0 else -1
        for m in mrange:
            shift = exp_single(vs, orders_all, var, s.t3 * m, total)
            base = pref * shift * sgn
            for deg in range(uord + 1):
                c = DescSeries(vs, orders_all, total)
                ce = tuple(deg if x == r else 0 for x in range(len(vs)))
                c.coeffs[ce] = Fraction(s.t3) ** deg / factorial(deg)
                e = tuple(deg if v == i else 0 for v in range(nv))
                term = base * c
                out[e] = out.get(e, DescSeries(vs, orders_all, total)) + term
    if not out:
        out = zp_const(nv, DescSeries(vs, orders_all, total))
    return out


def dt0_residue_value(mu, kvec, s, conv, wspecs=(), variant="derived", total=None):
    """Residue of the degree-0 integrand at one k-vector.

    variant 'derived': stable-pairs integrand times the derived measure-ratio
    blocks (off-diagonal pairs; the diagonal blocks are degenerate constants
    and are dropped, which the report flags).  variant 'printed': per-cell
    [z+1+A]_k/[z]_k, printed interaction blocks F^{-1}_{k_i-k_j}(z_i-z_j),
    quadruple-ratio product over i != j.
    """
    from .localcurve import interp_poly
    from .series import DescSeries

    nv = mu.size
    a1, a2 = s.a1, s.a2
    A = a1 + a2
    vs = tuple(w["var"] for w in wspecs)
    orders_all = tuple(w["order"] for w in wspecs)
    jp = interp_poly(mu, s).as_zpoly(nv)
    if variant == "derived":
        factors = _pt_factors(nv, kvec, a1, a2)
        for i, k in enumerate(kvec):
            factors += _signed(*_ratio_cell_blocks_symbolic(nv, i, k, a1, a2))
        for ci in range(nv):
            for cj in range(nv):
                if ci != cj:
                    factors += _signed(*_ratio_pair_blocks_symbolic(nv, ci, cj, kvec[ci], kvec[cj], a1, a2))
    elif variant == "printed":
        factors = []
        # first factors [z_i + 1 + A]_{k_i} / [z_i]_{k_i}
        for i, k in enumerate(kvec):
            factors += _signed(*_poch_lin(nv, {i: Fraction(1)}, Fraction(1), A, k))
            factors += _signed(*_poch_lin(nv, {i: Fraction(1)}, Fraction(0), Fraction(0), k, invert=True))
        # F^{-1}_{k_i - k_j}(z_i - z_j) for i < j, as printed
        for i, j in combinations(range(nv), 2):
            b = kvec[i] - kvec[j]
            w = {i: Fraction(1), j: Fraction(-1)}
            for small, inv in ((a1, False), (a2, False), (-A, False), (-a1, True), (-a2, True), (A, True)):
                factors += _signed(*_poch_lin(nv, w, Fraction(0), small, b, invert=inv))
        # quadruple product over ordered pairs i != j with index k_i
        for i in range(nv):
            for j in range(nv):
                if i == j:
                    continue
                w = {i: Fraction(1), j: Fraction(-1)}
                for big, small, inv in (
                    (1, Fraction(0), False),
                    (1, A, False),
                    (0, -a1, False),
                    (0, -a2, False),
                    (0, Fraction(0), True),
                    (0, -A, True),
                    (1, a1, True),
                    (1, a2, True),
                ):
                    factors += _signed(*_poch_lin(nv, w, Fraction(big), small, kvec[i], invert=inv))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    buckets = None
    if wspecs:
        gz = zp_const(nv, DescSeries.const(vs, orders_all, Fraction(1), total))
        for wsp in wspecs:
            gz = zp_mul(gz, _g_factor_zpoly(nv, kvec, {"vs": vs, "var": wsp["var"]}, s, orders_all, total))
        buckets = _u_buckets(gz)
    try:
        return residue_sum_series(Term(jp, tuple(factors)), buckets, nv, "inner", vs, orders_all, total)
    except ZeroDivisionError:
        return None


def _poch_lin(nv, wcoeffs, big, small, b, invert=False):
    """[w + big + small]_b as (polys, recips); invert for denominators."""
    polys, recips = [], []
    if b >= 0:
        fl = [_lf(nv, wcoeffs, big=big + l, small=small) for l in range(b)]
        polys = fl
    else:
        fl = [_lf(nv, wcoeffs, big=big - l, small=small) for l in range(1, -b + 1)]
        recips = fl
    if invert:
        polys, recips = recips, polys
    return polys, recips


def dtpt0_report(mu, worder: int, qorder: int, s, conv=None, bounds=(-1, 0, 1),
                 orientations=(1, -1)) -> dict:
    """Structured exploration of the degree-0 ideal-sheaf slice identities.

    Exact components: the generating function g of descendent characters
    against the direct character computation; the vanishing of the weight on
    column data outside the slice cone; the measure-ratio-weighted
    stable-pairs rebalancing of the slice sum.  The residue-side summation
    bound and orientation are scanned and reported side by side; those
    verdicts are informative.
    """
    from itertools import product as iproduct

    from .characters import DEFAULT_CONVENTION, DescendentSpec, descendent_char, pt_running_weights
    from .laurent import LaurentPoly
    from .partitions import LeggedPlanePartition, Partition, RppConfig
    from .series import DescSeries
    from .characters import vertex_char_pt_raw
    from .vertex import dt0_slice

    conv = conv or DEFAULT_CONVENTION
    n = mu.size
    cells = mu.cells()
    wspecs = [{"var": "w1", "order": worder}]
    vs = ("w1",)
    orders_all = (worder,)
    report: dict = {
        "mu": mu.to_json(),
        "worder": worder,
        "qorder": qorder,
        "sample": s.to_json(),
        "notes": [
            "printed diagonal interaction factor carries a hard zero-argument "
            "rising factorial for k >= 1; the quadruple product is taken over "
            "distinct pairs and the degenerate diagonal is dropped",
        ],
    }

    # --- g vs descendent character (exact; kappa normalization as printed)
    g_ok = True
    g_count = 0
    for kv in iproduct(range(0, 3), repeat=n):
        heights = {c: k for c, k in zip(cells, kv)}
        try:
            pp = LeggedPlanePartition(Partition(), heights)
        except ValueError:
            continue
        spec = DescendentSpec("ch", 0, "w1", worder + 1)
        direct = descendent_char(pp, spec, s, conv, variables=("w1",), orders=(worder + 1,))
        gval = _g_at_contents(mu, kv, s, worder + 1)
        g_count += 1
        if not gval * (s.t1 * s.t2 * s.t3) == direct:
            g_ok = False
    report["g_identity"] = {
        "cases": g_count,
        "pass": g_ok,
        "normalization": "g equals the character divided by t1*t2*t3 (the weight of ch_k(1))",
    }

    # --- vanishing on invalid column data (exact, size <= 2 cone)
    vanish_rows = []
    vanish_ok = True
    if n >= 2:
        for kv in iproduct(range(1, 4), repeat=n):
            heights = {c: k for c, k in zip(cells, kv)}
            valid = all(
                heights.get((i - 1, j), 10**9) >= h and heights.get((i, j - 1), 10**9) >= h
                for (i, j), h in heights.items()
            )
            if valid:
                continue
            val, zorder = measure_ratio_extended(mu, heights, s)
            vpt = vertex_char_pt_raw(mu, heights, conv)
            _, zpt = s.exp_extended(-vpt)
            total_zero = zorder + zpt
            ok = total_zero > 0
            vanish_rows.append({"k": list(kv), "zero_order": total_zero, "vanishes": ok})
            vanish_ok = vanish_ok and ok
    report["vanishing"] = {"rows": vanish_rows, "pass": vanish_ok}

    # --- measure-ratio-weighted rebalancing (exact): sum over k >= 1 of
    #     ratio x Exp(-V^PT) x DT descendent weights equals the slice sum
    target = dt0_slice(mu, (DescendentSpec("ch", 0, "w1", worder),), s, qorder, conv)
    rebal = [DescSeries(vs, orders_all) for _ in range(qorder + 1)]
    for kv in iproduct(range(1, qorder + 2), repeat=n):
        d = sum(kv)
        if d > qorder:
            continue
        heights = {c: k for c, k in zip(cells, kv)}
        ratio, zr = measure_ratio_extended(mu, heights, s)
        vpt = vertex_char_pt_raw(mu, heights, conv)
        wpt, zpt = s.exp_extended(-vpt)
        if zr + zpt > 0:
            continue
        if zr + zpt < 0:
            raise ZeroDivisionError("pole in rebalanced weight")
        pp = LeggedPlanePartition(Partition(), heights)
        ch = descendent_char(pp, DescendentSpec("ch", 0, "w1", worder), s, conv,
                             variables=vs, orders=orders_all)
        rebal[d] = rebal[d] + ch * (ratio * wpt)
    rebal_ok = all(a == b for a, b in zip(rebal, target.coeffs))
    report["ratio_rebalancing"] = {
        "pass": rebal_ok,
        "slice_sum": [c.to_json() for c in target.coeffs],
        "rebalanced": [c.to_json() for c in rebal],
    }

    # --- residue-side scan (informative)
    scan = []
    pt_target = [DescSeries(vs, orders_all) for _ in range(qorder + 1)]
    from .partitions import enum_rpp

    weight = pt_running_weights(mu, s, conv)
    for cfg in enum_rpp(mu, qorder):
        heights = {c: cfg.entry(c) for c in cells}
        ratio, zr = measure_ratio_extended(mu, heights, s)
        if zr > 0:
            continue
        w = weight(cfg) * ratio
        chp = descendent_char(cfg, DescendentSpec("ch_prime", 0, "w1", worder), s, conv,
                              variables=vs, orders=orders_all)
        pt_target[cfg.size] = pt_target[cfg.size] + chp * w
    for variant in ("derived", "printed"):
        for bound in bounds:
            by_degree: Dict[int, DescSeries] = {}
            feasible = True
            for kv in iproduct(range(bound, qorder + 1), repeat=n):
                d = sum(kv)
                if d > qorder:
                    continue
                val = dt0_residue_value(mu, kv, s, conv, wspecs, variant)
                if val is None:
                    feasible = False
                    continue
                by_degree[d] = by_degree.get(d, DescSeries(vs, orders_all)) + val
            for orient in orientations:
                series = []
                for d in range(min(by_degree, default=0), qorder + 1):
                    c = by_degree.get(d, DescSeries(vs, orders_all))
                    series.append(c * (Fraction(orient) ** abs(d)))
                head_zero = all(c.is_zero() for c in series[: -(qorder + 1)])
                dt_match = head_zero and len(series) >= qorder + 1 and all(
                    a == b for a, b in zip(series[-(qorder + 1):], target.coeffs)
                )
                pt_match = head_zero and len(series) >= qorder + 1 and all(
                    a == b for a, b in zip(series[-(qorder + 1):], pt_target)
                )
                scan.append({
                    "variant": variant,
                    "bound": bound,
                    "orientation": orient,
                    "feasible": feasible,
                    "dt_side_match": dt_match,
                    "pt_side_match": pt_match,
                    "series": [c.to_json() for c in series],
                })
    report["scan"] = scan
    report["pt_side_target"] = [c.to_json() for c in pt_target]
    exact_ok = g_ok and vanish_ok and rebal_ok
    report["exact_checks_pass"] = exact_ok
    report["verdict"] = "informative"
    return report


def _g_at_contents(mu, kvec, s, worder):
    """g(k, w, c) with the content values substituted; exact interval form."""
    from .series import DescSeries, exp_single

    vs = ("w1",)
    orders = (worder,)
    one = DescSeries.const(vs, orders, Fraction(1))
    pref = (
        (one - exp_single(vs, orders, "w1", s.t1))
        * (one - exp_single(vs, orders, "w1", s.t2))
        * (one - exp_single(vs, orders, "w1", s.t3))
        * (Fraction(1) / (s.t1 * s.t2 * s.t3))
    )
    total = DescSeries(vs, orders)
    for (i, j), k in zip(mu.cells(), kvec):
        c = i * s.t1 + j * s.t2
        mrange = range(k) if k >= 0 else range(k, 0)
        sgn = 1 if k >= 0 else -1
        for m in mrange:
            total = total + exp_single(vs, orders, "w1", c + m * s.t3) * sgn
    return pref * total
