"""Iterated-residue evaluation in nested contour regions |z_1| > ... > |z_n|.

`residue_sum` / `residue_sum_series` — the factored pole engine.  An
integrand is a small dense z-polynomial (a Chern or interpolation basis
polynomial, descendent or EGL u-buckets) times linear forms with signed
exponents.  The forms are integer vectors: the sample's denominators are
cleared once (w = D z, D the common denominator of a_1, a_2 or t_1, t_2),
and every form is kept primitive with a positive leading coefficient, so
equal numerator and denominator forms cancel; a monomial z_i^m is the
form z_i to the power m.  The residue in an inner variable z_v at an
enclosed pole of order m is a sum over the ways to put m - 1 derivatives
on the other forms (d/dz_v L^e = e c_v L^(e-1)), after which the root of
the pole form L_p is substituted into each form by cross-multiplying,
c_p L_i - c_i L_p; terms stay factored throughout, each with an integer
numerator and denominator.  At the outermost variable every other form is
a number at the root, and the pole's residue is their product times one
coefficient of prod (1 + x_i h)^e_i, taken from power sums by Newton's
identity.  Pole locations carry a split constant (an integer-scale part
and an infinitesimal-scale part built from a_1, a_2); in the `inner`
region only poles with vanishing integer-scale part are enclosed, in the
`full` region every finite pole is enclosed.  The dense parts enter by
linearity: residues are taken per z-monomial and memoized, one `Fraction`
each, and monomials with the same inner exponents share the terms left
after the inner levels; their weighted sums are integer
numerator/denominator pairs, one `Fraction` per series coefficient.
"Integration" is coefficient extraction, never quadrature.

`pt_vertex_integrand` / `pt_residue_vertex` — the residue vertex.  Each
k-vector's linear part is a product of blocks: the kernel, a column block
per (i, k_i) and a pair block per (i, j, k_j - k_i).  One `_FormTable` per
vertex folds each block once (`_FormTable.fold`: primitive forms and
exponents, integer constant, degree shift) and merges a k-vector's
blocks; a raw factor list (`egl_residue`, `residue_sum`) is one block
through the same fold.  The descendent u-buckets are assembled from
per-(z-variable, t3-shift, order) pieces built once per vertex, and each
q-degree is scaled by the vertex normalization once.  The degree-0
integrand (`dt0_residue_value`) is merged from blocks the same way.

`specialization_poly_check` — per-k polynomiality of the single-cell
residue vertex on the line t1 + t2 = c t3, fitted exactly by divided
differences and verified on held-out k; `fk_specialization_identity` is the
closed two-column form on that line.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, gcd, lcm, prod
from typing import Dict, Iterable, List, Sequence, Tuple

from .characters import (
    Convention,
    DEFAULT_CONVENTION,
    DescendentSpec,
    descendent_char,
    euler_hilb,
    pt_weight_walk,
    vertex_char_pt_raw,
)
from .laurent import LaurentPoly, divide_t3_lines, over_common_denominator, pochhammer
from .partitions import LeggedPlanePartition, Partition, RppConfig, enum_partitions
from .records import Record
from .sampling import ParamSample
from .series import DescSeries, QSeries, enumerate_exponents
from .vertex import contents_at, dt0_slice

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# polynomials in the z variables: {exponent tuple: Fraction}


def zp_mul(p: Dict, q: Dict) -> Dict:
    out: Dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def zp_const(nvars: int, c) -> Dict:
    return {(0,) * nvars: c}


def _zp_at(p: Dict, z: Sequence) -> Fraction:
    """The z-polynomial p at the point z."""
    return sum((c * prod(x ** e for x, e in zip(z, ze)) for ze, c in p.items()), ZERO)


# ---------------------------------------------------------------------------
# the factored pole engine


class Term(Record):
    """poly * prod L^e: a dense z-polynomial times linear forms with signed
    exponents (e > 0 numerator, e < 0 denominator), the forms integer
    vectors in w = scale * z (see `_PoleEngine`).  `factors` is a list of
    (form, exponent) pairs or a `_Block` already folded into a form table."""

    __slots__ = ("poly", "factors", "scale")

    def __init__(self, poly: Dict, factors, scale: int):
        self.poly = poly
        self.factors = factors
        self.scale = scale


def _binom(e: int, k: int) -> int:
    """Generalized binomial coefficient e(e-1)...(e-k+1)/k!, any integer e."""
    return prod(range(e, e - k, -1)) // factorial(k)


class _Block(Record):
    """A product of linear forms folded into a `_FormTable`: the exponent of
    each primitive form {form id: e}, the integer constant num/den that the
    constant factors and the forms' multiples leave, and the degree shift
    -sum e.  `table` stays out of equality and repr."""

    __slots__ = ("table", "exps", "num", "den", "shift")
    _fields = ("exps", "num", "den", "shift")

    def __init__(self, table: "_FormTable", exps: Dict[int, int], num: int, den: int, shift: int):
        self.table = table
        self.exps = exps
        self.num = num
        self.den = den
        self.shift = shift


class _FormTable:
    """The primitive integer linear forms in n variables that pole engines
    meet, each interned once with the index of its leading coefficient, and
    the substitutions of one form at the root of another, computed once.
    Every engine of one residue vertex shares one table, which also keeps
    each integrand block folded once (`merge`) and each descendent bucket
    piece built once (`pieces`, see `_descendent_buckets`) for that call."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.forms: List[Tuple[int, ...]] = []
        self.ids: Dict[Tuple[int, ...], int] = {}
        self.lead: List[int] = []
        self.subs: Dict[Tuple[int, int], Tuple[int | None, int, int]] = {}
        self.blocks: Dict[tuple, _Block] = {}
        self.pieces: Dict[tuple, tuple] = {}

    def intern(self, key: Tuple[int, ...]) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.forms)
            self.forms.append(key)
            self.lead.append(next(v for v, x in enumerate(key) if x))
        return i

    def primitive(self, vec: Sequence[int]) -> Tuple[int, int]:
        """(form id, g) with vec = g * form, the form primitive with a
        positive leading z-coefficient."""
        g = gcd(*vec)
        if next(x for x in vec if x) < 0:
            g = -g
        if g != 1:
            vec = [x // g for x in vec]
        return self.intern(tuple(vec)), g

    def substitute(self, i: int, p: int) -> Tuple[int | None, int, int]:
        """Form i at the root of pole form p: (form id, num, den) for
        num/den times that form, or (None, num, den) for the value num/den."""
        key = (i, p)
        out = self.subs.get(key)
        if out is None:
            f, pf = self.forms[i], self.forms[p]
            v = self.lead[p]
            ci, cp = f[v], pf[v]
            vec = [cp * x - ci * y for x, y in zip(f, pf)]
            if any(vec[:self.nvars]):
                j, g = self.primitive(vec)
                out = (j, g, cp)
            else:
                out = (None, vec[self.nvars] + vec[self.nvars + 1], cp)
            self.subs[key] = out
        return out

    def fold(self, factors: Iterable[Tuple[Tuple[int, ...], int]]) -> _Block:
        """The block of (form, signed exponent) factors: each form with a
        z-part becomes a primitive form and its multiple, a constant form
        is a number; zero kills a numerator and raises in a denominator."""
        nvars = self.nvars
        exps: Dict[int, int] = {}
        num = den = 1
        shift = 0
        for f, e in factors:
            shift -= e
            if any(f[:nvars]):
                i, g = self.primitive(f)
                exps[i] = exps.get(i, 0) + e
            else:
                g = f[nvars] + f[nvars + 1]
                if g == 0 and e < 0:
                    raise ZeroDivisionError("pole at non-generic input: constant factor vanishes")
            if e > 0:
                num *= g ** e
            elif e < 0:
                den *= g ** -e
        return _Block(self, {i: e for i, e in exps.items() if e}, num, den, shift)

    def merge(self, parts) -> _Block:
        """The product of the blocks build(nvars, *args) over
        parts = [(build, args)], each folded once per table."""
        exps: Dict[int, int] = {}
        num = den = 1
        shift = 0
        for key in parts:
            b = self.blocks.get(key)
            if b is None:
                b = self.blocks[key] = self.fold(key[0](self.nvars, *key[1]))
            for i, e in b.exps.items():
                exps[i] = exps.get(i, 0) + e
            num *= b.num
            den *= b.den
            shift += b.shift
        return _Block(self, {i: e for i, e in exps.items() if e}, num, den, shift)


class _PoleEngine:
    """Iterated residues of z^m * prod L^e for one fixed list of linear forms.

    `factors` and `scale` are a `Term`'s: integer vectors
    (c_1..c_n, big, small) in the variables w = scale * z, each standing for
    scale times its form in z, where `scale` clears the sample's
    denominators, so the z-integrand is scale^-(n + sum e + |m|) times the
    w-integrand.  The engine starts from one `_Block`: a factor list is
    folded into a table of its own, and a residue vertex's integrands are
    merged from blocks folded once into its shared `_FormTable`.  Every
    form is interned there as a primitive integer vector whose first
    nonzero coefficient is positive; its rational multiple and the constant
    factors go into the coefficient, an integer numerator/denominator pair,
    so proportional forms cancel.  A term is that pair and a sorted tuple
    of (form id, signed exponent).

    The variables are taken innermost first, so at z_v every form has lost
    its dependence on z_(v+1)..z_n and a pole lies inside the z_v contour
    exactly when its form is c_p z_v + constant (in the `inner` region, with
    no integer-scale part).  A form L_i at the root of L_p is
    (c_p L_i - c_i L_p) / c_p.

    The factors z_u^m_u with u < v are passive in z_v, so the terms left
    after the residues in z_v..z_(n-1) depend only on the inner exponents
    (m_v, ..., m_(n-1)); they are memoized by that tuple, and a monomial
    continues from its longest memoized one.  At the outermost variable
    every other factor is a number at the root, and a pole of order M gives
    their product times [h^(M-1)] prod (1 + x_i h)^e_i, x_i = c_i / L_i(root),
    from power sums (`_newton_coefficient`); the inner levels, whose
    factors are still forms, sum over the ways to place the M - 1
    derivatives.  Residues of monomials are memoized, one `Fraction` each.
    """

    def __init__(self, factors, nvars: int, region: str, scale: int):
        if region not in ("inner", "full"):
            raise ValueError(f"unknown region {region!r}")
        # a raw factor list is one block, folded into a table of its own
        block = factors if isinstance(factors, _Block) else _FormTable(nvars).fold(factors)
        table = block.table
        self.nvars = nvars
        self.inner = region == "inner"
        self.scale = scale
        self.forms, self.lead = table.forms, table.lead
        self._substitute = table.substitute
        self.memo: Dict[tuple, Fraction] = {}
        self.var = [table.intern(tuple(int(v == w) for w in range(nvars + 2))) for v in range(nvars)]
        self.shift = block.shift - nvars
        self.coef = Fraction(block.num, block.den)
        self.base = block.exps
        # states[(m_v, ..., m_(n-1))]: {term key: [num, den]} after the
        # residues in z_v..z_(n-1) of z_v^m_v ... z_(n-1)^m_(n-1) times the forms
        key = tuple(sorted(self.base.items()))
        self.states: Dict[tuple, Dict[tuple, List[int]]] = {
            (): {key: [self.coef.numerator, self.coef.denominator]} if self.coef else {}}

    def _times(self, work: Dict[tuple, List[int]], v: int, m: int) -> Dict[tuple, List[int]]:
        """The terms of `work` times z_v^m."""
        if not m:
            return work
        i = self.var[v]
        out = {}
        for key, nd in work.items():
            exps = dict(key)
            x = exps.pop(i, 0) + m
            if x:
                exps[i] = x
            out[tuple(sorted(exps.items()))] = nd
        return out

    def _residues(self, key: tuple, num: int, den: int, v: int, out: Dict[tuple, List[int]]) -> None:
        """Add to `out` the residues of one term in an inner variable z_v at
        its enclosed poles."""
        forms = self.forms
        active = [(i, e) for i, e in key if forms[i][v]]
        passive = [(i, e) for i, e in key if not forms[i][v]]
        for p, m in active:
            if m >= 0 or self.lead[p] != v or (self.inner and forms[p][self.nvars]):
                continue
            others = []
            for i, e in active:
                if i == p:
                    continue
                j, sn, sd = self._substitute(i, p)
                if j is None and sn == 0 and e < 0:
                    raise ZeroDivisionError("pole at non-generic input: factor vanished on substitution")
                others.append((e, forms[i][v], j, sn, sd))
            # L_p^m = c_p^m (z_v - root)^m
            d0 = den * forms[p][v] ** -m
            for ks in combinations_with_replacement(range(len(others)), -m - 1):
                counts = Counter(ks)
                n, d = num, d0
                exps = dict(passive)
                for idx, (e, cv, j, sn, sd) in enumerate(others):
                    k = counts.get(idx, 0)
                    if k:
                        n *= _binom(e, k) * cv ** k
                        if not n:
                            break
                    x = e - k
                    if j is not None:
                        exps[j] = exps.get(j, 0) + x
                    if x > 0:
                        n *= sn ** x
                        d *= sd ** x
                        if not n:
                            break
                    elif x < 0:
                        n *= sd ** -x
                        d *= sn ** -x
                else:
                    k2 = tuple(sorted((i, x) for i, x in exps.items() if x))
                    acc = out.get(k2)
                    if acc is None:
                        out[k2] = [n, d]
                    else:
                        _accumulate(acc, n, d)

    def _last_residues(self, key: tuple, num: int, den: int, acc: List[int]) -> None:
        """Add to `acc` the residues of one term in z_0, where every form is
        c z_0 + constant: at a pole L_p^-M with root r, the other factors'
        values L_i(r)^e_i over c_p^M, times [h^(M-1)] prod (1 + x_i h)^e_i
        with x_i = c_i / L_i(r); a numerator form vanishing at r is
        (c_i h)^e_i and lowers that index by e_i."""
        forms, big = self.forms, self.nvars
        for p, m in key:
            if m >= 0 or (self.inner and forms[p][big]):
                continue
            n, d = num, den * forms[p][0] ** -m
            order = -m - 1
            xs = []
            for i, e in key:
                if i == p:
                    continue
                _, sn, sd = self._substitute(i, p)
                c = forms[i][0]
                if not sn:
                    if e < 0:
                        raise ZeroDivisionError("pole at non-generic input: factor vanished on substitution")
                    n *= c ** e
                    order -= e
                    continue
                if e > 0:
                    n *= sn ** e
                    d *= sd ** e
                else:
                    n *= sd ** -e
                    d *= sn ** -e
                xs.append((e, c * sd, sn))
            if order < 0:
                continue
            if order:
                g, b = _newton_coefficient(xs, order)
                n *= g
                d *= b
            _accumulate(acc, n, d)

    def monomial(self, mono: Tuple[int, ...]) -> Fraction:
        """Iterated residue of z^mono times the linear part."""
        val = self.memo.get(mono)
        if val is not None:
            return val
        v = 1
        while mono[v:] not in self.states:
            v += 1
        work = self.states[mono[v:]]
        for u in range(v - 1, 0, -1):
            nxt: Dict[tuple, List[int]] = {}
            for key, (n, d) in self._times(work, u, mono[u]).items():
                if n:
                    self._residues(key, n, d, u, nxt)
            work = self.states[mono[u:]] = nxt
        # the outermost variable, where every form is c z_0 + constant
        acc = [0, 1]
        for key, (n, d) in self._times(work, 0, mono[0]).items():
            if n:
                self._last_residues(key, n, d, acc)
        n, d = acc
        if not n:
            val = ZERO
        else:
            k = self.shift - sum(mono)
            val = Fraction(n * self.scale ** k, d) if k >= 0 else Fraction(n, d * self.scale ** -k)
        self.memo[mono] = val
        return val


def _accumulate(acc: List[int], n: int, d: int) -> None:
    """acc = [num, den] plus n/d, unreduced."""
    if acc[1] == d:
        acc[0] += n
    else:
        acc[0] = acc[0] * d + n * acc[1]
        acc[1] *= d


def _newton_coefficient(xs: Sequence[Tuple[int, int, int]], order: int) -> Tuple[int, int]:
    """[h^order] prod (1 + (a/b) h)^e over xs = [(e, a, b)], as (num, den).

    With B the lcm of the b and y = a B / b, B^order times it is the integer
    g_order of prod (1 + y h)^e, from the power sums p_k = sum e y^k by
    Newton's identity k g_k = sum_(j=1..k) (-1)^(j-1) p_j g_(k-j)."""
    B = lcm(*(b for _, _, b in xs))
    p = [0] * (order + 1)
    for e, a, b in xs:
        y = a * (B // b)
        t = e
        for k in range(1, order + 1):
            t *= y
            p[k] += t
    g = [1]
    for k in range(1, order + 1):
        g.append(sum(p[j] * g[k - j] if j % 2 else -p[j] * g[k - j] for j in range(1, k + 1)) // k)
    return g[order], B ** order


def residue_sum(terms: Iterable[Term], nvars: int, region: str = "inner") -> Fraction:
    """Iterated residue over z_n, ..., z_1 (innermost contour first) of
    `Term`s.

    Region 'inner': only poles at infinitesimal locations are enclosed;
    'full': all finite poles (expansion at infinity).
    """
    return sum((residue_sum_series(t, None, nvars, region, (), ()).coeff(()) for t in terms), ZERO)


def residue_sum_series(term: Term, buckets: Dict[tuple, Dict] | None, nvars: int, region: str,
                       vs, orders):
    """Iterated residue of term.poly * sum_ue u^ue buckets[ue] * prod L^e as a
    series in the descendent variables u (buckets None: the scalar integrand).

    The residue is linear in the integrand, so each z-monomial of the dense
    parts is taken once against the shared linear forms.  The weight of a
    z-exponent (the residue of term.poly times it) and each bucket's sum
    are accumulated as integer numerator/denominator pairs, one `Fraction`
    per coefficient of the result."""
    if buckets is None:
        buckets = {(0,) * len(vs): zp_const(nvars, Fraction(1))}
    engine = _PoleEngine(term.factors, nvars, region, term.scale)
    poly = [(e, c.numerator, c.denominator) for e, c in term.poly.items()]
    weights: Dict[tuple, List[int]] = {}

    def weight(ze):
        # residue of term.poly * z^ze, as [num, den]
        w = weights.get(ze)
        if w is None:
            w = [0, 1]
            for e, cn, cd in poly:
                r = engine.monomial(tuple(x + y for x, y in zip(e, ze)))
                if r:
                    _accumulate(w, cn * r.numerator, cd * r.denominator)
            weights[ze] = w
        return w

    out = DescSeries(vs, orders)
    for ue, zp in buckets.items():
        acc = [0, 1]
        for ze, x in zp.items():
            n, d = weight(ze)
            if n:
                _accumulate(acc, x.numerator * n, x.denominator * d)
        if acc[0]:
            out.coeffs[ue] = Fraction(*acc)
    return out


# ---------------------------------------------------------------------------
# integrand builders (a-scale variables: z ~ content / t3, a_i = t_i / t3)


def _form(nv: int, coeffs: Dict[int, int], big: int = 0, small: int = 0) -> Tuple[int, ...]:
    """The integer form (c_1..c_n, big, small) of `_PoleEngine`, in w = D z:
    a form c . z + l + x with x = p/D is written (c, D l, p)."""
    out = [0] * (nv + 2)
    for v, x in coeffs.items():
        out[v] = x
    out[nv], out[nv + 1] = big, small
    return tuple(out)


def _kernel_factors(nv: int, p1: int, p2: int):
    """The measure prod_i dz_i/z_i and prod_{i<j} omega(z_i - z_j),
    omega(w) = w(w - x1 - x2)/((w - x1)(w - x2)), as signed integer forms
    (x_i = p_i/D)."""
    out = [(_form(nv, {i: 1}), -1) for i in range(nv)]
    for i, j in combinations(range(nv), 2):
        w = {i: 1, j: -1}
        out += [(_form(nv, w), 1), (_form(nv, w, 0, -p1 - p2), 1),
                (_form(nv, w, 0, -p1), -1), (_form(nv, w, 0, -p2), -1)]
    return out


def _poch_lin(nv, wcoeffs, big, small, b, D, sign=1):
    """The signed rising factorial [x]_b to the power `sign` at
    x = w + big + small/D, as (form, exponent) factors: x(x+1)...(x+b-1)
    for b >= 0, 1/((x-1)(x-2)...(x+b)) for b < 0."""
    if b >= 0:
        return [(_form(nv, wcoeffs, D * (big + l), small), sign) for l in range(b)]
    return [(_form(nv, wcoeffs, D * (big - l), small), -sign) for l in range(1, -b + 1)]


def _column_block(nv: int, i: int, k: int, cs):
    """Single-column weight [-z_i - a1 - a2]_k / [z_i - k]_k; cs = (p1, p2, D)
    clears a1 = p1/D, a2 = p2/D.  A negative depth carries no block."""
    p1, p2, D = cs
    k = max(k, 0)
    return _poch_lin(nv, {i: -1}, 0, -p1 - p2, k, D) + _poch_lin(nv, {i: 1}, -k, 0, k, D, -1)


def _pair_block(nv: int, i: int, j: int, b: int, cs):
    """Two-column interaction for outer variable z_i, inner z_j, b = k_j - k_i.

    Derived from Exp(V(pi') - V(pi)) for adding a column; equals, with
    w = z_j - z_i, A = a1 + a2 and the signed rising factorial [x]_b of
    `_poch_lin`,
      [w-a1]_{-b} [w-a2]_{-b} / ([w-A]_{-b} [w]_{-b})
    * [-w-a1]_b [-w-a2]_b / ([-w-A]_b [-w]_b).
    """
    p1, p2, D = cs
    out = []
    for w, depth in (({j: 1, i: -1}, -b), ({j: -1, i: 1}, b)):
        for small, sign in ((-p1, 1), (-p2, 1), (-p1 - p2, -1), (0, -1)):
            out += _poch_lin(nv, w, 0, small, depth, D, sign)
    return out


def _pt_blocks(nv: int, kvec, cs) -> list:
    """The blocks of the stable-pairs integrand's linear part at one
    k-vector, as (builder, args) for `_FormTable.merge`: the kernel, the
    single-column blocks and the two-column interactions."""
    return ([(_kernel_factors, (cs[0], cs[1]))] + [(_column_block, (i, k, cs)) for i, k in enumerate(kvec)]
            + [(_pair_block, (i, j, kvec[j] - kvec[i], cs)) for i, j in combinations(range(nv), 2)])


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


class SingularInterpolation(ValueError):
    """The interpolation system lost rank at a non-generic sample."""


def _monomial_symmetric(nvars: int, nu) -> set:
    """The exponent vectors of the monomial symmetric polynomial m_nu in
    nvars >= len(nu) variables."""
    return set(permutations(tuple(nu.parts) + (0,) * (nvars - len(nu.parts))))


def interp_poly(lam, s) -> Dict:
    """The symmetric z-polynomial J_lam with J_lam(contents(mu)/t3) =
    delta_{lam,mu} e_mu/t3^(2n), solved over the monomial symmetric basis
    (partitions of size <= n into <= n parts); any solution of the
    underdetermined system is accepted and re-verified."""
    n = lam.size
    mus = enum_partitions(n)
    basis = [nu for m in range(n + 1) for nu in enum_partitions(m) if len(nu.parts) <= n]
    points = [[c / s.t3 for c in contents_at(mu, s)] for mu in mus]
    rows = [[sum((prod(x ** m for x, m in zip(conts, e)) for e in _monomial_symmetric(n, nu)), ZERO)
             for nu in basis] for conts in points]
    rhs = [euler_hilb(mu, s) / s.t3 ** (2 * n) if mu == lam else ZERO for mu in mus]
    coeffs = _solve_underdetermined(rows, rhs)
    if coeffs is None:
        raise SingularInterpolation("singular interpolation system")
    out = {e: c for nu, c in zip(basis, coeffs) if c for e in _monomial_symmetric(n, nu)}
    if any(_zp_at(out, conts) != target for conts, target in zip(points, rhs)):
        raise SingularInterpolation("interpolation verification failed")
    return out


def _solve_underdetermined(rows: List[List[Fraction]], rhs: List[Fraction]):
    """Gaussian elimination choosing the lexicographically first pivot
    columns; free variables set to zero."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][ncols] != 0:
            return None
    out = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        out[col] = a[i][ncols]
    return out


# ---------------------------------------------------------------------------
# EGL tautological integrals: localization sum vs iterated residue


def egl_localization(n: int, u_orders: Sequence[int], s, conv=None, total: int | None = None):
    """Method A: sum over partitions of n of prod_l prod_cells (1 - u_l c(cell)) / e_mu,
    truncated at the per-variable `u_orders` and, unless `total` is None, at
    total degree `total`.  The total cap commutes with products, so `term`
    is capped after each factor."""
    conv = conv or DEFAULT_CONVENTION
    vs = tuple(f"u{l+1}" for l in range(len(u_orders)))
    out = DescSeries(vs, tuple(u_orders))
    for mu in enum_partitions(n):
        e_mu = euler_hilb(mu, s, conv)
        term = DescSeries.const(vs, u_orders, Fraction(1))
        for (i, j) in mu.cells():
            c = i * s.t1 + j * s.t2
            for l, order in enumerate(u_orders):
                # a cell of content 0, as (0, 0), and a variable of order 0 give the factor 1
                if not c or not order:
                    continue
                e = tuple(1 if w == l else 0 for w in range(len(vs)))
                term = term * DescSeries(vs, u_orders, {(0,) * len(vs): 1, e: -c})
                if total is not None:
                    term.coeffs = {ue: x for ue, x in term.coeffs.items() if sum(ue) <= total}
        out = out + term * (Fraction(1) / e_mu)
    return out


def egl_residue(n: int, u_orders: Sequence[int], s, conv=None, total: int | None = None):
    """Method B: (1/n!) (t1 t2)^{gamma n} x iterated residue of
    prod_{i<j} omega(z_i - z_j) prod_k prod_l (1 - u_l z_k), t-scale roots."""
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
    p1, p2, D = over_common_denominator(t1, t2)
    term = Term(zp_const(n, Fraction(1)), tuple(_kernel_factors(n, p1, p2)), D)
    return residue_sum_series(term, buckets, n, "inner", vs, u_orders) * norm


# ---------------------------------------------------------------------------
# the one-leg stable-pairs residue vertex


def _descendent_buckets(shifts, desc_specs, s, pieces: Dict | None = None):
    """prod_r (1-e^{u_r t1})(1-e^{u_r t2}) sum_i e^{t3 u_r z_i} sum_(m, e) e e^{m t3 u_r}
    as u-buckets {ue: z-polynomial}, `shifts[i]` the signed t3-shifts
    (m, e) of z_i.

    The r-th factor is sum_i sum_m base_i(u_r) (t3 u_r z_i)^m / m! with
    base_i(u) = sum_(m, e) e sum_x +-e^{(m t3 + x) u} over x = 0, t1, t2,
    t1 + t2.  Over the common denominator d of t1, t2, t3 the coefficient of
    u_r^(a+m) z_i^m has denominator d^(a+m) a! m!.  The z-free terms of all
    i add as integers into one `Fraction` per power of u_r; the others are
    z_i's alone.  A z-variable's piece, (its z-free numerators, its other
    terms), depends only on (i, shifts[i], order), and `pieces` keeps each
    one built once across calls at one sample.  The factors multiply by
    concatenating their u-exponents and multiplying their z-polynomials."""
    n1, n2, n3, d = over_common_denominator(s.t1, s.t2, s.t3)
    nv = len(shifts)
    zero = (0,) * nv
    pieces = {} if pieces is None else pieces
    out = {(): zp_const(nv, Fraction(1))}
    for sp in desc_specs:
        top = sp.order
        const = [0] * (top + 1)
        factor: Dict[int, Dict] = {}
        for i, sh in enumerate(shifts):
            key = (i, sh, top)
            piece = pieces.get(key)
            if piece is None:
                piece = pieces[key] = _descendent_piece(i, sh, top, nv, n1, n2, n3, d)
            for u, x in enumerate(piece[0]):
                const[u] += x
            for u, zp in piece[1].items():
                factor.setdefault(u, {}).update(zp)
        for u, x in enumerate(const):
            if x:
                factor.setdefault(u, {})[zero] = Fraction(x, d ** u * factorial(u))
        # the first factor's z-polynomials are its buckets' own
        out = {ue + (u,): zp_mul(p, zp) if ue else zp for ue, p in out.items() for u, zp in factor.items()}
    return out


def _descendent_piece(i: int, sh, top: int, nv: int, n1: int, n2: int, n3: int, d: int):
    """z_i's part of one factor of `_descendent_buckets` up to u^top:
    base_i's numerators (the z-free terms, over d^u u!) and
    {u: {z_i^m: coefficient}} for m >= 1."""
    base = [0] * (top + 1)
    for m, e in sh:
        c = m * n3
        for a in range(top + 1):
            base[a] += e * (c ** a - (c + n1) ** a - (c + n2) ** a + (c + n1 + n2) ** a)
    rest: Dict[int, Dict] = {}
    for m in range(1, top + 1):
        ze = tuple(m if v == i else 0 for v in range(nv))
        for a in range(top + 1 - m):
            if base[a]:
                rest.setdefault(a + m, {})[ze] = Fraction(base[a] * n3 ** m,
                                                          d ** (a + m) * factorial(a) * factorial(m))
    return base, rest


def _dt0_descendent_buckets(kvec, desc_specs, s, pieces: Dict | None = None):
    """The degree-0 descendent factor g as (u-buckets, scalar): per
    variable, prod(1 - e^{w t_i})/(t1 t2 t3) sum_i e^{t3 z_i w} times
    sum_{m in [0, k_i)} e^{m w t3}, signed for k_i < 0.  Since
    (1 - e^{w t3}) sum_{m in [0, k)} e^{m w t3} = 1 - e^{k w t3} for either
    sign of k, z_i has the t3-shifts 0 and k_i with signs +1, -1; the
    1/(t1 t2 t3) factors are the scalar."""
    buckets = _descendent_buckets([((0, 1), (k, -1)) for k in kvec], desc_specs, s, pieces)
    return buckets, (s.t1 * s.t2 * s.t3) ** -len(desc_specs)


def pt_vertex_integrand(poly, kvec, s, conv, desc_specs=(), table: _FormTable | None = None
                        ) -> Tuple[Term, Dict | None]:
    """Integrand for one k-vector of the residue vertex, a-scale variables:
    the basis z-polynomial `poly` times the linear part, merged from the
    blocks of `table` (one residue vertex's, or a new one), and the
    descendent u-buckets (None without descendents)."""
    nv = len(kvec)
    table = table or _FormTable(nv)
    buckets = None
    if desc_specs:
        sigma = conv.pt_column_sign
        buckets = _descendent_buckets([((sigma * k, 1),) for k in kvec], desc_specs, s, table.pieces)
    cs = over_common_denominator(s.a1, s.a2)
    return Term(poly, table.merge(_pt_blocks(nv, kvec, cs)), cs[2]), buckets


def pt_residue_vertex(shape, qorder: int, desc_specs, s, conv=None, basis="chern",
                      region: str = "inner"):
    """Iterated-residue evaluation of the one-leg stable-pairs vertex.

    Returns the series in q (q^0..q^qorder), normalized to match the
    localization vertex: chern basis is divided by t3^n (the
    root-scale factor), interp basis by the fixed-point Euler class.
    """
    conv = conv or DEFAULT_CONVENTION
    n = shape.size
    vs = tuple(sp.variable for sp in desc_specs)
    orders_all = tuple(sp.order for sp in desc_specs)
    if basis == "chern":
        poly, scale = chern_monomial_poly(n, shape.parts), Fraction(s.t3) ** (-n)
    elif basis == "interp":
        poly, scale = interp_poly(shape, s), Fraction(1) / euler_hilb(shape, s, conv)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    norm = (s.a1 * s.a2) ** (conv.hilb_norm * n) / factorial(n) * scale
    sums = [DescSeries(vs, orders_all) for _ in range(qorder + 1)]
    # the k-vectors' integrands share their blocks, forms and substitutions
    table = _FormTable(n)
    for kvec in product(range(qorder + 1), repeat=n):
        d = sum(kvec)
        if d > qorder:
            continue
        t, buckets = pt_vertex_integrand(poly, kvec, s, conv, desc_specs, table)
        sums[d] = sums[d] + residue_sum_series(t, buckets, n, region, vs, orders_all)
    return QSeries(sums) * norm


# ---------------------------------------------------------------------------
# polynomiality of the per-k residue vertex under t1 + t2 = c t3


class PolyFitReport(Record):
    __slots__ = ("fit_degree", "holdout_ok", "verdict")

    def __init__(self, fit_degree: int, holdout_ok: bool, verdict: str):
        self.fit_degree = fit_degree
        self.holdout_ok = holdout_ok
        self.verdict = verdict


def _divided_differences(xs: List[int], ys: List[Fraction]) -> List[Fraction]:
    """Exact interpolation: the coefficients of the polynomial through the
    points (xs, ys) in the Newton basis prod_(i<k) (x - xs[i])."""
    dd = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    return dd


def _newton_eval(dd: List[Fraction], xs: List[int], x: int) -> Fraction:
    out = Fraction(0)
    for k in range(len(dd) - 1, -1, -1):
        out = out * (x - xs[k]) + dd[k]
    return out


def fk_specialization_identity(c: int, s: ParamSample) -> bool:
    """On t1 + t2 = c t3 the two-column interaction ratio telescopes into a
    finite product rational in the column index k; check the closed form
    exactly for k <= 6 at rational test points (corrected second bracket:
    the paper's printed denominator is off by c)."""
    if s.line != c:
        raise ValueError("sample is not on the line")
    a1 = s.a1
    A = Fraction(c)
    for k in range(7):
        for z in (Fraction(17, 13), Fraction(-23, 7), Fraction(101, 19)):
            lhs = (
                pochhammer(z - a1, k)
                * pochhammer(z - (c - a1), k)
                * pochhammer(z + A, k)
            ) / (
                pochhammer(z + a1, k)
                * pochhammer(z + (c - a1), k)
                * pochhammer(z - A, k)
            )
            rhs = Fraction(1)
            for j in range(c):
                rhs *= (z - a1 + j) / (z - a1 + k + j)
                rhs *= (z + a1 - c + j) / (z + a1 - c + k + j)
            for j in range(2 * c):
                rhs *= (z + k - c + j) / (z - c + j)
            if lhs != rhs:
                return False
    return True


def specialization_poly_check(
    desc_specs: Sequence[DescendentSpec],
    grid: Sequence[int],
    fit_upto: int,
    s: ParamSample,
    conv: Convention = DEFAULT_CONVENTION,
    region: str = "full",
    basis: str = "chern",
) -> PolyFitReport:
    """Fit a polynomial in k to the per-k values of the single-cell residue
    vertex (its coefficient at the descendent orders) on the grid points
    k <= fit_upto and verify the held-out points exactly.

    The per-k value is taken in the source orientation (an extra (-1)^k
    against the localization-matching weights); in the 'full' region its
    expansion coefficients are universal polynomials of k.  The negative
    control evaluates the 'inner'-region values (the actual localization
    weights), whose k-dependence carries factorial denominators and fails
    the held-out verification.

    A miss by a fit through n points of degree n - 1 may only show that n
    points are too few: it reads 'non-polynomial' only when every larger
    fit, up to every grid point but one, misses too, and 'under-determined'
    otherwise.  The grid points must be distinct.
    """
    coeffs = pt_residue_vertex(Partition([1]), max(grid), desc_specs, s, conv, basis, region)
    e = tuple(sp.order for sp in desc_specs)
    points = sorted((k, coeffs[k].coeff(e) * (-1) ** k) for k in grid)

    def fit(n):
        """(degree, held-out points all on it) of the fit through the first n points."""
        xs = [k for k, _ in points[:n]]
        dd = _divided_differences(xs, [v for _, v in points[:n]])
        ok = all(_newton_eval(dd, xs, k) == v for k, v in points[n:])
        return max((k for k, c in enumerate(dd) if c), default=0), ok

    n = sum(k <= fit_upto for k in grid)
    degree, ok = fit(n)
    verdict = "polynomial" if ok else "non-polynomial"
    if not ok and degree == n - 1 and any(fit(m)[1] for m in range(n + 1, len(points))):
        verdict = "under-determined"
    return PolyFitReport(degree, ok, verdict)


# ---------------------------------------------------------------------------
# closed Pochhammer form of the measure ratio


def measure_ratio_char(mu, kvec: Dict) -> LaurentPoly:
    """The character whose plethystic exponential is the closed measure
    ratio, for any integer depths kvec on the cells of mu (missing: 0).

    It is a signed sum of t3-intervals at bases t^(a,b), each
    (t3^lo - t3^(hi+1))/(1 - t3): their numerators are summed and divided
    by (1 - t3) once, along each base's t3-line."""
    cells = [(c, kvec.get(c, 0)) for c in mu.cells()]
    # per ordered pair (c, d) at the offset t^(c - d):
    # t3^(kd-kc) - t3^(kc-kd) + t3^-kd - 1 + t3^kc - 1
    pairs: Dict = {}
    get = pairs.get
    for (ic, jc), kc in cells:
        for (id_, jd), kd in cells:
            a, b = ic - id_, jc - jd
            for e, c in (((a, b, kd - kc), 1), ((a, b, kc - kd), -1), ((a, b, -kd), 1),
                         ((a, b, kc), 1), ((a, b, 0), -2)):
                pairs[e] = get(e, 0) + c
    # per cell at t^c and t^(-c-(1,1)): t3^-k - 1 + t3^k - 1, as
    # ((a, b), t3-power, coefficient); and the pairs times -(t1^-1 - 1)(t2^-1 - 1)
    terms = [(base, l, c) for (i, j), k in cells for base in ((i, j), (-i - 1, -j - 1))
             for l, c in ((-k, 1), (k, 1), (0, -2))]
    for (a, b, l), c in pairs.items():
        if c:
            terms += (((a - 1, b - 1), l, -c), ((a - 1, b), l, c), ((a, b - 1), l, c), ((a, b), l, -c))
    return divide_t3_lines(terms)


def measure_ratio_extended(mu, kvec: Dict, s):
    """(value, zero_order) form of the closed measure ratio, the plethystic
    exponential of `measure_ratio_char` at the sample; zero_order > 0
    means the ideal-sheaf weight vanishes to that order against the
    stable-pairs weight (non-monotone column data), < 0 the reverse."""
    return s.exp_extended(measure_ratio_char(mu, kvec))


# ---------------------------------------------------------------------------
# degree-0 ideal-sheaf slice sums: residue exploration report


def _ratio_cell_blocks_symbolic(nv: int, i: int, k: int, cs):
    """Measure-ratio per-cell blocks at symbolic z_i:
    [z-k]_k [-z-A-k]_k / ([z]_k [-z-A]_k); cs = (p1, p2, D) as in
    `_column_block`.  A negative depth carries no block."""
    p1, p2, D = cs
    A = p1 + p2
    k = max(k, 0)
    return (_poch_lin(nv, {i: 1}, -k, 0, k, D) + _poch_lin(nv, {i: -1}, -k, -A, k, D)
            + _poch_lin(nv, {i: 1}, 0, 0, k, D, -1) + _poch_lin(nv, {i: -1}, 0, -A, k, D, -1))


def _ratio_pair_blocks_symbolic(nv: int, i: int, j: int, kc: int, kd: int, cs):
    """Measure-ratio blocks for the ordered cell pair (c, d) mapped to
    variables (i, j): Exp(-G m_c/m_d (H(kd-kc) + A(kd) + B(kc))) with w =
    z_i - z_j symbolic; the degenerate diagonal (c = d) is excluded upstream.

    As rising factorials, H(b) gives [w]_{-b}/[w]_b, A(kd) gives [w-kd]_kd
    and B(kc) gives 1/[w]_kc at each G-shift of w, to the power of that
    shift's plethystic sign; a negative depth has an empty A or B interval."""
    p1, p2, D = cs
    b = kd - kc
    kd, kc = max(kd, 0), max(kc, 0)
    w = {i: 1, j: -1}
    out = []
    for small, sign in ((-p1 - p2, -1), (-p1, 1), (-p2, 1), (0, -1)):
        out += (_poch_lin(nv, w, 0, small, -b, D, sign) + _poch_lin(nv, w, 0, small, b, D, -sign)
                + _poch_lin(nv, w, -kd, small, kd, D, sign) + _poch_lin(nv, w, 0, small, kc, D, -sign))
    return out


def _printed_cell_block(nv: int, i: int, k: int, cs):
    """The printed per-cell factor [z_i + 1 + A]_k / [z_i]_k, A = a1 + a2."""
    p1, p2, D = cs
    return _poch_lin(nv, {i: 1}, 1, p1 + p2, k, D) + _poch_lin(nv, {i: 1}, 0, 0, k, D, -1)


def _printed_pair_block(nv: int, i: int, j: int, b: int, cs):
    """The printed interaction F^{-1}_b(z_i - z_j), b = k_i - k_j."""
    p1, p2, D = cs
    A = p1 + p2
    out = []
    for small, sign in ((p1, 1), (p2, 1), (-A, 1), (-p1, -1), (-p2, -1), (A, -1)):
        out += _poch_lin(nv, {i: 1, j: -1}, 0, small, b, D, sign)
    return out


def _quadruple_block(nv: int, i: int, j: int, k: int, cs):
    """The printed quadruple ratio for the ordered pair i != j at index k = k_i."""
    p1, p2, D = cs
    A = p1 + p2
    out = []
    for big, small, sign in ((1, 0, 1), (1, A, 1), (0, -p1, 1), (0, -p2, 1),
                             (0, 0, -1), (0, -A, -1), (1, p1, -1), (1, p2, -1)):
        out += _poch_lin(nv, {i: 1, j: -1}, big, small, k, D, sign)
    return out


def dt0_residue_value(mu, kvec, s, desc_specs=(), variant="derived", table: _FormTable | None = None,
                      jp: Dict | None = None):
    """Residue of the degree-0 integrand at one k-vector, with the
    descendent factor g of `_dt0_descendent_buckets` for `DescendentSpec`s;
    None at a pole of the non-generic kind.  `table` (a new one if None)
    and `jp`, the interpolation polynomial `interp_poly(mu, s)` (solved here
    if None), are shared by the calls of one report at one sample.

    variant 'derived': stable-pairs integrand times the derived measure-ratio
    blocks (off-diagonal pairs; the diagonal blocks are degenerate constants
    and are dropped, which the report flags).  variant 'printed': per-cell
    [z+1+A]_k/[z]_k, printed interaction blocks F^{-1}_{k_i-k_j}(z_i-z_j),
    quadruple-ratio product over i != j.
    """
    nv = mu.size
    cs = over_common_denominator(s.a1, s.a2)
    table = table or _FormTable(nv)
    vs = tuple(sp.variable for sp in desc_specs)
    orders_all = tuple(sp.order for sp in desc_specs)
    pairs = [(i, j) for i in range(nv) for j in range(nv) if i != j]
    if variant == "derived":
        parts = (_pt_blocks(nv, kvec, cs)
                 + [(_ratio_cell_blocks_symbolic, (i, k, cs)) for i, k in enumerate(kvec)]
                 + [(_ratio_pair_blocks_symbolic, (i, j, kvec[i], kvec[j], cs)) for i, j in pairs])
    elif variant == "printed":
        parts = ([(_printed_cell_block, (i, k, cs)) for i, k in enumerate(kvec)]
                 + [(_printed_pair_block, (i, j, kvec[i] - kvec[j], cs))
                    for i, j in combinations(range(nv), 2)]
                 + [(_quadruple_block, (i, j, kvec[i], cs)) for i, j in pairs])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    jp = interp_poly(mu, s) if jp is None else jp
    buckets, scalar = None, 1
    if desc_specs:
        buckets, scalar = _dt0_descendent_buckets(kvec, desc_specs, s, table.pieces)
    try:
        val = residue_sum_series(Term(jp, table.merge(parts), cs[2]), buckets, nv, "inner", vs, orders_all)
    except ZeroDivisionError:
        return None
    return val * scalar


def dt0_vanishing(mu, s, conv) -> dict:
    """The vanishing table of the degree-0 weight on invalid column data:
    every depth vector in {1, 2, 3}^cells that is not a plane partition, and
    whether the measure ratio times Exp(-V^PT) vanishes there.  A table with
    no row (one cell has no such vector) passes nothing: "pass" reads None."""
    cells = mu.cells()
    rows = []
    ok = True
    for kv in product(range(1, 4), repeat=len(cells)):
        heights = dict(zip(cells, kv))
        try:
            LeggedPlanePartition(Partition(), heights)
            continue
        except ValueError:
            pass
        _, zr = measure_ratio_extended(mu, heights, s)
        _, zpt = s.exp_extended(-vertex_char_pt_raw(mu, heights, conv))
        vanishes = zr + zpt > 0
        ok = ok and vanishes
        rows.append({"k": list(kv), "vanishes": vanishes})
    return {"rows": rows, "pass": ok if rows else None}


def dtpt0_report(mu, worder: int, qorder: int, s, conv=None) -> dict:
    """Structured exploration of the degree-0 ideal-sheaf slice identities.

    Exact components: the generating function g of descendent characters
    against the direct character computation; the vanishing of the weight on
    column data outside the slice cone; the measure-ratio-weighted
    stable-pairs rebalancing of the slice sum.  The residue-side summation
    bound (-1, 0, 1) and orientation (+-1) are scanned and reported side by
    side; those verdicts are informative.
    """
    conv = conv or DEFAULT_CONVENTION
    n = mu.size
    cells = mu.cells()
    wspec = DescendentSpec("ch", 0, "w1", worder)
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

    # --- g vs descendent character (exact; kappa normalization as printed):
    #     the z-polynomial that `dt0_residue_value` integrates, at the contents
    gspec = DescendentSpec("ch", 0, "w1", worder + 1)
    contents = [i * s.a1 + j * s.a2 for (i, j) in cells]
    g_ok = True
    g_count = 0
    for kv in product(range(0, 3), repeat=n):
        heights = {c: k for c, k in zip(cells, kv)}
        try:
            pp = LeggedPlanePartition(Partition(), heights)
        except ValueError:
            continue
        buckets, scalar = _dt0_descendent_buckets(kv, (gspec,), s)
        gval = DescSeries(vs, (worder + 1,), {ue: _zp_at(b, contents) * scalar
                                             for ue, b in buckets.items()})
        g_count += 1
        if not gval * (s.t1 * s.t2 * s.t3) == descendent_char(pp, gspec, s, conv):
            g_ok = False
    report["g_identity"] = {
        "cases": g_count,
        "pass": g_ok,
        "normalization": "g equals the character divided by t1*t2*t3 (the weight of ch_k(1))",
    }

    report["vanishing"] = dt0_vanishing(mu, s, conv)
    vanish_ok = report["vanishing"]["pass"]

    # --- measure-ratio-weighted rebalancing (exact): sum over k >= 1 of
    #     ratio x Exp(-V^PT) x DT descendent weights equals the slice sum
    target = dt0_slice(mu, (wspec,), s, qorder, conv)
    rebal = [DescSeries(vs, orders_all) for _ in range(qorder + 1)]
    for kv in product(range(1, qorder + 2), repeat=n):
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
        ch = descendent_char(pp, wspec, s, conv, variables=vs, orders=orders_all)
        rebal[d] = rebal[d] + ch * (ratio * wpt)
    rebal = QSeries(rebal)
    rebal_ok = rebal == target.coeffs
    report["ratio_rebalancing"] = {
        "pass": rebal_ok,
        "slice_sum": target.coeffs.to_json(),
        "rebalanced": rebal.to_json(),
    }

    # --- residue-side scan (informative)
    scan = []
    pt_target = [DescSeries(vs, orders_all) for _ in range(qorder + 1)]
    for size, w, k in pt_weight_walk(mu, qorder, s, conv):
        heights = {(i, j): k[i][j] for (i, j) in cells}
        ratio, zr = measure_ratio_extended(mu, heights, s)
        if zr > 0:
            continue
        if w is None:
            raise ValueError(f"localization weight undefined at the sample: {k}")
        chp = descendent_char(RppConfig(mu, k), DescendentSpec("ch_prime", 0, "w1", worder), s, conv,
                              variables=vs, orders=orders_all)
        pt_target[size] = pt_target[size] + chp * (w * ratio)
    pt_target = QSeries(pt_target)
    table, jp = _FormTable(n), interp_poly(mu, s)
    for variant in ("derived", "printed"):
        for bound in (-1, 0, 1):
            by_degree: Dict[int, DescSeries] = {}
            feasible = True
            for kv in product(range(bound, qorder + 1), repeat=n):
                d = sum(kv)
                if d > qorder:
                    continue
                val = dt0_residue_value(mu, kv, s, (wspec,), variant, table, jp)
                if val is None:
                    feasible = False
                    continue
                by_degree[d] = by_degree.get(d, DescSeries(vs, orders_all)) + val
            lo, zero = min(by_degree, default=0), DescSeries(vs, orders_all)
            for orient in (1, -1):
                series = QSeries([by_degree.get(d, zero) * Fraction(orient) ** abs(d)
                                  for d in range(lo, qorder + 1)], lo)
                dt_match, dt_nonzero = _scan_match(series, target.coeffs)
                pt_match, pt_nonzero = _scan_match(series, pt_target)
                scan.append({
                    "variant": variant,
                    "bound": bound,
                    "orientation": orient,
                    "feasible": feasible,
                    "dt_side_match": dt_match,
                    "dt_nonzero": dt_nonzero,
                    "pt_side_match": pt_match,
                    "pt_nonzero": pt_nonzero,
                    "series": series.to_json(),
                })
    report["scan"] = scan
    report["pt_side_target"] = pt_target.to_json()
    # an empty vanishing table is no evidence either way and does not count
    exact_ok = g_ok and vanish_ok is not False and rebal_ok
    report["exact_checks_pass"] = exact_ok
    report["verdict"] = "informative"
    return report


def _scan_match(series: QSeries, target: QSeries) -> Tuple[bool | None, int]:
    """(match, nonzero) of a scan series against a target series, degree by
    absolute degree: a degree only one of them covers is compared with zero.
    `nonzero` counts the coefficients compared that are nonzero on either
    side; a comparison of zeros only is no match either way, and reads None."""
    lo = min(series.shift, target.shift)
    hi = max(series.shift + len(series), target.shift + len(target))
    pairs = [(series.coeff_at(d), target.coeff_at(d)) for d in range(lo, hi)]
    nonzero = sum(len(a.coeffs.keys() | b.coeffs.keys()) for a, b in pairs)
    if not nonzero:
        return None, 0
    return all(a == b for a, b in pairs), nonzero
