"""Bare one-leg vertex series by localization: sums of virtual weights times
descendent weights over the fixed points, graded by q, each sum one walk of
`characters.dt_weight_walk` or `pt_weight_walk`.

PT vertices are graded by the reverse-plane-partition size, DT vertices by
the renormalized box count; each is a `QSeries`, whose shift keeps series in
different chi-normalizations comparable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from operator import mul
from typing import List, Sequence, Tuple

from .characters import (
    Convention,
    DEFAULT_CONVENTION,
    DescendentSpec,
    descendent_char,
    dt_weight_walk,
    euler_hilb,
    pt_weight_walk,
)
from .records import Record
from .partitions import LeggedPlanePartition, Partition, RppConfig, enum_partitions
from .sampling import ParamSample
from .series import DescSeries, QSeries


class VertexResult(Record):
    """The vertex series, its coefficients DescSeries, with the request echoed."""

    __slots__ = ("theory", "boundary", "coeffs", "convention", "sample")

    def __init__(self, theory: str, boundary: Tuple[str, Partition], coeffs: QSeries,
                 convention: Convention, sample: ParamSample):
        self.theory = theory
        self.boundary = boundary
        self.coeffs = coeffs
        self.convention = convention
        self.sample = sample

    @property
    def shift(self) -> int:
        return self.coeffs.shift

    def scalar_series(self) -> QSeries:
        """The series of constant terms, the whole series when there are no
        descendent variables."""
        return QSeries(self.coeffs.scalars(), self.coeffs.shift)

    def to_json(self) -> dict:
        return {
            "theory": self.theory,
            "boundary": [self.boundary[0], self.boundary[1].to_json()],
            "shift": self.shift,
            "convention": self.convention.to_json(),
            "sample": self.sample.to_json(),
            "coeffs": self.coeffs.to_json(),
        }


def contents_at(mu: Partition, s: ParamSample) -> List[Fraction]:
    return [i * s.t1 + j * s.t2 for (i, j) in mu.cells()]


def chern_monomial_value(nu: Partition, mu: Partition, s: ParamSample) -> Fraction:
    """c_nu at the fixed point mu: prod_i e_{nu_i}(contents of mu)."""
    conts = contents_at(mu, s)
    out = Fraction(1)
    for p in nu.parts:
        if p > len(conts):
            return Fraction(0)
        tot = Fraction(0)
        for idxs in combinations(range(len(conts)), p):
            pr = Fraction(1)
            for ix in idxs:
                pr *= conts[ix]
            tot += pr
        out *= tot
    return out


def _desc_product(config, desc_specs: Sequence[DescendentSpec], s, conv) -> DescSeries:
    vs = tuple(sp.variable for sp in desc_specs)
    orders = tuple(sp.order for sp in desc_specs)
    return reduce(mul, (descendent_char(config, sp, s, conv, variables=vs, orders=orders)
                        for sp in desc_specs))


def _graded_sum(qorder: int, walk, config, desc_specs: Sequence[DescendentSpec], s,
                conv) -> QSeries:
    """The series, q-degree by q-degree, of the sum over the (degree, weight,
    key) nodes of a weight walk of the weight times the descendent weights of
    the fixed point `config(key)`; a weight None (undefined at the sample)
    raises ValueError.  With no descendents each degree adds exact numbers
    and builds one constant series, and no fixed point is built."""
    vs = tuple(sp.variable for sp in desc_specs)
    orders = tuple(sp.order for sp in desc_specs)
    sums = [Fraction(0)] * (qorder + 1) if not desc_specs else [
        DescSeries(vs, orders) for _ in range(qorder + 1)]
    for d, w, key in walk:
        if w is None:
            raise ValueError(f"localization weight undefined at the sample: {key}")
        sums[d] = sums[d] + (_desc_product(config(key), desc_specs, s, conv) * w if desc_specs else w)
    if not desc_specs:
        sums = [DescSeries(vs, orders, {(): c}) for c in sums]
    return QSeries(sums)


def bare_pt(
    boundary: Tuple[str, Partition],
    qorder: int,
    desc_specs: Sequence[DescendentSpec],
    s: ParamSample,
    conv: Convention = DEFAULT_CONVENTION,
) -> VertexResult:
    """Bare PT vertex by localization.

    boundary ('chern', nu): sum over fixed points mu of c_nu(mu)/e_mu times
    the inner sum over reverse plane partitions on mu.  boundary
    ('fixedpoint', mu): the single-mu inner sum weighted 1/e_mu.
    """
    kind, shape = boundary
    n = shape.size
    if kind == "fixedpoint":
        weights = [(shape, Fraction(1) / euler_hilb(shape, s, conv))]
    elif kind == "chern":
        weights = []
        for mu in enum_partitions(n):
            c = chern_monomial_value(shape, mu, s)
            if c != 0:
                weights.append((mu, c / euler_hilb(mu, s, conv)))
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")
    vs, orders = tuple(sp.variable for sp in desc_specs), tuple(sp.order for sp in desc_specs)
    out = QSeries([DescSeries(vs, orders) for _ in range(qorder + 1)])
    for mu, c in weights:
        inner = _graded_sum(qorder, pt_weight_walk(mu, qorder, s, conv), partial(RppConfig, mu),
                            desc_specs, s, conv)
        out = out + inner * c
    return VertexResult("PT", boundary, out, conv, s)


def bare_dt(
    leg: Partition,
    qorder: int,
    desc_specs: Sequence[DescendentSpec],
    s: ParamSample,
    conv: Convention = DEFAULT_CONVENTION,
) -> VertexResult:
    """Bare DT vertex: sum over legged plane partitions of
    q^{renormalized volume} Exp(-V^DT) times descendent weights."""
    out = _graded_sum(qorder, dt_weight_walk(leg, qorder, s, conv),
                      partial(LeggedPlanePartition, leg), desc_specs, s, conv)
    return VertexResult("DT", ("leg", leg), out, conv, s)


def dt0_slice(
    mu: Partition,
    desc_specs: Sequence[DescendentSpec],
    s: ParamSample,
    qorder: int,
    conv: Convention = DEFAULT_CONVENTION,
) -> VertexResult:
    """Restriction of the leg-free DT vertex to plane partitions whose first
    slice is exactly mu: the walk over supports inside mu, keeping the
    fixed points with a box over every cell of mu."""
    walk = [node for node in dt_weight_walk(Partition(), qorder, s, conv, mu)
            if len(node[2]) == mu.size]
    out = _graded_sum(qorder, walk, partial(LeggedPlanePartition, Partition()), desc_specs, s, conv)
    return VertexResult("DT", ("slice", mu), out, conv, s)


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
    from .laurent import pochhammer

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
    vertex (its coefficient at the descendent orders) on the low part of the
    grid and verify the held-out points exactly.

    The per-k value is taken in the source orientation (an extra (-1)^k
    against the localization-matching weights); in the 'full' region its
    expansion coefficients are universal polynomials of k.  The negative
    control evaluates the 'inner'-region values (the actual localization
    weights), whose k-dependence carries factorial denominators and fails
    the held-out verification.
    """
    from .residue import pt_residue_vertex

    coeffs = pt_residue_vertex(Partition([1]), max(grid), desc_specs, s, conv, basis, region)
    e = tuple(sp.order for sp in desc_specs)
    values = [coeffs[k].coeff(e) * (-1) ** k for k in grid]
    fit_xs = [k for k in grid if k <= fit_upto]
    fit_ys = values[: len(fit_xs)]
    hold_xs = [k for k in grid if k > fit_upto]
    hold_ys = values[len(fit_xs):]
    dd = _divided_differences(fit_xs, fit_ys)
    ok = all(_newton_eval(dd, fit_xs, x) == y for x, y in zip(hold_xs, hold_ys))
    degree = max((k for k, c in enumerate(dd) if c), default=0)
    return PolyFitReport(degree, ok, "polynomial" if ok else "non-polynomial")
