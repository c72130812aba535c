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


def _pairwise_sum(xs: List[Fraction]) -> Fraction:
    """The sum of xs (0 when empty), added in pairs round by round: every
    addition's operands are partial sums of about the same size, where a
    running sum would grow to the lcm of all the denominators at once."""
    while len(xs) > 1:
        # an odd last term goes up to the next round as it is
        xs = [a + b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) - len(xs) % 2:]
    return xs[0] if xs else Fraction(0)


def _graded_sum(qorder: int, walk, config, desc_specs: Sequence[DescendentSpec], s,
                conv) -> QSeries:
    """The series, q-degree by q-degree, of the sum over the (degree, weight,
    key) nodes of a weight walk of the weight times the descendent weights of
    the fixed point `config(key)`; a weight None (undefined at the sample)
    raises ValueError.  With no descendents each degree's weights are added
    in pairs (`_pairwise_sum`) into one constant series, and no fixed point
    is built."""
    vs = tuple(sp.variable for sp in desc_specs)
    orders = tuple(sp.order for sp in desc_specs)
    sums = [[] for _ in range(qorder + 1)] if not desc_specs else [
        DescSeries(vs, orders) for _ in range(qorder + 1)]
    for d, w, key in walk:
        if w is None:
            raise ValueError(f"localization weight undefined at the sample: {key}")
        if desc_specs:
            sums[d] = sums[d] + _desc_product(config(key), desc_specs, s, conv) * w
        else:
            sums[d].append(w)
    if not desc_specs:
        sums = [DescSeries(vs, orders, {(): _pairwise_sum(ws)}) for ws in sums]
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

