"""Gluing two one-leg vertices into local-curve invariants over P^1 with
normal degrees (d1, d2), and the residue-form assembly of the glued series
(interpolation-basis residue vertices, see `residue.interp_poly`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .characters import (
    Convention,
    DEFAULT_CONVENTION,
    DescendentSpec,
    edge_factor,
    euler_hilb,
)
from .partitions import Partition, enum_partitions
from .records import Record
from .residue import pt_residue_vertex
from .sampling import ParamSample
from .series import DescSeries, QSeries
from .vertex import bare_dt, bare_pt


# ---------------------------------------------------------------------------
# gluing


class GlueRequest(Record):
    __slots__ = ("theory", "degrees", "n", "desc_zero", "desc_inf", "qorder", "sample",
                 "convention")

    def __init__(self, theory: str, degrees: Tuple[int, int], n: int,
                 desc_zero: Sequence[DescendentSpec], desc_inf: Sequence[DescendentSpec],
                 qorder: int, sample: ParamSample, convention: Convention = DEFAULT_CONVENTION):
        self.theory = theory
        self.degrees = degrees
        self.n = n
        self.desc_zero = desc_zero
        self.desc_inf = desc_inf
        self.qorder = qorder
        self.sample = sample
        self.convention = convention

    def to_json(self) -> dict:
        return {
            "theory": self.theory,
            "degrees": list(self.degrees),
            "n": self.n,
            "desc_zero": [d.to_json() for d in self.desc_zero],
            "desc_inf": [d.to_json() for d in self.desc_inf],
            "qorder": self.qorder,
            "sample": self.sample.to_json(),
            "convention": self.convention.to_json(),
        }


def _vertex_weight_series(theory, lam, desc, s, qorder, conv):
    """Vertex sum WITHOUT the 1/e_mu fixed-point normalization: the edge
    placement convention keeps all transverse directions in the edge factor."""
    if theory == "PT":
        return bare_pt(("fixedpoint", lam), qorder, desc, s, conv).coeffs * euler_hilb(lam, s, conv)
    return bare_dt(lam, qorder, desc, s, conv).coeffs


def _glue_sum(degrees, n, desc_zero, desc_inf, s, qorder, vertex) -> QSeries:
    """Sum over cross-section fixed points lambda, |lambda| = n, of
    q^f(lambda) W_0(lambda; t) Exp(-E^d(lambda)) W_inf(lambda; s-substituted),
    f(lambda) = -sum_{(i,j) in lambda} (d1 i + d2 j), `vertex(lambda, desc,
    sample)` giving the series W(lambda).  The list
    places a descendent on its vertex, so an 'inf' insertion in `desc_zero`
    is a mistake: it raises ValueError."""
    if any(sp.insertion == "inf" for sp in desc_zero):
        raise ValueError("a descendent at insertion 'inf' belongs in desc_inf, not desc_zero")
    ssub = s.substituted(*degrees)
    vs = tuple(sp.variable for sp in tuple(desc_zero) + tuple(desc_inf))
    orders = tuple(sp.order for sp in tuple(desc_zero) + tuple(desc_inf))
    out = QSeries([DescSeries(vs, orders) for _ in range(qorder + 1)])
    for lam in enum_partitions(n):
        w0 = _lift(vertex(lam, desc_zero, s), vs, orders)
        winf = _lift(vertex(lam, desc_inf, ssub), vs, orders)
        term = w0 * winf * edge_factor(lam, degrees, s)
        term.shift -= sum(degrees[0] * i + degrees[1] * j for i, j in lam.cells())
        out = out + term
    return out


def glue(req: GlueRequest) -> QSeries:
    """Local-curve series: sum over cross-section fixed points lambda of
    q^f(lambda) W_0(lambda; t) Exp(-E^d(lambda)) W_inf(lambda; s-substituted),
    with the infinity weights s_i = t_i - d_i t3 and the lambda-dependent
    part of chi, f(lambda) = -sum_{(i,j) in lambda} (d1 i + d2 j)
    (arXiv:math/0312059, section 4).  Each term's series runs from q^f to
    q^(f + qorder) and a sum keeps the lower top power, so a negative f
    ends the series at q^(qorder + min f)."""
    return _glue_sum(
        req.degrees, req.n, req.desc_zero, req.desc_inf, req.sample, req.qorder,
        lambda lam, desc, s: _vertex_weight_series(req.theory, lam, desc, s, req.qorder,
                                                   req.convention))


def _lift(series: QSeries, vs, orders) -> QSeries:
    """Reindex a series' DescSeries coefficients into the joint variable tuple."""
    out = []
    for ds in series:
        lifted = DescSeries(vs, orders)
        idx = [vs.index(v) for v in ds.variables]
        for e, c in ds.coeffs.items():
            e2 = [0] * len(vs)
            for pos, x in zip(idx, e):
                e2[pos] = x
            lifted.coeffs[tuple(e2)] = c
        out.append(lifted)
    return QSeries(out, series.shift)


def dt0_localcurve(degrees: Tuple[int, int], s: ParamSample, qorder: int,
                   conv: Convention = DEFAULT_CONVENTION) -> List[Fraction]:
    """Degree-0 factor of the local curve: product of the two leg-free DT
    vertex series, one at the t parameters and one at the substituted ones."""
    a = bare_dt(Partition(), qorder, (), s, conv).scalar_series()
    b = bare_dt(Partition(), qorder, (), s.substituted(*degrees), conv).scalar_series()
    return (a * b).scalars()


# ---------------------------------------------------------------------------
# residue assembly of the glued series


def ptint_residue(
    degrees: Tuple[int, int],
    n: int,
    desc_zero: Sequence[DescendentSpec],
    desc_inf: Sequence[DescendentSpec],
    s: ParamSample,
    qorder: int,
    conv: Convention = DEFAULT_CONVENTION,
) -> QSeries:
    """Glued local-curve series evaluated through the residue form of both
    vertices: the interpolation-polynomial edge kernel is diagonal in the
    fixed-point classes, each vertex is an iterated residue, and the infinity
    vertex carries the substituted parameters."""
    def vertex(lam, desc, smp):
        # interp-basis residue vertices match bare_pt fixed-point mode, i.e.
        # carry 1/e; restore the vertex-weight normalization for gluing
        series = pt_residue_vertex(lam, qorder, desc, smp, conv, basis="interp")
        return series * euler_hilb(lam, smp, conv)

    return _glue_sum(degrees, n, desc_zero, desc_inf, s, qorder, vertex)
