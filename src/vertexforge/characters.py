"""Equivariant characters and localization weights: leg and vertex characters
for both sheaf-counting theories, edge terms for gluing over P^1, Euler
classes through the plethystic exponential, and descendent weight generating
functions.

Convention flags capture the orientation/normalization choices the source
formulas leave open; `calibrate` (harness) fixes them against the internal
identities and the calibrated Convention ships as DEFAULT_CONVENTION.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Literal, NamedTuple, Tuple

from .laurent import EquivariantCharacter, LaurentPoly
from .partitions import LeggedPlanePartition, Partition, RppConfig
from .sampling import ParamSample
from .series import DescSeries, exp_single

E3 = (0, 0, 1)
KAPPA = (1, 1, 1)  # exponent triple of t1*t2*t3
# (1 - t1)(1 - t2)
_ONE_MINUS_T1_T2 = LaurentPoly({(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (1, 1, 0): 1})


class Convention(NamedTuple):
    pt_column_sign: int = -1        # sign of k in PT column monomials t3^(sign*k)
    dt_dual_denominator: str = "t1t2t3"  # "t1t2" or "t1t2t3"
    euler_sign: int = -1            # e_lambda = Exp(euler_sign * F_e)
    hilb_norm: int = -1             # gamma in the (t1 t2)^(gamma n) residue normalization

    def to_json(self) -> dict:
        return {
            "pt_column_sign": self.pt_column_sign,
            "dt_dual_denominator": self.dt_dual_denominator,
            "euler_sign": self.euler_sign,
            "hilb_norm": self.hilb_norm,
        }

    @staticmethod
    def from_json(d: dict) -> "Convention":
        return Convention(
            pt_column_sign=d["pt_column_sign"],
            dt_dual_denominator=d["dt_dual_denominator"],
            euler_sign=d["euler_sign"],
            hilb_norm=d["hilb_norm"],
        )


DEFAULT_CONVENTION = Convention()


def all_conventions():
    out = []
    for sigma in (-1, 1):
        for dual in ("t1t2t3", "t1t2"):
            for es in (-1, 1):
                for gamma in (-1, 0, 1):
                    out.append(Convention(sigma, dual, es, gamma))
    return out


class DescendentSpec(NamedTuple):
    mode: Literal["ch", "ch_prime", "ch_hat"] = "ch"
    insertion: Literal[0, "inf"] = 0
    variable: str = "u"
    order: int = 2

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "insertion": self.insertion,
            "variable": self.variable,
            "order": self.order,
        }


def leg_char(shape: Partition) -> LaurentPoly:
    """Q_e = sum over cells (i,j) of t1^i t2^j."""
    return LaurentPoly({(i, j, 0): 1 for (i, j) in shape.cells()})


def fe_char(shape: Partition) -> LaurentPoly:
    """F_e = -Q_e - bar(Q_e)/(t1 t2) + Q_e bar(Q_e) (1-t1)(1-t2)/(t1 t2)."""
    q = leg_char(shape)
    qb = q.bar()
    g = (LaurentPoly.one() - LaurentPoly.monomial((1, 0, 0))) * (
        LaurentPoly.one() - LaurentPoly.monomial((0, 1, 0))
    )
    return -q - qb.shift((-1, -1, 0)) + (q * qb * g).shift((-1, -1, 0))


def euler_hilb(shape: Partition, s: ParamSample, conv: Convention = DEFAULT_CONVENTION) -> Fraction:
    """Tangent Euler class of the Hilbert scheme at the fixed point."""
    p = fe_char(shape)
    if conv.euler_sign == -1:
        p = -p
    return s.exp(p)


def euler_hook_oracle(shape: Partition, s: ParamSample) -> Fraction:
    """Independent arm-leg product for the tangent Euler class:
    prod over cells of (t1(l+1) - t2*a)(t2(a+1) - t1*l)."""
    out = Fraction(1)
    for cell in shape.cells():
        a = shape.arm(cell)
        l = shape.leg(cell)
        out *= (s.t1 * (l + 1) - s.t2 * a) * (s.t2 * (a + 1) - s.t1 * l)
    return out


def pt_fullcolumn_char_raw(
    shape: Partition, kmap: Dict[Tuple[int, int], int], conv: Convention
) -> EquivariantCharacter:
    """F_v for the stable-pairs side: per cell, the full column
    t1^i t2^j t3^(sigma*k_ij) / (1 - t3).  No monotonicity requirement (the
    measure extends to arbitrary integer column data)."""
    sigma = conv.pt_column_sign
    # distinct cells give distinct exponents
    terms = {(i, j, sigma * kmap.get((i, j), 0)): 1 for (i, j) in shape.cells()}
    return EquivariantCharacter(LaurentPoly(terms), [E3])


def _vertex_char(n: LaurentPoly, dual: Tuple[int, int, int], leg: Partition) -> LaurentPoly:
    """V = Q - bar(Q) t^dual + Q bar(Q)(1-t1)(1-t2)(1-t3)/(t1t2t3) + F_e/(1-t3)
    for a box character Q = N/(1-t3), reduced with one division: since
    bar(Q) = -t3 bar(N)/(1-t3),

        V = [N + t3 t^dual bar(N) - N bar(N)(1-t1)(1-t2)/(t1t2) + F_e] / (1-t3).
    """
    nb = n.bar()
    num = (
        n
        + nb.shift((dual[0], dual[1], dual[2] + 1))
        - (n * nb * _ONE_MINUS_T1_T2).shift((-1, -1, 0))
        + fe_char(leg)
    )
    return EquivariantCharacter(num, [E3]).reduce()


# G = (1-t1)(1-t2)/(t1t2)
_G = _ONE_MINUS_T1_T2.shift((-1, -1, 0))


def vertex_char_delta(
    n: LaurentPoly, m: Tuple[int, int, int], eps: int, dual: Tuple[int, int, int]
) -> LaurentPoly:
    """V(N') - V(N) for the vertex character V of `_vertex_char` when the box
    t^m is added with sign eps (+-1) to the box numerator: N' = N + eps t^m (1-t3).

    With delta = eps t^m (1-t3) and bar(delta) = -eps t3^-1 t^-m (1-t3), every
    change of the numerator of V is divisible by (1-t3), so the change of V
    is a Laurent polynomial with O(|N|) terms and needs no division:

        V(N') - V(N) = eps(t^m - t^dual t^-m)
                       - G (eps(t^m bar(N) - t3^-1 t^-m N) + 1 - t3^-1),

    G = (1-t1)(1-t2)/(t1t2).  DT boxes have eps = +1; a PT column step has
    eps = -pt_column_sign.
    """
    a, b, c = m
    # x = eps(t^m bar(N) - t3^-1 t^-m N) + 1 - t3^-1, accumulated in one dict
    x = {(0, 0, 0): 1, (0, 0, -1): -1}
    get = x.get
    for (i, j, k), coef in n.terms.items():
        coef *= eps
        e = (a - i, b - j, c - k)
        x[e] = get(e, 0) + coef
        e = (i - a, j - b, k - c - 1)
        x[e] = get(e, 0) - coef
    dv = {m: eps}
    e = (dual[0] - a, dual[1] - b, dual[2] - c)
    dv[e] = dv.get(e, 0) - eps
    get = dv.get
    for (p, q, r), g in _G.terms.items():
        for (i, j, k), coef in x.items():
            e = (i + p, j + q, k + r)
            dv[e] = get(e, 0) - g * coef
    return LaurentPoly(dv)


def vertex_char_pt_raw(
    shape: Partition, kmap: Dict[Tuple[int, int], int], conv: Convention = DEFAULT_CONVENTION
) -> LaurentPoly:
    """V^PT = F_v - bar(F_v)/(t1t2t3) + F_v bar(F_v)(1-t1)(1-t2)(1-t3)/(t1t2t3)
    + F_e/(1-t3), reduced to a finite Laurent polynomial."""
    return _vertex_char(pt_fullcolumn_char_raw(shape, kmap, conv).num, (-1, -1, -1), shape)


def vertex_char_pt(cfg: RppConfig, conv: Convention = DEFAULT_CONVENTION) -> LaurentPoly:
    """V^PT of an actual reverse-plane-partition fixed point."""
    kmap = {c: cfg.entry(c) for c in cfg.shape.cells()}
    return vertex_char_pt_raw(cfg.shape, kmap, conv)


def dt_boxes_char(pp: LeggedPlanePartition) -> EquivariantCharacter:
    """Q_v: monomial character of the boxes (leg columns as Q_e/(1-t3))."""
    return EquivariantCharacter(leg_char(pp.leg) + _stacks_num(pp.heights), [E3])


def _stacks_num(heights) -> LaurentPoly:
    """sum over (i, j), h of t1^i t2^j (1 - t3^h): the numerator over (1 - t3)
    of the finite stacks (i, j, m), 0 <= m < h."""
    terms: Dict[Tuple[int, int, int], int] = {}
    for (i, j), h in heights:
        terms[(i, j, 0)] = terms.get((i, j, 0), 0) + 1
        terms[(i, j, h)] = terms.get((i, j, h), 0) - 1
    return LaurentPoly(terms)


def _dt_dual(conv: Convention) -> Tuple[int, int, int]:
    """t^dual = 1/D for the convention's dual-term denominator D."""
    return (-1, -1, -1) if conv.dt_dual_denominator == "t1t2t3" else (-1, -1, 0)


def vertex_char_dt(pp: LeggedPlanePartition, conv: Convention = DEFAULT_CONVENTION) -> LaurentPoly:
    """V^DT = Q_v - bar(Q_v)/D + Q_v bar(Q_v)(1-t1)(1-t2)(1-t3)/(t1t2t3)
    + F_e/(1-t3), D per convention, reduced."""
    return _vertex_char(dt_boxes_char(pp).num, _dt_dual(conv), pp.leg)


def vertex_char_dt_raw(
    heights: Dict[Tuple[int, int], int], conv: Convention = DEFAULT_CONVENTION
) -> LaurentPoly:
    """V^DT for leg-free box data given by an arbitrary height map (no
    plane-partition validity requirement; measure continuation)."""
    return _vertex_char(_stacks_num(heights.items()), _dt_dual(conv), Partition())


def pt_weight(cfg: RppConfig, s: ParamSample, conv: Convention = DEFAULT_CONVENTION) -> Fraction:
    """Virtual localization weight Exp(-V^PT) at the sample."""
    return s.exp(-vertex_char_pt(cfg, conv))


def dt_weight(pp: LeggedPlanePartition, s: ParamSample, conv: Convention = DEFAULT_CONVENTION) -> Fraction:
    """Virtual localization weight Exp(-V^DT) at the sample."""
    return s.exp(-vertex_char_dt(pp, conv))


def _running_weights(memo: dict, parent, numerator, eps: int, dual: Tuple[int, int, int],
                     s: ParamSample):
    """Weight lookup by box data, as a running product: `memo` holds the
    box-free fixed point's weight, `parent(key)` gives the box data with one
    box removed (still a fixed point) and that box's exponent, `numerator`
    the box numerator N of box data, and
    w(key) = w(parent) Exp(-(V(key) - V(parent)))."""

    def weight(key) -> Fraction:
        w = memo.get(key)
        if w is None:
            up, m = parent(key)
            w = memo[key] = weight(up) * s.exp(-vertex_char_delta(numerator(up), m, eps, dual))
        return w

    return weight


def _dt_parent(h):
    # the top box of the last nonzero column in row-major order
    (i, j), top = h[-1]
    return h[:-1] + ((((i, j), top - 1),) if top > 1 else ()), (i, j, top - 1)


def dt_running_weights(
    leg: Partition, s: ParamSample, conv: Convention = DEFAULT_CONVENTION
) -> Callable[[LeggedPlanePartition], Fraction]:
    """`dt_weight` of the legged plane partitions on `leg`, each from the one
    with a box less (`vertex_char_delta`); a single `dt_weight` call seeds
    the product."""
    q_leg = leg_char(leg)
    memo = {(): dt_weight(LeggedPlanePartition(leg), s, conv)}
    weight = _running_weights(memo, _dt_parent, lambda h: q_leg + _stacks_num(h), 1, _dt_dual(conv), s)
    return lambda pp: weight(pp.heights)


def pt_running_weights(
    shape: Partition, s: ParamSample, conv: Convention = DEFAULT_CONVENTION
) -> Callable[[RppConfig], Fraction]:
    """`pt_weight` of the reverse plane partitions on `shape`, each from the
    one with the first maximal entry (row-major) decremented
    (`vertex_char_delta`); a single `pt_weight` call seeds the product."""
    sigma = conv.pt_column_sign

    def parent(k):
        top = max(map(max, k))
        i = next(r for r, row in enumerate(k) if top in row)
        j = k[i].index(top)
        rows = list(k)
        rows[i] = k[i][:j] + (top - 1,) + k[i][j + 1:]
        # the column t^(i,j,sigma k)/(1-t3) changes by the box between its
        # tops at k = top - 1 and k = top
        return tuple(rows), (i, j, min(sigma * top, sigma * (top - 1)))

    def numerator(k):
        kmap = {(i, j): v for i, row in enumerate(k) for j, v in enumerate(row)}
        return pt_fullcolumn_char_raw(shape, kmap, conv).num

    zero = RppConfig(shape, {})
    memo = {zero.k: pt_weight(zero, s, conv)}
    weight = _running_weights(memo, parent, numerator, -sigma, (-1, -1, -1), s)
    return lambda cfg: weight(cfg.k)


def edge_char(shape: Partition, d: Tuple[int, int]) -> EquivariantCharacter:
    """E^d = t3^{-1} F_e(t1,t2)/(1-t3^{-1}) - F_e(t1 t3^{-d1}, t2 t3^{-d2})/(1-t3^{-1})."""
    d1, d2 = d
    fe = fe_char(shape)
    fe_sub = fe.substitute_monomials([(1, 0, -d1), (0, 1, -d2), (0, 0, 1)])
    den = [(0, 0, -1)]
    return EquivariantCharacter(fe.shift((0, 0, -1)) - fe_sub, den)


def edge_factor(shape: Partition, d: Tuple[int, int], s: ParamSample) -> Fraction:
    """Exp(-E^d(lambda)) at the sample."""
    e = edge_char(shape, d)
    return s.exp(-e.reduce())


def _box_exponents_pt(cfg: RppConfig, conv: Convention) -> list[Tuple[int, int, int]]:
    sigma = conv.pt_column_sign
    return [(i, j, sigma * cfg.entry((i, j))) for (i, j) in cfg.shape.cells()]


def descendent_char(
    config,
    spec: DescendentSpec,
    s: ParamSample,
    conv: Convention = DEFAULT_CONVENTION,
    variables: Tuple[str, ...] | None = None,
    orders: Tuple[int, ...] | None = None,
    total: int | None = None,
) -> DescSeries:
    """Weight generating function of the Chern-character insertions at a
    fixed point, as a truncated series in the descendent variable.

    DT mode (`ch`): leg cells give (1-e^{t1 z})(1-e^{t2 z}) e^{(i t1 + j t2) z}
    (geometric-series closure of the infinite column); finite boxes keep the
    full (1-e^{t1 z})(1-e^{t2 z})(1-e^{t3 z}) prefactor.  PT mode: cell (i,j)
    gives (1-e^{t1 z})(1-e^{t2 z}) e^{(i t1 + j t2 + sigma k t3) z}.
    `ch_prime`: finite quotient boxes only.  `ch_hat`: 1 - prod(1-e^{t_i z}) Sum.
    """
    if variables is None:
        variables = (spec.variable,)
        orders = (spec.order,)
    var = spec.variable
    vs, os_ = variables, orders

    def e_rate(rate: Fraction) -> DescSeries:
        return exp_single(vs, os_, var, rate, total)

    one = DescSeries.const(vs, os_, 1, total)
    d1 = one - e_rate(s.t1)
    d2 = one - e_rate(s.t2)
    d3 = one - e_rate(s.t3)

    if isinstance(config, RppConfig):
        if spec.mode == "ch_prime":
            # kernel boxes: the finite quotient columns of the stable pair
            out = DescSeries(vs, os_, total)
            sigma = conv.pt_column_sign
            for (i, j) in config.shape.cells():
                k = config.entry((i, j))
                for m in range(1, k + 1):
                    out = out + e_rate(i * s.t1 + j * s.t2 + sigma * m * s.t3)
            return d1 * d2 * d3 * out
        total_sum = DescSeries(vs, os_, total)
        for (i, j, kk) in _box_exponents_pt(config, conv):
            total_sum = total_sum + e_rate(i * s.t1 + j * s.t2 + kk * s.t3)
        body = d1 * d2 * total_sum
        if spec.mode == "ch":
            return body
        if spec.mode == "ch_hat":
            return one - body
        raise ValueError(f"unknown descendent mode {spec.mode}")

    if isinstance(config, LeggedPlanePartition):
        legpart = DescSeries(vs, os_, total)
        for (i, j) in config.leg.cells():
            legpart = legpart + e_rate(i * s.t1 + j * s.t2)
        boxpart = DescSeries(vs, os_, total)
        for (i, j), h in config.heights:
            for m in range(h):
                boxpart = boxpart + e_rate(i * s.t1 + j * s.t2 + m * s.t3)
        body = d1 * d2 * (legpart + d3 * boxpart)
        if spec.mode in ("ch", "ch_prime"):
            return body
        if spec.mode == "ch_hat":
            return one - body
        raise ValueError(f"unknown descendent mode {spec.mode}")

    raise TypeError(f"unsupported fixed-point data {type(config)}")


def measure_difference_char(
    mu: Partition, kvec: Dict[Tuple[int, int], int], conv: Convention = DEFAULT_CONVENTION
) -> LaurentPoly:
    """V^PT(pi(k)) - V^DT(pi(k)) on the common column parametrization
    (PT columns of depth k on mu; DT heights k on the same cells).  Defined
    for arbitrary k >= 0, monotone or not."""
    vpt = vertex_char_pt_raw(mu, dict(kvec), conv)
    vdt = vertex_char_dt_raw({c: kvec.get(c, 0) for c in mu.cells()}, conv)
    return vpt - vdt
