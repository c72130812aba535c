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
from itertools import accumulate, chain
from typing import Dict, List, Literal, NamedTuple, Tuple

from .laurent import LaurentPoly, divide_t3_lines, over_common_denominator
from .partitions import LeggedPlanePartition, Partition, RppConfig
from .sampling import ParamSample
from .series import DescSeries, exp_single


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


def fe_char(shape: Partition) -> LaurentPoly:
    """F_e = -Q_e - bar(Q_e)/(t1 t2) + Q_e bar(Q_e) (1-t1)(1-t2)/(t1 t2),
    Q_e = sum of t^(i,j,0) over the cells; (1-t1)(1-t2)/(t1t2) =
    t^(-1,-1,0) - t^(0,-1,0) - t^(-1,0,0) + 1."""
    cells = shape.cells()
    out: dict = {}
    get = out.get
    for i, j in cells:
        for e in ((i, j, 0), (-i - 1, -j - 1, 0)):
            out[e] = get(e, 0) - 1
        for p, q in cells:
            a, b = i - p, j - q
            for e, c in (((a - 1, b - 1, 0), 1), ((a, b - 1, 0), -1), ((a - 1, b, 0), -1), ((a, b, 0), 1)):
                out[e] = get(e, 0) + c
    return LaurentPoly(out)


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


def pt_box_terms(k, conv: Convention = DEFAULT_CONVENTION) -> list:
    """Terms (b, c) of the box numerator N = sum c t^b of stable-pairs column
    data, whose box character is Q = N/(1-t3): one t^(i,j,sigma k[i][j]) per
    cell, for the depths k given row by row as `RppConfig.k` stores them.
    Any integer depth is allowed, monotone or not (the measure extends to
    arbitrary column data)."""
    sigma = conv.pt_column_sign
    return [((i, j, sigma * v), 1) for i, row in enumerate(k) for j, v in enumerate(row)]


def dt_box_terms(leg: Partition, heights) -> list:
    """Terms (b, c) of the box numerator N = sum c t^b of ideal-sheaf box data,
    whose box character is Q = N/(1-t3): one t^(i,j,0) per leg cell (the
    infinite leg column) plus t^(i,j,0) - t^(i,j,h) per stack ((i, j), h) of
    `heights` (the boxes (i, j, m), 0 <= m < h).  A stack of height 0 gives
    no term; leg cells and stacks sit on distinct cells, so no term cancels."""
    out = [((i, j, 0), 1) for (i, j) in leg.cells()]
    for (i, j), h in heights:
        if h:
            out += (((i, j, 0), 1), ((i, j, h), -1))
    return out


def _depth_rows(shape: Partition, kmap: Dict[Tuple[int, int], int]):
    """The depths of `kmap` row by row over the cells of `shape` (missing: 0)."""
    return [[kmap.get((i, j), 0) for j in range(p)] for i, p in enumerate(shape.parts)]


def _vertex_char(sides, leg: Partition) -> LaurentPoly:
    """The sum over the sides (terms, dual, sign) of sign times the vertex
    character V = Q - bar(Q) t^dual + Q bar(Q)(1-t1)(1-t2)(1-t3)/(t1t2t3)
    of the box character Q = N/(1-t3), N = sum of c t^b over the terms
    (b, c), plus F_e(leg)/(1-t3) once.  Since bar(Q) = -t3 bar(N)/(1-t3),

        V = [N + t3 t^dual bar(N) - N bar(N) G + F_e] / (1-t3),
        G = (1-t1)(1-t2)/(t1t2) = t^(-1,-1,0) - t^(0,-1,0) - t^(-1,0,0) + 1,

    so every side's N bar(N) table and F_e's cell pairs Q_e bar(Q_e) form
    one table, multiplied by G once, and with the linear terms it is divided
    by (1-t3) along each t3-line."""
    cells = leg.cells()
    # (t3-line (a, b), power, coefficient): each side's N + t3 t^dual bar(N),
    # and -Q_e - bar(Q_e)/(t1t2) of F_e
    terms = [((i, j), 0, -1) for i, j in cells]
    terms += [((-1 - i, -1 - j), 0, -1) for i, j in cells]
    for box, (d1, d2, d3), sign in sides:
        terms += [((i, j), k, sign * c) for (i, j, k), c in box]
        terms += [((d1 - i, d2 - j), d3 + 1 - k, sign * c) for (i, j, k), c in box]
    pairs: dict = {}
    get = pairs.get
    tables = [(box, -sign) for box, _, sign in sides] + [([((i, j, 0), 1) for i, j in cells], 1)]
    for box, sign in tables:
        for (i, j, k), c in box:
            c *= sign
            for (p, q, r), c2 in box:
                e = (i - p, j - q, k - r)
                pairs[e] = get(e, 0) + c * c2
    for (a, b, l), c in pairs.items():
        if c:
            terms += (((a - 1, b - 1), l, c), ((a, b - 1), l, -c), ((a - 1, b), l, -c), ((a, b), l, c))
    return divide_t3_lines(terms)


def vertex_char_pt_raw(
    shape: Partition, kmap: Dict[Tuple[int, int], int], conv: Convention = DEFAULT_CONVENTION
) -> LaurentPoly:
    """V^PT = F_v - bar(F_v)/(t1t2t3) + F_v bar(F_v)(1-t1)(1-t2)(1-t3)/(t1t2t3)
    + F_e/(1-t3), F_v the box character of the columns of depth kmap on
    `shape` (any integer depths), reduced to a finite Laurent polynomial."""
    side = (pt_box_terms(_depth_rows(shape, kmap), conv), (-1, -1, -1), 1)
    return _vertex_char((side,), shape)


def vertex_char_pt(cfg: RppConfig, conv: Convention = DEFAULT_CONVENTION) -> LaurentPoly:
    """V^PT of an actual reverse-plane-partition fixed point."""
    return _vertex_char(((pt_box_terms(cfg.k, conv), (-1, -1, -1), 1),), cfg.shape)


def _dt_dual(conv: Convention) -> Tuple[int, int, int]:
    """t^dual = 1/D for the convention's dual-term denominator D."""
    return (-1, -1, -1) if conv.dt_dual_denominator == "t1t2t3" else (-1, -1, 0)


def vertex_char_dt(pp: LeggedPlanePartition, conv: Convention = DEFAULT_CONVENTION) -> LaurentPoly:
    """V^DT = Q_v - bar(Q_v)/D + Q_v bar(Q_v)(1-t1)(1-t2)(1-t3)/(t1t2t3)
    + F_e/(1-t3), D per convention, reduced."""
    return _vertex_char(((dt_box_terms(pp.leg, pp.heights), _dt_dual(conv), 1),), pp.leg)


def vertex_char_dt_raw(
    heights: Dict[Tuple[int, int], int], conv: Convention = DEFAULT_CONVENTION
) -> LaurentPoly:
    """V^DT for leg-free box data given by an arbitrary height map (no
    plane-partition validity requirement; measure continuation)."""
    side = (dt_box_terms(Partition(), heights.items()), _dt_dual(conv), 1)
    return _vertex_char((side,), Partition())


def pt_weight(cfg: RppConfig, s: ParamSample, conv: Convention = DEFAULT_CONVENTION) -> Fraction:
    """Virtual localization weight Exp(-V^PT) at the sample."""
    return s.exp(-vertex_char_pt(cfg, conv))


def dt_weight(pp: LeggedPlanePartition, s: ParamSample, conv: Convention = DEFAULT_CONVENTION) -> Fraction:
    """Virtual localization weight Exp(-V^DT) at the sample."""
    return s.exp(-vertex_char_dt(pp, conv))


def _weight_step(s: ParamSample, eps: int, dual: Tuple[int, int, int]):
    """step(terms, m) = (num, den), integers (den nonzero, neither reduced)
    with num/den = Exp(-(V(N') - V(N))) at the sample, for the box
    numerator N = sum c t^b given by its terms (b, c) and
    N' = N + eps t^m (1-t3): the factor a running product multiplies by
    when the box t^m is added (eps = +1 for ideal-sheaf boxes,
    -pt_column_sign for a stable-pairs column step).

    Adding eps t^m (1-t3) to N changes V by
    eps(t^m - t^dual t^-m) - G(eps(t^m bar(N) - t3^-1 t^-m N) + 1 - t3^-1),
    G = (1-t1)(1-t2)/(t1t2), so with h(d) = Exp(G t^d) and
    r(d) = h(-d)/h(d - e3) the step is

        Exp(-eps t^m + eps t^(dual-m)) r(0) prod_{c t^b in N} r(b-m)^(eps c).

    Every factor's exponent has coefficient sum 0, so at t_i = x_i/D the D
    cancels: a factor is a quotient of products of the integer forms
    i x1 + j x2 + k x3, and r is memoized in the step's life as
    (num, den, vanishing forms).  A vanishing form is set aside with its
    exponent and order; as in `exp_pleth` of the whole change, the step
    raises ValueError unless each such exponent's orders net to 0 (at a
    generic sample only exponent 0 has one)."""
    x1, x2, x3, _ = over_common_denominator(s.t1, s.t2, s.t3)

    def forms(signed):
        """(num, den, vanishing (e, a)) of the product of the forms e^a, a = +-1."""
        num = den = 1
        vanishing = ()
        for (i, j, k), a in signed:
            w = i * x1 + j * x2 + k * x3
            if w == 0:
                vanishing += (((i, j, k), a),)
            elif a > 0:
                num *= w
            else:
                den *= w
        return num, den, vanishing

    def r(i, j, k):
        return forms((((-i - 1, -j - 1, -k), 1), ((-i, -j - 1, -k), -1), ((-i - 1, -j, -k), -1),
                      ((-i, -j, -k), 1), ((i - 1, j - 1, k - 1), -1), ((i, j - 1, k - 1), 1),
                      ((i - 1, j, k - 1), 1), ((i, j, k - 1), -1)))

    ratios: dict = {}

    def step(terms, m) -> Tuple[int, int]:
        a, b, c = m
        num, den, vanishing = forms((((dual[0] - a, dual[1] - b, dual[2] - c), eps), (m, -eps)))
        zeros: dict = {}
        for e, z in vanishing:
            zeros[e] = zeros.get(e, 0) + z
        # the term (m, eps) brings the factor r(0)
        for (i, j, k), coef in chain(((m, eps),), terms):
            key = (i - a, j - b, k - c)
            rt = ratios.get(key)
            if rt is None:
                rt = ratios[key] = r(*key)
            rn, rd, vanishing = rt
            p = eps * coef
            for e, z in vanishing:
                zeros[e] = zeros.get(e, 0) + p * z
            if p < 0:
                rn, rd, p = rd, rn, -p
            if p == 1:
                num *= rn
                den *= rd
            else:
                num *= rn**p
                den *= rd**p
        if zeros.get((0, 0, 0)):
            raise ValueError("zero-weight monomial: constant term in plethystic exponent")
        for (i, j, k), z in zeros.items():
            if z:
                raise ValueError(f"sample genericity insufficient: weight {i}*t1+{j}*t2+{k}*t3 vanishes")
        return num, den

    return step


def _times_step(w, step, terms, m):
    """w times step(terms, m), or None when w is None (undefined) or the
    step raises at a non-generic sample: one Fraction over the products of
    the numerators and of the denominators, normalized by a single gcd."""
    if w is None:
        return None
    try:
        num, den = step(terms, m)
    except ValueError:
        return None
    return Fraction(w.numerator * num, w.denominator * den)


def _weight_or_none(weight, config, s, conv):
    try:
        return weight(config, s, conv)
    except ValueError:
        return None


def dt_weight_walk(
    leg: Partition, qorder: int, s: ParamSample, conv: Convention = DEFAULT_CONVENTION,
    support: Partition | None = None,
) -> List[Tuple[int, Fraction | None, tuple]]:
    """(renormalized volume, `dt_weight`, heights) of every legged plane
    partition on `leg` of volume <= qorder, the heights as
    `LeggedPlanePartition.heights` stores them; with `support`, only those
    whose boxes all sit over cells of that partition.

    Depth first over the tree in which a fixed point's parent has the top
    box of its last nonzero column (row-major) removed: a child adds one box
    on that column or opens a later one, so each fixed point is visited
    once.  One `dt_weight` call seeds the root; a child's weight is its
    parent's times one `_weight_step`, over the parent's box-numerator terms
    extended in place.  At a non-generic sample a step can raise where the
    child's own weight is defined; the child then takes `dt_weight` directly,
    and the weight reads None where that raises too."""
    nleg = len(leg.parts)
    step = _weight_step(s, 1, _dt_dual(conv))
    out: list = []
    hm: Dict[Tuple[int, int], int] = {}
    terms = dt_box_terms(leg, ())

    def start(i):
        return leg.parts[i] if i < nleg else 0

    def fits(i, j, h):
        # height h over (i, j) needs its neighbours up and left at least as
        # high; a neighbour in the leg or off the quadrant is infinite
        return ((i == 0 or j < start(i - 1) or hm.get((i - 1, j), 0) >= h)
                and (j <= start(i) or hm.get((i, j - 1), 0) >= h))

    def visit(heights, w, volume):
        out.append((volume, w, heights))
        if volume == qorder:
            return
        row, fresh = -1, []
        if heights:
            (row, j), h = heights[-1]
            if fits(row, j, h + 1):
                cw = _times_step(w, step, terms, (row, j, h))
                hm[(row, j)] = h + 1
                terms[-1] = ((row, j, h + 1), -1)
                child = heights[:-1] + (((row, j), h + 1),)
                if cw is None:
                    cw = _weight_or_none(dt_weight, LeggedPlanePartition(leg, child), s, conv)
                visit(child, cw, volume + 1)
                hm[(row, j)] = h
                terms[-1] = ((row, j, h), -1)
            fresh.append((row, j + 1))
        # a later row's first column can open only under a nonzero cell or
        # under the leg: the next row, or a row the leg reaches over
        fresh += [(i, start(i)) for i in range(row + 1, max(row + 1, nleg) + 1)]
        for i, j in fresh:
            if not fits(i, j, 1) or (support is not None and (i, j) not in support):
                continue
            cw = _times_step(w, step, terms, (i, j, 0))
            hm[(i, j)] = 1
            terms.extend((((i, j, 0), 1), ((i, j, 1), -1)))
            child = heights + (((i, j), 1),)
            if cw is None:
                cw = _weight_or_none(dt_weight, LeggedPlanePartition(leg, child), s, conv)
            visit(child, cw, volume + 1)
            del hm[(i, j)], terms[-2:]

    visit((), _weight_or_none(dt_weight, LeggedPlanePartition(leg), s, conv), 0)
    # `visit` refers to itself through its closure: dropping it frees the
    # walk's tables now rather than at the next cycle collection
    del visit
    return out


def pt_weight_walk(
    shape: Partition, qorder: int, s: ParamSample, conv: Convention = DEFAULT_CONVENTION
) -> List[Tuple[int, Fraction | None, tuple]]:
    """(size, `pt_weight`, depths) of every reverse plane partition on
    `shape` of size <= qorder, the depths row by row as `RppConfig.k`
    stores them.

    Depth first over the tree in which a fixed point's parent has its first
    maximal entry (row-major) decremented: a child raises an entry equal to
    the maximum, or one below it that comes before the first maximal entry,
    so each fixed point is visited once.  The weights follow
    `dt_weight_walk`'s rule: one `pt_weight` call seeds the root, a child
    multiplies its parent's weight by one `_weight_step`, and a step that
    raises gives the child `pt_weight` directly (None where that raises)."""
    sigma = conv.pt_column_sign
    step = _weight_step(s, -sigma, (-1, -1, -1))
    cells = shape.cells()
    index = {c: n for n, c in enumerate(cells)}
    # the neighbours right and below, which bound an entry from above
    after = [[index[c] for c in ((i, j + 1), (i + 1, j)) if c in index] for i, j in cells]
    ends = list(accumulate(shape.parts))
    spans = list(zip([0, *ends], ends))
    vals = [0] * len(cells)
    terms = pt_box_terms([[0] * p for p in shape.parts], conv)
    out: list = []

    def visit(w, size, top, first):
        out.append((size, w, tuple(tuple(vals[a:b]) for a, b in spans)))
        if size == qorder:
            return
        for c, (i, j) in enumerate(cells):
            v = vals[c]
            if not (v == top or (v == top - 1 and c < first)) or any(vals[x] <= v for x in after[c]):
                continue
            # the column t^(i,j,sigma v)/(1-t3) gains the box between its
            # tops at depths v and v + 1
            cw = _times_step(w, step, terms, (i, j, min(sigma * v, sigma * (v + 1))))
            vals[c] = v + 1
            terms[c] = ((i, j, sigma * (v + 1)), 1)
            if cw is None:
                cw = _weight_or_none(pt_weight, RppConfig(shape, dict(zip(cells, vals))), s, conv)
            visit(cw, size + 1, max(top, v + 1), c)
            vals[c] = v
            terms[c] = ((i, j, sigma * v), 1)

    visit(_weight_or_none(pt_weight, RppConfig(shape, {}), s, conv), 0, 0, 0)
    del visit
    return out


def edge_char(shape: Partition, d: Tuple[int, int]) -> LaurentPoly:
    """E^d = [t3^{-1} F_e(t1,t2) - F_e(t1 t3^{-d1}, t2 t3^{-d2})]/(1-t3^{-1}),
    reduced; with 1 - t3^{-1} = -t3^{-1}(1-t3) it is
    [t3 F_e(t1 t3^{-d1}, t2 t3^{-d2}) - F_e(t1,t2)]/(1-t3)."""
    d1, d2 = d
    fe = fe_char(shape).terms
    terms = [((i, j), k + 1 - i * d1 - j * d2, c) for (i, j, k), c in fe.items()]
    terms += [((i, j), k, -c) for (i, j, k), c in fe.items()]
    return divide_t3_lines(terms)


def edge_factor(shape: Partition, d: Tuple[int, int], s: ParamSample) -> Fraction:
    """Exp(-E^d(lambda)) at the sample."""
    return s.exp(-edge_char(shape, d))


def descendent_char(
    config,
    spec: DescendentSpec,
    s: ParamSample,
    conv: Convention = DEFAULT_CONVENTION,
    variables: Tuple[str, ...] | None = None,
    orders: Tuple[int, ...] | None = None,
) -> DescSeries:
    """Weight generating function of the Chern-character insertions at a
    fixed point, as a truncated series in the descendent variable z:

        body = (1-e^{t1 z})(1-e^{t2 z}) sum_{(b,c)} c e^{(b.t) z}

    over the terms (b, c) of a box numerator N = sum c t^b (box character
    N/(1-t3)).  `ch` and `ch_hat` take the fixed point's own N
    (`pt_box_terms`, `dt_box_terms`); `ch_prime` takes the finite quotient
    boxes: the same N for ideal sheaves, and for stable pairs the boxes
    t^(i,j,m), lo <= m < hi, between the tops 0 and sigma k of each column of
    depth k, (lo, hi) = sorted(0, sigma k), whose numerator is
    t^(i,j,lo) - t^(i,j,hi).
    `ch` and `ch_prime` give body, `ch_hat` gives 1 - body.
    """
    if spec.mode not in ("ch", "ch_prime", "ch_hat"):
        raise ValueError(f"unknown descendent mode {spec.mode}")
    if isinstance(config, RppConfig):
        if spec.mode == "ch_prime":
            sigma = conv.pt_column_sign
            terms = []
            for i, row in enumerate(config.k):
                for j, k in enumerate(row):
                    if k > 0:
                        lo, hi = sorted((0, sigma * k))
                        terms += (((i, j, lo), 1), ((i, j, hi), -1))
        else:
            terms = pt_box_terms(config.k, conv)
    elif isinstance(config, LeggedPlanePartition):
        terms = dt_box_terms(config.leg, config.heights)
    else:
        raise TypeError(f"unsupported fixed-point data {type(config)}")
    if variables is None:
        variables, orders = (spec.variable,), (spec.order,)

    def e_rate(rate: Fraction) -> DescSeries:
        return exp_single(variables, orders, spec.variable, rate)

    boxes = DescSeries(variables, orders)
    for (i, j, k), c in terms:
        e = e_rate(i * s.t1 + j * s.t2 + k * s.t3)
        boxes = boxes + e if c == 1 else boxes - e
    one = DescSeries.const(variables, orders, 1)
    body = (one - e_rate(s.t1)) * (one - e_rate(s.t2)) * boxes
    return one - body if spec.mode == "ch_hat" else body


def measure_difference_char(
    mu: Partition, kvec: Dict[Tuple[int, int], int], conv: Convention = DEFAULT_CONVENTION
) -> LaurentPoly:
    """V^PT(pi(k)) - V^DT(pi(k)) on the common column parametrization
    (PT columns of depth k on mu; DT heights k on the same cells).  Defined
    for arbitrary integer k, monotone or not.

    Both characters sit over the one denominator (1-t3), and only V^PT has
    a leg term F_e(mu), so `_vertex_char` builds the difference in one pass
    with the PT side signed +1 and the DT side -1."""
    pt = pt_box_terms(_depth_rows(mu, kvec), conv)
    dt = dt_box_terms(Partition(), ((c, kvec.get(c, 0)) for c in mu.cells()))
    return _vertex_char(((pt, (-1, -1, -1), 1), (dt, _dt_dual(conv), -1)), mu)
