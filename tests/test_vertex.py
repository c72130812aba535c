from fractions import Fraction as F

import pytest

from vertexforge.characters import (
    DEFAULT_CONVENTION,
    DescendentSpec,
    all_conventions,
    descendent_char,
    euler_hilb,
)
from vertexforge.partitions import (
    LeggedPlanePartition,
    Partition,
    enum_legged_pp,
    enum_partitions,
    first_slice,
)
from vertexforge.residue import pt_residue_vertex, specialization_poly_check
from vertexforge.sampling import ParamSample, sample_random
from vertexforge.series import DescSeries
from vertexforge.vertex import (
    _pairwise_sum,
    bare_dt,
    bare_pt,
    chern_monomial_value,
    dt0_slice,
)
from vertexforge.characters import dt_weight, dt_weight_walk, pt_weight, pt_weight_walk
from vertexforge.partitions import enum_rpp

S = sample_random(4, 16)


class TestChernMonomial:
    def test_empty(self):
        assert chern_monomial_value(Partition(), Partition([2, 1]), S) == 1

    def test_first_chern(self):
        assert chern_monomial_value(Partition([1]), Partition([2]), S) == S.t2

    def test_top_vanishes(self):
        # contents contain 0, so the top elementary symmetric vanishes
        assert chern_monomial_value(Partition([2]), Partition([1, 1]), S) == 0


class TestBarePT:
    def test_q0_fixed_point(self):
        lam = Partition([2])
        res = bare_pt(("fixedpoint", lam), 1, (), S)
        assert res.coeffs[0].coeff(()) == 1 / euler_hilb(lam, S)

    def test_q0_single_cell(self):
        cfg0 = enum_rpp(Partition([1]), 0)[0]
        res = bare_pt(("fixedpoint", Partition([1])), 0, (), S)
        assert res.coeffs[0].coeff(()) == pt_weight(cfg0, S) / euler_hilb(Partition([1]), S)

    def test_chern_is_weighted_sum_of_fixed_points(self):
        nu = Partition([1, 1])
        n = nu.size
        qorder = 2
        total = bare_pt(("chern", nu), qorder, (), S)
        acc = [F(0)] * (qorder + 1)
        for mu in enum_partitions(n):
            c = chern_monomial_value(nu, mu, S)
            if c == 0:
                continue
            part = bare_pt(("fixedpoint", mu), qorder, (), S)
            for m in range(qorder + 1):
                acc[m] += c * part.coeffs[m].coeff(())
        assert [c.coeff(()) for c in total.coeffs] == acc


class TestBareDT:
    def test_q0_is_one(self):
        res = bare_dt(Partition(), 2, (), S)
        assert res.coeffs[0].coeff(()) == 1

    def test_q1_single_box(self):
        res = bare_dt(Partition(), 1, (), S)
        box = LeggedPlanePartition(Partition(), {(0, 0): 1})
        assert res.coeffs[1].coeff(()) == dt_weight(box, S)

    def test_legged_q0_is_one(self):
        res = bare_dt(Partition([2, 1]), 1, (), S)
        assert res.coeffs[0].coeff(()) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_degree_zero_closed_form(self, seed):
        # MNOP's degree-0 formula (arXiv:math/0312059): the leg-free vertex is
        # M(-q)^r with r = -(t1+t2)(t1+t3)(t2+t3)/(t1 t2 t3)
        s = sample_random(seed, 20)
        r = -(s.t1 + s.t2) * (s.t1 + s.t3) * (s.t2 + s.t3) / (s.t1 * s.t2 * s.t3)
        got = [c.coeff(()) for c in bare_dt(Partition(), 5, (), s).coeffs]
        assert got == _macmahon_power(r, 5)
        assert all(got)


def _times(a, b):
    """Product of two coefficient lists, truncated at the shorter."""
    order = min(len(a), len(b)) - 1
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(order + 1)]


def _macmahon_power(r, order):
    """Coefficients of q^0..q^order of M(-q)^r = prod_k (1 - (-q)^k)^(-k r),
    each factor the binomial series sum_n binom(-k r, n) (-(-q)^k)^n."""
    out = [F(1)] + [F(0)] * order
    for k in range(1, order + 1):
        a, factor, binom = -k * r, [F(0)] * (order + 1), F(1)
        for n in range(order // k + 1):
            factor[k * n] = binom * (-(-1) ** k) ** n
            binom = binom * (a - n) / (n + 1)
        out = _times(out, factor)
    return out


def _hook_product(lam, order):
    """Coefficients of q^0..q^order of prod over boxes of 1/(1 - (-q)^h),
    h the box's hook length: the one-leg topological vertex."""
    out = [F(1)] + [F(0)] * order
    for cell in lam.cells():
        h = lam.arm(cell) + lam.leg(cell) + 1
        out = _times(out, [F((-1) ** m) if m % h == 0 else F(0) for m in range(order + 1)])
    return out


class TestCYOneLegClosedForms:
    """On the Calabi-Yau line t1 + t2 + t3 = 0 the one-leg vertices are the
    topological vertex (Okounkov-Reshetikhin-Vafa, arXiv:hep-th/0309208;
    Pandharipande-Thomas, arXiv:0707.2348), by localization and by residues."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("parts", [(1,), (2,), (1, 1), (2, 1), (3, 1)], ids=str)
    def test_pt_by_localization(self, parts, seed):
        lam, s = Partition(list(parts)), sample_random(seed, 14, line=-1)
        res = bare_pt(("fixedpoint", lam), 6, (), s)
        got = [c.coeff(()) * euler_hilb(lam, s) for c in res.coeffs]
        assert got == _hook_product(lam, 6)
        assert any(got[1:])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("parts", [(1,), (2,), (2, 1)], ids=str)
    def test_pt_by_residues(self, parts, seed):
        lam, s = Partition(list(parts)), sample_random(seed, 14, line=-1)
        res = pt_residue_vertex(lam, 5, (), s, DEFAULT_CONVENTION, basis="interp")
        got = [c.coeff(()) * euler_hilb(lam, s) for c in res]
        assert got == _hook_product(lam, 5)
        assert any(got[1:])

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("parts", [(1,), (2,), (2, 1)], ids=str)
    def test_dt(self, parts, seed):
        lam, s = Partition(list(parts)), sample_random(seed, 14, line=-1)
        got = [c.coeff(()) for c in bare_dt(lam, 6, (), s).coeffs]
        assert got == _times(_macmahon_power(1, 6), _hook_product(lam, 6))
        assert any(got[1:])


class TestDt0Slice:
    def test_empty_slice(self):
        res = dt0_slice(Partition(), (), S, 2)
        assert [c.coeff(()) for c in res.coeffs] == [1, 0, 0]

    def test_single_box_slice(self):
        res = dt0_slice(Partition([1]), (), S, 1)
        box = LeggedPlanePartition(Partition(), {(0, 0): 1})
        assert res.coeffs[0].coeff(()) == 0
        assert res.coeffs[1].coeff(()) == dt_weight(box, S)

    def test_non_generic_sample(self):
        # t1 = t2: the only fixed point of slice (2, 1) up to q^3 has a weight,
        # though the plane partition its running product passes through has none
        s = ParamSample(F(3, 7), F(3, 7), F(-5, 11), 20)
        res = dt0_slice(Partition([2, 1]), (), s, 3)
        assert [c.coeff(()) for c in res.coeffs] == [0, 0, 0, F(-8, 40389195)]

    def test_slices_partition_the_vertex(self):
        qorder = 3
        total = bare_dt(Partition(), qorder, (), S)
        acc = [F(0)] * (qorder + 1)
        for n in range(qorder + 1):
            for mu in enum_partitions(n):
                part = dt0_slice(mu, (), S, qorder)
                for m in range(qorder + 1):
                    acc[m] += part.coeffs[m].coeff(())
        assert [c.coeff(()) for c in total.coeffs] == acc


class TestSpecializationCheck:
    def test_line_polynomial(self):
        sline = sample_random(5, 14, line=1)
        rep = specialization_poly_check((), list(range(7)), 4, sline)
        assert rep.holdout_ok and rep.verdict == "polynomial"

    def test_degree_grows_with_descendent_order(self):
        sline = sample_random(5, 16, line=2)
        degs = []
        for uorder in (1, 2, 3):
            desc = (DescendentSpec("ch", 0, "u", uorder),)
            rep = specialization_poly_check(desc, list(range(8)), 5, sline)
            assert rep.holdout_ok
            degs.append(rep.fit_degree)
        assert degs == sorted(degs) and degs[-1] > degs[0]

    def test_control(self):
        s = sample_random(6, 14)
        rep = specialization_poly_check(
            (DescendentSpec("ch", 0, "u", 2),), list(range(7)), 4, s, region="inner",
            basis="interp",
        )
        assert rep.verdict == "non-polynomial"

    def test_too_small_fit_is_under_determined(self):
        # a constant through one point misses the linear per-k values, and
        # the fit through two points meets every held-out one
        sline = sample_random(5, 14, line=1)
        desc = (DescendentSpec("ch", 0, "u", 2),)
        rep = specialization_poly_check(desc, list(range(7)), 0, sline)
        assert (rep.fit_degree, rep.holdout_ok, rep.verdict) == (0, False, "under-determined")
        # the grid's order does not matter
        rep = specialization_poly_check(desc, [6, 0, 5, 1, 4, 2, 3], 1, sline)
        assert (rep.fit_degree, rep.holdout_ok, rep.verdict) == (1, True, "polynomial")

    def test_control_miss_persists_from_one_point(self):
        # the off-line values miss at every fit size, so even a one-point
        # fit reads non-polynomial
        s = sample_random(6, 14)
        for fit_upto in (0, 3):
            rep = specialization_poly_check(
                (DescendentSpec("ch", 0, "u", 2),), list(range(7)), fit_upto, s, region="inner",
                basis="interp",
            )
            assert (rep.fit_degree, rep.verdict) == (fit_upto, "non-polynomial")


class TestPairwiseDegreeSums:
    """The scalar series add each degree's weights in pairs; they equal the
    sums in walk order, one Fraction at a time."""

    @staticmethod
    def _sequential(walk, qorder):
        out = [F(0)] * (qorder + 1)
        for d, w, _ in walk:
            out[d] = out[d] + w
        return out

    def test_walk_order_sums(self):
        for seed in (4, 5, 6):
            s = sample_random(seed, 16)
            for lam in (Partition(), Partition([1]), Partition([2, 1])):
                for q in range(7):
                    dt = [c.coeff(()) for c in bare_dt(lam, q, (), s).coeffs]
                    assert dt == self._sequential(dt_weight_walk(lam, q, s), q), (seed, lam, q)
                    e = euler_hilb(lam, s)
                    pt = [c.coeff(()) * e for c in bare_pt(("fixedpoint", lam), q, (), s).coeffs]
                    assert pt == self._sequential(pt_weight_walk(lam, q, s), q), (seed, lam, q)

    def test_short_lists(self):
        assert _pairwise_sum([]) == 0 and type(_pairwise_sum([])) is F
        x = F(3, 7)
        assert _pairwise_sum([x]) is x
        xs = [F(1, k) for k in range(1, 8)]
        assert _pairwise_sum(xs) == sum(xs)


class TestRunningProduct:
    """The running-product sums against sum_pi Exp(-V(pi)) with the weight of
    every fixed point built from scratch (`dt_weight`/`pt_weight`), per q-degree."""

    LEGS = [Partition(p) for p in ((), (1,), (2,), (1, 1), (2, 1), (3, 1))]
    Q = 5

    @staticmethod
    def _graded(pairs, qorder):
        out = [F(0)] * (qorder + 1)
        for n, w in pairs:
            out[n] += w
        return out

    def test_dt_every_convention(self):
        # dt_weight depends on the convention only through the dual term
        oracle = {}
        for conv in all_conventions():
            for leg in self.LEGS:
                key = (conv.dt_dual_denominator, leg)
                if key not in oracle:
                    oracle[key] = self._graded(
                        ((pp.renorm_volume, dt_weight(pp, S, conv))
                         for pp in enum_legged_pp(leg, self.Q)), self.Q)
                got = [c.coeff(()) for c in bare_dt(leg, self.Q, (), S, conv).coeffs]
                assert got == oracle[key], (conv, leg)

    def test_pt_every_convention(self):
        # pt_weight depends on the convention only through pt_column_sign;
        # with sign +1 every weight with a box has a zero-weight monomial
        oracle = {}

        def inner(sigma, mu, conv):
            key = (sigma, mu)
            if key not in oracle:
                try:
                    oracle[key] = self._graded(
                        ((cfg.size, pt_weight(cfg, S, conv)) for cfg in enum_rpp(mu, self.Q)), self.Q)
                except ValueError:
                    oracle[key] = None
            return oracle[key]

        raised = 0
        for conv in all_conventions():
            for lam in self.LEGS:
                for kind in ("fixedpoint", "chern"):
                    mus = [(lam, 1 / euler_hilb(lam, S, conv))] if kind == "fixedpoint" else [
                        (mu, chern_monomial_value(lam, mu, S) / euler_hilb(mu, S, conv))
                        for mu in enum_partitions(lam.size)]
                    sums = [(w, inner(conv.pt_column_sign, mu, conv)) for mu, w in mus if w]
                    if any(s is None for _, s in sums):
                        with pytest.raises(ValueError):
                            bare_pt((kind, lam), self.Q, (), S, conv)
                        raised += 1
                        continue
                    expect = [sum(w * s[n] for w, s in sums) for n in range(self.Q + 1)]
                    got = [c.coeff(()) for c in bare_pt((kind, lam), self.Q, (), S, conv).coeffs]
                    assert got == expect, (conv, kind, lam)
        # the 12 conventions with sign +1, at the 5 non-empty fixed-point legs
        # and the 3 non-empty Chern legs other than (1) (c_1 vanishes at its
        # only fixed point, so that sum is empty)
        assert raised == 12 * (5 + 3)

    def test_dt0_slice_every_convention(self):
        pps = enum_legged_pp(Partition(), self.Q)
        oracle = {}
        for conv in all_conventions():
            for n in range(self.Q + 1):
                for mu in enum_partitions(n):
                    key = (conv.dt_dual_denominator, mu)
                    if key not in oracle:
                        oracle[key] = self._graded(((pp.renorm_volume, dt_weight(pp, S, conv))
                                                    for pp in pps if first_slice(pp) == mu), self.Q)
                    got = [c.coeff(()) for c in dt0_slice(mu, (), S, self.Q, conv).coeffs]
                    assert got == oracle[key], (conv, mu)

    def test_descendents(self):
        specs = (DescendentSpec("ch", 0, "u", 2), DescendentSpec("ch_hat", 0, "v", 1))
        vs, orders = ("u", "v"), (2, 1)

        def desc(config):
            out = DescSeries.const(vs, orders, 1)
            for sp in specs:
                out = out * descendent_char(config, sp, S, variables=vs, orders=orders)
            return out

        for lam in self.LEGS[:5]:
            expect = [DescSeries(vs, orders) for _ in range(4)]
            for pp in enum_legged_pp(lam, 3):
                expect[pp.renorm_volume] = expect[pp.renorm_volume] + desc(pp) * dt_weight(pp, S)
            assert list(bare_dt(lam, 3, specs, S).coeffs) == expect, lam
            e = euler_hilb(lam, S)
            expect = [DescSeries(vs, orders) for _ in range(4)]
            for cfg in enum_rpp(lam, 3):
                expect[cfg.size] = expect[cfg.size] + desc(cfg) * (pt_weight(cfg, S) / e)
            assert list(bare_pt(("fixedpoint", lam), 3, specs, S).coeffs) == expect, lam
