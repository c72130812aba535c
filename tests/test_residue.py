from fractions import Fraction as F
from itertools import product

import pytest

from vertexforge.characters import (
    DEFAULT_CONVENTION,
    Convention,
    DescendentSpec,
    all_conventions,
    descendent_char,
    measure_difference_char,
)
from vertexforge.laurent import over_common_denominator, pochhammer
from vertexforge.partitions import LeggedPlanePartition, Partition, enum_partitions, enum_rpp
from vertexforge.residue import (
    Term,
    _FormTable,
    _PoleEngine,
    _descendent_buckets,
    _dt0_descendent_buckets,
    _form,
    _kernel_factors,
    _pt_blocks,
    _scan_match,
    _zp_at,
    dt0_residue_value,
    dt0_vanishing,
    dtpt0_report,
    egl_localization,
    egl_residue,
    measure_ratio_char,
    measure_ratio_extended,
    pt_residue_vertex,
    pt_vertex_integrand,
    residue_sum,
    zp_const,
)
from vertexforge.sampling import sample_random
from vertexforge import residue
from vertexforge.series import DescSeries, QSeries
from vertexforge.vertex import bare_pt

S = sample_random(3, 16)


def _raw_factors(parts, n):
    """The concatenated factor lists of (builder, args) blocks in n variables."""
    return [f for build, args in parts for f in build(n, *args)]


class TestPoleEngine:
    """Hand-valued integrands.  A Term's forms are integer vectors in
    w = D z: `_form(n, c, l, p)` with scale D stands for c . z + (l + p)/D,
    `l` an integer-scale constant and `p` an infinitesimal one."""

    def test_order_guard(self):
        # f = 1/((z1 - z2) z2): forward ordering gives 1, reversed gives 0
        t_fwd = Term(zp_const(2, F(1)), ((_form(2, {0: 1, 1: -1}), -1), (_form(2, {1: 1}), -1)), 1)
        assert residue_sum([t_fwd], 2, "full") == 1
        t_rev = Term(zp_const(2, F(1)), ((_form(2, {1: 1, 0: -1}), -1), (_form(2, {0: 1}), -1)), 1)
        assert residue_sum([t_rev], 2, "full") == 0

    def test_simple_pole(self):
        # 1/((z - c) z): residue at z = 0 alone gives -1/c; the full region
        # adds the residue at z = c and the total vanishes
        c = F(7, 3)
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}, -7), -1), (_form(1, {0: 1}), -1)), 3)
        assert residue_sum([t], 1, "inner") == -F(1) / c
        assert residue_sum([t], 1, "full") == 0

    def test_double_pole(self):
        # z^2 / (z - c)^2 * (1/z), c = 2/5: full region: finite poles 0 and c (double)
        t = Term({(2,): F(1)}, ((_form(1, {0: 1}, 0, -2), -2), (_form(1, {0: 1}), -1)), 5)
        # expansion at infinity: z/(z-c)^2 = sum_{m>=1} m c^{m-1} z^{-m}: [z^0] = 0... with z^2/z
        assert residue_sum([t], 1, "full") == 1  # d/dz [z^2/z] at c gives 1

    def test_double_pole_hand_value(self):
        # 1/((z - c)^2 (z - d)), c infinitesimal, d integer-scale: the inner
        # region encloses c only, residue d/dz (z - d)^-1 at c
        c, d = F(2, 7), F(3)
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}, 0, -2), -2), (_form(1, {0: 1}, -21), -1)), 7)
        assert residue_sum([t], 1, "inner") == -1 / (c - d) ** 2

    def test_triple_pole_hand_value(self):
        # (z - a)/((z - c)^3 (z - d)) = (1 + (d - a)/(z - d))/(z - c)^3: the
        # residue at c is (1/2) d^2/dz^2 of the rest, (d - a)/(c - d)^3
        a, c, d = F(5, 3), F(2, 7), F(3)
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}, 0, -35), 1),
                                     (_form(1, {0: 1}, 0, -6), -3),
                                     (_form(1, {0: 1}, -63), -1)), 21)
        assert residue_sum([t], 1, "inner") == (d - a) / (c - d) ** 3
        # z^2/(z - c)^3: (1/2) d^2/dz^2 z^2 = 1, in either region
        t = Term({(2,): F(1)}, ((_form(1, {0: 1}, 0, -2), -3),), 7)
        assert residue_sum([t], 1, "inner") == residue_sum([t], 1, "full") == 1

    def test_two_variable_double_pole(self):
        # 1/(z2^2 (z1 - z2 - d) z1), d integer-scale: at z2 = 0 the residue
        # is d/dz2 (z1 - z2 - d)^-1 = (z1 - d)^-2, then at z1 = 0 it is d^-2;
        # in the full region the double pole at z1 = d cancels it
        d = F(3)
        t = Term(zp_const(2, F(1)), ((_form(2, {1: 1}), -2), (_form(2, {0: 1, 1: -1}, -3), -1),
                                     (_form(2, {0: 1}), -1)), 1)
        assert residue_sum([t], 2, "inner") == 1 / d ** 2
        assert residue_sum([t], 2, "full") == 0

    def test_proportional_forms_cancel(self):
        # (2z - 2c) against (z - c), c = 2/9: the forms normalize to one and
        # cancel, leaving the coefficient 2
        num = (_form(1, {0: 2}, 0, -4), 1)
        den = (_form(1, {0: 1}, 0, -2), -2)
        engine = _PoleEngine([num, den], 1, "inner", 9)
        assert engine.coef == 2 and list(engine.base.values()) == [-1]
        t = Term(zp_const(1, F(1)), (num, den), 9)
        assert residue_sum([t], 1, "inner") == 2

    def test_non_unit_leading_coefficients(self):
        # (3z - a)/((2z - c)^2 (z - d)), c and a infinitesimal, d integer-scale:
        # 2z - c stays a pole form with leading coefficient 2; the residue at
        # c/2 is (1/4) d/dz (3z - a)/(z - d) = (a - 3d) / (4 (c/2 - d)^2), and
        # the full region adds the pole at d, the sum vanishing like z^-2
        a, c, d = F(5, 7), F(1, 3), F(5)
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 3}, 0, -15), 1),
                                     (_form(1, {0: 2}, 0, -7), -2),
                                     (_form(1, {0: 1}, -105), -1)), 21)
        assert residue_sum([t], 1, "inner") == (a - 3 * d) / (4 * (c / 2 - d) ** 2)
        assert residue_sum([t], 1, "full") == 0
        # 1/((2 z2 - c)^2 (z1 - 3 z2 - d) z1): at z2 = c/2 the residue is
        # (3/4) / ((z1 - 3c/2 - d)^2 z1), whose root at z1 has leading
        # coefficient 2 after the cross-multiplied substitution; at z1 = 0 it
        # is (3/4) / (d + 3c/2)^2, and the full region's double pole cancels it
        t = Term(zp_const(2, F(1)), ((_form(2, {1: 2}, 0, -1), -2),
                                     (_form(2, {0: 1, 1: -3}, -15), -1),
                                     (_form(2, {0: 1}), -1)), 3)
        assert residue_sum([t], 2, "inner") == F(3, 4) / (d + 3 * c / 2) ** 2
        assert residue_sum([t], 2, "full") == 0

    def test_full_region(self):
        # z^2/((z - c)(z - d)(z - e)): every finite pole is enclosed, so the
        # sum is the coefficient of 1/z at infinity; the inner region
        # misses the integer-scale poles d and e
        c, d, e = F(1, 5), F(2), F(-3)
        t = Term({(2,): F(1)}, ((_form(1, {0: 1}, 0, -1), -1), (_form(1, {0: 1}, -10), -1),
                                (_form(1, {0: 1}, 15), -1)), 5)
        assert residue_sum([t], 1, "full") == 1
        assert residue_sum([t], 1, "inner") == c ** 2 / ((c - d) * (c - e))

    def test_vanishing_denominator_raises(self):
        # z - c with c = 4/7 infinitesimal and z - c with c integer-scale are distinct
        # forms; at the pole z = c the second vanishes
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}, 0, -4), -1), (_form(1, {0: 1}, -4), -1)), 7)
        with pytest.raises(ZeroDivisionError):
            residue_sum([t], 1, "inner")
        with pytest.raises(ZeroDivisionError):
            residue_sum([Term(zp_const(1, F(1)), ((_form(1, {}), -1),), 1)], 1, "inner")
        # a vanishing constant numerator kills the term instead
        t = Term(zp_const(1, F(1)), ((_form(1, {}), 1), (_form(1, {0: 1}), -1)), 1)
        assert residue_sum([t], 1, "inner") == 0

    def test_last_level_triple_pole(self):
        # 1/(z2 (z1 - z2 - c)^3) (z1 - a)^2/((z1 - d1)(z1 - d2)), c and a
        # infinitesimal, d1 and d2 integer-scale: the residue at z2 = 0 leaves
        # a triple pole at z1 = c, where (z1 - a)^2/((z1 - d1)(z1 - d2)) =
        # 1 + A/(z1 - d1) + B/(z1 - d2) gives A/(c - d1)^3 + B/(c - d2)^3;
        # the full region adds the poles at d1, d2 and the sum vanishes like z1^-3
        a, c, d1, d2 = F(3, 5), F(2, 5), F(2), F(-1)
        t = Term(zp_const(2, F(1)), ((_form(2, {1: 1}), -1),
                                     (_form(2, {0: 1, 1: -1}, 0, -2), -3),
                                     (_form(2, {0: 1}, 0, -3), 2),
                                     (_form(2, {0: 1}, -10), -1),
                                     (_form(2, {0: 1}, 5), -1)), 5)
        A, B = (d1 - a) ** 2 / (d1 - d2), (d2 - a) ** 2 / (d2 - d1)
        assert residue_sum([t], 2, "inner") == A / (c - d1) ** 3 + B / (c - d2) ** 3
        assert residue_sum([t], 2, "full") == 0

    def test_numerator_vanishing_at_the_root(self):
        # L = z + 1 - x at the sample x = 1 (scale 7) is a form of its own
        # that vanishes at z = 0: L^e (z - a)/(z^3 (z - d)) is (z - a)/(z^(3-e) (z - d)),
        # with residues (a - d)/d^2, a/d and 0 at z = 0 for e = 1, 2, 3
        a, d = F(4, 7), F(3)
        want = {1: (a - d) / d ** 2, 2: a / d, 3: 0}
        for e, value in want.items():
            t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}, 7, -7), e), (_form(1, {0: 1}), -3),
                                         (_form(1, {0: 1}, 0, -4), 1), (_form(1, {0: 1}, -21), -1)), 7)
            assert residue_sum([t], 1, "inner") == value, e
        # as a denominator it is a pole at the same point: non-generic
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}, 7, -7), -1), (_form(1, {0: 1}), -2)), 7)
        with pytest.raises(ZeroDivisionError):
            residue_sum([t], 1, "inner")

    @pytest.mark.parametrize("kvec", [(2, 1), (1, 0, 2)])
    def test_shared_engine_equals_fresh_engines(self, kvec):
        # one engine continues each monomial from the levels it memoized for
        # earlier ones; a fresh engine per monomial runs every level
        import random

        rng = random.Random(len(kvec))
        monos = [tuple(rng.randrange(4) for _ in kvec) for _ in range(40)]
        monos += [(0,) * len(kvec), (3,) + (0,) * (len(kvec) - 1)]
        for s in (S, sample_random(7, 16)):
            t, _ = pt_vertex_integrand(zp_const(len(kvec), F(1)), kvec, s, DEFAULT_CONVENTION)
            shared = _PoleEngine(t.factors, len(kvec), "inner", t.scale)
            got = [shared.monomial(m) for m in monos]
            want = [_PoleEngine(t.factors, len(kvec), "inner", t.scale).monomial(m) for m in monos]
            assert got == want
            assert sum(map(bool, got)) > 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_shared_form_table_equals_fresh_engines(self, n):
        # the engines of one residue vertex share one form table; each
        # k-vector's engine on it equals a fresh engine of the raw factor
        # list with its own table
        import random

        rng = random.Random(n)
        monos = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(12)]
        for s in (S, sample_random(7, 16)):
            cs = over_common_denominator(s.a1, s.a2)
            for region in ("inner", "full"):
                table = _FormTable(n)
                own = 0
                nonzero = 0
                for kvec in product(range(3), repeat=n):
                    t, _ = pt_vertex_integrand(zp_const(n, F(1)), kvec, s, DEFAULT_CONVENTION, (), table)
                    shared = _PoleEngine(t.factors, n, region, t.scale)
                    fresh = _PoleEngine(_raw_factors(_pt_blocks(n, kvec, cs), n), n, region, t.scale)
                    got = [shared.monomial(m) for m in monos]
                    assert got == [fresh.monomial(m) for m in monos], (kvec, region)
                    own += len(fresh.forms)
                    nonzero += sum(map(bool, got))
                assert nonzero > 10
                # the table keeps one of each form the engines meet
                assert len(table.forms) < own / 3

    def test_non_generic_raises_at_every_monomial(self):
        # 1/(z2 (z2 - 1 + x) z1) at x = 1 (scale 3): the form z2 - 1 + x has
        # an integer-scale part, so it is no enclosed pole, yet it vanishes
        # at the enclosed pole z2 = 0; the inner level that raises is never
        # memoized, so every monomial that reaches it raises, and
        # z2 / (z2 (z2 - 1 + x) z1) has no pole at z2 = 0 and reads 0
        t = Term(zp_const(2, F(1)), ((_form(2, {1: 1}), -1), (_form(2, {1: 1}, -3, 3), -1),
                                     (_form(2, {0: 1}), -1)), 3)
        engine = _PoleEngine(t.factors, 2, "inner", t.scale)
        for mono in ((0, 0), (1, 0), (0, 0)):
            with pytest.raises(ZeroDivisionError):
                engine.monomial(mono)
        assert engine.monomial((0, 1)) == 0
        # the same vanishing at the outermost variable
        t = Term(zp_const(1, F(1)), ((_form(1, {0: 1}), -1), (_form(1, {0: 1}, -3, 3), -1)), 3)
        engine = _PoleEngine(t.factors, 1, "inner", t.scale)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                engine.monomial((0,))
        assert engine.monomial((1,)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_merged_blocks_equal_one_fold(self, n):
        # each k-vector's integrand is merged from blocks folded once per
        # vertex; it equals the fold of the whole factor list, and the
        # u-buckets from the shared pieces equal freshly built ones
        desc = (DescendentSpec("ch", 0, "u", 3), DescendentSpec("ch", 0, "v", 2))
        cs = over_common_denominator(S.a1, S.a2)
        for sign in (-1, 1):
            conv = Convention(pt_column_sign=sign)
            table = _FormTable(n)
            count = 0
            for kvec in product(range(4), repeat=n):
                if sum(kvec) > 3:
                    continue
                t, buckets = pt_vertex_integrand(zp_const(n, F(1)), kvec, S, conv, desc, table)
                whole = table.fold(_raw_factors(_pt_blocks(n, kvec, cs), n))
                got = t.factors
                assert got.table is table and got.exps == whole.exps, kvec
                assert F(got.num, got.den) == F(whole.num, whole.den) and got.shift == whole.shift
                assert buckets == _descendent_buckets([((sign * k, 1),) for k in kvec], desc, S)
                count += 1
            assert count == len([k for k in product(range(4), repeat=n) if sum(k) <= 3])
            assert table.pieces

    def test_vertex_builds_one_integrand_per_kvector(self, monkeypatch):
        # perfbench's residue.integrand_s and residue.kvectors trace
        # pt_vertex_integrand: one call per k-vector with |k| <= q
        seen = []
        build = residue.pt_vertex_integrand

        def counted(poly, kvec, *args):
            seen.append(tuple(kvec))
            return build(poly, kvec, *args)

        monkeypatch.setattr(residue, "pt_vertex_integrand", counted)
        desc = (DescendentSpec("ch", 0, "u", 2),)
        for parts, q in (([1], 3), ([2, 1], 2)):
            seen.clear()
            lam = Partition(parts)
            pt_residue_vertex(lam, q, desc, S)
            want = [k for k in product(range(q + 1), repeat=lam.size) if sum(k) <= q]
            assert sorted(seen) == want

    def test_omega_constant_term(self):
        # the measure prod dz_i/z_i times prod_{i<j} omega(z_i - z_j), with
        # omega(z) = (1 - (a1+a2)/z)/((1 - a1/z)(1 - a2/z)) -> 1 at infinity:
        # the full region sums every finite pole, the constant term 1
        p1, p2, D = over_common_denominator(S.a1, S.a2)
        for n in (1, 2, 3):
            t = Term(zp_const(n, F(1)), tuple(_kernel_factors(n, p1, p2)), D)
            assert residue_sum([t], n, "full") == 1


class TestEGL:
    def test_identity_small(self):
        for n in (1, 2, 3):
            a = egl_localization(n, [2, 2], S, total=3)
            b = egl_residue(n, [2, 2], S, total=3)
            assert a == b

    def test_total_cap_restricts(self):
        # a total-degree cap is the uncapped series restricted to total
        # degree <= T, on both routes; some cap drops terms
        dropped = 0
        for n in (1, 2, 3):
            for egl in (egl_localization, egl_residue):
                full = egl(n, [4, 4], S)
                for cap in (0, 2, 4):
                    kept = {e: c for e, c in full.coeffs.items() if sum(e) <= cap}
                    assert egl(n, [4, 4], S, total=cap).coeffs == kept
                    dropped += len(full.coeffs) - len(kept)
        assert dropped

    def test_unit_factors_skipped(self, monkeypatch):
        # the cell (0, 0) has content 0, so its factors 1 - 0 u_l are not
        # multiplied; every factor holds nonzero coefficients inside its orders
        products, scalars = [], []
        mul = DescSeries.__mul__

        def counted(a, b):
            (products if isinstance(b, DescSeries) else scalars).append(b)
            return mul(a, b)

        monkeypatch.setattr(DescSeries, "__mul__", counted)
        egl_localization(3, [2, 2], sample_random(3, 16))
        assert (len(products), len(scalars)) == (12, 3)
        for b in products:
            assert all(c and b._inside(e) for e, c in b.coeffs.items())
        products.clear()
        # a variable of order 0 gives no factor either
        a = egl_localization(3, [2, 0], S)
        assert len(products) == 6
        assert a == egl_residue(3, [2, 0], S)

    def test_n1_value(self):
        a = egl_localization(1, [1], S)
        assert a.coeff((0,)) == 1 / (S.t1 * S.t2)
        assert a.coeff((1,)) == 0  # content of the single cell is 0


class TestMainPT:
    def test_vertex_matches_localization(self):
        desc = (DescendentSpec("ch", 0, "u", 3),)
        for parts in ([1], [2], [1, 1]):
            lam = Partition(parts)
            loc = bare_pt(("chern", lam), 2, desc, S)
            res = pt_residue_vertex(lam, 2, desc, S)
            assert all(a == b for a, b in zip(loc.coeffs, res, strict=True))

    def test_fixedpoint_basis(self):
        lam = Partition([1, 1])
        loc = bare_pt(("fixedpoint", lam), 2, (), S)
        res = pt_residue_vertex(lam, 2, (), S, basis="interp")
        assert all(a == b for a, b in zip(loc.coeffs, res, strict=True))

    def test_size_four_scalar(self):
        # |lambda| = 4 against localization, with nonzero coefficients compared
        lam = Partition([3, 1])
        loc = bare_pt(("chern", lam), 2, (), S)
        res = pt_residue_vertex(lam, 2, (), S)
        assert all(a == b for a, b in zip(loc.coeffs, res, strict=True))
        assert any(not c.is_zero() for c in res)

    @pytest.mark.parametrize("parts", [[2, 2], [2, 1, 1]])
    def test_size_four_with_descendent(self, parts):
        # |lambda| = 4 with a ch insertion to u^2: poles of order two occur
        # among the integrands, and nonzero coefficients are compared
        lam = Partition(parts)
        desc = (DescendentSpec("ch", 0, "u", 2),)
        loc = bare_pt(("chern", lam), 2, desc, S)
        res = pt_residue_vertex(lam, 2, desc, S)
        assert all(a == b for a, b in zip(loc.coeffs, res, strict=True))
        assert any(not c.is_zero() for c in res)

    @pytest.mark.parametrize("basis,parts", [("interp", [1]), ("interp", [2]), ("interp", [1, 1]),
                                             ("chern", [1, 1]), ("chern", [2, 1])])
    def test_two_descendent_variables(self, basis, parts):
        # two descendent variables multiply their u-buckets: u and v to
        # order 3 against localization, with nonzero coefficients compared
        s = sample_random(5, 24)
        lam = Partition(parts)
        desc = (DescendentSpec("ch", 0, "u", 3), DescendentSpec("ch", 0, "v", 3))
        boundary = "fixedpoint" if basis == "interp" else "chern"
        loc = bare_pt((boundary, lam), 2, desc, s)
        res = pt_residue_vertex(lam, 2, desc, s, basis=basis)
        assert all(a == b for a, b in zip(loc.coeffs, res, strict=True))
        assert sum(len(c.coeffs) for c in res) > 10

    def test_k_zero_weight_is_one(self):
        # Pi(0, z) = 1: the q^0 term is the tautological integral
        lam = Partition([1])
        res = pt_residue_vertex(lam, 0, (), S)
        assert res[0].coeff(()) == 0  # c_(1) pairs to the zero content sum


class TestMeasureRatioClosed:
    def test_k_zero(self):
        for mu in enum_partitions(2):
            assert measure_ratio_extended(mu, {}, S) == (1, 0)

    def test_hand_instance(self):
        # single column, depth k: [a1+1]_k [a2+1]_k / ([a1-k+1]_k [a2-k+1]_k)
        a1, a2 = S.a1, S.a2
        for k in (1, 2, 3):
            expect = (
                pochhammer(a1 + 1, k)
                * pochhammer(a2 + 1, k)
                / (pochhammer(a1 - k + 1, k) * pochhammer(a2 - k + 1, k))
            )
            assert measure_ratio_extended(Partition([1]), {(0, 0): k}, S) == (expect, 0)

    def test_transpose_symmetry(self):
        from vertexforge.sampling import ParamSample

        mu = Partition([2])
        kv = {(0, 0): 1, (0, 1): 2}
        swapped = ParamSample(S.t2, S.t1, S.t3, S.genericity_bound)
        kvt = {(0, 0): 1, (1, 0): 2}
        assert measure_ratio_extended(mu, kv, S) == measure_ratio_extended(
            mu.transpose(), kvt, swapped
        )

    def test_vanishing_direction(self):
        # increasing columns are invalid ideal-sheaf data: ratio vanishes
        _, z = measure_ratio_extended(Partition([1, 1]), {(0, 0): 0, (1, 0): 2}, S)
        assert z > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_exp_of_measure_difference(self, n):
        # value and zero order, every depth vector in {0..3}^cells (monotone
        # or not), at two samples
        for s in (S, sample_random(8, 20)):
            for mu in enum_partitions(n):
                cells = mu.cells()
                for kv in product(range(4), repeat=len(cells)):
                    kmap = dict(zip(cells, kv))
                    assert measure_ratio_extended(mu, kmap, s) == s.exp_extended(
                        measure_difference_char(mu, kmap)), (mu, kv)

    def test_character_equals_measure_difference(self):
        # the closed character is V^PT - V^DT itself, at every depth vector
        # in {-1..3}^cells for |mu| <= 3, under the conventions with column
        # sign -1 and dual t1t2t3; under the others the two differ as
        # characters at most depth vectors
        convs = [c for c in all_conventions()
                 if c.pt_column_sign == -1 and c.dt_dual_denominator == "t1t2t3"]
        assert len(convs) == 6
        checked = 0
        for n in (1, 2, 3):
            for mu in enum_partitions(n):
                cells = mu.cells()
                for kv in product(range(-1, 4), repeat=len(cells)):
                    kmap = dict(zip(cells, kv))
                    closed = measure_ratio_char(mu, kmap)
                    for conv in convs:
                        assert closed == measure_difference_char(mu, kmap, conv), (conv, mu, kv)
                    checked += 1
        assert checked == 430


class TestDt0Vanishing:
    S31 = sample_random(31, 14)

    def test_one_cell_table_is_empty_and_does_not_count(self):
        # one cell has no depth vector outside the plane-partition cone
        assert dt0_vanishing(Partition([1]), self.S31, DEFAULT_CONVENTION) == {"rows": [], "pass": None}
        rep = dtpt0_report(Partition([1]), 2, 2, self.S31, DEFAULT_CONVENTION)
        assert rep["vanishing"]["pass"] is None
        assert rep["g_identity"]["pass"] and rep["ratio_rebalancing"]["pass"]
        assert rep["exact_checks_pass"] is True

    @pytest.mark.parametrize("parts", [[1, 1], [2]])
    def test_two_cell_tables_carry_the_verdict(self, parts):
        table = dt0_vanishing(Partition(parts), self.S31, DEFAULT_CONVENTION)
        assert table["rows"] and table["pass"] is True


def _contents(mu, s):
    """The a-scale contents i a1 + j a2 of mu's cells, in cell order."""
    return [i * s.a1 + j * s.a2 for (i, j) in mu.cells()]


def _at(buckets, z, vs, orders):
    """The series sum_ue u^ue buckets[ue] at the point z."""
    return DescSeries(vs, orders, {ue: _zp_at(b, z) for ue, b in buckets.items()})


class TestDescendentZpoly:
    """The residue route's descendent u-buckets at z_i = the content of the
    i-th cell are the localization route's descendent character of the
    fixed point with k_i on that cell."""

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("parts", [[1], [2], [1, 1], [2, 1]])
    def test_pt_integrand_at_contents(self, parts, sign):
        lam = Partition(parts)
        conv = Convention(pt_column_sign=sign)
        spec = DescendentSpec("ch", 0, "u", 3)
        configs = enum_rpp(lam, 3)
        assert len(configs) > 1
        for cfg in configs:
            kvec = [cfg.entry(c) for c in lam.cells()]
            _, buckets = pt_vertex_integrand(zp_const(lam.size, F(1)), kvec, S, conv, (spec,))
            got = _at(buckets, _contents(lam, S), ("u",), (3,))
            assert got == descendent_char(cfg, spec, S, conv), kvec

    @pytest.mark.parametrize("parts", [[1], [2], [1, 1]])
    def test_dt0_g_at_contents(self, parts):
        mu = Partition(parts)
        spec = DescendentSpec("ch", 0, "w1", 4)
        count = 0
        for kv in product(range(4), repeat=mu.size):
            try:
                pp = LeggedPlanePartition(Partition(), dict(zip(mu.cells(), kv)))
            except ValueError:
                continue
            buckets, scalar = _dt0_descendent_buckets(kv, (spec,), S)
            direct = descendent_char(pp, spec, S) * (1 / (S.t1 * S.t2 * S.t3))
            assert _at(buckets, _contents(mu, S), ("w1",), (4,)) * scalar == direct, kv
            count += 1
        assert count > 1


class TestDt0ResidueValue:
    @pytest.mark.parametrize("variant", ["derived", "printed"])
    def test_leading_descendent_coefficient(self, variant):
        # g = prod_(i=1,2) (1 - e^{w t_i}) / (t1 t2 t3) sum_i e^{t3 z_i w} (1 - e^{k_i w t3})
        # starts at w^3 with the z-free coefficient -(k_1 + ... + k_n), so
        # the value with one insertion vanishes below w^3 and its w^3
        # coefficient is -|k| times the value without insertions
        spec = DescendentSpec("ch", 0, "w1", 3)
        compared = 0
        for parts in ([1], [2], [1, 1]):
            mu = Partition(parts)
            for kv in product(range(3), repeat=mu.size):
                bare = dt0_residue_value(mu, kv, S, (), variant)
                val = dt0_residue_value(mu, kv, S, (spec,), variant)
                assert (bare is None) == (val is None)
                if bare is None:
                    continue
                assert all(val.coeff((d,)) == 0 for d in range(3))
                assert val.coeff((3,)) == -sum(kv) * bare.coeff(())
                compared += bool(val.coeff((3,)))
        assert compared > 0


    def test_shared_table_equals_fresh(self):
        # dtpt0_report shares one table and one J_mu across its k-vector loop
        spec = DescendentSpec("ch", 0, "w1", 3)
        mu = Partition([1, 1])
        table, jp = _FormTable(mu.size), residue.interp_poly(mu, S)
        values = 0
        for variant in ("derived", "printed"):
            for kv in product(range(-1, 3), repeat=2):
                shared = dt0_residue_value(mu, kv, S, (spec,), variant, table, jp)
                assert shared == dt0_residue_value(mu, kv, S, (spec,), variant), (variant, kv)
                values += shared is not None and not shared.is_zero()
        assert values > 4

    def test_report_solves_one_interpolation(self, monkeypatch):
        # the report's 40 residue values at (1, 1) share one J_mu
        calls = {"interp_poly": 0, "dt0_residue_value": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(residue, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(residue, name, counted)
        dtpt0_report(Partition([1, 1]), 3, 2, sample_random(31, 14))
        assert calls == {"interp_poly": 1, "dt0_residue_value": 40}


class TestScanMatch:
    A = DescSeries(("w1",), (3,), coeffs={(3,): F(2, 5)})
    B = DescSeries(("w1",), (3,), coeffs={(3,): F(1), (2,): F(1, 3)})
    ZERO = DescSeries(("w1",), (3,))

    def test_aligned_by_degree_from_the_end(self):
        # a series starting at q^1 against a target from q^0 whose q^0 entry is 0
        assert _scan_match(QSeries([self.A], 1), QSeries([self.ZERO, self.A])) == (True, 1)
        target = QSeries([self.ZERO, self.A, self.B])
        assert _scan_match(QSeries([self.A, self.B], 1), target) == (True, 3)
        assert _scan_match(QSeries([self.A], 1), QSeries([self.A, self.ZERO])) == (False, 2)
        # a scan from q^-1, as at bound -1
        assert _scan_match(QSeries([self.ZERO, self.A], -1), QSeries([self.A])) == (True, 1)

    def test_uncovered_degrees_compare_with_zero(self):
        assert _scan_match(QSeries([self.A], 1), QSeries([self.B, self.A])) == (False, 3)
        assert _scan_match(QSeries([self.ZERO, self.A]), QSeries([self.A], 1)) == (True, 1)
        assert _scan_match(QSeries([self.B, self.A]), QSeries([self.A], 1)) == (False, 3)
        assert _scan_match(QSeries([self.B, self.A], -1), QSeries([self.A])) == (False, 3)

    def test_zeros_only_read_none(self):
        assert _scan_match(QSeries([self.ZERO], 1), QSeries([self.ZERO, self.ZERO])) == (None, 0)
