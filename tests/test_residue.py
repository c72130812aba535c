from fractions import Fraction as F
from itertools import product

import pytest

from vertexforge.characters import DescendentSpec, measure_difference_char
from vertexforge.laurent import pochhammer
from vertexforge.partitions import Partition, enum_partitions
from vertexforge.residue import (
    LinForm,
    RationalFactor,
    Term,
    _PoleEngine,
    egl_localization,
    egl_residue,
    iterated_residue,
    measure_ratio_closed,
    measure_ratio_extended,
    omega_kernel,
    pt_residue_vertex,
    residue_sum,
    zp_const,
    zp_linform,
    zp_mul,
)
from vertexforge.sampling import sample_random
from vertexforge.vertex import bare_pt

S = sample_random(3, 16)


def lf(n, d=None, big=0, small=0):
    return LinForm.make(n, d or {}, big, small)


class TestWindowEngine:
    def test_constant(self):
        assert iterated_residue([RationalFactor.of_poly(zp_const(2, F(5)))], 2) == 5

    def test_pure_power_vanishes(self):
        p = {(3, 0): F(1)}
        assert iterated_residue([RationalFactor.of_poly(p)], 2) == 0

    def test_ratio_extraction(self):
        # z2/z1 has no constant term; (z2/z1)^0 = 1 does
        assert iterated_residue([RationalFactor.of_poly({(-1, 1): F(1)})], 2) == 0
        assert iterated_residue([RationalFactor.of_poly({(0, 0): F(1)})], 2) == 1

    def test_omega_constant_term(self):
        # omega(z) = (1 - (a1+a2)/z)/((1 - a1/z)(1 - a2/z)) -> 1 at infinity
        fac = omega_kernel(2, S)
        assert iterated_residue(fac, 2) == 1

    def test_omega_product_both_orientations(self):
        # omega(z) * omega(-z): zero coefficient is 1
        a1, a2 = S.a1, S.a2
        n = 1
        num = {}
        for sgn in (1, -1):
            w = lf(n, {0: F(sgn)})
            p = zp_mul(zp_linform(n, w), zp_linform(n, LinForm(w.coeffs, w.big, -a1 - a2)))
            num = zp_mul(num, p) if num else p
        factors = [RationalFactor.of_poly(num)]
        for sgn in (1, -1):
            for c in (a1, a2):
                # 1/(sgn z - c) = sgn/(z - sgn c)
                factors.append(RationalFactor("inv_lin", i=0, c=sgn * c))
        val = iterated_residue(factors, 1)
        assert val == 1


class TestPoleEngine:
    def test_order_guard(self):
        # f = 1/((z1 - z2) z2): forward ordering gives 1, reversed gives 0
        t_fwd = Term(zp_const(2, F(1)), ((lf(2, {0: F(1), 1: F(-1)}), -1), (lf(2, {1: F(1)}), -1)))
        assert residue_sum([t_fwd], 2, "full") == 1
        t_rev = Term(zp_const(2, F(1)), ((lf(2, {1: F(1), 0: F(-1)}), -1), (lf(2, {0: F(1)}), -1)))
        assert residue_sum([t_rev], 2, "full") == 0

    def test_simple_pole(self):
        # 1/((z - c) z): residue at z = 0 alone gives -1/c; the full region
        # adds the residue at z = c and the total vanishes
        c = F(7, 3)
        t = Term(zp_const(1, F(1)), ((lf(1, {0: F(1)}, big=-c), -1), (lf(1, {0: F(1)}), -1)))
        assert residue_sum([t], 1, "inner") == -F(1) / c
        assert residue_sum([t], 1, "full") == 0

    def test_double_pole(self):
        # z^2 / (z - c)^2 * (1/z): full region: finite poles 0 and c (double)
        c = F(2, 5)
        t = Term({(2,): F(1)}, ((lf(1, {0: F(1)}, small=-c), -2), (lf(1, {0: F(1)}), -1)))
        # expansion at infinity: z/(z-c)^2 = sum_{m>=1} m c^{m-1} z^{-m}: [z^0] = 0... with z^2/z
        assert residue_sum([t], 1, "full") == 1  # d/dz [z^2/z] at c gives 1

    def test_double_pole_hand_value(self):
        # 1/((z - c)^2 (z - d)), c infinitesimal, d integer-scale: the inner
        # region encloses c only, residue d/dz (z - d)^-1 at c
        c, d = F(2, 7), F(3)
        t = Term(zp_const(1, F(1)), ((lf(1, {0: F(1)}, small=-c), -2), (lf(1, {0: F(1)}, big=-d), -1)))
        assert residue_sum([t], 1, "inner") == -1 / (c - d) ** 2

    def test_triple_pole_hand_value(self):
        # (z - a)/((z - c)^3 (z - d)) = (1 + (d - a)/(z - d))/(z - c)^3: the
        # residue at c is (1/2) d^2/dz^2 of the rest, (d - a)/(c - d)^3
        a, c, d = F(5, 3), F(2, 7), F(3)
        t = Term(zp_const(1, F(1)), ((lf(1, {0: F(1)}, small=-a), 1),
                                     (lf(1, {0: F(1)}, small=-c), -3),
                                     (lf(1, {0: F(1)}, big=-d), -1)))
        assert residue_sum([t], 1, "inner") == (d - a) / (c - d) ** 3
        # z^2/(z - c)^3: (1/2) d^2/dz^2 z^2 = 1, in either region
        t = Term({(2,): F(1)}, ((lf(1, {0: F(1)}, small=-c), -3),))
        assert residue_sum([t], 1, "inner") == residue_sum([t], 1, "full") == 1

    def test_two_variable_double_pole(self):
        # 1/(z2^2 (z1 - z2 - d) z1), d integer-scale: at z2 = 0 the residue
        # is d/dz2 (z1 - z2 - d)^-1 = (z1 - d)^-2, then at z1 = 0 it is d^-2;
        # in the full region the double pole at z1 = d cancels it
        d = F(3)
        t = Term(zp_const(2, F(1)), ((lf(2, {1: F(1)}), -2), (lf(2, {0: F(1), 1: F(-1)}, big=-d), -1),
                                     (lf(2, {0: F(1)}), -1)))
        assert residue_sum([t], 2, "inner") == 1 / d ** 2
        assert residue_sum([t], 2, "full") == 0

    def test_proportional_forms_cancel(self):
        # (2z - 2c) against (z - c): the forms normalize to one and cancel,
        # leaving the coefficient 2
        c = F(2, 9)
        num = (LinForm.make(1, {0: 2}, small=-2 * c), 1)
        den = (lf(1, {0: F(1)}, small=-c), -2)
        engine = _PoleEngine([num, den], 1, "inner")
        assert engine.coef == 2 and list(engine.base.values()) == [-1]
        t = Term(zp_const(1, F(1)), (num, den))
        assert residue_sum([t], 1, "inner") == 2

    def test_non_unit_leading_coefficients(self):
        # (3z - a)/((2z - c)^2 (z - d)), c and a infinitesimal, d integer-scale:
        # 2z - c stays a pole form with leading coefficient 2 after its
        # denominators are cleared; the residue at c/2 is
        # (1/4) d/dz (3z - a)/(z - d) = (a - 3d) / (4 (c/2 - d)^2), and the
        # full region adds the pole at d, the sum vanishing like z^-2
        a, c, d = F(5, 7), F(1, 3), F(5)
        t = Term(zp_const(1, F(1)), ((LinForm.make(1, {0: 3}, small=-a), 1),
                                     (LinForm.make(1, {0: 2}, small=-c), -2),
                                     (lf(1, {0: F(1)}, big=-d), -1)))
        assert residue_sum([t], 1, "inner") == (a - 3 * d) / (4 * (c / 2 - d) ** 2)
        assert residue_sum([t], 1, "full") == 0
        # 1/((2 z2 - c)^2 (z1 - 3 z2 - d) z1): at z2 = c/2 the residue is
        # (3/4) / ((z1 - 3c/2 - d)^2 z1), whose root at z1 has leading
        # coefficient 2 after the cross-multiplied substitution; at z1 = 0 it
        # is (3/4) / (d + 3c/2)^2, and the full region's double pole cancels it
        t = Term(zp_const(2, F(1)), ((LinForm.make(2, {1: 2}, small=-c), -2),
                                     (LinForm.make(2, {0: 1, 1: -3}, big=-d), -1),
                                     (lf(2, {0: F(1)}), -1)))
        assert residue_sum([t], 2, "inner") == F(3, 4) / (d + 3 * c / 2) ** 2
        assert residue_sum([t], 2, "full") == 0
        # a fractional z-coefficient: 1/((z/2 - c)(z - d)) has residue
        # 2/(2c - d) at z = 2c
        t = Term(zp_const(1, F(1)), ((LinForm.make(1, {0: F(1, 2)}, small=-c), -1),
                                     (lf(1, {0: F(1)}, big=-d), -1)))
        assert residue_sum([t], 1, "inner") == 2 / (2 * c - d)

    def test_full_region(self):
        # z^2/((z - c)(z - d)(z - e)): every finite pole is enclosed, so the
        # sum is the coefficient of 1/z at infinity; the inner region
        # misses the integer-scale poles d and e
        c, d, e = F(1, 5), F(2), F(-3)
        t = Term({(2,): F(1)}, ((lf(1, {0: F(1)}, small=-c), -1), (lf(1, {0: F(1)}, big=-d), -1),
                                (lf(1, {0: F(1)}, big=-e), -1)))
        assert residue_sum([t], 1, "full") == 1
        assert residue_sum([t], 1, "inner") == c ** 2 / ((c - d) * (c - e))

    def test_vanishing_denominator_raises(self):
        # z - c with c infinitesimal and z - c with c integer-scale are distinct
        # forms; at the pole z = c the second vanishes
        c = F(4, 7)
        t = Term(zp_const(1, F(1)), ((lf(1, {0: F(1)}, small=-c), -1), (lf(1, {0: F(1)}, big=-c), -1)))
        with pytest.raises(ZeroDivisionError):
            residue_sum([t], 1, "inner")
        with pytest.raises(ZeroDivisionError):
            residue_sum([Term(zp_const(1, F(1)), ((lf(1), -1),))], 1, "inner")
        # a vanishing constant numerator kills the term instead
        assert residue_sum([Term(zp_const(1, F(1)), ((lf(1), 1), (lf(1, {0: F(1)}), -1)))], 1, "inner") == 0

    def test_window_matches_pole_on_egl(self):
        for n in (1, 2):
            w = egl_residue(n, [2], S, engine="window")
            p = egl_residue(n, [2], S, engine="pole")
            assert w == p


class TestEGL:
    def test_identity_small(self):
        for n in (1, 2, 3):
            a = egl_localization(n, [2, 2], S, total=3)
            b = egl_residue(n, [2, 2], S, total=3)
            assert a == b

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

    def test_k_zero_weight_is_one(self):
        # Pi(0, z) = 1: the q^0 term is the tautological integral
        lam = Partition([1])
        res = pt_residue_vertex(lam, 0, (), S)
        assert res[0].coeff(()) == 0  # c_(1) pairs to the zero content sum


class TestMeasureRatioClosed:
    def test_k_zero(self):
        for mu in enum_partitions(2):
            assert measure_ratio_closed(mu, {}, S) == 1

    def test_hand_instance(self):
        # single column, depth k: [a1+1]_k [a2+1]_k / ([a1-k+1]_k [a2-k+1]_k)
        a1, a2 = S.a1, S.a2
        for k in (1, 2, 3):
            expect = (
                pochhammer(a1 + 1, k)
                * pochhammer(a2 + 1, k)
                / (pochhammer(a1 - k + 1, k) * pochhammer(a2 - k + 1, k))
            )
            assert measure_ratio_closed(Partition([1]), {(0, 0): k}, S) == expect

    def test_transpose_symmetry(self):
        from vertexforge.sampling import ParamSample

        mu = Partition([2])
        kv = {(0, 0): 1, (0, 1): 2}
        swapped = ParamSample(S.t2, S.t1, S.t3, S.genericity_bound)
        kvt = {(0, 0): 1, (1, 0): 2}
        assert measure_ratio_closed(mu, kv, S) == measure_ratio_closed(
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
