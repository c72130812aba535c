from fractions import Fraction as F

import pytest

from vertexforge.characters import DescendentSpec, dt_weight, edge_factor, euler_hilb
from vertexforge.localcurve import GlueRequest, dt0_localcurve, glue, ptint_residue
from vertexforge.partitions import LeggedPlanePartition, Partition, enum_partitions, macmahon_coeffs
from vertexforge.residue import _zp_at, interp_poly
from vertexforge.sampling import sample_random
from vertexforge.series import QSeries
from vertexforge.vertex import bare_pt, contents_at

S = sample_random(8, 18)


class TestInterp:
    def test_n1_constant(self):
        j = interp_poly(Partition([1]), S)
        e_a = euler_hilb(Partition([1]), S) / S.t3**2
        assert _zp_at(j, [F(0)]) == e_a

    def test_defining_property_n2(self):
        for lam in enum_partitions(2):
            j = interp_poly(lam, S)
            for mu in enum_partitions(2):
                conts = [c / S.t3 for c in contents_at(mu, S)]
                target = euler_hilb(mu, S) / S.t3**4 if mu == lam else F(0)
                assert _zp_at(j, conts) == target

    def test_defining_property_n3(self):
        lam = Partition([2, 1])
        j = interp_poly(lam, S)
        for mu in enum_partitions(3):
            conts = [c / S.t3 for c in contents_at(mu, S)]
            target = euler_hilb(mu, S) / S.t3**6 if mu == lam else F(0)
            assert _zp_at(j, conts) == target


class TestGlue:
    def test_d00_is_vertex_pair_with_tangent_edge(self):
        # one cross-section cell: W0 * e_lambda * Winf at substituted params
        req = GlueRequest("PT", (0, 0), 1, (), (), 1, S)
        got = glue(req).scalars()
        lam = Partition([1])
        ssub = S.substituted(0, 0)
        w0 = bare_pt(("fixedpoint", lam), 1, (), S)
        winf = bare_pt(("fixedpoint", lam), 1, (), ssub)
        e0 = euler_hilb(lam, S)
        ei = euler_hilb(lam, ssub)
        ed = edge_factor(lam, (0, 0), S)
        a = [c.coeff(()) * e0 for c in w0.coeffs]
        b = [c.coeff(()) * ei for c in winf.coeffs]
        expect = [
            sum(a[i] * b[m - i] * ed for i in range(m + 1)) for m in range(2)
        ]
        assert got == expect

    def test_conifold_parameter_independence(self):
        series = []
        for seed in (1, 2, 3):
            s = sample_random(seed, 14)
            req = GlueRequest("PT", (-1, -1), 1, (), (), 4, s)
            series.append(glue(req).scalars())
        assert series[0] == series[1] == series[2]
        # the rigid curve's stable-pairs series q/(1 + q)^2 (arXiv:0707.2348),
        # divided by q
        assert series[0] == [(-1) ** k * (k + 1) for k in range(5)]

    def test_inf_insertion_only_at_the_infinity_vertex(self):
        inf = (DescendentSpec("ch", "inf", "u", 2),)
        with pytest.raises(ValueError, match="desc_inf"):
            glue(GlueRequest("PT", (0, 0), 1, inf, (), 1, S))
        with pytest.raises(ValueError, match="desc_inf"):
            ptint_residue((0, 0), 1, inf, (), S, 1)
        # insertion 0 stays allowed in desc_inf: a compute request's
        # descendent defaults to it
        at0 = (DescendentSpec("ch", 0, "u", 2),)
        assert glue(GlueRequest("PT", (0, 0), 1, (), at0, 1, S)) == glue(
            GlueRequest("PT", (0, 0), 1, (), inf, 1, S))

    def test_dt0_localcurve(self):
        vals = dt0_localcurve((-1, -1), S, 1)
        box = LeggedPlanePartition(Partition(), {(0, 0): 1})
        expect_q1 = dt_weight(box, S) + dt_weight(box, S.substituted(-1, -1))
        assert vals[0] == 1 and vals[1] == expect_q1


def conifold_pt(n: int, qtop: int) -> list:
    """The Q^n coefficient of prod_{k>=1} (1 - (-q)^k Q)^k through q^qtop,
    from q^0: q^n times the rigid curve's degree-n stable-pairs series."""
    poly = [[1] + [0] * qtop] + [[0] * (qtop + 1) for _ in range(n)]  # [Q^a][q^b]
    for k in range(1, qtop + 1):
        for _ in range(k):
            for a in range(n, 0, -1):
                for b in range(qtop, k - 1, -1):
                    poly[a][b] -= (-1) ** k * poly[a - 1][b - k]
    return poly[n]


class TestRigidCurve:
    """Gluing at normal degrees (-1, -1) against the resolved conifold, with
    MNOP1's weights t_i - d_i t3 at infinity and the per-lambda q^f shift."""

    SAMPLES = [sample_random(seed, 14) for seed in (1, 2, 3)]

    def test_closed_form(self):
        assert conifold_pt(1, 4) == [0, 1, -2, 3, -4]
        assert conifold_pt(3, 10)[3:] == [0, 0, 1, -6, 14, -32, 63, -112]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_glue(self, n):
        for s in self.SAMPLES:
            got = glue(GlueRequest("PT", (-1, -1), n, (), (), 7, s))
            assert got.shift == 0 and got.scalars() == conifold_pt(n, 7 + n)[n:]

    @pytest.mark.parametrize("n", [1, 2])
    def test_ptint_residue(self, n):
        got = ptint_residue((-1, -1), n, (), (), self.SAMPLES[0], 5)
        assert got.shift == 0 and got.scalars() == conifold_pt(n, 5 + n)[n:]

    @pytest.mark.parametrize("degrees", [(1, -3), (0, -2), (-1, -1), (2, -4)])
    def test_dt_is_pt_times_dt0(self, degrees):
        s = self.SAMPLES[0]
        z0 = QSeries(dt0_localcurve(degrees, s, 4))
        for n in (1, 2):
            zpt, zdt = (glue(GlueRequest(theory, degrees, n, (), (), 4, s))
                        for theory in ("PT", "DT"))
            prod = QSeries(zpt.scalars(), zpt.shift) * z0
            assert any(prod.coeffs) and zdt.shift == prod.shift
            assert zdt.scalars()[:len(prod)] == prod.coeffs

    def test_dt0_is_macmahon_squared_on_the_cy_plane(self):
        # on t1 + t2 + t3 = 0 the degree-0 series is M(-q)^chi, chi = 2 fixed
        # points; the weights at infinity stay on the plane only as t_i - d_i t3
        m = [(-1) ** k * c for k, c in enumerate(macmahon_coeffs(5))]
        m2 = [sum(m[i] * m[k - i] for i in range(k + 1)) for k in range(6)]
        for seed in (1, 2):
            assert dt0_localcurve((-1, -1), sample_random(seed, 14, line=-1), 5) == m2

    def test_negative_f_shortens_the_series(self):
        # at (1, -3) the partition (1, 1) has f = -1: the series starts at
        # q^-1 and ends at q^(qorder - 1)
        got = glue(GlueRequest("DT", (1, -3), 2, (), (), 4, self.SAMPLES[0]))
        assert got.shift == -1 and len(got) == 5


class TestPtintResidue:
    def test_d00(self):
        desc = (DescendentSpec("ch", 0, "u", 2),)
        gl = glue(GlueRequest("PT", (0, 0), 1, desc, (), 1, S))
        pr = ptint_residue((0, 0), 1, desc, (), S, 1)
        assert all(a == b for a, b in zip(gl, pr))

    def test_conifold_with_descendent(self):
        desc = (DescendentSpec("ch", 0, "u", 2),)
        gl = glue(GlueRequest("PT", (-1, -1), 1, desc, (), 2, S))
        pr = ptint_residue((-1, -1), 1, desc, (), S, 2)
        assert all(a == b for a, b in zip(gl, pr))

    def test_two_boxes(self):
        desc = (DescendentSpec("ch", 0, "u", 4),)
        for degrees in ((0, 0), (-1, -1)):
            gl = glue(GlueRequest("PT", degrees, 2, desc, (), 3, S))
            pr = ptint_residue(degrees, 2, desc, (), S, 3)
            assert gl == pr and sum(len(c.coeffs) for c in gl) > 0, degrees


def test_glue_json():
    req = GlueRequest("PT", (-1, -1), 1, (), (), 2, S)
    doc = req.to_json()
    assert doc["degrees"] == [-1, -1] and doc["theory"] == "PT"
