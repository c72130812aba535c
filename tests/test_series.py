from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from vertexforge.series import DescSeries, QSeries, exp_single


class TestQSeries:
    def test_mul_truncates(self):
        a = QSeries(3, [1, 1, 1, 1])
        b = QSeries(3, [1, -1])
        assert (a * b).coeffs == [F(1), F(0), F(0), F(0)]

    def test_shift_arithmetic(self):
        a = QSeries(2, [1, 2, 3], shift=1)
        b = QSeries(2, [1, 0, 0], shift=0)
        c = a * b
        assert c.shift == 1 and c.coeff_at(2) == 2

    @given(
        xs=st.lists(st.fractions(max_denominator=5), min_size=3, max_size=3),
        ys=st.lists(st.fractions(max_denominator=5), min_size=3, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_commutative(self, xs, ys):
        a, b = QSeries(2, xs), QSeries(2, ys)
        assert a * b == b * a
        assert a + b == b + a


class TestDescSeries:
    def test_exp_single(self):
        e = exp_single(("u",), (3,), "u", F(2))
        assert e.coeff((2,)) == F(2)
        assert e.coeff((3,)) == F(4, 3)

    def test_ring(self):
        one = DescSeries.const(("u",), (2,), 1)
        x = DescSeries(("u",), (2,), coeffs={(1,): F(1)})
        assert (one + x) * (one - x) == one - x * x

    def test_truncation_consistency(self):
        x = DescSeries(("u",), (2,), coeffs={(1,): F(1), (2,): F(5)})
        y = x * x
        assert y.coeff((2,)) == 1 and (2,) in y.coeffs
        assert all(sum(e) <= 2 for e in y.coeffs)
