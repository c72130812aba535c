from fractions import Fraction as F
from math import factorial
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexforge.characters import Convention, DescendentSpec, descendent_char
from vertexforge.localcurve import GlueRequest, glue
from vertexforge.partitions import Partition, enum_legged_pp, enum_rpp
from vertexforge.residue import egl_localization, pt_residue_vertex
from vertexforge.sampling import sample_random
from vertexforge.series import DescSeries, QSeries, exp_single
from vertexforge.vertex import bare_dt, bare_pt


class TestQSeries:
    def test_mul_truncates(self):
        a = QSeries([1, 1, 1, 1])
        b = QSeries([1, -1, 0, 0])
        assert (a * b).coeffs == [F(1), F(0), F(0), F(0)]
        # a product keeps the shorter operand's length, a sum the lower top q-power
        assert (a * QSeries([1, -1])).coeffs == [1, 0]
        assert (a + QSeries([1], shift=2)).coeffs == [1, 1, 2]
        assert (QSeries([1], shift=5) + a) == QSeries([1, 1, 1, 1])

    def test_shift_arithmetic(self):
        a = QSeries([1, 2, 3], shift=1)
        b = QSeries([1, 0, 0], shift=0)
        c = a * b
        assert c.shift == 1 and c.coeff_at(2) == 2
        assert c.coeff_at(0) == 0 and c.coeff_at(4) == 0
        assert a + b == QSeries([1, 1, 2]) == b + a
        # negative shifts: q^-1 (1 + q) times q^-1 (2 + 3q) is q^-2 (2 + 5q)
        d = QSeries([1, 1], shift=-1) * QSeries([2, 3], shift=-1)
        assert (d.shift, d.coeffs) == (-2, [2, 5]) and d.coeff_at(-1) == 5
        assert (QSeries([1, 1], shift=-1) + QSeries([4, 4, 4])).coeffs == [1, 5]
        assert (a * F(1, 2)).coeffs == [F(1, 2), 1, F(3, 2)] and (2 * a).shift == 1

    @given(
        xs=st.lists(st.fractions(max_denominator=5), min_size=1, max_size=4),
        ys=st.lists(st.fractions(max_denominator=5), min_size=1, max_size=4),
        sx=st.integers(-2, 2),
        sy=st.integers(-2, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_commutative(self, xs, ys, sx, sy):
        a, b = QSeries(xs, sx), QSeries(ys, sy)
        assert a * b == b * a
        assert a + b == b + a

    def test_equality_compares_shift_length_and_orders(self):
        assert QSeries([1, 2], shift=1) != QSeries([1, 2])
        assert QSeries([1, 2]) != QSeries([1, 2, 0])
        u1 = DescSeries(("u",), (1,), {(0,): 1})
        u2 = DescSeries(("u",), (2,), {(0,): 1})
        assert QSeries([u1]) != QSeries([u2]) and QSeries([u1]) == QSeries([u1 * 1])

    def test_scalars_and_json(self):
        x = DescSeries(("u", "v"), (1, 1), {(0, 0): F(2, 3), (1, 0): F(5)})
        y = DescSeries(("u", "v"), (1, 1), {(0, 1): F(1)})
        series = QSeries([x, y], shift=-1)
        assert series.scalars() == [F(2, 3), 0]
        assert series.to_json() == [x.to_json(), y.to_json()]
        assert series.coeff_at(-2) == DescSeries(("u", "v"), (1, 1))


def _absolute(series):
    """{(q-degree, exponent): coefficient} of a series of DescSeries."""
    return {(series.shift + d, e): c for d, x in enumerate(series) for e, c in x.coeffs.items()}


def _qseries_reference(op, a, b, orders):
    """(shift, length, absolute terms) of a op b, from the operands'
    absolute-degree terms: a sum over the degrees below both tops, a product
    over the degrees below its shift plus the shorter length."""
    if op == "+":
        lo = min(a.shift, b.shift)
        top = min(a.shift + len(a), b.shift + len(b))
        terms = {}
        for (d, e), c in list(_absolute(a).items()) + list(_absolute(b).items()):
            if d < top:
                terms[d, e] = terms.get((d, e), 0) + c
    else:
        lo = a.shift + b.shift
        top = lo + min(len(a), len(b))
        terms = {}
        for (d1, e1), c1 in _absolute(a).items():
            for (d2, e2), c2 in _absolute(b).items():
                e = tuple(map(add, e1, e2))
                if d1 + d2 < top and all(x <= o for x, o in zip(e, orders)):
                    terms[d1 + d2, e] = terms.get((d1 + d2, e), 0) + c1 * c2
    return lo, top - lo, {k: c for k, c in terms.items() if c}


@st.composite
def _qseries_pair(draw):
    """Two q-series with shifts in -2..2, their coefficients DescSeries in
    the same 1-2 variables and orders."""
    vs = ("u", "v")[:draw(st.integers(1, 2))]
    orders = tuple(draw(st.integers(0, 2)) for _ in vs)
    exponents = st.tuples(*(st.integers(0, o) for o in orders))

    def series():
        coeffs = draw(st.lists(st.dictionaries(exponents, _COEFFS, max_size=3), max_size=4))
        return QSeries([DescSeries(vs, orders, c) for c in coeffs], draw(st.integers(-2, 2)))

    return series(), series(), orders


class TestQSeriesOfDescSeries:
    @given(pair=_qseries_pair(), op=st.sampled_from(["+", "*"]))
    @settings(max_examples=200, deadline=None)
    def test_operations_match_the_absolute_degree_reference(self, pair, op):
        a, b, orders = pair
        before = [(x.shift, [dict(c.coeffs) for c in x]) for x in (a, b)]
        out = _OPS[op](a, b)
        assert (out.shift, len(out), _absolute(out)) == _qseries_reference(op, a, b, orders)
        assert all(isinstance(c, DescSeries) and c.orders == orders for c in out)
        assert [(x.shift, [dict(c.coeffs) for c in x]) for x in (a, b)] == before

    @given(pair=_qseries_pair(), k=st.sampled_from([0, 1, -2, F(1, 2), F(-3, 4)]))
    @settings(max_examples=50, deadline=None)
    def test_scalar_product(self, pair, k):
        a = pair[0]
        before = [dict(c.coeffs) for c in a]
        for out in (a * k, k * a):
            assert out.shift == a.shift and len(out) == len(a)
            assert _absolute(out) == {t: c * k for t, c in _absolute(a).items() if k}
        assert [dict(c.coeffs) for c in a] == before


class TestDescSeries:
    def test_exp_single(self):
        e = exp_single(("u",), (3,), "u", F(2))
        assert e.coeff((2,)) == F(2)
        assert e.coeff((3,)) == F(4, 3)

    @pytest.mark.parametrize("rate", [0, 1, -1, 7, F(-2, 3), F(5, 2), F(-123457, 1000003),
                                      F(10**12 + 39, 999983)], ids=str)
    def test_exp_single_matches_the_power_formula(self, rate):
        # the oracle is the closed form rate^m / m!, each power taken afresh
        vs = ("u", "v", "w")
        for idx, var in enumerate(vs):
            for order in range(7):
                orders = tuple(order if i == idx else 2 for i in range(3))
                e = exp_single(vs, orders, var, rate)
                oracle = {tuple(m if i == idx else 0 for i in range(3)): F(rate) ** m / factorial(m)
                          for m in range(order + 1)}
                assert e.coeffs == {x: c for x, c in oracle.items() if c}, (var, order)
                assert e.variables == vs and e.orders == orders
                assert all(type(c) is F for c in e.coeffs.values()), (var, order)

    def test_ring(self):
        one = DescSeries.const(("u",), (2,), 1)
        x = DescSeries(("u",), (2,), coeffs={(1,): F(1)})
        assert (one + x) * (one - x) == one - x * x

    def test_equality_compares_orders(self):
        # the same terms truncated at different orders are different series
        assert DescSeries(("u",), (1,), {(0,): 1}) != DescSeries(("u",), (2,), {(0,): 1})
        assert DescSeries(("u",), (2,), {(0,): 1}) == DescSeries(("u",), (2,), {(0,): F(1)})

    def test_truncation_consistency(self):
        x = DescSeries(("u",), (2,), coeffs={(1,): F(1), (2,): F(5)})
        y = x * x
        assert y.coeff((2,)) == 1 and (2,) in y.coeffs
        assert all(sum(e) <= 2 for e in y.coeffs)


def _series_under_test():
    """(name, DescSeries) for every library function that returns them:
    the descendent exponentials and characters, both localization vertices,
    the glued curve, the residue vertex and the EGL localization sum."""
    s = sample_random(3, 16)
    vs, orders = ("u", "v"), (3, 2)
    for rate in (F(-2, 3), F(0)):
        yield f"exp_single {rate}", exp_single(vs, orders, "v", rate)
    fixed_points = [("pt", c) for c in enum_rpp(Partition([2, 1]), 3)]
    fixed_points += [("dt", c) for c in enum_legged_pp(Partition([1]), 3)]
    for conv in (Convention(-1), Convention(1)):
        for mode in ("ch", "ch_prime", "ch_hat"):
            for var, order in zip(vs, orders):
                spec = DescendentSpec(mode, 0, var, order)
                for kind, c in fixed_points:
                    yield (f"descendent_char {kind} {mode} {var} {conv.pt_column_sign}",
                           descendent_char(c, spec, s, conv, vs, orders))
    for desc in ((DescendentSpec("ch", 0, "u", 2), DescendentSpec("ch", 0, "v", 1)),
                 (DescendentSpec("ch_hat", 0, "u", 2), DescendentSpec("ch_prime", "inf", "v", 2))):
        modes = "/".join(sp.mode for sp in desc)
        for q, x in enumerate(bare_pt(("chern", Partition([2, 1])), 2, desc, s).coeffs):
            yield f"bare_pt {modes} q^{q}", x
        for q, x in enumerate(bare_dt(Partition([1]), 2, desc, s).coeffs):
            yield f"bare_dt {modes} q^{q}", x
    for theory in ("PT", "DT"):
        req = GlueRequest(theory, (-1, -1), 1, (DescendentSpec("ch", 0, "u", 2),),
                          (DescendentSpec("ch_hat", "inf", "v", 1),), 2, s)
        for q, x in enumerate(glue(req)):
            yield f"glue {theory} q^{q}", x
    desc_uv = (DescendentSpec("ch", 0, "u", 2), DescendentSpec("ch", 0, "v", 2))
    for basis in ("chern", "interp"):
        for q, x in enumerate(pt_residue_vertex(Partition([1, 1]), 1, desc_uv, sample_random(5, 24),
                                                None, basis)):
            yield f"pt_residue_vertex {basis} q^{q}", x
    for total in (None, 2):
        yield f"egl_localization {total}", egl_localization(2, [3, 2], s, None, total)


def _reference(op, x, y):
    """x op y for series x and y through the validating constructor: every
    pair of exponents (for "*") or every exponent of either (for "+", "-"),
    truncated at each variable's lower order of the two."""
    terms = {}
    if op == "*":
        for e1, c1 in x.coeffs.items():
            for e2, c2 in y.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
    else:
        sign = 1 if op == "+" else -1
        for e in set(x.coeffs) | set(y.coeffs):
            terms[e] = x.coeff(e) + sign * y.coeff(e)
    return DescSeries(x.variables, tuple(map(min, x.orders, y.orders)), terms)


_OPS = {"+": add, "-": sub, "*": mul}
_COEFFS = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-3, 4)])


@st.composite
def _series_pair(draw):
    """Two series in the same 1-3 variables, each with its own orders."""
    vs = ("u", "v", "w")[:draw(st.integers(1, 3))]

    def series():
        orders = tuple(draw(st.integers(0, 3)) for _ in vs)
        exponents = st.tuples(*(st.integers(0, o) for o in orders))
        return DescSeries(vs, orders, draw(st.dictionaries(exponents, _COEFFS, max_size=6)))

    return series(), series()


class TestDescSeriesInvariant:
    """`DescSeries.__add__`, `__sub__`, `__neg__` and `__mul__` build their
    dicts from their operands' terms without the constructor's checks, so
    every series the library returns must hold only nonzero Fractions at
    exponents inside its orders, and no operation may share a dict."""

    def test_library_series_hold_nonzero_fractions_inside_their_orders(self):
        seen = 0
        for name, x in _series_under_test():
            assert isinstance(x, DescSeries), name
            for e, c in x.coeffs.items():
                assert type(c) is F and c != 0, (name, e, c)
                assert len(e) == len(x.orders), (name, e)
                assert all(0 <= k <= o for k, o in zip(e, x.orders)), (name, e, x.orders)
            seen += bool(x.coeffs)
        assert seen > 100  # the sample reached series with terms

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_operations_leave_their_operands_alone(self, op):
        a = DescSeries(("u", "v"), (2, 2), {(0, 0): F(1), (1, 0): F(2), (0, 2): F(-1)})
        b = DescSeries(("u", "v"), (2, 2), {(1, 0): F(-2), (1, 1): F(3, 2)})
        before_a, before_b = dict(a.coeffs), dict(b.coeffs)
        out = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b}[op]()
        assert a.coeffs == before_a and b.coeffs == before_b
        assert out.coeffs is not a.coeffs and out.coeffs is not b.coeffs

    @pytest.mark.parametrize("other", [0, F(3), "series"], ids=["int", "fraction", "series"])
    def test_sum_owns_its_dict(self, other):
        a = DescSeries(("u",), (2,), {(0,): F(1), (1,): F(2)})
        before = dict(a.coeffs)
        b = DescSeries(("u",), (2,), {(2,): F(5)}) if other == "series" else other
        out = a + b
        out.coeffs[(2,)] = F(7)
        out.coeffs.pop((1,))
        assert a.coeffs == before

    def test_sum_drops_terms_outside_the_left_orders(self):
        a = DescSeries(("u", "v"), (2, 1), {(0, 0): F(1), (2, 1): F(4)})
        b = DescSeries(("u", "v"), (3, 3), {(0, 0): F(-1), (1, 1): F(2), (3, 0): F(5),
                                            (0, 2): F(6), (2, 1): F(1)})
        out = a + b
        assert out.orders == (2, 1)
        assert out.coeffs == {(1, 1): F(2), (2, 1): F(5)}

    X = DescSeries(("u", "v"), (2, 2), {(0, 0): F(1), (1, 0): F(2), (0, 2): F(-1, 3)})

    @staticmethod
    def _check(out, expected, *operands):
        """out equals the constructor's `expected`, holds only nonzero
        Fractions inside its orders, owns its dict and left `operands` alone."""
        before = [dict(x.coeffs) for x in operands]
        assert (out.variables, out.orders, out.coeffs) == \
            (expected.variables, expected.orders, expected.coeffs)
        for e, c in out.coeffs.items():
            assert type(c) is F and c != 0, (e, c)
            assert all(0 <= k <= o for k, o in zip(e, out.orders)), e
        out.coeffs[(1, 1)] = F(9)
        out.coeffs.pop((0, 0), None)
        assert [x.coeffs for x in operands] == before

    def test_negation(self):
        x = self.X
        self._check(-x, DescSeries(x.variables, x.orders, {e: -c for e, c in x.coeffs.items()}), x)

    @pytest.mark.parametrize("case", ["equal", "wider", "cancel", "int", "fraction"])
    def test_difference(self, case):
        x = self.X
        y = {
            "equal": DescSeries(x.variables, (2, 2), {(1, 0): F(5), (2, 2): F(-1)}),
            "wider": DescSeries(x.variables, (3, 3), {(1, 0): F(1, 2), (3, 0): F(4), (0, 3): F(2),
                                                      (2, 2): F(7)}),
            "cancel": DescSeries(x.variables, (2, 2), {(1, 0): F(2), (0, 2): F(-1, 3), (1, 1): F(1)}),
            "int": 1,
            "fraction": F(-2, 7),
        }[case]
        ys = y.coeffs if isinstance(y, DescSeries) else {(0, 0): F(y)}
        expected = DescSeries(x.variables, x.orders,
                              {e: x.coeff(e) - ys.get(e, 0) for e in set(x.coeffs) | set(ys)})
        out = x - y
        if case == "cancel":
            assert out.coeffs == {(0, 0): F(1), (1, 1): F(-1)}
        self._check(out, expected, *(v for v in (x, y) if isinstance(v, DescSeries)))

    @pytest.mark.parametrize("k", [0, 1, -1, 7, F(-3, 5)], ids=str)
    def test_scalar_product(self, k):
        x = self.X
        expected = DescSeries(x.variables, x.orders, {e: c * k for e, c in x.coeffs.items()})
        self._check(x * k, expected, x)
        self._check(k * x, expected, x)

    @pytest.mark.parametrize("case", ["equal", "cancel", "three", "empty"])
    def test_product(self, case):
        x = self.X
        if case == "equal":
            y = DescSeries(x.variables, (2, 2), {(0, 0): F(-2), (1, 0): F(5), (1, 2): F(1, 3)})
        elif case == "cancel":
            # (u + v)(u - v) truncated at (1, 1): u^2 and v^2 fall outside, uv cancels
            x = DescSeries(x.variables, (1, 1), {(1, 0): F(1), (0, 1): F(1)})
            y = DescSeries(x.variables, (1, 1), {(1, 0): F(1), (0, 1): F(-1)})
        elif case == "three":
            vs = ("u", "v", "w")
            x = DescSeries(vs, (2, 1, 2), {(0, 0, 0): F(1), (1, 0, 1): F(2), (0, 1, 0): F(-1, 2),
                                           (2, 0, 0): F(3)})
            y = DescSeries(vs, (2, 1, 2), {(0, 0, 0): F(-1), (1, 1, 0): F(4), (0, 0, 2): F(1, 5),
                                           (1, 0, 1): F(7)})
        else:
            y = DescSeries(x.variables, (2, 2))
        expected = _reference("*", x, y)
        out = x * y
        if case in ("cancel", "empty"):
            assert out.coeffs == {}
        elif case == "three":
            assert len(out.coeffs) < len(x.coeffs) * len(y.coeffs)  # some products fell outside
        self._check(out, expected, x, y)

    A = DescSeries(("u",), (1,), {(0,): F(1), (1,): F(1)})
    B = DescSeries(("u",), (2,), {(0,): F(1), (1,): F(1), (2,): F(1, 2)})

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_operations_truncate_at_the_lower_orders(self, op):
        # with the wider operand on the left, its terms past the other's order
        # are not known coefficients of the result: B * A is e^{2u} only
        # through u^1
        a, b = self.A, self.B
        out = _OPS[op](b, a)
        expected = {"+": {(0,): F(2), (1,): F(2)}, "-": {}, "*": {(0,): F(1), (1,): F(2)}}[op]
        assert (out.orders, out.coeffs) == ((1,), expected)

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @pytest.mark.parametrize("vs", [("v", "w"), ("v",)], ids=["v,w", "v"])
    def test_operands_in_different_variables_raise(self, op, vs):
        x = DescSeries(("u",), (2,), {(0,): F(1), (1,): F(1)})
        y = DescSeries(vs, (2,) * len(vs), {(1,) * len(vs): F(1)})
        with pytest.raises(ValueError):
            _OPS[op](x, y)

    @pytest.mark.parametrize("k", [0, 1, F(-2, 7)], ids=str)
    def test_scalar_minus_series(self, k):
        x = self.X
        self._check(k - x, _reference("-", DescSeries.const(x.variables, x.orders, k), x), x)

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_float_operands_raise(self, op):
        with pytest.raises(TypeError):
            _OPS[op](self.X, 0.5)
        with pytest.raises(TypeError):
            _OPS[op](0.5, self.X)

    @given(pair=_series_pair(),
           op=st.sampled_from(["x+y", "x-y", "x*y", "x+k", "k+x", "x-k", "k-x", "x*k", "k*x"]),
           k=st.sampled_from([0, 1, -2, F(1, 2), F(-3, 4)]))
    @settings(max_examples=200, deadline=None)
    def test_operations_match_the_reference(self, pair, op, k):
        x, y = pair
        left, sym, right = op
        value = {"x": x, "y": y, "k": k}
        series = {"x": x, "y": y, "k": DescSeries.const(x.variables, x.orders, k)}
        expected = _reference(sym, series[left], series[right])
        before = [dict(x.coeffs), dict(y.coeffs)]
        out = _OPS[sym](value[left], value[right])
        assert (out.variables, out.orders, out.coeffs) == \
            (expected.variables, expected.orders, expected.coeffs)
        assert all(type(c) is F for c in out.coeffs.values())
        assert [x.coeffs, y.coeffs] == before
