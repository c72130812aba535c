"""`tools/bench_pairs.py`'s informational RSS-per-op fit and its share of each
bound used, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(attempted, rss):
    return {"attempted": attempted, "metrics": {"peak_rss_mb": {"value": rss}}}


def test_rss_per_op_pools_both_sides():
    # 20 MB of library plus 1.5 KB per op; the change is 0.25 MB heavier at
    # any op count and attempts about 1000 more ops
    runs = []
    for i in range(10):
        b, c = 8000 + 37 * i, 9000 + 41 * (9 - i)
        runs.append({"base": _run(b, 20 + 1.5 * b / 1024),
                     "change": _run(c, 20.25 + 1.5 * c / 1024)})
    fit = _tool().rss_per_op(runs, 0.1)
    # one least-squares line through all 20 runs, by the normal equations
    xs = [r[side]["attempted"] for r in runs for side in ("base", "change")]
    ys = [r[side]["metrics"]["peak_rss_mb"]["value"] for r in runs for side in ("base", "change")]
    mx, my = sum(xs) / 20, sum(ys) / 20
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    assert fit["kb_per_op"] == pytest.approx(slope * 1024)
    # the pooled fit also absorbs the change's offset, so it reads steeper
    assert fit["kb_per_op"] > 1.5
    at = 8000 + 37 * 4.5
    moved = fit["peak_rss_mb_at_base_ops"]
    assert fit["at_attempted"] == at
    assert moved["base"] == pytest.approx(20 + 1.5 * at / 1024)
    assert moved["change"] == pytest.approx(20.25 + 1.5 * (9000 + 41 * 4.5) / 1024
                                            - slope * (9000 + 41 * 4.5 - at))


def test_rss_per_op_exact_on_a_line():
    runs = [{"base": _run(n, 10 + n / 1024), "change": _run(n + 500, 10 + (n + 500) / 1024)}
            for n in (100, 300, 200)]
    fit = _tool().rss_per_op(runs, 0.1)
    assert fit["kb_per_op"] == pytest.approx(1.0)
    assert fit["peak_rss_mb_at_base_ops"] == {"base": pytest.approx(10 + 200 / 1024),
                                              "change": pytest.approx(10 + 200 / 1024)}


def test_rss_per_op_without_spread_in_ops():
    runs = [{"base": _run(100, 10.0), "change": _run(100, 11.0)}] * 3
    fit = _tool().rss_per_op(runs, 0.1)
    assert fit["kb_per_op"] is None
    assert fit["peak_rss_mb_at_base_ops"] == {"base": None, "change": None}


def test_rss_per_op_ops_at_bound():
    # 40 MB at a median of 10000 ops, 2 KB per op: a 10% bound (4 MB) is
    # reached 2048 ops later
    runs = [{"base": _run(n, 40 + 2 * (n - 10000) / 1024),
             "change": _run(n + 1000, 40 + 2 * (n - 9000) / 1024)} for n in (9900, 10000, 10100)]
    fit = _tool().rss_per_op(runs, 0.1)
    assert fit["kb_per_op"] == pytest.approx(2.0)
    assert fit["ops_at_bound"] == pytest.approx(10000 + 2048)
    assert _tool().rss_per_op(runs, 0.2)["ops_at_bound"] == pytest.approx(10000 + 4096)
    # memory that falls with the op count sets no ceiling
    falling = [{"base": _run(n, 40 - n / 1024), "change": _run(n + 1, 40 - (n + 1) / 1024)}
               for n in (100, 200, 300)]
    assert _tool().rss_per_op(falling, 0.1)["ops_at_bound"] is None
    flat = [{"base": _run(100, 10.0), "change": _run(100, 11.0)}] * 3
    assert _tool().rss_per_op(flat, 0.1)["ops_at_bound"] is None


def _pairs(name, base, change):
    return [{"base": {"metrics": {name: {"value": b}}}, "change": {"metrics": {name: {"value": c}}}}
            for b, c in zip(base, change)]


@pytest.mark.parametrize("better, base, change, used", [
    # 7.6% more memory against a 10% bound: 0.76 of it
    ("lower", [40.0] * 3, [43.04] * 3, 0.76),
    # 10% fewer ops against a 25% bound: 0.4 of it
    ("higher", [200.0] * 3, [180.0] * 3, 0.4),
    # an improvement uses none, in either direction
    ("higher", [200.0] * 3, [224.0] * 3, 0.0),
    ("lower", [40.0] * 3, [39.0] * 3, 0.0),
    # at the bound exactly: all of it, and not beyond it
    ("lower", [40.0] * 3, [44.0] * 3, 1.0),
])
def test_bound_used(better, base, change, used):
    bound = 0.1 if better == "lower" else 0.25
    row = _tool().summarize(_pairs("m", base, change), [{"name": "m", "better": better, "bound": bound}])["m"]
    assert row["bound_used"] == pytest.approx(used)
    assert row["worse_beyond_bound"] is False


def test_bound_used_reads_the_medians():
    # one wild pair moves no median: the change's median is 43 against 40
    row = _tool().summarize(_pairs("m", [40.0, 40.0, 40.0, 10.0], [43.0, 43.0, 43.0, 90.0]),
                            [{"name": "m", "better": "lower", "bound": 0.1}])["m"]
    assert row["bound_used"] == pytest.approx(0.75)
    beyond = _tool().summarize(_pairs("m", [40.0] * 3, [46.0] * 3),
                               [{"name": "m", "better": "lower", "bound": 0.1}])["m"]
    assert beyond["bound_used"] == pytest.approx(1.5) and beyond["worse_beyond_bound"] is True


def test_bound_used_without_a_base():
    row = _tool().summarize(_pairs("m", [0.0] * 3, [1.0] * 3), [{"name": "m", "better": "lower", "bound": 0.1}])["m"]
    assert row["bound_used"] is None
