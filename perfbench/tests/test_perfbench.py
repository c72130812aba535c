"""Tests of the benchmark itself: determinism, a negative control, isolation,
the output contract and the failure in a directory without sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from vertexforge import residue  # noqa: E402

# the cheapest cases of each workload, so a test run takes seconds
CHEAP = {
    "certify-residue": lambda c: c["kind"] == "egl" and c["n"] <= 2
    or c["kind"] == "mainpt" and c["qorder"] <= 1 and len(c["shape"]) + c["shape"][0] <= 3,
    "localize-vertex": lambda c: c["kind"] == "dtpt" and c["qorder"] == 3
    or c["kind"] == "glue" and c["n"] == 1 or c["kind"] == "measure_ratio" and len(c["shape"]) == 1
    and c["shape"][0] <= 2,
}
COUNTS = ("partitions.fixed_points", "residue.kvectors", "residue.integrand_monomials",
          "residue.buckets", "harness.cache_hits", "harness.cache_misses",
          "harness.bytes_written")


@pytest.fixture
def cheap(monkeypatch):
    for cls in workloads.WORKLOADS.values():
        if cls.name in CHEAP:
            full = cls.cases
            monkeypatch.setattr(cls, "cases", lambda self, seed, rnd, full=full: [
                c for c in full(self, seed, rnd) if CHEAP[self.name](c)])


def _run(work, name, seed, trace, ops):
    return run.run_workload(name, seed, 0, trace, str(work), ops=ops)


def _cases(report):
    return [r["case"] for r in report["ops"] if r["pass"] == "plain"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_cases_and_counts(cheap, tmp_path, name):
    a_res, a_rep = _run(tmp_path / "a", name, 5, True, 12)
    b_res, b_rep = _run(tmp_path / "b", name, 5, True, 12)
    assert a_res["correct"] and b_res["correct"]
    assert _cases(a_rep) == _cases(b_rep)
    for key in COUNTS:
        assert a_res["metrics"][key] == b_res["metrics"][key], key
    assert any(a_res["metrics"][key]["value"] for key in COUNTS)
    _, c_rep = _run(tmp_path / "c", name, 6, False, 12)
    assert _cases(c_rep) != _cases(a_rep)


def test_cache_hit_ratio_matches_the_pool(tmp_path):
    round_size = len(workloads.compute_pool(1, 2)[0]) * 4
    res, rep = _run(tmp_path, "compute-cache", 3, True, round_size + 7)
    assert res["correct"]  # includes: raw traced hits == hits the stream predicts
    assert rep["expected_cache_hits"] == sum(c["expect_hit"] for c in _cases(rep))
    assert res["metrics"]["harness.cache_hit_ratio"]["value"] == 0.75
    assert res["metrics"]["harness.cache_hits"]["value"] == pytest.approx(round_size * 3 / 4)


def test_perturbed_coefficient_fails(cheap, monkeypatch, tmp_path):
    """Negative control: one wrong coefficient makes the run incorrect."""
    original = residue.pt_residue_vertex

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        for series in out:
            if series.coeffs:
                e = next(iter(series.coeffs))
                series.coeffs[e] += Fraction(1, 10**9)
                break
        return out

    monkeypatch.setattr(residue, "pt_residue_vertex", perturbed)
    res, rep = _run(tmp_path, "certify-residue", 5, False, 8)
    assert rep["failed_frac"] > 0 and res["failed"] > 0 and not res["correct"]
    assert all(r["error"].startswith("mismatch") for r in rep["ops"] if not r["ok"])


def test_vacuous_identity_fails(monkeypatch, tmp_path):
    """Negative control: a cross-request identity that compared only zeros
    fails its operation, although the hits stay byte-identical."""
    monkeypatch.setattr(workloads, "compare", lambda xs, ys: 0)
    round_size = len(workloads.compute_pool(1, 2)[0]) * 4
    res, rep = _run(tmp_path, "compute-cache", 3, False, round_size)
    failed = [r for r in rep["ops"] if not r["ok"]]
    assert not res["correct"] and res["failed"] == len(failed) > 0
    assert all("every compared coefficient is zero" in r["error"] for r in failed)
    assert all(r["ok"] for r in rep["ops"] if r["case"]["expect_hit"])


def test_compare_is_strict():
    with pytest.raises(workloads.Mismatch):
        workloads.compare([Fraction(1)], [Fraction(1), Fraction(0)])
    with pytest.raises(workloads.Mismatch):
        workloads.compare([{(1,): Fraction(2)}], [{(1,): Fraction(2), (2,): Fraction(1)}])
    with pytest.raises(workloads.Mismatch):
        workloads.compare([0.5], [0.5])
    assert workloads.compare([Fraction(0)], [Fraction(0)]) == 0


def test_metrics_match_benchmark_json(cheap, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"perfbench"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    res, _ = _run(tmp_path / "traced", "localize-vertex", 1, True, 2)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    untraced = _run(tmp_path / "plain", "localize-vertex", 1, False, 2)[0]
    units = {k: v["unit"] for k, v in untraced["metrics"].items()}
    units["setup_s"] = "s"  # measured by main(), in fresh interpreters
    assert units == {m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_times_are_rescaled_by_the_readings_around_them(cheap, tmp_path):
    res, rep = _run(tmp_path, "localize-vertex", 1, False, 4)
    probes = rep["host_probe_s"]["times"]
    assert len(probes) == len(rep["host_probe_s"]["at"]) >= 2
    for r in rep["ops"]:
        before, after = probes[r["probe"]: r["probe"] + 2]
        scale = run.REF_PROBE_S / ((before + after) / 2)
        assert r["wall_ref"] == pytest.approx(r["wall"] * scale)
        assert r["seconds_ref"] == pytest.approx(r["seconds"] * scale)
    assert set(rep["raw_metrics"]) == {"ops_per_s", "latency_p50_s", "latency_tail_s"}
    assert res["metrics"]["ops_per_s"]["value"] != rep["raw_metrics"]["ops_per_s"]


def test_traced_run_reports_every_span(cheap, tmp_path):
    res, rep = _run(tmp_path, "localize-vertex", 2, True, 3)
    traced_ops = {r["op"] for r in rep["ops"] if r["pass"] == "traced"}
    spans = rep["spans"]
    assert res["correct"] and {s["op"] for s in spans} == traced_ops
    assert all(set(s) == {"name", "start", "end", "parent", "op"} for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)
    assert {s["name"] for s in spans if s["parent"] == -1} == {"op"}
    assert all(spans[s["parent"]]["op"] == s["op"] for s in spans if s["parent"] >= 0)


def test_command_line_run_is_isolated(tmp_path):
    """The run ignores VERTEXFORGE_CACHE/VERTEXFORGE_CONVENTION, writes no
    cache outside its temporary directory and leaves nothing behind in the
    checkout."""
    env = dict(os.environ, VERTEXFORGE_CACHE=str(tmp_path / "cache"),
               VERTEXFORGE_CONVENTION=str(tmp_path / "convention.json"))
    (tmp_path / "convention.json").write_text(json.dumps({"winner": {"pt_column_sign": 1}}))
    before = set(os.listdir(ROOT))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute-cache", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    round_size = len(workloads.compute_pool(1, 2)[0]) * 4  # --seconds 0: one whole round
    assert result["correct"] and result["attempted"] == round_size and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(out.stdout.splitlines()[-2])["report"]
    assert report["provenance"]["convention"]["pt_column_sign"] == -1
    assert all("sample" in r for r in report["ops"])
    assert not (tmp_path / "cache").exists()
    assert set(os.listdir(ROOT)) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-residue", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert not out.stdout.strip()
