"""What the benchmark reads from the library is still there.

`perfbench/spans.py` rebinds each `(module, attribute, class)` entry of its
`TRACED` table when a run is traced; a library change that deletes or
renames one of them would otherwise show only in a traced benchmark run.
`perfbench/workloads.py` checks each operation's result through the shapes
asserted below: a series' shift, its length, iteration and indexing, the
scalar series' `Fraction` list and `compute`'s JSON."""

import importlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from vertexforge.characters import DEFAULT_CONVENTION, DescendentSpec
from vertexforge.harness import compute
from vertexforge.localcurve import GlueRequest, dt0_localcurve, glue
from vertexforge.partitions import Partition
from vertexforge.residue import pt_residue_vertex
from vertexforge.sampling import sample_random
from vertexforge.series import DescSeries
from vertexforge.vertex import bare_dt, bare_pt

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
S = sample_random(4, 20)


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("entry", _traced(), ids=lambda e: ".".join(filter(None, (e[1], e[3], e[2]))))
def test_traced_entry_resolves(entry):
    _, module, attr, cls, _ = entry
    home = importlib.import_module(f"vertexforge.{module}")
    owner = vars(getattr(home, cls)) if cls else vars(home)
    assert callable(owner.get(attr)), f"vertexforge.{module}: {cls or ''} {attr} is gone"


def test_vertex_shift_coeffs_and_scalar_series():
    for res in (bare_dt(Partition([1]), 3, (), S), bare_pt(("fixedpoint", Partition([2])), 3, (), S)):
        assert res.shift == 0
        assert len(res.coeffs) == 4 and all(isinstance(c, DescSeries) for c in res.coeffs)
        scalars = res.scalar_series().coeffs
        assert isinstance(scalars, list) and len(scalars) == 4
        assert all(type(c) is Fraction for c in scalars)


def test_glue_and_dt0_localcurve():
    q = 3
    series = glue(GlueRequest("PT", (-1, -1), 1, (), (), q, S))
    assert len(series) == q + 1
    assert all(isinstance(c, DescSeries) for c in series)
    assert [c.coeff(()) for c in series] == series.scalars()
    z0 = dt0_localcurve((-1, -1), S, q)
    assert len(z0) == q + 1 and all(type(z0[i]) is Fraction for i in range(q + 1))


def test_iterating_the_residue_vertex_yields_its_stored_series():
    # the benchmark's negative control perturbs a coefficient in place
    res = pt_residue_vertex(Partition([1]), 2, (DescendentSpec("ch", 0, "u", 2),), S,
                            basis="interp")
    assert len(res) == 3
    before = res.to_json()
    series = next(c for c in res if c.coeffs)
    e = next(iter(series.coeffs))
    series.coeffs[e] += Fraction(1, 10**9)
    assert res.to_json() != before


@pytest.mark.parametrize("request_", [
    {"type": "vertex", "theory": "DT", "boundary": {"kind": "leg", "shape": [1]}, "qorder": 3},
    {"type": "vertex", "theory": "PT", "boundary": {"kind": "fixedpoint", "shape": [2]},
     "qorder": 2, "descendents": [{"variable": "u", "order": 2}]},
    {"type": "glue", "theory": "DT", "degrees": [-1, -1], "n": 1, "qorder": 3},
], ids=["vertex DT", "vertex PT u", "glue DT"])
def test_compute_result_coeffs(request_, tmp_path):
    blob, hit = compute(request_, DEFAULT_CONVENTION, str(tmp_path))
    result = json.loads(blob)["result"]
    assert not hit and result["shift"] == 0
    assert len(result["coeffs"]) == request_["qorder"] + 1
    assert all(set(c) == {"variables", "orders", "coeffs"} for c in result["coeffs"])
