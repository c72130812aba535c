"""Acceptance suite: every criterion at its stated scale, one line each.

All identities are exact rational equalities; "3 samples" means three
independent generic parameter samples from distinct seeds.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from vertexforge.characters import DEFAULT_CONVENTION, all_conventions
from vertexforge.harness import run_check

from test_vertex import closed_form_scan


def _announce(num, name, report):
    line = f"[criterion {num}] {name}: {report.verdict.upper()} ({report.elapsed:.1f}s)"
    print(line)
    return report


def test_criterion_1_egl():
    """Tautological-integral identity, n in 1..4, two u variables to total
    degree 4, exact at 3 samples."""
    rep = _announce(1, "egl residue formula", run_check("egl", {
        "n_values": [1, 2, 3, 4], "u_orders": [4, 4], "u_total": 4, "samples": 3,
        "seed": 7,
    }))
    assert rep.verdict == "pass", rep.cases


def test_criterion_2_mainpt():
    """Residue vertex vs localization vertex: shapes (1),(2),(1,1),(2,1),
    q-order 3, one descendent to u-order 4, exact at 3 samples."""
    rep = _announce(2, "residue vertex", run_check("mainpt", {
        "shapes": [[1], [2], [1, 1], [2, 1]], "qorder": 3, "uorder": 4,
        "samples": 3, "seed": 11,
    }))
    assert rep.verdict == "pass", rep.cases


def test_criterion_3_measure_ratio():
    """Closed Pochhammer product vs Exp(V^PT - V^DT), |mu| <= 3, column
    depths <= 3, exact at 3 samples."""
    rep = _announce(3, "measure ratio", run_check("measure-ratio", {
        "max_size": 3, "kmax": 3, "samples": 3, "seed": 13,
    }))
    assert rep.verdict == "pass", rep.cases


def test_criterion_4_specialization():
    """Per-k polynomiality on t1+t2 = c t3 for c in {1,2}: fit on k <= 5,
    exact verification on k in 6..8, plus the closed specialization identity
    and the off-line control."""
    rep = _announce(4, "specialization polynomiality", run_check("spec-poly", {
        "c_values": [1, 2], "grid": list(range(9)), "fit_upto": 5, "uorder": 2,
        "seed": 29,
    }))
    assert rep.verdict == "pass", rep.cases


def test_criterion_5_enumeration():
    """Plane-partition counts 1,1,3,6,13,24 via heights and slices against
    the product oracle; slice sums reassemble the leg-free vertex at
    q-order 4."""
    rep = _announce(5, "enumeration oracles", run_check("slices", {
        "qorder": 4, "count_upto": 5, "seed": 17,
    }))
    assert rep.verdict == "pass", rep.cases


def test_criterion_6_simple_factorization():
    """Conifold factorization Z_DT = Z_PT * Z_DT0 exactly (recorded shift),
    and parameter independence of the stable-pairs series across 3 samples."""
    rep = _announce(6, "DT/PT factorization", run_check("simple", {
        "degrees": (-1, -1), "qorder": 3, "samples": 3, "seed": 19,
    }))
    assert rep.verdict == "pass", rep.cases
    case = rep.cases[0]
    assert case["q_shift"] == 0
    assert case["residual"] is None


def test_criterion_7_ptint():
    """Residue assembly of the glued local-curve series equals fixed-point
    gluing for d = (0,0), (-1,-1), q-order 2, one descendent to u-order 2,
    2 samples."""
    rep = _announce(7, "local-curve residue assembly", run_check("ptint", {
        "degrees": [(0, 0), (-1, -1)], "qorder": 2, "uorder": 2, "samples": 2,
        "seed": 23,
    }))
    assert rep.verdict == "pass", rep.cases


def test_criterion_8_dtpt0():
    """Degree-0 exploration: the report is produced, the vanishing and the
    descendent-generating-function identities pass exactly; side-by-side
    bound/orientation verdicts are informative (exit code 3 permitted)."""
    rep = _announce(8, "degree-0 exploration", run_check("dtpt0", {
        "worder": 2, "qorder": 2, "seed": 31,
    }))
    assert rep.verdict == "informative", rep.cases
    assert rep.exit_code == 3
    by_mu = {tuple(c["mu"]): c for c in rep.cases}
    assert by_mu[(1,)]["g_identity"]
    assert by_mu[(1,)]["ratio_rebalancing"]
    assert by_mu[(1, 1)]["vanishing"] and by_mu[(2,)]["vanishing"]
    # at w-order 2 the slice sum and every scan series are 0 (g starts at
    # w^3): no row compares a nonzero coefficient, so none reads as a match
    for r in by_mu[(1,)]["scan"]:
        assert r["dt_side_match"] is None and r["dt_nonzero"] == 0, r
        assert r["pt_side_match"] is None and r["pt_nonzero"] == 0, r


def test_criterion_9_calibration():
    """Exactly one of the 24 convention candidates passes the closed-form
    scan, and it is the shipped convention."""
    t0 = time.time()
    passing = [conv for conv in all_conventions() if all(closed_form_scan(conv).values())]
    print(f"[criterion 9] calibration: "
          f"{'PASS' if passing == [DEFAULT_CONVENTION] else 'FAIL'} ({time.time() - t0:.1f}s)")
    assert passing == [DEFAULT_CONVENTION]
