"""Named identity suites, convention calibration, and the result cache.

`run_check` runs a named check, times it and makes its CheckReport, whose
verdict maps through VERDICT_EXIT to the process exit code contract: 0 all
equalities hold, 1 at least one violation, 2 invalid input, 3
informative-only.  Calibration runs the named checks through it too.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import tempfile
import time
import zlib
from itertools import product
from typing import Callable, Dict, List

from . import __version__, localcurve
from .characters import (
    Convention,
    DEFAULT_CONVENTION,
    DescendentSpec,
    all_conventions,
    euler_hilb,
    euler_hook_oracle,
    measure_difference_char,
    pt_weight,
)
from .laurent import NonPolynomialCharacter
from .partitions import (
    Partition,
    enum_legged_pp,
    enum_partitions,
    enum_rpp,
    macmahon_coeffs,
    pp_from_slices,
    slices_of,
)
from .records import Record
from .sampling import sample_random, seeded_samples
from .series import QSeries
from .residue import (
    dt0_vanishing,
    dtpt0_report,
    egl_localization,
    egl_residue,
    fk_specialization_identity,
    measure_ratio_char,
    pt_residue_vertex,
    specialization_poly_check,
)
from .vertex import bare_dt, bare_pt, dt0_slice


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INFORMATIVE = 3

# the exit code of each verdict, for a report made here or read back from JSON
VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "informative": EXIT_INFORMATIVE}


class CheckReport(Record):
    _fields = ("name", "verdict", "cases", "convention", "elapsed", "notes")
    # params: the filled-in parameters; full_report: the raw report of an
    # exploratory check; both kept out of equality and repr
    __slots__ = _fields + ("params", "full_report")

    def __init__(self, name: str, verdict: str, cases: List[dict], convention: Convention,
                 elapsed: float, notes: List[str], params: dict, full_report: dict | None):
        self.name = name
        self.verdict = verdict  # a key of VERDICT_EXIT
        self.cases = cases
        self.convention = convention
        self.elapsed = elapsed
        self.notes = notes
        self.params = params
        self.full_report = full_report

    @property
    def exit_code(self) -> int:
        return VERDICT_EXIT[self.verdict]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "cases": self.cases,
            "convention": self.convention.to_json(),
            "elapsed_seconds": round(self.elapsed, 3),
            "notes": self.notes,
            "params": self.params,
            "version": __version__,
        }


def _compare_series(xs, ys) -> tuple[bool, int]:
    """Exact coefficientwise comparison of two series of equal shift and
    length: (equal, number of nonzero coefficients met on either side)."""
    if len(xs) != len(ys) or xs.shift != ys.shift:
        return False, 0
    equal, nonzero = True, 0
    for a, b in zip(xs, ys, strict=True):
        equal = equal and a == b
        nonzero += len(a.coeffs.keys() | b.coeffs.keys())
    return equal, nonzero


# ---------------------------------------------------------------------------
# the named checks: each returns (cases, ok), or (cases, ok, notes), or
# (cases, ok, notes, raw report); ok is whether every equality held, None
# for an informative check whose exact parts held


def check_egl(params: dict, conv: Convention):
    """Tautological-integral identity: localization sum equals the
    normalized iterated residue, exactly."""
    ns, uorders, total = params["n_values"], params["u_orders"], params["u_total"]
    seed, nsamples = params["seed"], params["samples"]
    cases = []
    allok = True
    for n in ns:
        L = 2 * n + 6
        for i, s in enumerate(seeded_samples(seed, L, nsamples)):
            a = egl_localization(n, uorders, s, conv, total)
            b = egl_residue(n, uorders, s, conv, total)
            ok = a == b
            allok = allok and ok
            cases.append({"n": n, "sample": i, "sample_values": s.to_json(), "equal": ok})
    return cases, allok


def check_mainpt(params: dict, conv: Convention):
    """Residue vertex equals the localization vertex, coefficientwise, in
    both the Chern-monomial and the fixed-point basis."""
    shapes = [Partition(p) for p in params["shapes"]]
    qorder, uorder = params["qorder"], params["uorder"]
    seed, nsamples = params["seed"], params["samples"]
    cases = []
    allok = True
    for lam in shapes:
        L = lam.size + qorder + uorder + 6
        for i, s in enumerate(seeded_samples(seed, L, nsamples)):
            desc = (DescendentSpec("ch", 0, "u", uorder),)
            loc = bare_pt(("chern", lam), qorder, desc, s, conv)
            res = pt_residue_vertex(lam, qorder, desc, s, conv, "chern")
            ok_c, nz_c = _compare_series(loc.coeffs, res)
            # supplementary fixed-point-basis comparison (kept to n <= 2,
            # where the Chern-monomial pairing can be degenerate)
            ok_f, nz_f = True, 0
            if lam.size <= 2:
                loc2 = bare_pt(("fixedpoint", lam), qorder, desc, s, conv)
                res2 = pt_residue_vertex(lam, qorder, desc, s, conv, "interp")
                ok_f, nz_f = _compare_series(loc2.coeffs, res2)
            # a case that compared only zeros in every basis certifies nothing
            allok = allok and ok_c and ok_f and nz_c + nz_f > 0
            cases.append(
                {"shape": lam.to_json(), "sample": i, "sample_values": s.to_json(),
                 "chern_basis": ok_c,
                 "fixedpoint_basis": ok_f, "chern_nonzero": nz_c,
                 "fixedpoint_nonzero": nz_f, "q_shift": res.shift}
            )
    return cases, allok, ["recorded global q-shift: 0; orientation matches localization"]


def check_measure_ratio(params: dict, conv: Convention):
    """Closed Pochhammer product equals Exp(V^PT - V^DT) on the common
    column parametrization, including the vanishing directions."""
    size, kmax = params["max_size"], params["kmax"]
    samples = seeded_samples(params["seed"], 2 * (size + kmax) + 6, params["samples"])
    cases = []
    allok = True
    for n in range(1, size + 1):
        for mu in enum_partitions(n):
            cells = mu.cells()
            bad = 0
            checked = 0
            for kv in product(range(kmax + 1), repeat=len(cells)):
                kmap = dict(zip(cells, kv))
                lhs = measure_difference_char(mu, kmap, conv)
                rhs = measure_ratio_char(mu, kmap)
                for s in samples:
                    checked += 1
                    if s.exp_extended(lhs) != s.exp_extended(rhs):
                        bad += 1
            ok = bad == 0
            allok = allok and ok
            cases.append({"mu": mu.to_json(), "checked": checked, "mismatches": bad})
    return cases, allok


def check_slices(params: dict, conv: Convention):
    """Enumeration oracles: plane-partition counts against the product
    formula through both representations, and the slice decomposition of the
    leg-free vertex."""
    seed, qorder, nmax = params["seed"], params["qorder"], params["count_upto"]
    cases = []
    oracle = macmahon_coeffs(nmax)
    by_heights = [0] * (nmax + 1)
    by_slices = [0] * (nmax + 1)
    roundtrip_ok = True
    for pp in enum_legged_pp(Partition(), nmax):
        by_heights[pp.renorm_volume] += 1
        seq = slices_of(pp)
        by_slices[seq.total] += 1
        if pp_from_slices(seq) != pp:
            roundtrip_ok = False
    heights_ok = by_heights == oracle
    slices_ok = by_slices == oracle
    cases.append(
        {"counts": by_heights, "oracle": oracle,
         "heights_match": heights_ok, "slices_match": slices_ok,
         "roundtrip": roundtrip_ok}
    )
    allok = heights_ok and slices_ok and roundtrip_ok
    s = sample_random(seed, qorder + 8)
    total = bare_dt(Partition(), qorder, (), s, conv).scalar_series()
    acc = QSeries([0] * (qorder + 1))
    for n in range(0, qorder + 1):
        for mu in enum_partitions(n):
            acc = acc + dt0_slice(mu, (), s, qorder, conv).scalar_series()
    slice_sum_ok = acc == total
    cases.append({"slice_sum_equals_vertex": slice_sum_ok,
                  "series": [str(c) for c in total.coeffs]})
    return cases, allok and slice_sum_ok


def check_simple(params: dict, conv: Convention):
    """Local-curve factorization of ideal-sheaf counts into the stable-pairs
    series and the degree-0 factor, plus parameter independence of the
    stable-pairs series across the samples (null with one sample)."""
    qorder = params["qorder"]
    degrees = tuple(params["degrees"])
    samples = seeded_samples(params["seed"], qorder + 10, params["samples"])
    cases = []
    pt = [localcurve.glue(localcurve.GlueRequest("PT", degrees, 1, (), (), qorder, s, conv))
          for s in samples]
    pt_all = [p.scalars() for p in pt]
    # one sample would compare its series with itself: independence untested
    pt_indep = all(p == pt_all[0] for p in pt_all) if len(pt_all) > 1 else None
    s = samples[0]
    zdt = localcurve.glue(localcurve.GlueRequest("DT", degrees, 1, (), (), qorder, s, conv)).scalars()
    zdt0 = localcurve.dt0_localcurve(degrees, s, qorder, conv)
    zpt = pt_all[0]
    prod = (QSeries(zpt) * QSeries(zdt0)).coeffs
    ok = zdt == prod
    residual = None
    if not ok:
        residual = [str(a - b) for a, b in zip(zdt, prod)]
    cases.append(
        {
            "degrees": list(degrees),
            "factorization": ok,
            "q_shift": pt[0].shift,
            "pt_parameter_independent": pt_indep,
            "Z_PT": [str(x) for x in zpt],
            "Z_DT": [str(x) for x in zdt],
            "Z_DT0": [str(x) for x in zdt0],
            "residual": residual,
        }
    )
    return cases, ok and pt_indep is not False


def check_ptint(params: dict, conv: Convention):
    """Residue assembly of the glued local-curve series equals the
    fixed-point gluing, exactly."""
    seed, qorder, uorder = params["seed"], params["qorder"], params["uorder"]
    cases = []
    allok = True
    for degrees in [tuple(d) for d in params["degrees"]]:
        for i, s in enumerate(seeded_samples(seed, qorder + uorder + 10, params["samples"])):
            desc = (DescendentSpec("ch", 0, "u", uorder),)
            gl = localcurve.glue(localcurve.GlueRequest("PT", degrees, 1, desc, (), qorder, s, conv))
            pr = localcurve.ptint_residue(degrees, 1, desc, (), s, qorder, conv)
            ok, nonzero = _compare_series(gl, pr)
            allok = allok and ok and nonzero > 0
            cases.append({"degrees": list(degrees), "sample": i, "sample_values": s.to_json(),
                          "equal": ok, "nonzero": nonzero})
    return cases, allok


def check_spec_poly(params: dict, conv: Convention):
    """Per-k polynomiality at the specialized parameters with held-out
    verification, the closed two-column specialization identity, and the
    non-polynomial control off the line."""
    seed, cvals, grid = params["seed"], params["c_values"], params["grid"]
    fit_upto, uorder = params["fit_upto"], params["uorder"]
    cases = []
    allok = True
    for c in cvals:
        sline = sample_random(seed, max(grid) + 8, line=c)
        fk_ok = fk_specialization_identity(c, sline)
        notes = [f"two-column specialization closed form: {'exact' if fk_ok else 'FAILED'}"]
        for desc in ((), (DescendentSpec("ch", 0, "u", uorder),)):
            rep = specialization_poly_check(desc, grid, fit_upto, sline, conv)
            if rep.verdict == "under-determined":
                raise InvalidCheckSpec(f"spec-poly fit_upto {fit_upto} is too small: its fit "
                                       "misses the held-out points, and a larger fit meets them")
            allok = allok and rep.holdout_ok and fk_ok
            cases.append(
                {
                    "c": c,
                    "descendent_order": uorder if desc else 0,
                    "fit_degree": rep.fit_degree,
                    "holdout_ok": rep.holdout_ok,
                    "notes": notes,
                }
            )
    s = sample_random(seed + 1, max(grid) + 8)
    control = specialization_poly_check(
        (DescendentSpec("ch", 0, "u", uorder),), grid, fit_upto, s, conv, region="inner",
        basis="interp"
    )
    control_ok = control.verdict == "non-polynomial"
    cases.append({"control_off_line": control.verdict, "control_ok": control_ok})
    return cases, allok and control_ok


def check_dtpt0(params: dict, conv: Convention):
    """Exploratory degree-0 report; exact subchecks must pass, the
    side-by-side bound/orientation verdicts are informative."""
    worder, qorder = params["worder"], params["qorder"]
    s = sample_random(params["seed"], qorder + worder + 10)
    rep = dtpt0_report(Partition([1]), worder, qorder, s, conv)
    # vanishing rows live on two-cell shapes
    rep2 = dt0_vanishing(Partition([1, 1]), s, conv)
    rep3 = dt0_vanishing(Partition([2]), s, conv)
    exact_ok = (
        rep["exact_checks_pass"] and rep2["pass"] and rep3["pass"]
    )
    dt_matches = sum(r["dt_side_match"] is True for r in rep["scan"])
    vacuous = sum(r["dt_side_match"] is None for r in rep["scan"])
    cases = [
        {"mu": [1], "g_identity": rep["g_identity"]["pass"],
         "ratio_rebalancing": rep["ratio_rebalancing"]["pass"],
         "scan": [
             {k: r[k] for k in ("variant", "bound", "orientation", "dt_side_match", "dt_nonzero",
                                "pt_side_match", "pt_nonzero")}
             for r in rep["scan"]
         ]},
        {"mu": [1, 1], "vanishing": rep2["pass"], "rows": rep2["rows"]},
        {"mu": [2], "vanishing": rep3["pass"], "rows": rep3["rows"]},
    ]
    notes = [
        "side-by-side identity verdicts are informative; exact subchecks "
        "(descendent generating function, vanishing, measure-ratio rebalancing) "
        + ("pass" if exact_ok else "FAIL"),
        f"(bound, orientation) choices matching the slice sum on nonzero coefficients: "
        f"{dt_matches} of {len(rep['scan'])}; {vacuous} compare only zeros and count as none",
    ]
    return cases, None if exact_ok else False, notes, rep


CHECKS: Dict[str, Callable[[dict, Convention], tuple]] = {
    "egl": check_egl,
    "mainpt": check_mainpt,
    "measure-ratio": check_measure_ratio,
    "dtpt0": check_dtpt0,
    "ptint": check_ptint,
    "simple": check_simple,
    "spec-poly": check_spec_poly,
    "slices": check_slices,
}

# every parameter of each check, with its default; `run_check` fills in
# the defaults before validating, so a check reads all of its parameters
CHECK_DEFAULTS: Dict[str, dict] = {
    "egl": {"n_values": [1, 2, 3, 4], "u_orders": [4, 4], "u_total": 4, "seed": 7, "samples": 3},
    "mainpt": {"shapes": [[1], [2], [1, 1], [2, 1]], "qorder": 3, "uorder": 4, "seed": 11,
               "samples": 3},
    "measure-ratio": {"max_size": 3, "kmax": 3, "seed": 13, "samples": 3},
    "dtpt0": {"seed": 31, "worder": 2, "qorder": 2},
    "ptint": {"seed": 23, "qorder": 2, "uorder": 2, "samples": 2, "degrees": [(0, 0), (-1, -1)]},
    "simple": {"seed": 19, "qorder": 3, "degrees": (-1, -1), "samples": 3},
    "spec-poly": {"seed": 29, "c_values": [1, 2], "grid": list(range(9)), "fit_upto": 5,
                  "uorder": 2},
    "slices": {"seed": 17, "qorder": 4, "count_upto": 5},
}


class InvalidCheckSpec(ValueError):
    pass


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_partition(p) -> bool:
    """A non-increasing list of positive integers (possibly empty)."""
    return isinstance(p, (list, tuple)) and all(_is_int(x) and x >= 1 for x in p) and all(
        a >= b for a, b in zip(p, p[1:]))


def _is_int_pair(d) -> bool:
    return isinstance(d, (list, tuple)) and len(d) == 2 and all(_is_int(x) for x in d)


# integer parameters and their least allowed value
_INT_PARAMS = {"qorder": 0, "uorder": 0, "seed": 0, "samples": 1, "worder": 0, "max_size": 0,
               "kmax": 0, "u_total": 0, "fit_upto": 0, "count_upto": 0}
# list-of-integer parameters and the least allowed element
_INT_LIST_PARAMS = {"n_values": 1, "u_orders": 0, "grid": 0, "c_values": 1}


def _validate_params(name: str, params: dict) -> None:
    for key, least in _INT_PARAMS.items():
        if key in params and not (key == "u_total" and params[key] is None):
            if not _is_int(params[key]) or params[key] < least:
                raise InvalidCheckSpec(f"parameter {key} must be an integer >= {least}")
    for key, least in _INT_LIST_PARAMS.items():
        if key in params:
            xs = params[key]
            if not isinstance(xs, (list, tuple)) or not xs or not all(
                _is_int(x) and x >= least for x in xs
            ):
                raise InvalidCheckSpec(f"{key} must be a non-empty list of integers >= {least}")
    if "shapes" in params:
        shapes = params["shapes"]
        if not isinstance(shapes, (list, tuple)) or not shapes or not all(
            _is_partition(p) and p for p in shapes
        ):
            raise InvalidCheckSpec("shapes must be a non-empty list of partitions "
                                   "(non-increasing lists of positive integers)")
    if "degrees" in params:
        # ptint takes a list of (d1, d2) pairs, simple a single pair
        pairs = params["degrees"] if name == "ptint" else [params["degrees"]]
        if not isinstance(pairs, (list, tuple)) or not pairs or not all(
            _is_int_pair(d) for d in pairs
        ):
            what = "a non-empty list of integer pairs" if name == "ptint" else "an integer pair"
            raise InvalidCheckSpec(f"degrees must be {what}")
    if name == "simple" and params["qorder"] < 1:
        # at q-order 0 the factorization compares 1 with 1
        raise InvalidCheckSpec("simple needs qorder >= 1")
    if name in ("mainpt", "ptint", "spec-poly") and params["uorder"] < 2:
        # the ch weight (1-e^{t1 z})(1-e^{t2 z}) sum ... starts at u^2: below
        # u-order 2 mainpt and ptint compare only zeros, and spec-poly's
        # off-line control is polynomial too, so none certifies anything
        raise InvalidCheckSpec(f"{name} needs uorder >= 2")
    if name == "spec-poly":
        grid, fit_upto = params["grid"], params["fit_upto"]
        if not (any(k <= fit_upto for k in grid) and any(k > fit_upto for k in grid)):
            # the fit needs a point and the verification a held-out one
            raise InvalidCheckSpec("spec-poly needs grid points both at most and above fit_upto")
        if len(set(grid)) < len(grid):
            # interpolation through a repeated point divides by zero
            raise InvalidCheckSpec("spec-poly grid points must be distinct")


def run_check(name: str, params: dict | None = None, conv: Convention | None = None) -> CheckReport:
    if name not in CHECKS:
        raise InvalidCheckSpec(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    params = dict(params or {})
    bad = set(params) - CHECK_DEFAULTS[name].keys()
    if bad:
        raise InvalidCheckSpec(f"unknown parameter(s) for {name}: {sorted(bad)}")
    full = {**CHECK_DEFAULTS[name], **params}
    _validate_params(name, full)
    conv, _ = checked_convention(conv)
    t0 = time.time()
    outcome = CHECKS[name](full, conv)
    elapsed = time.time() - t0
    # pad (cases, ok[, notes[, raw report]]) with the notes and raw report it omits
    cases, ok, notes, raw = outcome + ([], None)[len(outcome) - 2:]
    if not cases:
        # a check that compared nothing certifies nothing
        raise InvalidCheckSpec(f"check {name} has no case at parameters {params}")
    verdict = "informative" if ok is None else "pass" if ok else "fail"
    # the report's copy of the parameters shares no list with CHECK_DEFAULTS
    return CheckReport(name, verdict, cases, conv, elapsed, notes, copy.deepcopy(full), raw)


# ---------------------------------------------------------------------------
# convention calibration


def _calib_battery(conv: Convention, seed: int = 43) -> Dict[str, bool]:
    """Cheap discriminating checks for a convention candidate."""
    out: Dict[str, bool] = {}
    s = sample_random(seed, 14)
    # stable-pairs weight must be finite and nonzero on a one-box column
    try:
        cfg = enum_rpp(Partition([1]), 1)[1]
        w = pt_weight(cfg, s, conv)
        out["pt_weight_finite"] = w != 0
    except (ValueError, ZeroDivisionError, NonPolynomialCharacter):
        out["pt_weight_finite"] = False
    # Euler class against the arm-leg hook oracle
    try:
        out["euler_hook"] = all(
            euler_hilb(lam, s, conv) == euler_hook_oracle(lam, s)
            for lam in (Partition([1]), Partition([2]), Partition([2, 1]))
        )
    except (ValueError, ZeroDivisionError):
        out["euler_hook"] = False

    def passes(name: str, params: dict) -> bool:
        # a named check at small parameters; a candidate it raises on fails
        try:
            return run_check(name, {**params, "seed": seed}, conv).verdict == "pass"
        except (ValueError, ArithmeticError):
            return False

    # EGL at n = 1, 2
    out["egl"] = passes("egl", {"n_values": [1, 2], "u_orders": [2], "u_total": None,
                                "samples": 1})
    # measure ratio on the single column, depths 0..2
    out["measure_ratio"] = passes("measure-ratio", {"max_size": 1, "kmax": 2, "samples": 1})
    # small local-curve factorization
    out["simple"] = passes("simple", {"qorder": 2, "samples": 1})
    return out


def calibrate(seed: int = 43) -> dict:
    """Scan the convention candidates, record the discriminating checks, and
    select the unique candidate passing all of them."""
    rows = []
    winners = []
    for conv in all_conventions():
        battery = _calib_battery(conv, seed)
        ok = all(battery.values())
        rows.append({"convention": conv.to_json(), "checks": battery, "pass": ok})
        if ok:
            winners.append(conv)
    doc = {
        "version": __version__,
        "seed": seed,
        "candidates": rows,
        "winner": winners[0].to_json() if len(winners) == 1 else None,
        "winner_count": len(winners),
        "log": [
            "pt_weight_finite: one-box stable-pairs weight is a nonzero rational "
            "(rules out the column orientation with zero-weight monomials)",
            "euler_hook: Exp(sign*F_e) equals the arm-leg hook product "
            "(fixes the Euler-class sign)",
            "egl: localization equals the (t1 t2)^(gamma n)-normalized residue "
            "(fixes the residue normalization exponent)",
            "measure_ratio: closed Pochhammer form equals Exp(V^PT - V^DT) "
            "(fixes the dual-term denominator of the ideal-sheaf weight)",
            "simple: local-curve factorization with the degree-0 factor",
        ],
    }
    return doc


def load_default_convention() -> Convention:
    """The calibrated default; the CLI's `--convention` picks another."""
    return DEFAULT_CONVENTION


def checked_convention(conv: Convention | None) -> tuple[Convention, str]:
    """`conv`, or the default for None, with its canonical JSON, if it is one
    of `all_conventions()` and each field has `DEFAULT_CONVENTION`'s type;
    else InvalidCheckSpec.  Convention(-1.0, ...) and Convention(True, ...)
    equal members, but the first reaches `Fraction` as a float and the
    second is spelled `true`."""
    if conv is None:
        conv = load_default_convention()
    try:
        return _checked_convention(conv, tuple(map(type, conv)))
    except TypeError:  # not a tuple, or a field that cannot be hashed
        raise InvalidCheckSpec(f"{conv!r} names no convention") from None


@functools.lru_cache(maxsize=64, typed=True)
def _checked_convention(conv: Convention, field_types: tuple) -> tuple[Convention, str]:
    # keyed by the fields' types as _convention_json is, and typed so that a
    # plain tuple equal to a member is not served that member
    if (type(conv) is not Convention or conv not in all_conventions()
            or field_types != tuple(map(type, DEFAULT_CONVENTION))):
        raise InvalidCheckSpec(f"{conv!r} names no convention")
    return conv, _convention_json(conv, field_types)


# ---------------------------------------------------------------------------
# compute requests and the file cache


def default_cache_dir() -> str:
    return os.environ.get("VERTEXFORGE_CACHE", os.path.join(".", ".vertexforge-cache"))


# `json.dumps` with these arguments would build this encoder on every call
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@functools.cache
def engine_fingerprint() -> str:
    """The package version with a 64-bit checksum (crc32, adler32) of the
    package's own `.py` sources, read once per process on first use: a
    result cached by any other code is never served."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    crc, adler = 0, 1
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            chunk = name.encode() + b"\0" + fh.read()
        crc, adler = zlib.crc32(chunk, crc), zlib.adler32(chunk, adler)
    return f"{__version__}+{crc:08x}{adler:08x}"


@functools.lru_cache(maxsize=64)
def _convention_json(conv: Convention, field_types: tuple) -> str:
    # keyed by the fields' types too: Convention(True, ...) equals
    # Convention(1, ...) but is spelled differently in JSON
    return canonical_json(conv.to_json())


@functools.lru_cache(maxsize=4)
def _fingerprint_json(fingerprint: str) -> str:
    return canonical_json(fingerprint)


def _request_parts(request: dict, conv_json: str) -> tuple[str, str, str]:
    """Canonical JSON of the request, the convention (given) and the engine
    fingerprint; only the request's is built on every call."""
    return canonical_json(request), conv_json, _fingerprint_json(engine_fingerprint())


def _digest(req_json: str, conv_json: str, version_json: str) -> str:
    # the checksummed payload is canonical_json({"convention": ..., "request":
    # ..., "version": <engine fingerprint>}), spelled out from the canonical parts
    data = f'{{"convention":{conv_json},"request":{req_json},"version":{version_json}}}'.encode()
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def request_key(request: dict, conv: Convention) -> str:
    """64-bit digest (crc32, adler32) of the canonical request payload, the
    name of its cache file.  It is not collision-resistant: `compute` confirms
    a hit against the request stored in the file, so a collision costs a
    recompute, never a wrong result."""
    return _digest(*_request_parts(request, _convention_json(conv, tuple(map(type, conv)))))


def _read_bytes(path: str) -> bytes:
    """The whole file at `path`, through one file descriptor and no
    buffered file object."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _is_entry_of(blob: bytes, key: str, req_json: str, conv_json: str, version_json: str) -> bool:
    """Whether a cache file is the canonical document `compute` writes for
    this request: its keys are sorted, so the convention, key, request and
    version (the engine fingerprint) sit at fixed places around the result."""
    head = f'{{"convention":{conv_json},"key":"{key}","recomputed_after_corruption":'.encode()
    mid = f',"request":{req_json},"result":'.encode()
    return (
        blob.startswith(head)
        and (blob.startswith(b"false" + mid, len(head)) or blob.startswith(b"true" + mid, len(head)))
        and blob.endswith(f',"version":{version_json}}}'.encode())
    )


def compute(request: dict, conv: Convention | None = None, cache_dir: str | None = None) -> tuple[bytes, bool]:
    """Execute a series request; cached results are returned byte-identically.

    Request schema: {"type": "vertex", "theory": "PT"|"DT", "boundary":
    {"kind":..., "shape": [...]}, "qorder": N, "descendents": [...],
    "seed": int} or {"type": "glue", ...}.  Invalid requests raise
    InvalidCheckSpec and are never cached.
    """
    _validate_request(request)
    conv, conv_json = checked_convention(conv)
    cache_dir = cache_dir or default_cache_dir()
    parts = _request_parts(request, conv_json)
    key = _digest(*parts)
    path = os.path.join(cache_dir, key + ".json")
    warn = False
    try:
        blob = _read_bytes(path)
    except FileNotFoundError:
        pass  # a miss, also when the file went between two calls
    else:
        if _is_entry_of(blob, key, *parts):
            return blob, True
        # another request with the same digest leaves a well-formed document
        try:
            warn = not isinstance(json.loads(blob), dict)
        except ValueError:
            warn = True  # corruption: recompute below
    result = _execute_request(request, conv)
    doc = {
        "key": key,
        "request": request,
        "convention": conv.to_json(),
        "version": engine_fingerprint(),
        "result": result,
        "recomputed_after_corruption": warn,
    }
    blob = canonical_json(doc).encode()
    os.makedirs(cache_dir, exist_ok=True)
    # a reader sees the old file or the whole new one, never a torn write
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=key, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return blob, False


_REQUEST_KEYS = {
    "vertex": {"type", "theory", "boundary", "qorder", "descendents", "seed"},
    "glue": {"type", "theory", "degrees", "n", "descendents_zero", "descendents_inf",
             "qorder", "seed"},
}
_DESC_KEYS = {"mode", "insertion", "variable", "order"}


def _validate_request(request) -> None:
    """Schema of a compute request: its type, keys, non-negative integers
    (never bool), partitions, and descendent specs with distinct string
    variables and non-negative orders."""
    if not isinstance(request, dict):
        raise InvalidCheckSpec("a request must be a JSON object")
    kind = request.get("type")
    if not isinstance(kind, str) or kind not in _REQUEST_KEYS:
        raise InvalidCheckSpec(f"unknown request type {kind!r}")
    bad = set(request) - _REQUEST_KEYS[kind]
    if bad:
        raise InvalidCheckSpec(f"unknown request field(s) for {kind}: {sorted(bad)}")
    for key in ("qorder", "seed", "n"):
        if key in request and not (_is_int(request[key]) and request[key] >= 0):
            raise InvalidCheckSpec(f"{key} must be an integer >= 0")
    if request.get("theory", "PT") not in ("PT", "DT"):
        raise InvalidCheckSpec("theory must be 'PT' or 'DT'")
    if "boundary" in request:
        bnd = request["boundary"]
        if not isinstance(bnd, dict) or set(bnd) - {"kind", "shape"}:
            raise InvalidCheckSpec("boundary must be an object with fields kind and shape")
        if not _is_partition(bnd.get("shape", [1])):
            raise InvalidCheckSpec("boundary shape must be a partition "
                                   "(a non-increasing list of positive integers)")
        # `_execute_request` computes PT at the given kind (fixedpoint when
        # omitted) and DT always with a leg
        kinds = ("fixedpoint", "chern") if request.get("theory", "PT") == "PT" else ("leg",)
        if bnd.get("kind", kinds[0]) not in kinds:
            raise InvalidCheckSpec(f"boundary kind must be one of {list(kinds)}")
    if "degrees" in request and not _is_int_pair(request["degrees"]):
        raise InvalidCheckSpec("degrees must be an integer pair")
    variables = []
    for key in ("descendents", "descendents_zero", "descendents_inf"):
        items = request.get(key)
        if items is None:
            continue
        if not isinstance(items, (list, tuple)):
            raise InvalidCheckSpec(f"{key} must be a list")
        for d in items:
            if not isinstance(d, dict) or set(d) - _DESC_KEYS or not {"variable", "order"} <= set(d):
                raise InvalidCheckSpec(f"each of {key} must be an object with variable and "
                                       f"order (optional: mode, insertion)")
            if not isinstance(d["variable"], str):
                raise InvalidCheckSpec("descendent variable must be a string")
            if not (_is_int(d["order"]) and d["order"] >= 0):
                raise InvalidCheckSpec("descendent order must be an integer >= 0")
            if d.get("mode", "ch") not in ("ch", "ch_prime", "ch_hat"):
                raise InvalidCheckSpec("descendent mode must be 'ch', 'ch_prime' or 'ch_hat'")
            # the list, not the insertion, places a descendent on a vertex:
            # only the glued infinity vertex's may say 'inf'
            insertion = d.get("insertion", 0)
            if insertion == "inf" and key != "descendents_inf":
                raise InvalidCheckSpec("descendent insertion 'inf' is allowed only in descendents_inf")
            if insertion != "inf" and not (_is_int(insertion) and insertion == 0):
                raise InvalidCheckSpec("descendent insertion must be 0 or 'inf'")
            variables.append(d["variable"])
    if len(set(variables)) != len(variables):
        raise InvalidCheckSpec(f"descendent variables must be distinct: {variables}")


def _parse_desc(items) -> tuple:
    return tuple(
        DescendentSpec(d.get("mode", "ch"), d.get("insertion", 0), d["variable"], d["order"])
        for d in (items or [])
    )


def _execute_request(request: dict, conv: Convention) -> dict:
    """The result of a request that `_validate_request` accepted."""
    kind = request.get("type")
    seed = request.get("seed", 1)
    qorder = request.get("qorder", 2)
    if kind == "vertex":
        theory = request.get("theory", "PT")
        bnd = request.get("boundary", {"kind": "fixedpoint", "shape": [1]})
        shape = Partition(bnd.get("shape", [1]))
        desc = _parse_desc(request.get("descendents"))
        # fixed bound so the sample (hence the cached coefficients) does not
        # depend on the truncation order: prefixes stay consistent
        L = 40
        if shape.size + qorder + sum(d.order for d in desc) + 6 > L:
            raise InvalidCheckSpec("request exceeds the desk-scale bound")
        s = sample_random(seed, L)
        if theory == "PT":
            res = bare_pt((bnd.get("kind", "fixedpoint"), shape), qorder, desc, s, conv)
        else:
            res = bare_dt(shape, qorder, desc, s, conv)
        return res.to_json()
    degrees = tuple(request.get("degrees", (0, 0)))
    n = request.get("n", 1)
    desc0 = _parse_desc(request.get("descendents_zero"))
    descinf = _parse_desc(request.get("descendents_inf"))
    L = 40
    if n + qorder + sum(d.order for d in desc0 + descinf) + 8 > L:
        raise InvalidCheckSpec("request exceeds the desk-scale bound")
    s = sample_random(seed, L)
    req = localcurve.GlueRequest(request.get("theory", "PT"), degrees, n, desc0, descinf, qorder, s, conv)
    series = localcurve.glue(req)
    return {"request": req.to_json(), "shift": series.shift, "coeffs": series.to_json()}
