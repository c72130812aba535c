"""Byte-identity digest of the library's outputs.

    PYTHONPATH=src python3 tools/output_digest.py [--entries]

Computes a fixed list of outputs and prints the number of entries and a
sha256 over their canonical JSON (sorted keys, no spaces, fractions as
`p/q` strings):

* `pt_residue_vertex` for the `mainpt` shapes in the Chern and fixed-point
  bases and in the `full` region, and for (3,1), (2,2), (2,1,1);
* `egl_residue` for n = 1..4, and `egl_localization` for n = 1..4 at the
  orders [4, 4] and [2, 2] with no total-degree cap and with caps 2 and 4;
* `dt0_residue_value` in both variants, every k-vector with entries in
  -1..2 (a pole reads null);
* `dtpt0_report` at `worder` 2, 3 and 4;
* `bare_dt`, `bare_pt` and `glue` series;
* the JSON of every named check at its default parameters, without its
  elapsed time and parameters;
* scalar `bare_dt`, `bare_pt` (both boundaries) and `dt0_slice` under all
  24 conventions, a raising case recorded as "ValueError";
* `measure_difference_char` at every depth vector in {-1..3}^cells for
  |mu| <= 3, under both column signs and both dual terms;
* `bare_dt` and `bare_pt` with `ch_hat` and `ch_prime` insertions at 0 and
  `inf` in two variables;
* `descendent_char` in every mode, under both column signs, in each of two
  joint variables, at every fixed point up to q = 4 on the legs (), (1),
  (2,1) and the shapes (1), (2), (1,1), (2,1).
* `pt_residue_vertex` with two descendent variables, under both column
  signs, in the fixed-point basis on (1), (2), (1,1) and the Chern basis on
  (1,1), (2,1), and `dt0_residue_value` with two variables in both
  variants at every k-vector with entries in -1..1;
* scalar `bare_dt`, `bare_pt` (both boundaries) and `dt0_slice` at the
  non-generic sample t1 = t2 = 3/7, t3 = -5/11, at q-orders 1, 2 and 4, a
  raising case recorded as "ValueError";
* `sample_random` over a grid of seeds, genericity bounds and lines, an
  exhausted retry budget recorded as "RuntimeError";
* `measure_ratio_extended` and `measure_ratio_char` at every depth vector
  in {-1..3}^cells for |mu| <= 3;
* the JSON of every named check at one other parameter set, `mainpt`
  raising InvalidCheckSpec and `simple` with a `fail` verdict among them;
* `compute` on a few vertex and glue requests, in a fresh cache: the
  miss's stored request and result (not its key or version, which follow
  the engine fingerprint), and whether the second call is a hit with the
  same bytes;
* `vertex_char_pt` and `vertex_char_dt` at every fixed point up to q = 4 on
  the legs (), (1), (2,1) and the shapes (1), (2), (1,1), (2,1), and
  `vertex_char_pt_raw` and `vertex_char_dt_raw` at every depth vector in
  {-1..3}^cells for |mu| <= 3, each under both column signs and both dual
  terms;
* `fe_char` for |lambda| <= 4, and `edge_factor` at every d in {-2..2}^2
  for |lambda| <= 3, a raising case recorded as "ValueError".

Run it in two checkouts: equal digests mean a change kept every one of
these outputs; with `--entries` it also prints one sha256 per entry, so two
listings show which outputs differ.  It takes 5-8 s on a 2-vCPU Xeon
host with CPython 3.11.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from itertools import product

from vertexforge.characters import DEFAULT_CONVENTION as CONV
from vertexforge.characters import (Convention, DescendentSpec, all_conventions, descendent_char,
                                    edge_factor, fe_char, measure_difference_char, vertex_char_dt,
                                    vertex_char_dt_raw, vertex_char_pt, vertex_char_pt_raw)
from vertexforge.harness import CHECKS, compute, run_check
from vertexforge.laurent import LaurentPoly
from vertexforge.localcurve import GlueRequest, glue
from vertexforge.partitions import Partition, enum_legged_pp, enum_partitions, enum_rpp
from vertexforge.residue import (dt0_residue_value, dtpt0_report, egl_localization, egl_residue,
                                 measure_ratio_char, measure_ratio_extended, pt_residue_vertex)
from vertexforge.sampling import ParamSample, sample_random
from vertexforge.series import DescSeries, QSeries
from vertexforge.vertex import bare_dt, bare_pt, dt0_slice


def canon(x):
    """A JSON-ready value: series and fractions as their exact strings."""
    if isinstance(x, (DescSeries, LaurentPoly, QSeries)):
        return x.to_json()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return x


def check_doc(name, params):
    """The JSON of a named check's report without its elapsed time and its
    parameters (which the caller knows), or the name of what it raised."""
    try:
        doc = run_check(name, params).to_json()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__
    doc.pop("elapsed_seconds", None)
    doc.pop("params", None)
    return doc


# one parameter set per named check other than its defaults; `mainpt` at
# u-order 1 would compare only zeros, so it records InvalidCheckSpec, and
# `simple` meets a curve whose stable-pairs series depends on the sample, so
# it fails
CHECK_PARAMS = {
    "dtpt0": {"seed": 5, "worder": 3, "qorder": 1},
    "egl": {"n_values": [1, 3], "u_orders": [2, 3], "u_total": 3, "seed": 3, "samples": 2},
    "mainpt": {"shapes": [[1]], "qorder": 1, "uorder": 1, "samples": 1},
    "measure-ratio": {"max_size": 2, "kmax": 2, "seed": 5, "samples": 2},
    "ptint": {"seed": 3, "qorder": 2, "uorder": 2, "samples": 1, "degrees": [[1, -3]]},
    "simple": {"degrees": [0, -2], "qorder": 2, "samples": 2},
    "slices": {"seed": 3, "qorder": 3, "count_upto": 4},
    "spec-poly": {"seed": 5, "c_values": [2], "grid": list(range(8)), "fit_upto": 4, "uorder": 2},
}

# `compute` requests: both theories, both stable-pairs boundaries, `ch` and
# `ch_hat` descendents, and two glued curves, one with a descendent at each
# vertex
COMPUTE_REQUESTS = (
    {"type": "vertex", "theory": "PT", "boundary": {"kind": "fixedpoint", "shape": [2, 1]},
     "qorder": 2, "seed": 3, "descendents": [{"variable": "u", "order": 2}]},
    {"type": "vertex", "theory": "PT", "boundary": {"kind": "chern", "shape": [1]}, "qorder": 2,
     "seed": 4},
    {"type": "vertex", "theory": "DT", "boundary": {"kind": "leg", "shape": [1]}, "qorder": 2,
     "seed": 5, "descendents": [{"mode": "ch_hat", "variable": "u", "order": 2}]},
    {"type": "glue", "theory": "PT", "degrees": [-1, -1], "n": 1, "qorder": 2, "seed": 6,
     "descendents_zero": [{"variable": "u", "order": 1}],
     "descendents_inf": [{"insertion": "inf", "variable": "v", "order": 1}]},
    {"type": "glue", "theory": "DT", "degrees": [1, -3], "n": 2, "qorder": 2, "seed": 7},
)


def entries():
    """(name, output) pairs, in a fixed order."""
    s = sample_random(11, 16)
    desc = (DescendentSpec("ch", 0, "u", 3),)
    for parts in ([1], [2], [1, 1], [2, 1]):
        lam = Partition(parts)
        for basis in ("chern", "interp"):
            for region in ("inner", "full"):
                yield (f"pt_residue_vertex {parts} {basis} {region}",
                       pt_residue_vertex(lam, 3, desc, s, CONV, basis, region))
    desc2 = (DescendentSpec("ch", 0, "u", 2),)
    for parts in ([3, 1], [2, 2], [2, 1, 1]):
        yield (f"pt_residue_vertex {parts} chern inner",
               pt_residue_vertex(Partition(parts), 2, desc2, s, CONV))

    for n in (1, 2, 3, 4):
        yield f"egl_residue {n}", egl_residue(n, [4, 4], s, CONV, 4)
    for n in (1, 2, 3, 4):
        for orders in ([4, 4], [2, 2]):
            for total in (None, 2, 4):
                yield (f"egl_localization {n} {orders} {total}",
                       egl_localization(n, orders, s, CONV, total))

    wspec = DescendentSpec("ch", 0, "w1", 3)
    for parts in ([1], [2], [1, 1]):
        mu = Partition(parts)
        for kv in product(range(-1, 3), repeat=mu.size):
            for variant in ("derived", "printed"):
                yield (f"dt0_residue_value {parts} {kv} {variant}",
                       dt0_residue_value(mu, kv, s, (wspec,), variant))

    for worder in (2, 3, 4):
        yield f"dtpt0_report {worder}", dtpt0_report(Partition([1]), worder, 2, sample_random(31, 14), CONV)

    for leg in ([], [1], [2, 1]):
        yield f"bare_dt {leg}", bare_dt(Partition(leg), 3, desc2, s, CONV).coeffs
    for kind, parts in (("chern", [2, 1]), ("fixedpoint", [2, 1]), ("fixedpoint", [1])):
        yield f"bare_pt {kind} {parts}", bare_pt((kind, Partition(parts)), 3, desc2, s, CONV).coeffs
    for theory in ("PT", "DT"):
        for degrees in ((-1, -1), (0, 0), (1, -3)):
            for n in (1, 2):
                req = GlueRequest(theory, degrees, n, desc2, (), 3, s, CONV)
                yield f"glue {theory} {degrees} {n}", glue(req)

    for name in sorted(CHECKS):
        yield f"check {name}", check_doc(name, {})

    def coeffs_or_error(f):
        try:
            return f().coeffs
        except ValueError:
            return "ValueError"

    for conv in all_conventions():
        c = tuple(conv)
        for leg in ([], [1], [2, 1]):
            yield f"bare_dt {leg} {c}", coeffs_or_error(lambda: bare_dt(Partition(leg), 4, (), s, conv))
        for kind, parts in (("chern", [2, 1]), ("fixedpoint", [2, 1]), ("fixedpoint", [1])):
            yield (f"bare_pt {kind} {parts} {c}",
                   coeffs_or_error(lambda: bare_pt((kind, Partition(parts)), 4, (), s, conv)))
        for parts in ([1], [2], [1, 1]):
            yield (f"dt0_slice {parts} {c}",
                   coeffs_or_error(lambda: dt0_slice(Partition(parts), (), s, 4, conv)))

    for conv in (Convention(-1, "t1t2t3"), Convention(-1, "t1t2"), Convention(1, "t1t2t3"),
                 Convention(1, "t1t2")):
        for n in (1, 2, 3):
            for mu in enum_partitions(n):
                cells = mu.cells()
                for kv in product(range(-1, 4), repeat=len(cells)):
                    yield (f"measure_difference_char {list(mu.parts)} {kv} {tuple(conv)}",
                           measure_difference_char(mu, dict(zip(cells, kv)), conv))

    for ins_u, ins_v in ((0, "inf"), ("inf", 0)):
        desc3 = (DescendentSpec("ch_hat", ins_u, "u", 2), DescendentSpec("ch_prime", ins_v, "v", 2))
        for leg in ([], [1], [2, 1]):
            yield f"bare_dt {leg} {ins_u} {ins_v}", bare_dt(Partition(leg), 3, desc3, s, CONV).coeffs
        for kind, parts in (("chern", [2, 1]), ("fixedpoint", [1])):
            yield (f"bare_pt {kind} {parts} {ins_u} {ins_v}",
                   bare_pt((kind, Partition(parts)), 3, desc3, s, CONV).coeffs)

    vs, orders = ("u", "v"), (3, 2)
    fixed_points = [(f"dt {leg}", enum_legged_pp(Partition(leg), 4)) for leg in ([], [1], [2, 1])]
    fixed_points += [(f"pt {parts}", enum_rpp(Partition(parts), 4))
                     for parts in ([1], [2], [1, 1], [2, 1])]
    for name, configs in fixed_points:
        for conv in (Convention(-1), Convention(1)):
            for mode in ("ch", "ch_prime", "ch_hat"):
                for var, order in zip(vs, orders):
                    spec = DescendentSpec(mode, 0, var, order)
                    yield (f"descendent_char {name} {conv.pt_column_sign} {mode} {var}",
                           [descendent_char(c, spec, s, conv, vs, orders) for c in configs])

    # two descendent variables on the residue route: their u-buckets multiply
    s2 = sample_random(5, 24)
    desc_uv = (DescendentSpec("ch", 0, "u", 3), DescendentSpec("ch", 0, "v", 3))
    for conv in (Convention(-1), Convention(1)):
        for basis, parts in (("interp", [1]), ("interp", [2]), ("interp", [1, 1]), ("chern", [1, 1]),
                             ("chern", [2, 1])):
            yield (f"pt_residue_vertex {parts} {basis} u v {conv.pt_column_sign}",
                   pt_residue_vertex(Partition(parts), 2, desc_uv, s2, conv, basis))
    desc_w = (DescendentSpec("ch", 0, "w1", 4), DescendentSpec("ch", 0, "w2", 3))
    for parts in ([1], [2], [1, 1]):
        mu = Partition(parts)
        for kv in product(range(-1, 2), repeat=mu.size):
            for variant in ("derived", "printed"):
                yield (f"dt0_residue_value {parts} {kv} {variant} w1 w2",
                       dt0_residue_value(mu, kv, s, desc_w, variant))


    # the localization sums at a non-generic sample (t1 = t2), where some
    # weights are undefined and the sums raise
    bad = ParamSample(Fraction(3, 7), Fraction(3, 7), Fraction(-5, 11), 16)
    for q in (1, 2, 4):
        for leg in ([], [1], [2, 1]):
            yield f"bare_dt {leg} t1=t2 {q}", coeffs_or_error(lambda: bare_dt(Partition(leg), q, (), bad, CONV))
        for kind, parts in (("chern", [2, 1]), ("fixedpoint", [2, 1]), ("fixedpoint", [1])):
            yield (f"bare_pt {kind} {parts} t1=t2 {q}",
                   coeffs_or_error(lambda: bare_pt((kind, Partition(parts)), q, (), bad, CONV)))
        for parts in ([1], [2], [1, 1]):
            yield (f"dt0_slice {parts} t1=t2 {q}",
                   coeffs_or_error(lambda: dt0_slice(Partition(parts), (), bad, q, CONV)))

    for seed in range(8):
        for L in (1, 3, 8, 16, 40):
            for line in (None, 0, 1, -1, 2):
                try:
                    value = tuple(sample_random(seed, L, line))
                except RuntimeError:
                    value = "RuntimeError"
                yield f"sample_random {seed} {L} {line}", value

    for n in (1, 2, 3):
        for mu in enum_partitions(n):
            cells = mu.cells()
            for kv in product(range(-1, 4), repeat=len(cells)):
                kmap = dict(zip(cells, kv))
                yield f"measure_ratio_extended {list(mu.parts)} {kv}", measure_ratio_extended(mu, kmap, s)
                yield f"measure_ratio_char {list(mu.parts)} {kv}", measure_ratio_char(mu, kmap)

    for name, params in CHECK_PARAMS.items():
        yield f"check {name} {canonical(params)}", check_doc(name, params)

    with tempfile.TemporaryDirectory() as cache:
        for req in COMPUTE_REQUESTS:
            blob, hit = compute(req, CONV, cache)
            doc = json.loads(blob)
            yield (f"compute {canonical(req)} {tuple(CONV)}",
                   {"request": doc["request"], "result": doc["result"], "miss": not hit,
                    "second_call_hit_same_bytes": compute(req, CONV, cache) == (blob, True)})

    # the vertex characters read the column sign and the dual term only
    flag_pairs = (Convention(-1, "t1t2t3"), Convention(-1, "t1t2"), Convention(1, "t1t2t3"),
                  Convention(1, "t1t2"))
    for conv in flag_pairs:
        c = tuple(conv)
        for leg in ([], [1], [2, 1]):
            yield (f"vertex_char_dt {leg} {c}",
                   [vertex_char_dt(pp, conv) for pp in enum_legged_pp(Partition(leg), 4)])
        for parts in ([1], [2], [1, 1], [2, 1]):
            yield (f"vertex_char_pt {parts} {c}",
                   [vertex_char_pt(cfg, conv) for cfg in enum_rpp(Partition(parts), 4)])
        for n in (1, 2, 3):
            for mu in enum_partitions(n):
                kmaps = [dict(zip(mu.cells(), kv)) for kv in product(range(-1, 4), repeat=n)]
                yield (f"vertex_char_pt_raw {list(mu.parts)} {c}",
                       [vertex_char_pt_raw(mu, kmap, conv) for kmap in kmaps])
                yield (f"vertex_char_dt_raw {list(mu.parts)} {c}",
                       [vertex_char_dt_raw(kmap, conv) for kmap in kmaps])

    for n in range(5):
        for lam in enum_partitions(n):
            yield f"fe_char {list(lam.parts)}", fe_char(lam)
    for n in range(4):
        for lam in enum_partitions(n):
            for d in product(range(-2, 3), repeat=2):
                try:
                    value = edge_factor(lam, d, s)
                except ValueError:
                    value = "ValueError"
                yield f"edge_factor {list(lam.parts)} {d}", value


def canonical(x) -> str:
    return json.dumps(canon(x), sort_keys=True, separators=(",", ":"))


def digest(show: bool = False) -> str:
    """The line `<count> entries sha256 <hex>` over every entry; with
    `show`, each entry's own sha256 and name are printed first."""
    total = hashlib.sha256()
    count = 0
    for name, value in entries():
        line = canonical([name, value]).encode()
        total.update(line)
        total.update(b"\n")
        count += 1
        if show:
            print(hashlib.sha256(line).hexdigest(), name)
    return f"{count} entries sha256 {total.hexdigest()}"


def main(argv=None) -> None:
    print(digest("--entries" in (sys.argv[1:] if argv is None else argv)))


if __name__ == "__main__":
    main()
