"""Byte-identity digest of the library's outputs.

    PYTHONPATH=src python3 tools/output_digest.py

Computes a fixed list of outputs and prints the number of entries and a
sha256 over their canonical JSON (sorted keys, no spaces, fractions as
`p/q` strings):

* `pt_residue_vertex` for the `mainpt` shapes in the Chern and fixed-point
  bases and in the `full` region, and for (3,1), (2,2), (2,1,1);
* `egl_residue` for n = 1..4;
* `dt0_residue_value` in both variants, every k-vector with entries in
  -1..2 (a pole reads null);
* `dtpt0_report` at `worder` 2, 3 and 4;
* `bare_dt`, `bare_pt` and `glue` series;
* the JSON of every named check at its default parameters, without its
  elapsed time, and of `calibrate`.

Run it in two checkouts: equal digests mean a change kept every one of
these outputs.  It takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

from vertexforge.characters import DEFAULT_CONVENTION as CONV, DescendentSpec
from vertexforge.harness import CHECKS, calibrate, run_check
from vertexforge.localcurve import GlueRequest, glue
from vertexforge.partitions import Partition
from vertexforge.residue import dt0_residue_value, dtpt0_report, egl_residue, pt_residue_vertex
from vertexforge.sampling import sample_random
from vertexforge.series import DescSeries
from vertexforge.vertex import bare_dt, bare_pt


def canon(x):
    """A JSON-ready value: series and fractions as their exact strings."""
    if isinstance(x, DescSeries):
        return x.to_json()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return x


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

    wspecs = [{"var": "w1", "order": 3}]
    for parts in ([1], [2], [1, 1]):
        mu = Partition(parts)
        for kv in product(range(-1, 3), repeat=mu.size):
            for variant in ("derived", "printed"):
                yield (f"dt0_residue_value {parts} {kv} {variant}",
                       dt0_residue_value(mu, kv, s, CONV, wspecs, variant))

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
        doc = run_check(name, {}, CONV).to_json()
        del doc["elapsed_seconds"]
        yield f"check {name}", doc
    yield "calibrate", calibrate()


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for name, value in entries():
        digest.update(json.dumps([name, canon(value)], sort_keys=True, separators=(",", ":")).encode())
        digest.update(b"\n")
        count += 1
    print(f"{count} entries sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
