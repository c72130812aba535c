"""The benchmark's three workloads: seeded case lists, timed operations and
exact checks.

A workload yields its cases one round at a time. Every round holds the same
mix of operations (only the samples, the order and, for compute-cache, the
popularity draw depend on the seed), so the rates and percentiles of a run do
not depend on which cases a seed picked. Each operation times only its calls
into the library (`clock.timed()`); the check that follows compares exact
`Fraction` coefficients against an independent identity and raises
`Mismatch` when it does not hold.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import product

from vertexforge import characters, harness, localcurve, residue, sampling, vertex
from vertexforge.characters import DescendentSpec
from vertexforge.partitions import Partition, enum_partitions
from vertexforge.series import DescSeries


class Mismatch(Exception):
    """An identity did not hold exactly, or a comparison was malformed."""


def _terms(x) -> dict:
    """Nonzero coefficients of a series coefficient, keyed by exponent."""
    if isinstance(x, DescSeries):
        x = x.coeffs
    elif not isinstance(x, dict):
        x = {(): x}
    for c in x.values():
        if type(c) not in (int, Fraction):
            raise Mismatch(f"non-exact coefficient {c!r}")
    return {e: c for e, c in x.items() if c}


def compare(xs, ys) -> int:
    """Compare two coefficient lists exactly, coefficient by coefficient.

    Returns the number of nonzero coefficients compared (the runner fails
    an operation whose comparisons were all of zeros); a length mismatch or
    a differing support raises `Mismatch`.
    """
    if len(xs) != len(ys):
        raise Mismatch(f"length {len(xs)} != {len(ys)}")
    nonzero = 0
    for i, (x, y) in enumerate(zip(xs, ys, strict=True)):
        if isinstance(x, DescSeries) and isinstance(y, DescSeries) and x.variables != y.variables:
            raise Mismatch(f"q^{i}: variables {x.variables} != {y.variables}")
        tx, ty = _terms(x), _terms(y)
        if tx.keys() != ty.keys():
            raise Mismatch(f"q^{i}: supports differ: {sorted(tx)} vs {sorted(ty)}")
        for e, c in tx.items():
            if c != ty[e]:
                raise Mismatch(f"q^{i} at {e}: {c} != {ty[e]}")
        nonzero += len(tx)
    return nonzero


def _convolve(a, b, order):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(order + 1)]


class Workload:
    """One workload. `cases(seed, rnd)` is a pure function of its arguments."""

    name = ""

    def __init__(self, conv, tmp_dir):
        self.conv = conv
        self.tmp_dir = tmp_dir

    def start_round(self, rnd: int) -> None:
        """Called before the first operation of each round."""

    def cases(self, seed: int, rnd: int) -> list[dict]:
        raise NotImplementedError

    def case_class(self, case: dict) -> str:
        """Cases of one class cost the same up to their sample; every round
        holds the same number of cases of each class."""
        return json.dumps({k: v for k, v in case.items() if k != "sample_seed"}, sort_keys=True)

    def run(self, case: dict, clock) -> dict:
        """Run and check one operation; return {"compared": n, "sample": json}."""
        raise NotImplementedError


def _seeded(grid: list[dict], tag: str, seed: int, rnd: int) -> list[dict]:
    rng = random.Random(f"{tag}:{seed}:{rnd}")
    for case in grid:
        case["sample_seed"] = rng.randrange(1, 10**9)
    rng.shuffle(grid)
    return grid


class CertifyResidue(Workload):
    """mainpt and egl criteria: localization against iterated residues."""

    name = "certify-residue"

    def cases(self, seed, rnd):
        grid = [
            {"kind": "mainpt", "shape": list(lam), "qorder": q, "uorder": u}
            for lam in ((1,), (2,), (1, 1), (2, 1))
            for q in range((2 if sum(lam) == 3 else 3) + 1)
            for u in (0, 2, 4)
            # below u-order 4 every (2,1) coefficient at q^0 integrates a class
            # of degree < dim Hilb^3, so both sides are identically zero
            if not (lam == (2, 1) and q == 0 and u < 4)
        ]
        grid += [{"kind": "egl", "n": n, "u_orders": [4, 4], "u_total": 4} for n in range(1, 5)]
        return _seeded(grid, self.name, seed, rnd)

    def run(self, case, clock):
        conv = self.conv
        if case["kind"] == "egl":
            n = case["n"]
            with clock.timed():
                s = sampling.sample_random(case["sample_seed"], 2 * n + 6)
                a = residue.egl_localization(n, case["u_orders"], s, conv, case["u_total"])
                b = residue.egl_residue(n, case["u_orders"], s, conv, case["u_total"])
            return {"compared": compare([a], [b]), "sample": s.to_json()}
        lam, q, u = Partition(case["shape"]), case["qorder"], case["uorder"]
        # u-order 0 is the scalar vertex: a ch_0 insertion truncated at u^0 is 0
        desc = (DescendentSpec("ch", 0, "u", u),) if u else ()
        with clock.timed():
            s = sampling.sample_random(case["sample_seed"], lam.size + q + u + 6)
            loc = vertex.bare_pt(("chern", lam), q, desc, s, conv)
            res = residue.pt_residue_vertex(lam, q, desc, s, conv, "chern")
            if lam.size <= 2:
                loc_fp = vertex.bare_pt(("fixedpoint", lam), q, desc, s, conv)
                res_fp = residue.pt_residue_vertex(lam, q, desc, s, conv, "interp")
        n = compare(loc.coeffs, res)
        if lam.size <= 2:
            n += compare(loc_fp.coeffs, res_fp)
        return {"compared": n, "sample": s.to_json()}


class LocalizeVertex(Workload):
    """Localization-only identities; the residue engine is never entered."""

    name = "localize-vertex"
    L = 20  # genericity bound: covers every weight met at q <= 6, |leg| <= 3

    def cases(self, seed, rnd):
        grid = [{"kind": "dtpt", "shape": list(lam), "qorder": q}
                for lam in ((1,), (2,), (1, 1), (2, 1)) for q in range(3, 7)]
        grid += [{"kind": "glue", "n": n, "degrees": list(d), "qorder": 3}
                 for n in (1, 2) for d in ((-1, -1), (0, 0), (-2, 0), (1, -3))]
        grid += [{"kind": "measure_ratio", "shape": mu.to_json(), "kmax": 3}
                 for n in (1, 2, 3) for mu in enum_partitions(n) for _ in range(3)]
        return _seeded(grid, self.name, seed, rnd)

    def run(self, case, clock):
        conv = self.conv
        kind = case["kind"]
        if kind == "dtpt":
            # DT/PT vertex correspondence: Z_DT(lam) = e_lam Z_PT(lam) Z_DT(empty)
            lam, q = Partition(case["shape"]), case["qorder"]
            with clock.timed():
                s = sampling.sample_random(case["sample_seed"], self.L)
                dt = vertex.bare_dt(lam, q, (), s, conv)
                pt = vertex.bare_pt(("fixedpoint", lam), q, (), s, conv)
                dt0 = vertex.bare_dt(Partition(), q, (), s, conv)
            if (dt.shift, pt.shift, dt0.shift) != (0, 0, 0):
                raise Mismatch("nonzero q-shift")
            e = characters.euler_hilb(lam, s, conv)
            rhs = [e * c for c in _convolve(pt.scalar_series().coeffs, dt0.scalar_series().coeffs, q)]
            return {"compared": compare(dt.scalar_series().coeffs, rhs), "sample": s.to_json()}
        if kind == "glue":
            # local-curve factorization Z_DT = Z_PT * Z_DT0
            n, d, q = case["n"], tuple(case["degrees"]), case["qorder"]
            with clock.timed():
                s = sampling.sample_random(case["sample_seed"], self.L)
                zpt = localcurve.glue(localcurve.GlueRequest("PT", d, n, (), (), q, s, conv))
                zdt = localcurve.glue(localcurve.GlueRequest("DT", d, n, (), (), q, s, conv))
                z0 = localcurve.dt0_localcurve(d, s, q, conv)
            rhs = _convolve([c.coeff(()) for c in zpt], z0, q)
            return {"compared": compare(zdt, rhs), "sample": s.to_json()}
        # closed measure ratio against Exp(V^PT - V^DT), every depth vector
        mu = Partition(case["shape"])
        cells = mu.cells()
        pairs = []
        with clock.timed():
            s = sampling.sample_random(case["sample_seed"], self.L)
            for kv in product(range(case["kmax"] + 1), repeat=len(cells)):
                kmap = dict(zip(cells, kv))
                pairs.append((s.exp_extended(characters.measure_difference_char(mu, kmap, conv)),
                              residue.measure_ratio_extended(mu, kmap, s)))
        n = 0
        for (lv, lo), (rv, ro) in pairs:
            if lo != ro:
                raise Mismatch(f"zero order {lo} != {ro}")
            n += compare([lv], [rv])
        return {"compared": n, "sample": s.to_json()}


def _vertex_req(theory, shape, q, u, seed):
    req = {"type": "vertex", "theory": theory,
           "boundary": {"kind": "fixedpoint" if theory == "PT" else "leg", "shape": list(shape)},
           "qorder": q, "seed": seed}
    if u:
        req["descendents"] = [{"variable": "u", "order": u}]
    return req


def _glue_req(theory, n, degrees, q, seed):
    return {"type": "glue", "theory": theory, "n": n, "degrees": list(degrees),
            "qorder": q, "seed": seed}


def compute_pool(s1: int, s2: int):
    """One round's request pool (tag -> request) and the identities that
    check its results: ("dtpt", dt, pt, dt0), ("prefix", high, low),
    ("glue_indep", a, b) and ("glue_factor", dt, pt)."""
    pool = {"dt-": _vertex_req("DT", (), 5, 0, s1)}
    checks = []
    for lam, q in (((1,), 5), ((2,), 4), ((1, 1), 4), ((2, 1), 5)):
        k = "".join(map(str, lam))
        pool[f"dt{k}"] = _vertex_req("DT", lam, q, 0, s1)
        pool[f"pt{k}"] = _vertex_req("PT", lam, q, 0, s1)
        checks.append(("dtpt", f"dt{k}", f"pt{k}", "dt-"))
    for theory, lam, (qh, uh), (ql, ul) in (
        ("DT", (2, 1), (5, 4), (3, 2)), ("DT", (1,), (5, 4), (3, 2)),
        ("DT", (1, 1), (4, 4), (2, 2)), ("PT", (2, 1), (5, 4), (3, 2)),
        ("PT", (2,), (5, 4), (4, 2)),
    ):
        k = theory.lower() + "".join(map(str, lam))
        pool[f"{k}u-hi"] = _vertex_req(theory, lam, qh, uh, s1)
        pool[f"{k}u-lo"] = _vertex_req(theory, lam, ql, ul, s1)
        checks.append(("prefix", f"{k}u-hi", f"{k}u-lo"))
    for n, degrees, q in ((1, (-1, -1), 4), (1, (1, -3), 4), (2, (0, 0), 3)):
        k = f"{n}{''.join(map(str, degrees))}"
        pool[f"glue-pt{k}"] = _glue_req("PT", n, degrees, q, s1)
        pool[f"glue-dt{k}"] = _glue_req("DT", n, degrees, q, s1)
        checks.append(("glue_factor", f"glue-dt{k}", f"glue-pt{k}"))
    # in degree 1 the local (-1,-1) curve's PT series is a series of numbers,
    # the same at every sample (the identity `check_simple` asserts)
    pool["glue-pt1-1-1b"] = _glue_req("PT", 1, (-1, -1), 4, s2)
    checks.append(("glue_indep", "glue-pt1-1-1", "glue-pt1-1-1b"))
    return pool, checks


def _coeff_maps(result: dict) -> list[dict]:
    """The coefficient list of a stored result, parsed back to Fractions."""
    return [
        {tuple(int(x) for x in k.split(",")) if k else (): Fraction(v)
         for k, v in c["coeffs"].items()}
        for c in result["coeffs"]
    ]


def _sample_of(result: dict):
    d = result["sample"] if "sample" in result else result["request"]["sample"]
    return sampling.ParamSample(Fraction(d["t1"]), Fraction(d["t2"]), Fraction(d["t3"]),
                                d["L"], d["line"])


class ComputeCache(Workload):
    """A stream of `harness.compute` requests against a fresh cache.

    Each round draws a new pool (new sample seeds, hence new cache keys) and
    a fresh cache directory: every pool entry is requested once for the
    first time (a miss) and three times as many requests repeat an entry
    already requested, picked with Zipf popularity (hits), so exactly 3/4 of
    a round's requests are hits.
    """

    name = "compute-cache"
    HITS_PER_MISS = 3

    def start_round(self, rnd):
        self.cache_dir = os.path.join(self.tmp_dir, f"round-{rnd}")
        self.blobs: dict[str, bytes] = {}
        self.results: dict[str, dict] = {}

    def cases(self, seed, rnd):
        rng = random.Random(f"{self.name}:{seed}:{rnd}")
        s1 = rng.randrange(1, 10**9)
        pool, checks = compute_pool(s1, s1 + 1)
        # popularity is a property of the pool (Zipf over its fixed order),
        # so every seed requests the same kinds of entry equally often
        weight = {tag: 1 / (rank + 1) for rank, tag in enumerate(pool)}
        order = list(pool)
        rng.shuffle(order)
        misses, hits = len(order), self.HITS_PER_MISS * len(order)
        seen: list[str] = []
        pending = list(checks)
        stream = []
        while misses or hits:
            if misses and (not seen or rng.random() * (misses + hits) < misses):
                tag, hit = order[len(seen)], False
                seen.append(tag)
                misses -= 1
                done = [c for c in pending if all(t in seen for t in c[1:])]
                pending = [c for c in pending if c not in done]
            else:
                tag, hit, done = rng.choices(seen, [weight[t] for t in seen])[0], True, []
                hits -= 1
            stream.append({"entry": tag, "request": pool[tag], "expect_hit": hit,
                           "checks": [list(c) for c in done]})
        return stream

    def case_class(self, case):
        return "hit" if case["expect_hit"] else f"miss:{case['entry']}"

    def run(self, case, clock):
        request, tag = case["request"], case["entry"]
        with clock.timed():
            blob, hit = harness.compute(request, self.conv, self.cache_dir)
        if hit != case["expect_hit"]:
            raise Mismatch(f"{tag}: hit={hit}, expected {case['expect_hit']}")
        doc = json.loads(blob)
        if doc.get("key") != harness.request_key(request, self.conv):
            raise Mismatch(f"{tag}: blob does not carry its request key")
        # the result's nonzero coefficients: a hit compares them byte for byte
        # with its miss, and the round's identities compare a miss's
        n = sum(1 for m in _coeff_maps(doc["result"]) for c in m.values() if c)
        if hit:
            if blob != self.blobs[tag]:
                raise Mismatch(f"{tag}: hit is not byte-identical to its miss")
        else:
            if len(doc["result"]["coeffs"]) != request["qorder"] + 1:
                raise Mismatch(f"{tag}: {len(doc['result']['coeffs'])} coefficients")
            self.blobs[tag] = blob
            self.results[tag] = doc["result"]
        for kind, *tags in case["checks"]:
            if not getattr(self, f"_check_{kind}")(*tags):
                raise Mismatch(f"{kind} {tags}: every compared coefficient is zero")
        return {"compared": n, "sample": _sample_of(doc["result"]).to_json()}

    def _check_dtpt(self, dt, pt, dt0):
        res = self.results
        q = len(res[dt]["coeffs"]) - 1
        s = _sample_of(res[dt])
        e = characters.euler_hilb(Partition(res[pt]["boundary"][1]), s, self.conv)
        scalars = [[m.get((), 0) for m in _coeff_maps(res[t])] for t in (dt, pt, dt0)]
        rhs = [e * c for c in _convolve(scalars[1], scalars[2], q)]
        return compare(_coeff_maps(res[dt]), rhs)

    def _check_prefix(self, high, low):
        hi, lo = _coeff_maps(self.results[high]), _coeff_maps(self.results[low])
        u_low = self.results[low]["coeffs"][0]["orders"][0]
        cut = [{e: c for e, c in m.items() if e[0] <= u_low} for m in hi[: len(lo)]]
        return compare(lo, cut)

    def _check_glue_indep(self, a, b):
        return compare(_coeff_maps(self.results[a]), _coeff_maps(self.results[b]))

    def _check_glue_factor(self, dt, pt):
        req = self.results[dt]["request"]
        q = req["qorder"]
        z0 = localcurve.dt0_localcurve(tuple(req["degrees"]), _sample_of(self.results[dt]), q, self.conv)
        zpt = [m.get((), 0) for m in _coeff_maps(self.results[pt])]
        return compare(_coeff_maps(self.results[dt]), _convolve(zpt, z0, q))


WORKLOADS = {w.name: w for w in (CertifyResidue, LocalizeVertex, ComputeCache)}
