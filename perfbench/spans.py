"""Spans around the library's public functions, recorded from outside it.

`Tracer.install()` rebinds every module-level name in `vertexforge.*` that
refers to a traced function (modules import each other with
`from .x import f`, so `vertexforge.harness.bare_pt` and
`vertexforge.vertex.bare_pt` are separate bindings), and replaces the traced
methods on their classes. `uninstall()` restores the originals. Spans are
recorded only inside an operation (`begin_op` .. `end_op`), so the
benchmark's own correctness checks never show up as library time.

Hot internals (`zp_mul`, `Fraction`, `LaurentPoly.__mul__`) are deliberately
not wrapped: they run hundreds of thousands of times per operation and a
wrapper there would measure itself.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("partitions", "characters", "laurent", "series", "sampling",
           "vertex", "residue", "localcurve", "harness")

WAITING = "none: every layer runs in the calling thread with no queue, so no layer has waiting time"


def _len(result):
    return len(result)


def _integrand_size(result):
    term, desc_poly = result
    return len(term.poly) + len(desc_poly or ())


def _compute_blob(result):
    return len(result[0])


# (span name, module, attribute, method-of class or None, size of one result)
TRACED = (
    ("partitions.enum", "partitions", "enum_rpp", None, _len),
    ("partitions.enum", "partitions", "enum_legged_pp", None, _len),
    ("partitions.enum", "partitions", "enum_partitions", None, _len),
    ("characters.weight", "characters", "pt_weight", None, None),
    ("characters.weight", "characters", "dt_weight", None, None),
    ("characters.descendent", "characters", "descendent_char", None, None),
    ("characters.measure_difference", "characters", "measure_difference_char", None, None),
    ("laurent.reduce", "laurent", "reduce", "EquivariantCharacter", _len),
    ("laurent.exp_pleth", "laurent", "exp_pleth", None, None),
    ("laurent.exp_pleth", "laurent", "exp_pleth_extended", None, None),
    ("series.desc_mul", "series", "__mul__", "DescSeries", None),
    ("sampling.sample", "sampling", "sample_random", None, None),
    ("vertex.bare_pt", "vertex", "bare_pt", None, None),
    ("vertex.bare_dt", "vertex", "bare_dt", None, None),
    ("residue.integrand", "residue", "pt_vertex_integrand", None, _integrand_size),
    ("residue.bucket", "residue", "residue_sum_series", None, None),
    ("residue.sum", "residue", "residue_sum", None, None),
    ("residue.egl", "residue", "egl_residue", None, None),
    ("residue.measure_ratio", "residue", "measure_ratio_extended", None, None),
    ("localcurve.glue", "localcurve", "glue", None, None),
    ("localcurve.dt0", "localcurve", "dt0_localcurve", None, None),
    ("harness.compute", "harness", "compute", None, _compute_blob),
)

# per-layer metric -> (unit, how it is derived); see `Tracer.layer_metrics`
LAYER_UNITS = {
    "partitions.enum_s": "s", "partitions.fixed_points": "count",
    "characters.weight_s": "s", "characters.weight_calls": "count",
    "characters.descendent_s": "s", "characters.measure_difference_s": "s",
    "laurent.reduce_s": "s", "laurent.exp_pleth_s": "s", "laurent.reduced_terms": "count",
    "series.desc_mul_s": "s", "series.desc_mul_calls": "count",
    "sampling.sample_s": "s", "sampling.samples": "count",
    "vertex.bare_pt_s": "s", "vertex.bare_dt_s": "s",
    "residue.integrand_s": "s", "residue.kvectors": "count",
    "residue.integrand_monomials": "count", "residue.integrand_monomials_max": "count",
    "residue.bucket_s": "s", "residue.buckets": "count", "residue.nonzero_bucket_ratio": "ratio",
    "residue.sum_s": "s", "residue.egl_s": "s", "residue.measure_ratio_s": "s",
    "localcurve.glue_s": "s", "localcurve.dt0_s": "s",
    "harness.compute_hit_s": "s", "harness.compute_miss_self_s": "s",
    "harness.cache_hits": "count", "harness.cache_misses": "count",
    "harness.cache_hit_ratio": "ratio", "harness.bytes_written": "B",
    **{f"{m}.errors": "count" for m in MODULES},
    **{f"{m}.self_share": "ratio" for m in MODULES},
    "trace.op_s": "s", "trace.covered_share": "ratio", "trace.other_s": "s",
    "trace.ops_per_s_traced": "1/s", "trace.ops_per_s_untraced": "1/s", "trace.overhead": "ratio",
}

# per-layer time metric -> the span name whose self times it sums
_SELF_TIMES = {
    "partitions.enum_s": "partitions.enum",
    "characters.weight_s": "characters.weight",
    "characters.descendent_s": "characters.descendent",
    "characters.measure_difference_s": "characters.measure_difference",
    "laurent.reduce_s": "laurent.reduce",
    "laurent.exp_pleth_s": "laurent.exp_pleth",
    "series.desc_mul_s": "series.desc_mul",
    "sampling.sample_s": "sampling.sample",
    "vertex.bare_pt_s": "vertex.bare_pt",
    "vertex.bare_dt_s": "vertex.bare_dt",
    "residue.integrand_s": "residue.integrand",
    "residue.bucket_s": "residue.bucket",
    "residue.sum_s": "residue.sum",
    "residue.egl_s": "residue.egl",
    "residue.measure_ratio_s": "residue.measure_ratio",
    "localcurve.glue_s": "localcurve.glue",
    "localcurve.dt0_s": "localcurve.dt0",
    "harness.compute_hit_s": "harness.compute_hit",
    "harness.compute_miss_self_s": "harness.compute_miss",
}


class Tracer:
    """Span recorder. A span is [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[str, list[tuple]] = defaultdict(list)  # name -> [(op, size)]
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = None
        self._restore: list[tuple] | None = None

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op_id = op_id
        self._stack = [len(self.spans)]
        self.spans.append(["op", perf_counter(), None, -1, op_id])

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = perf_counter()
        self._stack = []
        self._op_id = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, size):
        module = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, perf_counter(), None, self._stack[-1], self._op_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name == "harness.compute":
                span[0] = "harness.compute_hit" if result[1] else "harness.compute_miss"
            if name == "residue.sum" and self.spans[span[3]][0] == "residue.bucket":
                self.sizes["residue.bucket_nonzero"].append((span[4], 1 if result else 0))
            if size is not None:
                self.sizes[span[0]].append((span[4], size(result)))
            return result

        return traced

    def _bindings(self) -> list[tuple]:
        """(owner, name, original, wrapper) for every binding of a traced
        function in a loaded `vertexforge` module."""
        import vertexforge.harness  # noqa: F401  (loads every traced module)
        import vertexforge.localcurve  # noqa: F401
        import vertexforge.residue  # noqa: F401

        pkg = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "vertexforge" or k.startswith("vertexforge."))]
        out = []
        for name, mod, attr, cls, size in TRACED:
            home = sys.modules[f"vertexforge.{mod}"]
            # a method is bound on its class, under every alias (__rmul__)
            owners = [getattr(home, cls)] if cls else pkg
            orig = vars(owners[0])[attr] if cls else getattr(home, attr)
            wrapped = self._wrap(name, orig, size)
            out += [(m, key, orig, wrapped) for m in owners
                    for key, value in vars(m).items() if value is orig]
        return out

    def install(self) -> None:
        if self._restore is None:
            self._restore = self._bindings()
        for owner, key, _, wrapped in self._restore:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._restore or ():
            setattr(owner, key, orig)

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, weight=lambda op: 1.0) -> dict[str, float]:
        """Every per-layer metric except trace.ops_per_s_* and
        trace.overhead, which need the untraced operations. The spans and
        sizes of operation `op` count `weight(op)` times; a layer's self time
        is its spans' durations minus the parts their child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: dict[str, float] = defaultdict(float)
        count: dict[str, float] = defaultdict(int)  # stays exact for Fraction weights
        op_s = 0.0
        for i, (name, start, end, _, op) in enumerate(self.spans):
            w = weight(op)
            selfs[name] += w * (end - start - child[i])
            count[name] += w
            if name == "op":
                op_s += w * (end - start)

        def total(key):
            return sum(weight(op) * size for op, size in self.sizes[key])

        out: dict[str, float] = {m: selfs[name] for m, name in _SELF_TIMES.items()}
        out["partitions.fixed_points"] = total("partitions.enum")
        out["characters.weight_calls"] = count["characters.weight"]
        out["laurent.reduced_terms"] = total("laurent.reduce")
        out["series.desc_mul_calls"] = count["series.desc_mul"]
        out["sampling.samples"] = count["sampling.sample"]
        out["residue.kvectors"] = count["residue.integrand"]
        out["residue.integrand_monomials"] = total("residue.integrand")
        out["residue.integrand_monomials_max"] = max(
            (size for _, size in self.sizes["residue.integrand"]), default=0)
        buckets = sum(weight(op) for op, _ in self.sizes["residue.bucket_nonzero"])
        out["residue.buckets"] = buckets
        out["residue.nonzero_bucket_ratio"] = total("residue.bucket_nonzero") / buckets if buckets else 0.0
        hits, misses = count["harness.compute_hit"], count["harness.compute_miss"]
        out["harness.cache_hits"] = hits
        out["harness.cache_misses"] = misses
        out["harness.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["harness.bytes_written"] = total("harness.compute_miss")
        for m in MODULES:
            out[f"{m}.errors"] = self.errors[m]
            share = sum(v for k, v in selfs.items() if k.split(".")[0] == m)
            out[f"{m}.self_share"] = share / op_s if op_s else 0.0
        out["trace.op_s"] = op_s
        out["trace.other_s"] = selfs["op"]
        out["trace.covered_share"] = 1 - selfs["op"] / op_s if op_s else 0.0
        return {k: float(v) for k, v in out.items()}

    def spans_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
