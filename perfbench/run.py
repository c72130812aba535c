"""vertexforge benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory. The run executes the workload's seeded case list round
after round, closed loop, one client, one thread, until S seconds have
passed and at least one whole round is done. Every 0.2 s, between two
operations, a short fixed loop reads the host's speed; each operation's time
is rescaled by the readings on either side of it to the reference host (see
perfbench/README.md, Host speed). The last line of standard output is the
result `{"correct", "attempted", "failed", "metrics"}`; the line before it
is the full report (provenance, every operation with its case, sample and
raw times, the readings, and with --trace 1 every span). The run writes only into a
temporary `.perfbench-tmp-*` directory in the checkout (caches and bytecode)
and removes it at exit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ISOLATED_ENV = ("VERTEXFORGE_CACHE", "VERTEXFORGE_CONVENTION")
WORKLOAD_NAMES = ("certify-residue", "localize-vertex", "compute-cache")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SMOOTH_POINTS = 5  # percentiles are averaged over p - 5 .. p + 5
SETUP_REPEATS = 8  # fresh interpreters timed before the workload, and again after it
PROBE_EVERY_S = 0.2  # the host's speed is read again before the first op after this interval
REF_PROBE_S = 0.004  # time of one `host_probe()` on the reference host; see README, Host speed
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import vertexforge.harness, vertexforge.residue, vertexforge.localcurve\n"
    "vertexforge.harness.load_default_convention()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _child_env() -> dict:
    """Environment of a setup interpreter: bytecode is written, whatever the
    caller's PYTHONDONTWRITEBYTECODE, but only under `sys.pycache_prefix`."""
    env = {k: v for k, v in os.environ.items()
           if k not in ISOLATED_ENV and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    return env


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Import + convention-load times of `repeats` fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_child_env(), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return times


def host_probe() -> float:
    """Time of a fixed pure-Python `Fraction` loop (about 4 ms): a reading
    of the host's speed, which on a shared host drifts by up to a factor of
    two from second to second. The garbage collector is held off, so the
    objects the library keeps alive cannot slow the reading."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = Fraction(0)
        for i in range(1, 500):
            x += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i + 1)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


def tail_percentile(ops_per_round: int) -> float:
    """Highest ladder percentile with at least ten operations of one round
    beyond it; fixed per workload, so runs of any length compare."""
    for p in TAIL_LADDER:
        if ops_per_round * (100 - p) / 100 >= 10:
            return p
    return 50.0


class Mix:
    """Statistics of a run weighted to one round's mix of case classes.

    A run stops at its deadline, usually inside a round, so its operations
    over-represent some classes. Weighting each operation by (the class's
    count in one round) / (the class's count in the run) gives every run the
    same mix, whatever the seed's order and wherever the deadline fell.
    """

    def __init__(self, rows, per_round: Counter, raw: bool = False):
        """Times are read as measured with `raw`, otherwise rescaled to the
        reference host (`wall_ref`, `seconds_ref`)."""
        seen = Counter(r["class"] for r in rows)
        self.rows = rows
        self.wall, self.seconds = ("wall", "seconds") if raw else ("wall_ref", "seconds_ref")
        self.weight = {c: Fraction(per_round[c], seen[c]) for c in seen}  # exact counts
        self.total = sum(per_round[c] for c in seen)

    def ops_per_s(self) -> float:
        """Operations of one round / expected wall time (run + check) of one round."""
        return self.total / float(sum(self.weight[r["class"]] * r[self.wall] for r in self.rows))

    def percentile(self, p: float) -> float:
        """Weighted p-th percentile of operation time, smoothed: the mean of
        the quantile function over p ± SMOOTH_POINTS. A bare order statistic
        jumps between neighbouring case classes whose costs differ by 30%."""
        lo_q = max(Fraction(str(p - SMOOTH_POINTS)), Fraction(0)) / 100 * self.total
        hi_q = min(Fraction(str(p + SMOOTH_POINTS)), Fraction(100)) / 100 * self.total
        acc, area = 0, 0.0
        for r in sorted(self.rows, key=lambda r: r[self.seconds]):
            lo, acc = acc, acc + self.weight[r["class"]]
            overlap = min(acc, hi_q) - max(lo, lo_q)
            if overlap > 0:
                area += r[self.seconds] * float(overlap)
        return area / float(hi_q - lo_q)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         timeout=30)
    return out.stdout.strip() or None


class Clock:
    """Times an operation's library calls and opens its trace scope."""

    def __init__(self, tracer, op_id):
        self.tracer, self.op_id, self.elapsed = tracer, op_id, 0.0

    @contextmanager
    def timed(self):
        if self.tracer:
            self.tracer.begin_op(self.op_id)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.elapsed += perf_counter() - t0
            if self.tracer:
                self.tracer.end_op()


def _run_op(workload, case, tracer, row):
    from workloads import Mismatch

    clock = Clock(tracer, row["op"])
    if tracer:
        tracer.install()
    t0 = perf_counter()
    try:
        row.update(workload.run(case, clock))
        row["ok"] = row["compared"] > 0
        if not row["ok"]:
            row["error"] = "vacuous: every compared coefficient is zero"
    except Mismatch as exc:
        row.update(ok=False, error=f"mismatch: {exc}")
    except Exception as exc:  # an operation that raises is a failed one
        row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    finally:
        row["wall"] = perf_counter() - t0
        if tracer:
            tracer.uninstall()
    row["seconds"] = clock.elapsed
    return row


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str, ops=None):
    """Run the workload's cases, round after round, until `seconds` have
    passed (or, when `ops` is given, for exactly that many operations);
    return (result, report). With `trace`, every case runs twice, untraced
    and traced, on two workload instances with separate caches; both live
    under the directory `work`."""
    import vertexforge
    from spans import LAYER_UNITS, WAITING, Tracer
    from vertexforge import harness
    from workloads import WORKLOADS

    conv = harness.load_default_convention()
    tracer = Tracer() if trace else None
    passes = [("plain", None)] + ([("traced", tracer)] if trace else [])
    records: list[dict] = []
    done = 0
    instances = [(label, WORKLOADS[name](conv, os.path.join(work, label)), tr)
                 for label, tr in passes]
    start, rnd, per_round = perf_counter(), 0, None
    probes, probe_at = [host_probe()], [0.0]

    def running() -> bool:
        if ops is not None:
            return done < ops
        # at least one whole round, so every class of the mix is measured
        return rnd == 0 or perf_counter() - start < seconds

    while running():
        cases = instances[0][1].cases(seed, rnd)
        per_round = per_round or Counter(instances[0][1].case_class(c) for c in cases)
        for _, workload, _ in instances:
            workload.start_round(rnd)
        for case in cases:
            if not running():
                break
            if perf_counter() - start - probe_at[-1] >= PROBE_EVERY_S:
                probes.append(host_probe())
                probe_at.append(perf_counter() - start)
            # alternate which pass goes first, so warm caches favour neither
            for label, workload, tr in instances[:: 1 if done % 2 == 0 else -1]:
                row = {"op": len(records), "round": rnd, "pass": label,
                       "class": workload.case_class(case), "case": case,
                       "probe": len(probes) - 1, "start": perf_counter() - start}
                records.append(_run_op(workload, case, tr, row))
            done += 1
        rnd += 1

    if not done:
        raise RuntimeError("no operation ran: a run with zero operations is an error")
    probes.append(host_probe())
    probe_at.append(perf_counter() - start)
    # each operation is rescaled to the reference host, on which one reading
    # takes REF_PROBE_S, by the mean of the readings on either side of it
    for r in records:
        scale = REF_PROBE_S / statistics.fmean(probes[r["probe"]: r["probe"] + 2])
        r["wall_ref"], r["seconds_ref"] = r["wall"] * scale, r["seconds"] * scale
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0
    mix = {label: Mix([r for r in records if r["pass"] == label], per_round)
           for label, _ in passes}
    pct = tail_percentile(sum(per_round.values()))
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "rounds": rnd,
        "provenance": {
            "seed": seed, "git_commit": git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "vertexforge_version": vertexforge.__version__,
            "vertexforge_path": vertexforge.__file__, "convention": conv.to_json(),
        },
        "loop": "closed, one client, one thread",
        "ops_per_round": sum(per_round.values()), "tail_percentile": pct,
        "attempted": len(records), "failed": failed,
        "failed_frac": failed / len(records),
        "waiting": WAITING,
        "host_probe_s": {"median": statistics.median(probes), "reference": REF_PROBE_S,
                         "times": probes, "at": probe_at},
    }
    if trace:
        raw = tracer.layer_metrics()
        weight = mix["traced"].weight
        op_class = {r["op"]: r["class"] for r in records}
        metrics = tracer.layer_metrics(lambda op: weight[op_class[op]])
        rate = {label: m.ops_per_s() for label, m in mix.items()}
        metrics["trace.ops_per_s_traced"] = rate["traced"]
        metrics["trace.ops_per_s_untraced"] = rate["plain"]
        metrics["trace.overhead"] = rate["plain"] / rate["traced"] - 1
        traced_cases = [r["case"] for r in records if r["pass"] == "traced"]
        if any("expect_hit" in c for c in traced_cases):
            expected = sum(c["expect_hit"] for c in traced_cases)
            report["expected_cache_hits"] = expected
            correct = correct and raw["harness.cache_hits"] == expected and \
                raw["harness.cache_misses"] == len(traced_cases) - expected
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in LAYER_UNITS.items()}
        report["spans"] = tracer.spans_json()
    else:
        raw = Mix(mix["plain"].rows, per_round, raw=True)
        report["raw_metrics"] = {"ops_per_s": raw.ops_per_s(), "latency_p50_s": raw.percentile(50),
                                 "latency_tail_s": raw.percentile(pct)}
        result_metrics = {
            "ops_per_s": {"value": mix["plain"].ops_per_s(), "unit": "1/s"},
            "latency_p50_s": {"value": mix["plain"].percentile(50), "unit": "s"},
            "latency_tail_s": {"value": mix["plain"].percentile(pct), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    report["ops"] = records
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": result_metrics}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "vertexforge" / "__init__.py").is_file():
        print(f"error: no vertexforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ISOLATED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    # the checkout is the only place a run may write: caches and bytecode go
    # to one temporary directory in it, removed at exit
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as work:
        sys.pycache_prefix = os.path.join(work, "pycache")
        if not args.trace:
            measure_setup(1)  # unrecorded: compiles the bytecode of every imported module
            setup = measure_setup()
        try:
            result, report = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace), work)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not args.trace:
            setup += measure_setup()
            report["setup_times_s"] = setup
            # import time is mostly file and process work, which the
            # host-speed reading does not track: it is reported as measured
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
