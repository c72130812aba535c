"""Paired benchmark runs of two checkouts.

    python3 tools/bench_pairs.py --base DIR --change DIR --label NAME \
        --workload certify-residue [--workload ...] --seed0 2001

For each workload and each of 10 pairs i, runs `perfbench/run.py --seed
seed0+i` for the change checkout's `BENCHMARK.json` `run_seconds` once in
each checkout, one after the other; even pairs run the base first, odd
pairs the change first, so a drift of the host's speed favours neither
side. Writes every run's result line, and per end-to-end metric (from the
same `BENCHMARK.json`) the median and quartiles of each side, the median
ratio change/base, the number of pairs the change wins and
`worse_beyond_bound` (the change's median is worse than the base's by more
than the metric's bound, the benchmark's rejection rule) with `bound_used`
(how far the change's median moved in the worse direction, as a share of
the bound: 0 when the metric did not get worse, 1 at the bound), plus each
side's median number of operations (`attempted`, against which a
`peak_rss_mb` that grows with throughput reads), to `BENCH_<label>.json` in
the working directory. `rss_per_op` is informational: the least-squares slope of
`peak_rss_mb` on `attempted` over all runs of a workload, in KB per op, and
each side's median `peak_rss_mb` moved along it to the base's median
`attempted`, which separates the memory the library uses from the memory
the runner's per-op records take, and `ops_at_bound`, the op count at which
that slope would carry the base's median `peak_rss_mb` to its bound.
Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line (last line of standard output) of one run.

    Standard output goes to a temporary file, and only the result line is
    read back: a launcher that held each run's report in memory would raise
    the peak resident size that every later child inherits."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile() as out:
        proc = subprocess.run(cmd, cwd=checkout, stdout=out, stderr=subprocess.PIPE, text=True,
                              timeout=20 * seconds + 600)
        last = _last_line(out)
    if proc.returncode not in (0, 1) or not last:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(last)


def _last_line(f, block: int = 1 << 16) -> bytes:
    """The last non-blank line of the binary file f, read in blocks from
    its end."""
    end = f.seek(0, os.SEEK_END)
    tail = b""
    while end > 0:
        start = max(0, end - block)
        f.seek(start)
        tail = f.read(end - start) + tail
        end = start
        lines = tail.rstrip().splitlines()
        if len(lines) > 1 or (lines and end == 0):
            return lines[-1]
    return b""


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        worse = (qb["median"] - qc["median"]) if higher else (qc["median"] - qb["median"])
        allowed = m["bound"] * abs(qb["median"])
        out[name] = {
            "better": m["better"], "bound": m["bound"],
            "base": qb, "change": qc,
            "ratio": qc["median"] / qb["median"] if qb["median"] else None,
            "wins": wins, "pairs": len(runs),
            "median_gain_exceeds_base_iqr": -worse > qb["iqr"],
            "worse_beyond_bound": worse > allowed,
            "bound_used": max(worse, 0) / allowed if allowed else None,
        }
    return out


def rss_per_op(runs: list[dict], bound: float) -> dict:
    """`peak_rss_mb` against `attempted`: the least-squares slope over both
    sides' runs in KB per op (None when every run attempted as many ops),
    each side's median `peak_rss_mb` moved along it to the base's median
    `attempted`, and `ops_at_bound`, the `attempted` count at which the slope
    takes the base's median `peak_rss_mb` to `bound` past it (None without a
    positive slope)."""
    sides = ("base", "change")
    ops = {side: [r[side]["attempted"] for r in runs] for side in sides}
    rss = {side: [r[side]["metrics"]["peak_rss_mb"]["value"] for r in runs] for side in sides}
    try:
        slope = statistics.linear_regression(ops["base"] + ops["change"],
                                             rss["base"] + rss["change"]).slope
    except statistics.StatisticsError:
        slope = None
    at = statistics.median(ops["base"])
    return {
        "kb_per_op": None if slope is None else slope * 1024,
        "at_attempted": at,
        "ops_at_bound": at + bound * statistics.median(rss["base"]) / slope
        if slope is not None and slope > 0 else None,
        "peak_rss_mb_at_base_ops": {
            side: None if slope is None
            else statistics.median(rss[side]) + slope * (at - statistics.median(ops[side]))
            for side in sides},
    }


def git_commit(checkout: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed0", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    rss_bound = next(m["bound"] for m in metrics if m["name"] == "peak_rss_mb")
    doc = {
        "label": args.label,
        "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": seconds, "pairs": PAIRS,
        "seeds": [args.seed0 + i for i in range(PAIRS)],
        "base": {"checkout": args.base.name, "commit": git_commit(args.base)},
        "change": {"checkout": args.change.name, "commit": git_commit(args.change)},
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor() or None},
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i in range(PAIRS):
            seed = args.seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            row = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                t0 = time.time()
                row[side] = run_once(getattr(args, side), workload, seed, seconds)
                print(f"{workload} pair {i} {side}: correct={row[side]['correct']} "
                      f"ops_per_s={row[side]['metrics']['ops_per_s']['value']:.2f} "
                      f"({time.time() - t0:.0f} s)", file=sys.stderr, flush=True)
            runs.append(row)
        doc["workloads"][workload] = {
            "all_correct": all(r[s]["correct"] for r in runs for s in ("base", "change")),
            "attempted": {side: statistics.median(r[side]["attempted"] for r in runs)
                          for side in ("base", "change")},
            "summary": summarize(runs, metrics),
            "rss_per_op": rss_per_op(runs, rss_bound),
            "runs": runs,
        }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
