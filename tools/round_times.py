"""Minimum in-process round times of one benchmark workload, for two checkouts.

    python3 tools/round_times.py --base DIR --change DIR --workload localize-vertex \
        [--seed 7] [--rounds 10]

Loads each checkout's `src/vertexforge` and `perfbench/workloads.py` into
this one process, each checkout under its own module objects, and runs the
workload's round 0 of `--seed` `--rounds` times in each checkout,
alternately: even rounds run the base first, odd rounds the change first.
Every round does the same work, so the minimum over the rounds is the
least disturbed reading. An operation is timed as the benchmark times it
(only its calls into the library, `clock.timed()`), and its exact check runs
as in the benchmark; a failed check raises. Prints, per case class and for
the whole round, each side's minimum over the rounds of the summed time and
the ratio change/base. A few seconds of rounds size a change that a 30 s
pair (`tools/bench_pairs.py`) then confirms.

The checkouts are read only: no bytecode is written, and the workloads'
caches go to one temporary directory, removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SIDES = ("base", "change")


class Clock:
    """The benchmark's operation clock: sums the time inside `timed()`."""

    def __init__(self):
        self.elapsed = 0.0

    @contextmanager
    def timed(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.elapsed += perf_counter() - t0


def _ours(name: str) -> bool:
    return name.split(".")[0] in ("vertexforge", "workloads")


def load_workloads(checkout: Path):
    """The checkout's `perfbench/workloads.py` module, importing the
    checkout's own `vertexforge` package afresh. The new modules live on
    through the module objects that refer to them; `sys.modules` is left as
    it was, so loads of two checkouts, and the caller's own imports, do not
    meet."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _ours(name)}
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    try:
        return importlib.import_module("workloads")
    finally:
        del sys.path[:2]
        for name in [name for name in sys.modules if _ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def run_round(mod, workload, seed: int, tag: int) -> dict:
    """{case class: summed operation time} of one run of round 0; `tag`
    names the round's cache directory, new for every run."""
    workload.start_round(tag)
    times: dict = defaultdict(float)
    for case in workload.cases(seed, 0):
        clock = Clock()
        if not workload.run(case, clock)["compared"]:
            raise mod.Mismatch(f"every compared coefficient is zero: {case}")
        times[workload.case_class(case)] += clock.elapsed
    return times


def round_times(base: Path, change: Path, workload: str, seed: int, rounds: int, tmp: str) -> dict:
    """{side: {case class: minimum over the rounds of its summed time}},
    with the whole round's minimum under the class "round"."""
    for var in ("VERTEXFORGE_CACHE", "VERTEXFORGE_CONVENTION"):
        os.environ.pop(var, None)
    runners = {}
    for side, checkout in zip(SIDES, (base, change)):
        mod = load_workloads(checkout.resolve())
        conv = mod.harness.load_default_convention()
        runners[side] = (mod, mod.WORKLOADS[workload](conv, os.path.join(tmp, side)))
    best: dict = {side: {} for side in SIDES}
    for k in range(rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            gc.collect()
            times = run_round(*runners[side], seed, k)
            times["round"] = sum(times.values())
            for cls, t in times.items():
                best[side][cls] = min(t, best[side].get(cls, t))
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="round-times-") as tmp:
        best = round_times(args.base, args.change, args.workload, args.seed, args.rounds, tmp)
    print(f"{'base ms':>10} {'change ms':>10} {'ratio':>6}  class "
          f"(minimum of {args.rounds} rounds, seed {args.seed})")
    for cls in sorted(best["base"], key=lambda c: (c == "round", -best["base"][c])):
        b, c = best["base"][cls], best["change"][cls]
        print(f"{b * 1e3:10.2f} {c * 1e3:10.2f} {c / b:6.3f}  {cls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
