"""Minimum in-process round times of one benchmark workload, for two checkouts,
or their import times.

    python3 tools/round_times.py --base DIR --change DIR --workload localize-vertex \
        [--seed 7] [--rounds 10]
    python3 tools/round_times.py --base DIR --change DIR --setup 30

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

With `--setup N` it times instead what the benchmark's `setup_s` times: the
`SETUP_SNIPPET` of each checkout's `perfbench/run.py` (loaded without
running its `main`) in N fresh interpreters per checkout, each importing
its checkout's library. The checkouts alternate, and each timed interpreter
follows a discarded warm-up one. Prints each side's median and quartiles
over the N, and the ratio of the medians change/base. The benchmark's
`setup_s` is a median of 8 such interpreters per run, and on a shared host
single interpreters can fall into two modes a third apart, which moves a
median but hardly the first quartile; read the quartiles before the ratio,
and repeat the run when the two disagree.

The checkouts are read only: no bytecode is written into them (the
interpreters of `--setup` write theirs under a temporary
`PYTHONPYCACHEPREFIX`), and the workloads' caches go to one temporary
directory, removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import subprocess
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


def setup_times(base: Path, change: Path, repeats: int, tmp: str) -> dict:
    """{side: the setup snippet's times in `repeats` fresh interpreters},
    the sides alternating and each timed interpreter after a warm-up one;
    bytecode goes under `tmp`."""
    runs = {}
    for side, checkout in zip(SIDES, (base, change)):
        checkout = checkout.resolve()
        spec = importlib.util.spec_from_file_location(f"run_{side}", checkout / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        env = {k: v for k, v in os.environ.items()
               if k not in run.ISOLATED_ENV and k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PYTHONPATH=str(checkout / "src"), PYTHONPYCACHEPREFIX=tmp)
        runs[side] = ([sys.executable, "-c", run.SETUP_SNIPPET], env, checkout)
    times: dict = {side: [] for side in SIDES}
    for k in range(repeats):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            argv, env, cwd = runs[side]
            for _warm_up in (True, False):
                out = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                                     check=True, timeout=120)
            times[side].append(float(out.stdout))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--setup", type=int, metavar="N",
                    help="time N fresh interpreters' imports per checkout instead of a workload")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.setup is not None and args.setup < 2:
        ap.error("--setup must be at least 2: quartiles need two times")
    if args.setup is None and args.workload is None:
        ap.error("one of --workload and --setup is required")
    sys.dont_write_bytecode = True
    if args.setup is not None:
        with tempfile.TemporaryDirectory(prefix="round-times-") as tmp:
            times = setup_times(args.base, args.change, args.setup, tmp)
        print(f"{'median ms':>10} {'q1 ms':>8} {'q3 ms':>8}  side "
              f"({args.setup} interpreters each, after a warm-up each)")
        for side in SIDES:
            q1, med, q3 = statistics.quantiles(times[side], n=4)
            print(f"{med * 1e3:10.2f} {q1 * 1e3:8.2f} {q3 * 1e3:8.2f}  {side}")
        ratio = statistics.median(times["change"]) / statistics.median(times["base"])
        print(f"{ratio:10.3f}  ratio of the medians, change/base")
        return 0
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
