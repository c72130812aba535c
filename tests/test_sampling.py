import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import vertexforge
from vertexforge.sampling import _is_generic, sample_random, seeded_samples


def test_determinism():
    a = sample_random(1, 6)
    b = sample_random(1, 6)
    assert (a.t1, a.t2, a.t3) == (b.t1, b.t2, b.t3)


def test_genericity_postcondition():
    s = sample_random(1, 6)
    for i, j, k in product(range(-6, 7), repeat=3):
        if (i, j, k) == (0, 0, 0):
            continue
        assert i * s.t1 + j * s.t2 + k * s.t3 != 0


def test_constrained_mode():
    s = sample_random(3, 8, line=1)
    assert s.t1 + s.t2 - s.t3 == 0
    # generic among relations not implied by the line
    for i, j, k in product(range(-8, 9), repeat=3):
        on_line = i == j and k == -j
        val = i * s.t1 + j * s.t2 + k * s.t3
        assert (val == 0) == on_line


def test_heights():
    s = sample_random(5, 10)
    for t in (s.t1, s.t2, s.t3):
        assert max(abs(t.numerator), t.denominator) >= 1000


def test_triple_distinct():
    ss = seeded_samples(9, 8, 3)
    assert len({(s.t1, s.t2, s.t3) for s in ss}) == 3


def test_seeded_samples_prefix():
    # the first three samples are the ones every check has always used
    ss = seeded_samples(9, 8, 5)
    assert ss[:3] == [sample_random(9 + 101 * i, 8) for i in range(3)]
    assert seeded_samples(9, 8, 3) == ss[:3]
    assert len({(s.t1, s.t2, s.t3) for s in ss}) == 5


def test_bad_bound():
    with pytest.raises(ValueError):
        sample_random(1, 0)


def test_substituted():
    s = sample_random(7, 10)
    # MNOP1's weights at infinity: t_i - d_i t3, -t3
    sub = s.substituted(-1, 2)
    assert sub.t1 == s.t1 + s.t3
    assert sub.t2 == s.t2 - 2 * s.t3
    assert sub.t3 == -s.t3


def _generic_brute(t1, t2, t3, L, line):
    for i, j, k in product(range(-L, L + 1), repeat=3):
        vanishes = i * t1 + j * t2 + k * t3 == 0
        allowed = (i, j, k) == (0, 0, 0) if line is None else (i == j and k == -line * j)
        if vanishes != allowed:
            return False
    return True


def test_is_generic_matches_triple_loop():
    values = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2)]
    seen = set()
    for n, (t1, t3) in enumerate(product(values, repeat=2)):
        t2 = values[(5 * n) % len(values)]
        for L in (1, 3):
            for line in (None, 1, 2):
                u2 = t2 if line is None else line * t3 - t1
                expect = _generic_brute(t1, u2, t3, L, line)
                assert _is_generic(t1, u2, t3, L, line) == expect, (t1, u2, t3, L, line)
                seen.add((line is None, expect))
    assert len(seen) == 4  # generic and non-generic, off and on a line
    # random draws at bounds up to 20: small values, often non-generic, and
    # sample-sized ones, off the line and on the lines c = 0, +-1, 2 (a fifth
    # of those drawn off their line, where the line's relations fail)
    rng = random.Random(20)
    seen = set()
    for _ in range(200):
        L = rng.randint(1, 20)
        line = rng.choice((None, 0, 1, -1, 2))
        t1, t2, t3 = (Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.5
                      else Fraction(rng.randint(-5000, 5000), rng.randint(1000, 5000)) for _ in range(3))
        if line is not None and rng.random() < 0.8:
            t2 = line * t3 - t1
        # the brute force runs on the integer multiples over the common
        # denominator, which vanish on the same forms (and run faster)
        d = t1.denominator * t2.denominator * t3.denominator
        expect = _generic_brute(int(t1 * d), int(t2 * d), int(t3 * d), L, line)
        assert _is_generic(t1, t2, t3, L, line) == expect, (t1, t2, t3, L, line)
        seen.add((line, expect))
    assert len(seen) == 10


def test_no_numpy_import():
    src = str(Path(vertexforge.__file__).resolve().parents[1])
    code = "import sys, vertexforge.harness; sys.exit(2 if 'numpy' in sys.modules else 0)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_no_dataclasses_or_inspect_import():
    # importing dataclasses pulls in inspect, ast, dis and tokenize
    src = str(Path(vertexforge.__file__).resolve().parents[1])
    code = ("import sys, vertexforge.harness, vertexforge.residue, vertexforge.localcurve; "
            "sys.exit(2 if {'dataclasses', 'inspect'} & set(sys.modules) else 0)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
