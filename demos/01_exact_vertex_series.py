"""Fixed points, localization weights, and bare vertex series.

Everything is exact rational arithmetic: a "computation" picks generic
rational values for the torus weights (t1, t2, t3), builds each fixed
point's equivariant character, and evaluates the virtual weight through the
plethystic exponential.  Run as a script; every printed equality is exact.
"""

from vertexforge import Partition, enum_legged_pp, enum_rpp, sample_random
from vertexforge.characters import (
    DescendentSpec,
    dt_weight,
    pt_weight,
    vertex_char_dt,
    vertex_char_pt,
)
from vertexforge.vertex import bare_dt, bare_pt

s = sample_random(seed=1, L=12)
print(f"generic sample: t1 = {s.t1}, t2 = {s.t2}, t3 = {s.t3}")

# --- stable-pairs fixed points on a one-cell leg -----------------------------
# A fixed point is a reverse plane partition: column depths k >= 0 on the
# cells of the cross-section, weakly increasing along rows and columns.
print("\nstable-pairs weights on the single-cell leg:")
for cfg in enum_rpp(Partition([1]), 3):
    v = vertex_char_pt(cfg)
    print(f"  k = {cfg.k[0][0]}: V = {v!r},  Exp(-V) = {pt_weight(cfg, s)}")

# The k = 1 weight is (t1 + t2)/t3 -- check it:
cfg1 = [c for c in enum_rpp(Partition([1]), 1) if c.size == 1][0]
assert pt_weight(cfg1, s) == (s.t1 + s.t2) / s.t3

# --- ideal-sheaf fixed points: plane partitions ------------------------------
print("\nideal-sheaf weights, leg-free, up to two boxes:")
for pp in enum_legged_pp(Partition(), 2):
    print(f"  boxes {pp.heights}: Exp(-V) = {dt_weight(pp, s)}")

# The single-box weight factors as (t1+t2)(t1+t3)(t2+t3)/(t1 t2 t3):
from vertexforge.partitions import LeggedPlanePartition

box = LeggedPlanePartition(Partition(), {(0, 0): 1})
expected = (s.t1 + s.t2) * (s.t1 + s.t3) * (s.t2 + s.t3) / (s.t1 * s.t2 * s.t3)
assert dt_weight(box, s) == expected

# --- bare vertex series -------------------------------------------------------
# The series sums weights times descendent insertions, graded by q.
desc = (DescendentSpec("ch", 0, "u", 2),)
res = bare_pt(("fixedpoint", Partition([2])), 3, desc, s)
print("\nbare stable-pairs vertex on the fixed point (2), one insertion:")
for n, c in enumerate(res.coeffs):
    print(f"  q^{n}: {c!r}")

res_dt = bare_dt(Partition([1]), 2, (), s)
print("\nbare ideal-sheaf vertex with a one-cell leg (no insertions):")
print(" ", [str(c) for c in res_dt.coeffs.scalars()])
print("  (the q^0 coefficient is 1: the renormalized volume grading)")
