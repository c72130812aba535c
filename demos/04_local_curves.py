"""Gluing two vertices over the projective line.

A local curve with normal degrees (d1, d2) glues a vertex at 0 and a vertex
at infinity (with substituted parameters s1 = t1 + d1 t3, s2 = t2 + d2 t3,
s3 = -t3) through a diagonal edge factor.  For the resolved conifold the
current gluing gives the stable-pairs series (1 + q)^2, independent of the
parameters, and the ideal-sheaf series factors exactly through the degree-0
series.  The rigid curve's stable-pairs series is q/(1 + q)^2
(arXiv:0707.2348); ROADMAP item 1 tracks the fix to the gluing.
"""

from vertexforge import sample_random
from vertexforge.characters import DescendentSpec
from vertexforge.localcurve import GlueRequest, dt0_localcurve, glue, ptint_residue


qorder = 3
print("resolved conifold, degrees (-1, -1):")
series = []
for seed in (1, 2, 3):
    s = sample_random(seed, 14)
    series.append(glue(GlueRequest("PT", (-1, -1), 1, (), (), qorder, s)).scalars())
assert series[0] == series[1] == series[2]
print(f"  stable pairs: {[str(c) for c in series[0]]}  (same at all samples)")

s = sample_random(1, 14)
zdt = glue(GlueRequest("DT", (-1, -1), 1, (), (), qorder, s)).scalars()
zdt0 = dt0_localcurve((-1, -1), s, qorder)
zpt = series[0]
prod = [sum(zpt[i] * zdt0[m - i] for i in range(m + 1)) for m in range(qorder + 1)]
assert zdt == prod
print("  ideal sheaves == stable pairs x degree-0 factor, exactly")

# the same glued series assembles as a two-variable iterated residue
desc = (DescendentSpec("ch", 0, "u", 2),)
gl = glue(GlueRequest("PT", (-1, -1), 1, desc, (), 2, s))
pr = ptint_residue((-1, -1), 1, desc, (), s, 2)
assert all(a == b for a, b in zip(gl, pr))
print("  residue assembly of the glued series: exact match with one insertion")
