"""Gluing two vertices over the projective line.

A local curve with normal degrees (d1, d2) glues a vertex at 0 and a vertex
at infinity (with MNOP1's weights s_i = t_i - d_i t3, s3 = -t3) through a
diagonal edge factor, each cross-section fixed point lambda shifted by
q^f, f = -sum_{(i,j) in lambda} (d1 i + d2 j).  For the resolved conifold,
degrees (-1, -1), the stable-pairs series is the rigid curve's q/(1 + q)^2
(arXiv:0707.2348) at every sample, and the ideal-sheaf series factors
exactly through the degree-0 series.
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
# q/(1 + q)^2 = q (1 - 2q + 3q^2 - 4q^3 + ...)
assert series[0] == series[1] == series[2] == [(-1) ** k * (k + 1) for k in range(qorder + 1)]
print(f"  stable pairs, divided by q: {[str(c) for c in series[0]]}  (q/(1 + q)^2 at all samples)")

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
