"""The ratio of the two sheaf-counting measures in closed form.

Both theories' one-leg fixed points are parametrized by column depths k on
the cells of a partition.  The ratio of the ideal-sheaf weight to the
stable-pairs weight is a finite product of rising factorials in the cell
contents; assembling the product in the character ring makes the
structurally-cancelling zero factors cancel exactly, so the identity also
covers the directions where one side vanishes.
"""

from itertools import product

from vertexforge import Partition, enum_partitions, sample_random
from vertexforge.characters import measure_difference_char
from vertexforge.laurent import pochhammer
from vertexforge.residue import measure_ratio_extended

s = sample_random(seed=9, L=16)
a1, a2 = s.a1, s.a2

# single column of depth k: the ratio is
#   [a1+1]_k [a2+1]_k / ([a1-k+1]_k [a2-k+1]_k)
print("single-column ratios:")
for k in (1, 2, 3):
    closed, zorder = measure_ratio_extended(Partition([1]), {(0, 0): k}, s)
    hand = (
        pochhammer(a1 + 1, k) * pochhammer(a2 + 1, k)
        / (pochhammer(a1 - k + 1, k) * pochhammer(a2 - k + 1, k))
    )
    assert (closed, zorder) == (hand, 0)
    print(f"  k = {k}: {closed}")

# general shapes: closed product == Exp(V^PT - V^DT), including vanishing
checked = 0
for n in (1, 2, 3):
    for mu in enum_partitions(n):
        cells = mu.cells()
        for kv in product(range(3), repeat=len(cells)):
            kmap = dict(zip(cells, kv))
            lhs = s.exp_extended(measure_difference_char(mu, kmap))
            rhs = measure_ratio_extended(mu, kmap, s)
            assert lhs == rhs
            checked += 1
print(f"\nclosed form == weight ratio on {checked} column vectors (exact)")

# a non-monotone direction: the ideal-sheaf weight vanishes to first order
_, zorder = measure_ratio_extended(Partition([1, 1]), {(0, 0): 0, (1, 0): 2}, s)
print(f"increasing columns (0,2): ratio vanishes to order {zorder}")
