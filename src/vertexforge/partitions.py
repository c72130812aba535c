"""Fixed-point combinatorics: 2D partitions, reverse-plane-partition data for
the stable-pairs side, legged plane partitions for the ideal-sheaf side, and
the slice representation of leg-free plane partitions.

Cell convention: cell (i, j) sits in row i (0-based, one row per part) and
column j < parts[i]; its content linear form is i*t1 + j*t2.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterator, List, Sequence, Tuple

from .records import Frozen

Cell = Tuple[int, int]


class Partition(Frozen):
    __slots__ = ("parts",)
    parts: Tuple[int, ...]

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(int(p) for p in parts if p != 0)
        if any(p < 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 0 <= i < len(self.parts) and 0 <= j < self.parts[i]

    def cells(self) -> List[Cell]:
        return [(i, j) for i, p in enumerate(self.parts) for j in range(p)]

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def arm(self, cell: Cell) -> int:
        i, j = cell
        return self.parts[i] - j - 1

    def leg(self, cell: Cell) -> int:
        i, j = cell
        return sum(1 for r in range(i + 1, len(self.parts)) if self.parts[r] > j)

    def to_json(self) -> list:
        return list(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def enum_partitions(n: int) -> List[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: List[Partition] = []

    def rec(remaining: int, maxpart: int, acc: List[int]) -> None:
        if remaining == 0:
            out.append(Partition(acc))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(n, n if n else 1, [])
    # `rec` refers to itself through its closure: dropping it frees
    # `out` now rather than at the next cycle collection
    del rec
    return out


class RppConfig(Frozen):
    """PT one-leg fixed point: k >= 0 on cells of the shape, weakly
    increasing along rows and columns (k_{i-1,j} <= k_{ij}, k_{i,j-1} <= k_{ij}).
    """

    __slots__ = ("shape", "k")
    shape: Partition
    k: Tuple[Tuple[int, ...], ...]  # row-major, k[i][j]

    def __init__(self, shape: Partition, k):
        if isinstance(k, dict):
            rows = tuple(
                tuple(int(k.get((i, j), 0)) for j in range(p))
                for i, p in enumerate(shape.parts)
            )
        else:
            rows = tuple(tuple(int(x) for x in row) for row in k)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "k", rows)
        if not self.is_valid():
            raise ValueError("monotonicity violated: not a reverse plane partition")

    def is_valid(self) -> bool:
        if tuple(len(r) for r in self.k) != self.shape.parts:
            return False
        for i, row in enumerate(self.k):
            for j, v in enumerate(row):
                if v < 0:
                    return False
                if i > 0 and self.k[i - 1][j] > v:
                    return False
                if j > 0 and row[j - 1] > v:
                    return False
        return True

    @property
    def size(self) -> int:
        return sum(sum(r) for r in self.k)

    def entry(self, cell: Cell) -> int:
        return self.k[cell[0]][cell[1]]

    def transpose(self) -> "RppConfig":
        shape_t = self.shape.transpose()
        kt = {(j, i): self.k[i][j] for (i, j) in self.shape.cells()}
        return RppConfig(shape_t, kt)

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "k": [[i, j, self.k[i][j]] for (i, j) in self.shape.cells()],
        }


def enum_rpp(shape: Partition, max_size: int) -> List[RppConfig]:
    """All RppConfig on `shape` with size <= max_size, ordered by size."""
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    cells = shape.cells()
    out: List[RppConfig] = []
    values: Dict[Cell, int] = {}

    def rec(idx: int, used: int) -> None:
        if idx == len(cells):
            out.append(RppConfig(shape, dict(values)))
            return
        i, j = cells[idx]
        lo = 0
        if i > 0:
            lo = max(lo, values[(i - 1, j)])
        if j > 0:
            lo = max(lo, values[(i, j - 1)])
        for v in range(lo, max_size - used + 1):
            values[(i, j)] = v
            rec(idx + 1, used + v)
        values.pop((i, j), None)

    rec(0, 0)
    # `rec` refers to itself through its closure: dropping it frees
    # `out` now rather than at the next cycle collection
    del rec
    out.sort(key=lambda cfg: (cfg.size, cfg.k))
    return out


class LeggedPlanePartition(Frozen):
    """DT one-leg fixed point: heights h >= 0 off the leg, infinity exactly on
    the leg, full height function weakly decreasing in i and j."""

    __slots__ = ("leg", "heights")
    leg: Partition
    heights: Tuple[Tuple[Cell, int], ...]

    def __init__(self, leg: Partition, heights: Dict[Cell, int] | Sequence = ()):
        if isinstance(heights, dict):
            items = heights.items()
        else:
            items = ((tuple(c), h) for c, h in heights)
        cleaned = tuple(sorted(((int(i), int(j)), int(h)) for (i, j), h in items if h))
        object.__setattr__(self, "leg", leg)
        object.__setattr__(self, "heights", cleaned)
        if not self.is_valid():
            raise ValueError("not a legged plane partition")

    def height_map(self) -> Dict[Cell, int]:
        return dict(self.heights)

    def is_valid(self) -> bool:
        hm = dict(self.heights)
        for (i, j), h in hm.items():
            if h < 0 or (i, j) in self.leg:
                return False
        for (i, j), h in hm.items():
            for nb in ((i - 1, j), (i, j - 1)):
                if nb[0] < 0 or nb[1] < 0 or nb in self.leg:
                    continue  # infinite or out of the quadrant boundary
                if hm.get(nb, 0) < h:
                    return False
        return True

    @property
    def renorm_volume(self) -> int:
        return sum(h for _, h in self.heights)

    def to_json(self) -> dict:
        return {
            "leg": self.leg.to_json(),
            "h": [[i, j, h] for (i, j), h in self.heights],
        }


def enum_legged_pp(leg: Partition, max_volume: int) -> List[LeggedPlanePartition]:
    """All legged plane partitions with renormalized volume <= max_volume.

    Depth-first over the cells in row-major order.  Heights weakly decrease
    along a row, so a zero height ends its row; below the leg a row is
    bounded by the one above, so an empty row there ends the partition.
    """
    if max_volume < 0:
        raise ValueError("max_volume must be >= 0")
    nleg = len(leg.parts)
    out: List[LeggedPlanePartition] = []
    hm: Dict[Cell, int] = {}

    def start(i: int) -> int:
        return leg.parts[i] if i < nleg else 0

    def rec(i: int, j: int, used: int) -> None:
        # (i, j) is the next non-leg cell; the ones before it are decided.
        # A neighbour in the leg or outside the quadrant does not bound it.
        top = max_volume - used
        if i > 0 and (i - 1, j) not in leg:
            top = min(top, hm.get((i - 1, j), 0))
        if j > start(i):
            top = min(top, hm[(i, j - 1)])
        for v in range(1, top + 1):
            hm[(i, j)] = v
            rec(i, j + 1, used + v)
        hm.pop((i, j), None)
        if i >= nleg and j == 0:
            out.append(LeggedPlanePartition(leg, dict(hm)))
        else:
            rec(i + 1, start(i + 1), used)

    rec(0, start(0), 0)
    # `rec` refers to itself through its closure: dropping it frees
    # `out` now rather than at the next cycle collection
    del rec
    out.sort(key=lambda pp: (pp.renorm_volume, pp.heights))
    return out


class SliceSeq(Frozen):
    """Nested sequence of partitions: slice s (1-based) = {(i,j): h_ij >= s}."""

    __slots__ = ("slices",)
    slices: Tuple[Partition, ...]

    def __init__(self, slices: Sequence[Partition]):
        slices = tuple(s for s in slices if s.size)
        for a, b in zip(slices, slices[1:]):
            pa = a.parts + (0,) * max(0, len(b.parts) - len(a.parts))
            if any(x < y for x, y in zip(pa, b.parts)):
                raise ValueError("slices must be nested")
        object.__setattr__(self, "slices", slices)

    @property
    def total(self) -> int:
        return sum(s.size for s in self.slices)


def slices_of(pp: LeggedPlanePartition) -> SliceSeq:
    if pp.leg.size:
        raise ValueError("slices are defined for leg-free plane partitions")
    hm = pp.height_map()
    if not hm:
        return SliceSeq(())
    hmax = max(hm.values())
    slabs = []
    for s in range(1, hmax + 1):
        cells = {c for c, h in hm.items() if h >= s}
        rows: Dict[int, int] = {}
        for (i, j) in cells:
            rows[i] = max(rows.get(i, 0), j + 1)
        parts = [rows[i] for i in sorted(rows)]
        slabs.append(Partition(parts))
    return SliceSeq(slabs)


def pp_from_slices(seq: SliceSeq) -> LeggedPlanePartition:
    hm: Dict[Cell, int] = {}
    for s in seq.slices:
        for c in s.cells():
            hm[c] = hm.get(c, 0) + 1
    return LeggedPlanePartition(Partition(), hm)


def first_slice(pp: LeggedPlanePartition) -> Partition:
    seq = slices_of(pp)
    return seq.slices[0] if seq.slices else Partition()


def macmahon_coeffs(order: int) -> List[int]:
    """Coefficients of prod_{i>=1} (1 - q^i)^{-i} up to q^order (independent
    oracle for plane-partition counts)."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for i in range(1, order + 1):
        # multiply by (1 - q^i)^{-i} = sum_m C(m + i - 1, i - 1) q^{i m}
        new = [0] * (order + 1)
        for n, c in enumerate(coeffs):
            if c == 0:
                continue
            m = 0
            while n + i * m <= order:
                new[n + i * m] += c * comb(m + i - 1, i - 1)
                m += 1
        coeffs = new
    return coeffs
