import copy
import pickle
from itertools import product

import pytest

from vertexforge.partitions import (
    LeggedPlanePartition,
    Partition,
    RppConfig,
    SliceSeq,
    enum_legged_pp,
    enum_partitions,
    enum_rpp,
    first_slice,
    macmahon_coeffs,
    pp_from_slices,
    slices_of,
)


class TestEnumPartitions:
    def test_zero(self):
        assert enum_partitions(0) == [Partition()]

    def test_counts(self):
        assert len(enum_partitions(4)) == 5
        assert len(enum_partitions(6)) == 11

    def test_order_reverse_lex(self):
        parts = [p.parts for p in enum_partitions(4)]
        assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_transpose_involution(self):
        for n in range(7):
            for lam in enum_partitions(n):
                assert lam.transpose().transpose() == lam


class TestRpp:
    def test_empty_shape(self):
        cfgs = enum_rpp(Partition(), 3)
        assert len(cfgs) == 1 and cfgs[0].size == 0

    def test_single_cell_chain(self):
        cfgs = enum_rpp(Partition([1]), 3)
        assert [c.size for c in cfgs] == [0, 1, 2, 3]

    def test_column_pairs(self):
        cfgs = [c for c in enum_rpp(Partition([1, 1]), 2) if c.size == 2]
        ks = sorted((c.k[0][0], c.k[1][0]) for c in cfgs)
        assert ks == [(0, 2), (1, 1)]

    def test_brute_force_counts(self):
        shape = Partition([2, 1])
        N = 3
        cells = shape.cells()
        brute = 0
        for vals in product(range(N + 1), repeat=len(cells)):
            k = dict(zip(cells, vals))
            if sum(vals) > N:
                continue
            ok = all(
                k[(i, j)] >= k.get((i - 1, j), 0) and k[(i, j)] >= k.get((i, j - 1), 0)
                for (i, j) in cells
            )
            if ok:
                brute += 1
        assert len(enum_rpp(shape, N)) == brute

    def test_validator_rejects_mutations(self):
        for cfg in enum_rpp(Partition([2, 2]), 3):
            for (i, j) in cfg.shape.cells():
                if cfg.k[i][j] == 0:
                    continue
                mutated = {c: cfg.entry(c) for c in cfg.shape.cells()}
                # decreasing an entry below an upper neighbour must be caught
                if i + 1 < len(cfg.k) and cfg.k[i + 1][j] > cfg.k[i][j] - 1:
                    mutated[(i, j)] = cfg.k[i][j] - 1 - cfg.k[i + 1][j]
                    if mutated[(i, j)] < 0:
                        with pytest.raises(ValueError):
                            RppConfig(cfg.shape, mutated)


class TestLeggedPP:
    def test_macmahon_counts(self):
        oracle = macmahon_coeffs(8)
        assert oracle[:6] == [1, 1, 3, 6, 13, 24]
        counts = [0] * 9
        for pp in enum_legged_pp(Partition(), 8):
            counts[pp.renorm_volume] += 1
        assert counts == oracle

    @pytest.mark.parametrize("parts", [(), (1,), (2,), (1, 1), (2, 1), (3, 1)])
    def test_matches_filtered_height_maps(self, parts):
        # every height map on the cells of the old bounding box, grown one box
        # at a time and kept when it is a legged plane partition (a nonempty
        # one has a box whose removal leaves one, so this reaches them all)
        leg, volume = Partition(parts), 5
        box = [(i, j) for i in range(len(parts) + volume)
               for j in range((parts[0] if parts else 0) + volume) if (i, j) not in leg]
        level = [{}]
        found = [LeggedPlanePartition(leg, {})]
        for _ in range(volume):
            grown = {}
            for hm in level:
                for c in box:
                    new = {**hm, c: hm.get(c, 0) + 1}
                    key = tuple(sorted(new.items()))
                    if key not in grown:
                        try:
                            grown[key] = LeggedPlanePartition(leg, new)
                        except ValueError:
                            grown[key] = None
            level = [dict(k) for k, pp in grown.items() if pp is not None]
            found += [pp for pp in grown.values() if pp is not None]
        found.sort(key=lambda pp: (pp.renorm_volume, pp.heights))
        assert enum_legged_pp(leg, volume) == found

    def test_pure_cylinder(self):
        pps = enum_legged_pp(Partition([1]), 0)
        assert len(pps) == 1 and pps[0].renorm_volume == 0

    def test_one_leg_volume_one_brute(self):
        leg = Partition([1])
        pps = [p for p in enum_legged_pp(leg, 1) if p.renorm_volume == 1]
        # brute force: single box at (i, j) not in the leg, monotone against
        # the infinite column at (0, 0): (0,1) and (1,0) only
        assert sorted(p.heights for p in pps) == [(((0, 1), 1),), (((1, 0), 1),)]

    def test_validity(self):
        with pytest.raises(ValueError):
            LeggedPlanePartition(Partition(), {(1, 0): 2, (0, 0): 1})
        with pytest.raises(ValueError):
            LeggedPlanePartition(Partition([1]), {(0, 0): 1})


class TestSlices:
    def test_single_box(self):
        pp = LeggedPlanePartition(Partition(), {(0, 0): 1})
        assert [s.parts for s in slices_of(pp).slices] == [(1,)]

    def test_stack(self):
        pp = LeggedPlanePartition(Partition(), {(0, 0): 2, (1, 0): 1})
        assert [s.parts for s in slices_of(pp).slices] == [(1, 1), (1,)]

    def test_roundtrip_and_size(self):
        for pp in enum_legged_pp(Partition(), 6):
            seq = slices_of(pp)
            assert seq.total == pp.renorm_volume
            assert pp_from_slices(seq) == pp

    def test_first_slice(self):
        pp = LeggedPlanePartition(Partition(), {(0, 0): 2, (0, 1): 1})
        assert first_slice(pp) == Partition([2])

    def test_requires_leg_free(self):
        pp = enum_legged_pp(Partition([1]), 0)[0]
        with pytest.raises(ValueError):
            slices_of(pp)


def test_serialization():
    cfg = enum_rpp(Partition([2, 1]), 2)[3]
    doc = cfg.to_json()
    assert doc["shape"] == [2, 1]
    pp = enum_legged_pp(Partition([1]), 1)[1]
    assert pp.to_json()["leg"] == [1]


def test_copy_and_pickle_round_trip():
    pp = LeggedPlanePartition(Partition([1]), {(0, 1): 2, (1, 0): 1})
    values = [
        Partition([2, 1]),
        RppConfig(Partition([2, 1]), {(0, 0): 1, (0, 1): 2, (1, 0): 3}),
        pp,
        slices_of(LeggedPlanePartition(Partition(), {(0, 0): 2, (1, 0): 1})),
    ]
    assert isinstance(values[-1], SliceSeq)
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
        with pytest.raises(AttributeError):
            x.extra = 1
