import math

import pytest

from polydense import (CubeVertex, cut_polytope_vertices, edge_kernel, full_cube,
                       sample_vertex_bits)
from polydense.rng import stream


def V(d, bits):
    return CubeVertex(d, bits)


class TestHamming:
    def test_antipode_distance(self):
        v = V(7, 0b1010011)
        assert (v.bits ^ v.antipode().bits).bit_count() == 7
        assert all(a != b for a, b in zip(v.coords(), v.antipode().coords()))


def test_antipode_involution():
    for bits in range(16):
        v = V(4, bits)
        assert v.antipode().antipode() == v
        assert v.antipode().coords() == tuple(-c for c in v.coords())


class TestEnumerateFace:
    # the face of {v, w} is no longer listed on its own: edge_kernel keeps the
    # points of that face as obstructions and drops every other point, so
    # these cases check which points its filter keeps through its verdicts

    def test_square_diagonal(self):
        # the open face of 00 and 11 is {01, 10}; both together block the edge
        assert not edge_kernel(2, 0b00, 0b11, [0b01, 0b10])
        assert edge_kernel(2, 0b00, 0b11, [0b01])
        assert edge_kernel(2, 0b00, 0b11, [0b10])
        # lifted into the 3-cube, the points with x3 = +1 leave that face
        assert edge_kernel(3, 0b000, 0b011, [0b101, 0b110])
        assert not edge_kernel(3, 0b000, 0b011, [0b001, 0b010, 0b101, 0b110])

    def test_distance_one_is_empty(self):
        # a cube edge has no interior face points, so nothing can block it
        for d in (2, 3, 4):
            for v in range(1 << d):
                for i in range(d):
                    assert edge_kernel(d, v, v ^ 1 << i, range(1 << d))

    def test_full_diagonal_d3(self):
        # the face of 000 and 111 is the whole cube; each of its 6 interior
        # points is kept, as an antipodal pair of them blocks the diagonal
        interior = [u for u in range(8) if u not in (0b000, 0b111)]
        assert len(interior) == 6
        assert not edge_kernel(3, 0b000, 0b111, range(8))
        for p in interior:
            assert not edge_kernel(3, 0b000, 0b111, [p, p ^ 0b111])
            assert edge_kernel(3, 0b000, 0b111, [p])

    def test_counts_exhaustive_small_d(self):
        # brute-force oracle: filter the whole cube by coordinate agreement
        for d in (2, 3, 4):
            cube = [u.bits for u in full_cube(d)]
            for v in cube:
                for w in cube:
                    if v == w:
                        continue
                    k = (v ^ w).bit_count()
                    agree = ((1 << d) - 1) & ~(v ^ w)
                    face = [u for u in cube
                            if (u ^ v) & agree == 0 and u not in (v, w)]
                    assert len(face) == 2 ** k - 2
                    # in the full cube only the cube edges are edges
                    assert edge_kernel(d, v, w, cube) == (k == 1)
                    assert edge_kernel(d, v, w, face) == (k == 1)


class TestSampling:
    def test_full_cube_is_the_only_choice(self):
        assert set(sample_vertex_bits(3, 8, stream(1, "t"))) == set(range(8))

    def test_seed_determinism(self):
        a = sample_vertex_bits(3, 7, stream(42, "t"))
        b = sample_vertex_bits(3, 7, stream(42, "t"))
        assert a == b

    def test_sizes_and_distinctness(self):
        rng = stream(3, "t")
        for n in (2, 5, 11, 30):
            X = sample_vertex_bits(5, n, rng)
            assert len(X) == n
            assert len(set(X)) == n
            assert all(0 <= b < 32 for b in X)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            sample_vertex_bits(3, 9, stream(0, "t"))

    def test_pair_frequencies_uniform(self):
        # frequency oracle: each of the C(8,2)=28 two-element subsets of the
        # 3-cube should appear with probability 1/28
        rng = stream(2024, "freq")
        counts = {}
        trials = 100_000
        for _ in range(trials):
            key = frozenset(sample_vertex_bits(3, 2, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 28
        p = 1 / 28
        sigma = math.sqrt(trials * p * (1 - p))
        for key, c in counts.items():
            assert abs(c - trials * p) <= 3 * sigma, (key, c)

    def test_shuffle_path_uniform(self):
        # n > 2^(d-1) takes the enumeration + partial shuffle path
        rng = stream(77, "freq2")
        counts = {}
        trials = 20_000
        for _ in range(trials):
            key = frozenset(sample_vertex_bits(2, 3, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 4
        p = 1 / 4
        sigma = math.sqrt(trials * p * (1 - p))
        for c in counts.values():
            assert abs(c - trials * p) <= 3 * sigma

    def test_words_wider_than_63_bits(self):
        # d >= 64 draws whole words with rand_bits instead of indices
        X = sample_vertex_bits(70, 40, stream(6, "wide"))
        assert len(set(X)) == 40
        assert all(0 <= b < 1 << 70 for b in X)
        assert any(b >> 64 for b in X)
        assert sample_vertex_bits(70, 40, stream(6, "wide")) == X

    def test_wide_draws_are_pinned(self):
        # the 70-bit words of one seeded stream, fixed so that a change to the
        # sampler that moves a draw shows here
        assert sample_vertex_bits(70, 40, stream(6, "wide")) == [
            476444056618990960686, 988566056548062365991, 236210172092618975906,
            416458002843937326714, 111641162940389388854, 1095675133054328215514,
            691416074162201552985, 262189907631608105419, 415139853040042976979,
            801910586060629815201, 354752760968972197030, 1170215175938739328371,
            968791799089094859600, 98222971446390157677, 1020162621500849454853,
            621174763172894190503, 957818334786264788458, 571043178526909392048,
            633155236695186917796, 587203258157924658311, 8131430847518796321,
            1022710352392461276064, 607765474344806886580, 95567707212850741603,
            134294238769815583309, 494621069101698344047, 1140180739141420835629,
            1144386669083119993847, 359723481993152944073, 597182883363247704684,
            667549704164877960714, 1156811714459796028445, 403886975483835406486,
            717903732477931878785, 1052037124250301036918, 3873813281442491124,
            436370614901559857578, 1063658870350979858090, 277690000755346222598,
            446052818325835659748]


class TestCutPolytope:
    def test_k3(self):
        X = cut_polytope_vertices(3)
        assert len(X) == 4
        assert X.dim == 3

    def test_k4(self):
        X = cut_polytope_vertices(4)
        assert len(X) == 8
        assert X.dim == 6

    def test_empty_cut_is_all_minus_one(self):
        X = cut_polytope_vertices(5)
        assert X.members[0].bits == 0

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_count_and_distinct(self, k):
        X = cut_polytope_vertices(k)
        assert len(X) == 2 ** (k - 1)
        assert len({v.bits for v in X}) == len(X)
        assert X.dim == k * (k - 1) // 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cut_polytope_vertices(2)
        with pytest.raises(ValueError):
            cut_polytope_vertices(8)
