from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exactlp import _segment_meets_hull_by_enumeration

from polydense import (BudgetExceeded, CubeVertex, DegenerateInput, VertexSet,
                       cut_polytope_vertices, edge_kernel, full_cube,
                       graph_density_exact, is_edge, long_edge_survives,
                       long_edges_survive, sample_vertex_bits)
from polydense.exactlp import segment_hull_intersect
from polydense.rng import stream


def V(d, bits):
    return CubeVertex(d, bits)


def random_set(d, n, rng):
    return VertexSet(d, tuple(V(d, b) for b in sample_vertex_bits(d, n, rng)))


def _diagonal_and_points(k, face_points):
    """The diagonal's ends and the face points as ±1 vectors, for the
    lifted segment test, with no short-circuit and no projection."""
    S = [tuple(1 if p >> i & 1 else -1 for i in range(k)) for p in face_points]
    return (-1,) * k, (1,) * k, S


def _lifted_survives(k, face_points):
    return not segment_hull_intersect(*_diagonal_and_points(k, face_points))


class TestIsEdge:
    def test_distance_one_always_edge(self):
        X = full_cube(3)
        assert is_edge(X, V(3, 0b000), V(3, 0b001))

    def test_square_diagonal_blocked(self):
        X = full_cube(2)
        assert not is_edge(X, V(2, 0b00), V(2, 0b11))
        assert not is_edge(X, V(2, 0b01), V(2, 0b10))

    def test_square_sides(self):
        X = full_cube(2)
        assert is_edge(X, V(2, 0b00), V(2, 0b01))
        assert is_edge(X, V(2, 0b10), V(2, 0b11))

    def test_cut_polytope_complete(self):
        X = cut_polytope_vertices(4)
        mem = X.members
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                assert is_edge(X, mem[i], mem[j])

    def test_requires_membership(self):
        X = full_cube(2)
        with pytest.raises(ValueError):
            is_edge(X, V(2, 0), V(3, 1))
        small = VertexSet(3, (V(3, 0), V(3, 7)))
        with pytest.raises(ValueError):
            is_edge(small, V(3, 0), V(3, 1))

    def test_symmetry(self):
        X = random_set(4, 9, stream(31, "g"))
        mem = X.members
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                assert is_edge(X, mem[i], mem[j]) == is_edge(X, mem[j], mem[i])

    def test_cube_symmetry_invariance(self):
        # relabeling coordinates and flipping signs are automorphisms of the
        # cube, so they cannot change any edge relation
        rng = stream(57, "sym")
        for _ in range(12):
            X = random_set(4, 8, rng)
            perm = list(rng.permutation(4))
            flips = int(rng.integers(0, 16))

            def transform(bits):
                out = 0
                for new_pos, old_pos in enumerate(perm):
                    out |= ((bits >> old_pos) & 1) << new_pos
                return out ^ flips

            Y = VertexSet(4, tuple(V(4, transform(u.bits)) for u in X))
            mem = X.members
            for i in range(len(mem)):
                for j in range(i + 1, len(mem)):
                    a = is_edge(X, mem[i], mem[j])
                    b = is_edge(Y, Y.members[i], Y.members[j])
                    assert a == b

    def test_points_off_face_are_irrelevant(self):
        rng = stream(58, "drop")
        for _ in range(10):
            X = random_set(4, 9, rng)
            v, w = X.members[0], X.members[1]
            free = v.bits ^ w.bits
            agree = 0b1111 & ~free
            off_face = [u for u in X.members[2:]
                        if (u.bits ^ v.bits) & agree != 0]
            if not off_face:
                continue
            before = is_edge(X, v, w)
            reduced = VertexSet(4, tuple(u for u in X.members if u != off_face[0]))
            assert is_edge(reduced, v, w) == before


class TestEdgeKernel:
    def test_face_filter_matches_brute_force_oracle(self):
        # oracle: the open face of {v, w} is every point that agrees with v
        # wherever v and w agree, minus v and w; in face coordinates a point
        # is the mask of the free coordinates where it differs from v
        rng = stream(5, "face")
        for d in (2, 3, 4):
            cube = list(range(1 << d))
            for X in (cube, sample_vertex_bits(d, 3, rng),
                      sample_vertex_bits(d, 1 << (d - 1), rng)):
                for v in X:
                    for w in X:
                        if v == w:
                            continue
                        free = [i for i in range(d) if (v ^ w) >> i & 1]
                        face = [u for u in X if u not in (v, w) and all(
                            u >> i & 1 == v >> i & 1
                            for i in range(d) if i not in free)]
                        if X is cube:
                            assert len(face) == 2 ** len(free) - 2
                        local = [sum(1 << j for j, i in enumerate(free)
                                     if (u ^ v) >> i & 1) for u in face]
                        want = long_edge_survives(len(free), local)
                        assert edge_kernel(d, v, w, X) == want
                        assert edge_kernel(d, v, w, face) == want

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateInput):
            edge_kernel(3, 0b101, 0b101, range(8))


def test_long_edge_survives_validates_interior():
    with pytest.raises(ValueError):
        long_edge_survives(3, [0])
    with pytest.raises(ValueError):
        long_edge_survives(3, [7])
    assert long_edge_survives(3, [])
    assert long_edge_survives(3, [0b001])
    assert not long_edge_survives(2, [0b01, 0b10])  # antipodal pair in the face


class TestLongEdgesSurvive:
    def test_short_circuits_and_validation(self):
        assert long_edges_survive(3, []) == []
        assert long_edges_survive(3, [[], (), set()]) == [True] * 3
        assert long_edges_survive(2, [[0b01, 0b10]]) == [False]
        assert long_edges_survive(4, [[0b0011, 0b0101, 0b1100]]) == [False]
        for bad in ([0], [7], [0b011, 0]):
            with pytest.raises(ValueError):
                long_edges_survive(3, [[0b001], bad])

    def test_matches_the_single_test_on_mixed_sizes(self):
        """Sizes 0..7 in one call, duplicates and unsorted points included,
        against long_edge_survives one subset at a time."""
        rng = stream(2024, "batched-edges")
        k = 5
        subsets = []
        for _ in range(300):
            m = int(rng.integers(0, 8))
            pts = [int(p) for p in rng.integers(1, (1 << k) - 1, size=m)]
            subsets.append(pts + pts[:1])
        want = [long_edge_survives(k, Y) for Y in subsets]
        assert 0 < sum(want) < len(want)
        assert long_edges_survive(k, subsets) == want
        assert long_edges_survive(k, iter(subsets)) == want
        assert [_lifted_survives(k, Y) for Y in subsets] == want

    def test_input_is_read_in_passes(self, monkeypatch):
        from polydense import graph

        monkeypatch.setattr(graph, "_SUBSETS_PER_PASS", 7)
        subsets = [[p, q] for p in range(1, 15) for q in range(p + 1, 15)]
        assert long_edges_survive(4, subsets) == [long_edge_survives(4, Y)
                                                  for Y in subsets]

    def test_words_wider_than_63_bits(self):
        k = 65
        mask = (1 << k) - 1
        a, b = 1 | 1 << 64, 0b110
        assert long_edges_survive(k, [[a, b], [a, a ^ mask], []]) == [
            long_edge_survives(k, [a, b]), False, True]


@st.composite
def _faces(draw):
    """A face dimension and subsets of its interior points (bitmasks),
    unsorted, with duplicates, antipodes and points whose hull meets the
    diagonal added at random."""
    k = draw(st.sampled_from([*range(1, 10), 65]))
    mask = (1 << k) - 1
    subsets = []
    for _ in range(draw(st.integers(1, 4))):
        pts = []
        if k > 1:
            pts = draw(st.lists(st.integers(1, mask - 1), max_size=6))
            if draw(st.booleans()):
                # the rotations of a word of period r sum to a constant
                # vector, so their centroid lies on the diagonal
                r = 5 if k == 65 else k
                w = draw(st.integers(1, (1 << r) - 2))
                p = sum(w << r * j for j in range(k // r))
                pts += [(p << s | p >> (k - s)) & mask for s in range(r)]
        if pts:
            pts += draw(st.lists(st.sampled_from(pts), max_size=2))
            if draw(st.booleans()):
                pts.append(draw(st.sampled_from(pts)) ^ mask)
        subsets.append(draw(st.permutations(pts)))
    return k, subsets


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_faces())
def test_projected_verdicts_match_the_lifted_test(face):
    """Both verdict paths solve the projected LP, or none; the lifted
    segment test and, on small systems, the LP-free enumeration of
    test_exactlp decide the same queries on the ±1 points themselves."""
    k, subsets = face
    want = [_lifted_survives(k, Y) for Y in subsets]
    assert [long_edge_survives(k, Y) for Y in subsets] == want
    assert long_edges_survive(k, subsets) == want
    for Y, survives in zip(subsets, want):
        if len(set(Y)) <= 4:
            meets = _segment_meets_hull_by_enumeration(*_diagonal_and_points(k, set(Y)))
            assert meets != survives


@pytest.mark.parametrize("k", range(1, 7))
def test_faces_of_two_points_need_no_lp(monkeypatch, k):
    """Exhaustively at k <= 6: every antipode-free face of at most two
    points survives, as the lifted LP confirms, and the verdict paths
    decide all such faces, and antipodal pairs, without an LP."""
    from polydense import graph

    mask = (1 << k) - 1
    interior = range(1, mask)
    faces = [list(Y) for size in (0, 1, 2) for Y in combinations(interior, size)]
    survives = [len(Y) < 2 or Y[0] ^ Y[1] != mask for Y in faces]
    assert [_lifted_survives(k, Y) for Y in faces] == survives

    def no_lp(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(graph, "origin_in_conv", no_lp)
    monkeypatch.setattr(graph, "origin_in_conv_batch", no_lp)
    assert [long_edge_survives(k, Y) for Y in faces] == survives
    assert long_edges_survive(k, faces) == survives


class TestDensityExact:
    def test_cube_density(self):
        for d in (2, 3, 4):
            rep = graph_density_exact(full_cube(d))
            assert rep.density == F(d, 2 ** d - 1)

    def test_two_points_are_an_edge(self):
        X = VertexSet(5, (V(5, 3), V(5, 28)))
        rep = graph_density_exact(X)
        assert rep.density == 1
        assert rep.edge_count == 1

    def test_cut_polytope_density_one(self):
        rep = graph_density_exact(cut_polytope_vertices(4))
        assert rep.density == 1
        assert rep.edge_count == 28

    def test_budget(self):
        X = full_cube(4)
        with pytest.raises(BudgetExceeded) as err:
            graph_density_exact(X, max_pairs=10)
        assert err.value.required == 120
