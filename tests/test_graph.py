from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exactlp import _segment_meets_hull_by_enumeration

from polydense import (BudgetExceeded, CubeVertex, DegenerateInput, VertexSet,
                       cut_polytope_vertices, edge_kernel, full_cube,
                       graph_density_exact, is_edge, long_edge_survives,
                       long_edges_survive, sample_vertex_bits)
from polydense.exactlp import origin_in_conv, origin_in_conv_batch, segment_hull_intersect
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
                        want = _lifted_survives(len(free), local)
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

    def test_matches_the_lifted_test_on_mixed_sizes(self):
        """Sizes 0..7 in one call, duplicates and unsorted points included,
        against the lifted segment test one subset at a time."""
        rng = stream(2024, "batched-edges")
        k = 5
        subsets = []
        for _ in range(300):
            m = int(rng.integers(0, 8))
            pts = [int(p) for p in rng.integers(1, (1 << k) - 1, size=m)]
            subsets.append(pts + pts[:1])
        want = [_lifted_survives(k, Y) for Y in subsets]
        assert 0 < sum(want) < len(want)
        assert long_edges_survive(k, subsets) == want
        assert long_edges_survive(k, iter(subsets)) == want

    def test_input_is_read_in_passes(self, monkeypatch):
        from polydense import graph

        monkeypatch.setattr(graph, "_SUBSETS_PER_PASS", 7)
        subsets = [[p, q, r] for p in range(1, 15) for q in range(p + 1, 15)
                   for r in (3, 5)]
        want = [_lifted_survives(4, Y) for Y in subsets]
        assert 0 < sum(want) < len(want)
        assert long_edges_survive(4, subsets) == want

    def test_words_wider_than_63_bits(self):
        k = 65
        mask = (1 << k) - 1
        a, b = 1 | 1 << 64, 0b110
        # the five rotations of a word of period 5 have their centroid on
        # the diagonal
        p = sum(0b00111 << 5 * j for j in range(13))
        rotations = [(p << s | p >> (k - s)) & mask for s in range(5)]
        subsets = [[a, b], [a, a ^ mask], [], [a, b, 1 << 63 | 0b1000], rotations]
        want = [_lifted_survives(k, Y) for Y in subsets]
        assert want == [True, False, True, True, False]
        assert long_edges_survive(k, subsets) == want


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
    """One subset at a time (a batch of one, which the scalar tableau
    solves) and all subsets in one batch, the projected LP gives the
    verdicts that the lifted segment test and, on small systems, the
    LP-free enumeration of test_exactlp give on the ±1 points themselves."""
    k, subsets = face
    want = [_lifted_survives(k, Y) for Y in subsets]
    assert [long_edge_survives(k, Y) for Y in subsets] == want
    assert long_edges_survive(k, subsets) == want
    for Y, survives in zip(subsets, want):
        if len(set(Y)) <= 4:
            meets = _segment_meets_hull_by_enumeration(*_diagonal_and_points(k, set(Y)))
            assert meets != survives


def _ragged_subsets(draw, k):
    """Up to 12 subsets of the k-face mixing every verdict path: sizes 0 to
    2, antipodal pairs and LP faces of different sizes, some with their
    hull on the diagonal."""
    mask = (1 << k) - 1
    point = st.integers(1, mask - 1)
    subsets = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["small", "antipodal", "lp", "diagonal"]))
        if kind == "small":
            pts = draw(st.lists(point, max_size=2))
        elif kind == "antipodal":
            p = draw(point)
            pts = draw(st.lists(point, max_size=4)) + [p, p ^ mask]
        else:
            pts = draw(st.lists(point, min_size=3, max_size=3 * k))
            if kind == "diagonal":
                # the k rotations of a word sum to a constant vector
                w = draw(point)
                pts += [(w << s | w >> (k - s)) & mask for s in range(k)]
        subsets.append(draw(st.permutations(pts)))
    return subsets


@st.composite
def _ragged_faces(draw):
    """A face dimension k = 3..8 and its ragged subsets."""
    k = draw(st.integers(3, 8))
    return k, _ragged_subsets(draw, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ragged_faces())
def test_ragged_subsets_in_one_batch_match_each_alone(face):
    """Subsets of different sizes, padded into one batch, get the verdicts
    that each subset gets alone, where no padding happens."""
    k, subsets = face
    assert long_edges_survive(k, subsets) == [long_edge_survives(k, Y) for Y in subsets]


def test_padding_repeats_a_point_into_one_batch(monkeypatch):
    from polydense import graph

    subsets = [[0b0011, 0b0101, 0b0110], [0b0001, 0b0010, 0b0100, 0b1000, 0b0011]]
    want = [long_edge_survives(4, Y) for Y in subsets]
    shapes = []
    real = graph.origin_in_conv_batch

    def spy(points):
        shapes.append(points.shape)
        return real(points)

    monkeypatch.setattr(graph, "origin_in_conv_batch", spy)
    assert long_edges_survive(4, subsets) == want
    assert shapes == [(2, 5, 3)]


@st.composite
def _mixed_flush(draw):
    """Faces filed by distance, as count_pass_edges files a flush: one to
    four distances k = 2..9, each with its ragged subsets."""
    ks = draw(st.lists(st.integers(2, 9), min_size=1, max_size=4, unique=True))
    return {k: _ragged_subsets(draw, k) for k in ks}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_mixed_flush())
def test_a_merged_flush_gives_the_per_distance_verdicts(faces_by_k):
    """The LP faces of every distance solved as one padded batch get the
    verdicts that one long_edges_survive call a distance gives."""
    from polydense.graph import _flush_verdicts

    assert _flush_verdicts(faces_by_k) == {k: long_edges_survive(k, faces)
                                           for k, faces in faces_by_k.items()}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 7), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(st.integers(-1, 1), min_size=shape[0] * shape[1] * shape[2],
                           max_size=shape[0] * shape[1] * shape[2]).map(
        lambda xs: np.array(xs, dtype=np.int8).reshape(shape))),
    min_size=1, max_size=5))
def test_zero_coordinates_and_repeated_points_keep_hull_membership(batches):
    """_merged pads batches of projected faces of any shape to one array,
    with zero coordinates and repeated points: the scalar origin_in_conv
    gives each padded face the verdict of the face itself, and so does
    the batched kernel on the merged array."""
    from polydense.graph import _merged

    faces = [S for batch in batches for S in batch.tolist()]
    merged = _merged(batches)
    want = [origin_in_conv(S).feasible for S in faces]
    assert merged.shape[0] == len(faces)
    assert [origin_in_conv(S).feasible for S in merged.tolist()] == want
    assert origin_in_conv_batch(merged) == want


def test_a_pi_block_solves_one_lp_batch_a_flush(monkeypatch):
    """With flushes of at most 2,000 entries, a pi block at (10, 202)
    flushes several times, and each flush solves its LP faces, of mixed
    distances, in one origin_in_conv_batch call; the edge count is the
    one of the default flushes."""
    from polydense import estimators, graph

    block = (10, 202, 500, 20250809, 0)
    want = estimators._pi_block(block)
    flushes, batches = [], []
    real_flush, real_batch = graph._flush_verdicts, graph.origin_in_conv_batch

    def flush(faces_by_k):
        flushes.append(len(faces_by_k))
        return real_flush(faces_by_k)

    def batch(points):
        batches.append(len(points))
        return real_batch(points)

    monkeypatch.setattr(graph, "_ENTRIES_PER_PASS", 2000)
    monkeypatch.setattr(graph, "_flush_verdicts", flush)
    monkeypatch.setattr(graph, "origin_in_conv_batch", batch)
    assert estimators._pi_block(block) == want
    assert len(flushes) > 3 and min(flushes) > 1
    assert len(batches) == len(flushes) and min(batches) > 1


def _face_points_by_three_comparisons(d, v, w, points):
    """The face filter as three comparisons per point, compressed after."""
    agree = ((1 << d) - 1) & ~(v ^ w)
    positions = [i for i in range(d) if (v ^ w) >> i & 1]
    kept = [u for u in points if u != v and u != w and not (u ^ v) & agree]
    return len(positions), [sum(((u ^ v) >> pos & 1) << j for j, pos in enumerate(positions))
                            for u in kept]


@st.composite
def _face_pass(draw):
    """A pass of the face filter: d, rows of n distinct d-bit masks and each
    row's pair of distinct positions."""
    d = draw(st.integers(1, 70))
    n = draw(st.integers(2, min(40, 1 << d)))
    row = st.lists(st.integers(0, (1 << d) - 1), min_size=n, max_size=n, unique=True)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return d, rows, [tuple(draw(pair)) for _ in rows]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_face_pass())
def test_face_points_is_the_three_comparison_filter(case):
    from polydense.graph import _face_points

    d, rows, pairs = case
    assert _face_points(d, rows, pairs) == [
        _face_points_by_three_comparisons(d, row[i], row[j], row)
        for row, (i, j) in zip(rows, pairs)]


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
        X = full_cube(10)  # C(1024, 2) pairs, above DENSITY_EXACT_BUDGET
        with pytest.raises(BudgetExceeded) as err:
            graph_density_exact(X)
        assert err.value.required == 523776
