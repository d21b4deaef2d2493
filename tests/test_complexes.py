import random
from itertools import combinations

import pytest
from oracles import (DegreeMismatch, components, delta_is_face, face_gcd, nabla_is_face,
                     restrict_nabla)

from toricsyz import (
    DEGREVLEX,
    DeltaComplex,
    build_delta,
    build_nabla,
)
from toricsyz.orders import mono_gcd, mono_is_unit


def face_oracle(vertices, face):
    """Independent face test: componentwise minimum of the exponents."""
    return not mono_is_unit(mono_gcd(*(vertices[i] for i in face)))


class TestBuildNabla:
    def test_52_8_connected(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        assert len(cx.vertices) == 8
        assert len(components(cx)) == 1

    def test_21_3_disconnected(self, example_semigroup):
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        assert len(cx.vertices) == 2
        assert cx.faces_of_dim(1) == ()
        assert len(components(cx)) == 2

    def test_empty_complex(self, example_semigroup):
        cx = build_nabla(example_semigroup, (1, 0), DEGREVLEX)
        assert cx.is_void
        assert cx.faces_of_dim(0) == ()

    def test_zero_degree_has_no_faces(self, example_semigroup):
        cx = build_nabla(example_semigroup, (0, 0), DEGREVLEX)
        assert cx.vertices == ((0, 0, 0, 0),)
        assert cx.is_irrelevant
        assert cx.faces_of_dim(0) == ()


class TestIsFace:
    def test_coprime_pair_is_not_a_face(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        a = cx.vertex_index[(0, 2, 6, 0)]
        b = cx.vertex_index[(3, 0, 0, 5)]
        # the two monomials share no variable: minimum is zero everywhere
        assert mono_gcd((0, 2, 6, 0), (3, 0, 0, 5)) == (0, 0, 0, 0)
        assert not nabla_is_face(cx, tuple(sorted((a, b))))

    def test_singletons_are_faces(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        for i in range(len(cx.vertices)):
            assert nabla_is_face(cx, (i,))

    def test_pair_with_common_divisor(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        a = cx.vertex_index[(0, 2, 6, 0)]
        b = cx.vertex_index[(0, 3, 3, 2)]
        assert mono_gcd((0, 2, 6, 0), (0, 3, 3, 2)) == (0, 2, 3, 0)
        assert nabla_is_face(cx, tuple(sorted((a, b))))

    def test_cover_test_agrees_with_gcd_everywhere(self, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        n = len(cx.vertices)
        for size in range(1, n + 1):
            for face in combinations(range(n), size):
                covered = any(set(face) <= set(d) for d in cx.cover)
                assert covered == face_oracle(cx.vertices, face)
                listed = face in cx.faces_of_dim(size - 1)
                assert listed == covered


class TestFacesOfDim:
    def test_no_edges_in_disconnected_pair(self, example_semigroup):
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        assert cx.faces_of_dim(1) == ()

    def test_dimension_overflow(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        assert cx.faces_of_dim(len(cx.vertices)) == ()

    def test_24_4_face_list(self, example_semigroup):
        cx = build_nabla(example_semigroup, (24, 4), DEGREVLEX)
        verts = set(cx.vertices)
        assert verts == {(2, 0, 0, 2), (1, 1, 1, 1), (0, 2, 2, 0)}
        assert len(cx.faces_of_dim(0)) == 3
        edges = cx.faces_of_dim(1)
        named = {
            frozenset((cx.vertices[a], cx.vertices[b])) for a, b in edges
        }
        # pairwise gcds: the two mixed pairs share a variable, the outer pair does not
        assert named == {
            frozenset({(2, 0, 0, 2), (1, 1, 1, 1)}),
            frozenset({(0, 2, 2, 0), (1, 1, 1, 1)}),
        }
        assert cx.faces_of_dim(2) == ()

    def test_face_order_strict_total_and_stable(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        faces = cx.faces_of_dim(1)
        keys = [(DEGREVLEX.key(face_gcd(cx, f)), f) for f in faces]
        # gcd keys descending, ties broken by ascending index tuple
        for (k1, f1), (k2, f2) in zip(keys, keys[1:]):
            assert k1 > k2 or (k1 == k2 and f1 < f2)
        rebuilt = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        assert rebuilt.faces_of_dim(1) == faces

    def test_vertex_order_matches_zero_faces(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        assert cx.faces_of_dim(0) == tuple((i,) for i in range(len(cx.vertices)))


class TestRestrict:
    def test_restrict_by_x4_squared(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        restricted = restrict_nabla(cx, (0, 0, 0, 2))
        assert restricted.degree == (36, 6)
        assert set(restricted.vertices) == {
            (0, 3, 3, 0), (0, 4, 0, 2), (1, 2, 2, 1),
            (2, 0, 4, 0), (2, 1, 1, 2), (3, 0, 0, 3),
        }

    def test_restrict_to_21_3(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        restricted = restrict_nabla(cx, (0, 2, 3, 0))
        assert restricted.degree == (21, 3)
        assert set(restricted.vertices) == {(0, 0, 3, 0), (0, 1, 0, 2)}

    def test_restrict_by_unit_is_identity(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        restricted = restrict_nabla(cx, (0, 0, 0, 0))
        assert restricted.vertices == cx.vertices
        for j in range(4):
            assert restricted.faces_of_dim(j) == cx.faces_of_dim(j)

    def test_degree_mismatch(self, example_semigroup):
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        with pytest.raises(DegreeMismatch):
            restrict_nabla(cx, (0, 2, 6, 0))

    def test_randomized_agreement_with_direct_build(self, example_semigroup):
        rng = random.Random(11)
        sg = example_semigroup
        degrees = [m for m in sg.degrees_up_to(8) if sg.fiber(m, DEGREVLEX)]
        checked = 0
        while checked < 50:
            m = rng.choice(degrees)
            fiber = sg.fiber(m, DEGREVLEX)
            alpha = rng.choice(fiber)
            beta = tuple(rng.randint(0, e) for e in alpha)
            cx = build_nabla(sg, m, DEGREVLEX)
            restricted = restrict_nabla(cx, beta)
            direct = build_nabla(sg, restricted.degree, DEGREVLEX)
            assert restricted.vertices == direct.vertices
            for j in range(max(restricted.dimension, direct.dimension) + 1):
                assert restricted.faces_of_dim(j) == direct.faces_of_dim(j)
            checked += 1


class TestDelta:
    def test_12_2_faces(self, example_semigroup):
        cx = build_delta(example_semigroup, (12, 2))
        # oracle: check all 16 subsets directly through membership
        sg = example_semigroup
        for size in range(5):
            for face in combinations(range(4), size):
                m = (12, 2)
                for i in face:
                    m = sg.sub_degree(m, sg.generators[i])
                assert delta_is_face(cx, face) == sg.member(m)
        assert delta_is_face(cx, (0,)) and delta_is_face(cx, (3,))
        assert delta_is_face(cx, (0, 3)) and delta_is_face(cx, (1, 2))
        assert not delta_is_face(cx, (0, 1))

    def test_zero_degree_only_empty_face(self, example_semigroup):
        cx = build_delta(example_semigroup, (0, 0))
        assert cx.masks == frozenset({0})
        assert cx.is_irrelevant

    def test_void_for_non_member(self, example_semigroup):
        cx = build_delta(example_semigroup, (1, 0))
        assert cx.is_void

    def test_closed_under_subsets(self, example_semigroup):
        cx = build_delta(example_semigroup, (24, 4))
        for face in cx.masks:
            for k in range(face.bit_length()):
                assert face & ~(1 << k) in cx.masks

    def test_faces_of_every_dimension_from_one_pass(self, example_semigroup):
        class CountedMasks(frozenset):
            scans = 0

            def __iter__(self):
                CountedMasks.scans += 1
                return super().__iter__()

        built = build_delta(example_semigroup, (24, 4))
        cx = DeltaComplex(example_semigroup, built.degree, CountedMasks(built.masks))
        r = example_semigroup.num_generators
        by_dim = {j: cx.faces_of_dim(j) for j in range(-2, r + 1)}
        # the masks are scanned once, whatever dimensions are asked
        assert CountedMasks.scans == 1
        assert by_dim[-2] == by_dim[r] == () and by_dim[-1] == ((),)
        for j in range(r):
            assert by_dim[j] == tuple(sorted(f for f in combinations(range(r), j + 1)
                                             if delta_is_face(built, f)))


def test_facets_cover_all_faces(example_semigroup):
    cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
    facets = [set(f) for f in cx.facets()]
    for j in range(cx.dimension + 1):
        for face in cx.faces_of_dim(j):
            assert any(set(face) <= facet for facet in facets)


class TestTermOrders:
    def test_degrevlex_is_multiplicative(self):
        rng = random.Random(3)
        from toricsyz import DEGREVLEX, LEX
        for order in (DEGREVLEX, LEX):
            for _ in range(200):
                a = tuple(rng.randint(0, 4) for _ in range(4))
                b = tuple(rng.randint(0, 4) for _ in range(4))
                c = tuple(rng.randint(0, 4) for _ in range(4))
                if a == b:
                    continue
                ab = order.key(a) > order.key(b)
                shifted = order.key(tuple(x + z for x, z in zip(a, c))) > \
                    order.key(tuple(y + z for y, z in zip(b, c)))
                assert ab == shifted

    def test_total_on_equal_degree(self, example_semigroup):
        from toricsyz import DEGREVLEX
        fiber = example_semigroup.fiber((52, 8), DEGREVLEX)
        keys = [DEGREVLEX.key(v) for v in fiber]
        assert len(set(keys)) == len(keys)

    def test_variable_precedence(self):
        from toricsyz import DEGREVLEX, LEX
        e = [tuple(1 if i == k else 0 for i in range(4)) for k in range(4)]
        for order in (DEGREVLEX, LEX):
            keys = [order.key(v) for v in e]
            assert keys == sorted(keys, reverse=True)
