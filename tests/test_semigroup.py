import json
import os
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from oracles import brute_force_fiber, divisor_degrees, s_less

from toricsyz import (
    DEGREVLEX,
    Config,
    NotCombinatoriallyFinite,
    ResolutionEngine,
    Semigroup,
    SemigroupError,
    ZeroGenerator,
    mono_str,
)


def brute_force_zero_combination(columns, bound):
    """Gordan-style check: a nonzero alpha with A.alpha = 0, sum(alpha) <= bound."""
    r = len(columns)
    dim = len(columns[0])

    def rec(i, remaining, partial, alpha):
        if i == r:
            return alpha if any(alpha) and not any(partial) else None
        for a in range(remaining + 1):
            hit = rec(
                i + 1,
                remaining - a,
                [p + a * c for p, c in zip(partial, columns[i])],
                alpha + (a,),
            )
            if hit:
                return hit
        return None

    return rec(0, bound, [0] * dim, ())


class TestValidation:
    def test_example_matrix_grading(self, example_semigroup):
        # the all-ones second row forces w = (0, 1)
        assert example_semigroup.grading == (Fraction(0), Fraction(1))

    def test_numerical_semigroup_grading(self, numerical_semigroup):
        # normalized so the smallest generator weight is exactly 1
        assert numerical_semigroup.grading == (Fraction(1, 2),)
        assert min(numerical_semigroup.weight(n)
                   for n in numerical_semigroup.generators) == 1

    def test_opposite_generators_rejected(self):
        with pytest.raises(NotCombinatoriallyFinite):
            Semigroup(1, [[1], [-1]])

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGenerator):
            Semigroup(2, [[1, 0], [0, 0]])

    def test_grading_dominates_every_generator(self, example_semigroup):
        for n in example_semigroup.generators:
            assert example_semigroup.weight(n) >= 1

    def test_agrees_with_brute_force_gordan(self):
        rng = random.Random(7)
        for _ in range(60):
            r = rng.randint(1, 4)
            dim = rng.randint(1, 2)
            columns = [
                [rng.randint(-3, 3) for _ in range(dim)] for _ in range(r)
            ]
            if any(not any(col) for col in columns):
                continue
            bound = 2 * r * 3 * dim
            witness = brute_force_zero_combination(columns, bound)
            try:
                Semigroup(dim, columns)
                accepted = True
            except NotCombinatoriallyFinite:
                accepted = False
            if accepted:
                assert witness is None, (columns, witness)
            else:
                # rejection must be certified by an actual zero combination
                assert brute_force_zero_combination(columns, bound) is not None


def _base_presentation(rng, d, r):
    """Mixed-sign columns n with w.n >= 1 for a hidden positive weight w."""
    w = [rng.randint(1, 3) for _ in range(d)]
    cols = []
    while len(cols) < r:
        n = [-rng.randint(1, 3) if rng.random() < 0.3 else rng.randint(0, 4)
             for _ in range(d)]
        if sum(a * b for a, b in zip(w, n)) >= 1:
            cols.append(n)
    return cols


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("d, r", [(6, 18), (7, 16)])
def test_heavy_tail_certificates_within_a_second(d, r):
    # unpruned Fourier-Motzkin elimination ran past 15 s on some of these
    rng = random.Random(0)
    for _ in range(5):
        columns = _base_presentation(rng, d, r)
        with time_limit(1.0):
            sg = Semigroup(d, columns)
        assert min(sg.weight(n) for n in sg.generators) == 1, columns


CERTIFICATES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                            "certificates.json")


def certificate_draw():
    """The presentations of golden/certificates.json: 20 for each d in 5..7.

    Sizes where plain elimination is out of reach.  Every fourth one has its
    last column replaced by minus the sum of two others (or by minus one
    other), a zero combination, so it has no positive grading.
    """
    rng = random.Random(31)
    draws = []
    for d in (5, 6, 7):
        for i in range(20):
            columns = _base_presentation(rng, d, rng.randint(d + 1, 18))
            if i % 4 == 3:
                picked = rng.sample(columns[:-1], rng.randint(1, 2))
                columns[-1] = [-sum(xs) for xs in zip(*picked)]
            draws.append((d, columns))
    return draws


def test_certificates_match_golden():
    # captured once from the build-then-prune elimination, never regenerated
    with open(CERTIFICATES, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [(g["dim"], g["generators"]) for g in golden] == certificate_draw()
    assert any(g["grading"] is None for g in golden)
    for g in golden:
        if g["grading"] is None:
            with pytest.raises(NotCombinatoriallyFinite):
                Semigroup(g["dim"], g["generators"])
        else:
            grading = Semigroup(g["dim"], g["generators"]).grading
            assert [str(x) for x in grading] == g["grading"], g["generators"]


class TestDegreeArithmetic:
    def test_known_degree_evaluation(self, example_semigroup):
        assert example_semigroup.degree_of((0, 2, 6, 0)) == (52, 8)

    def test_zero_monomial(self, example_semigroup):
        assert example_semigroup.degree_of((0, 0, 0, 0)) == (0, 0)

    def test_unit_vectors_hit_generators(self, example_semigroup):
        for i, n in enumerate(example_semigroup.generators):
            e = tuple(1 if k == i else 0 for k in range(4))
            assert example_semigroup.degree_of(e) == n


class TestMembership:
    def test_example_degree_is_member(self, example_semigroup):
        assert example_semigroup.member((52, 8))

    def test_generator_is_member(self, example_semigroup):
        assert example_semigroup.member((4, 1))

    def test_non_member(self, example_semigroup):
        assert not example_semigroup.member((1, 0))

    def test_zero_is_member(self, example_semigroup):
        assert example_semigroup.member((0, 0))

    def test_member_iff_fiber_nonempty(self, example_semigroup):
        sg = example_semigroup
        for b in range(4):
            for a in range(0, 8 * b + 3):
                m = (a, b)
                assert sg.member(m) == bool(sg.fiber(m, DEGREVLEX))


FIBER_52_8 = {
    (0, 2, 6, 0), (0, 3, 3, 2), (0, 4, 0, 4), (1, 1, 5, 1),
    (1, 2, 2, 3), (2, 0, 4, 2), (2, 1, 1, 4), (3, 0, 0, 5),
}


class TestFiber:
    def test_fiber_52_8_contents(self, example_semigroup):
        fiber = example_semigroup.fiber((52, 8), DEGREVLEX)
        assert set(fiber) == FIBER_52_8
        assert len(fiber) == 8

    def test_fiber_21_3_contents(self, example_semigroup):
        fiber = example_semigroup.fiber((21, 3), DEGREVLEX)
        assert set(map(mono_str, fiber)) == {"x3^3", "x2*x4^2"}

    def test_zero_degree_fiber_is_unit(self, example_semigroup):
        assert example_semigroup.fiber((0, 0), DEGREVLEX) == ((0, 0, 0, 0),)

    def test_empty_fiber(self, example_semigroup):
        assert example_semigroup.fiber((1, 0), DEGREVLEX) == ()

    def test_every_member_has_right_degree(self, example_semigroup):
        for alpha in example_semigroup.fiber((52, 8), DEGREVLEX):
            assert example_semigroup.degree_of(alpha) == (52, 8)

    def test_matches_boxed_brute_force(self, example_semigroup):
        sg = example_semigroup
        for m in sg.degrees_up_to(5):
            assert set(sg.fiber(m, DEGREVLEX)) == brute_force_fiber(sg, m)

    def test_strictly_decreasing_and_stable(self, example_semigroup):
        fiber = example_semigroup.fiber((52, 8), DEGREVLEX)
        keys = [DEGREVLEX.key(v) for v in fiber]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)
        again = Semigroup(2, [[4, 1], [5, 1], [7, 1], [8, 1]]).fiber((52, 8), DEGREVLEX)
        assert again == fiber


def search_nodes(sg, m):
    """The number of calls of the fiber search's recursive step while sg searches m."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec":
            calls += 1

    sys.setprofile(count)
    try:
        fiber = sg.fiber(m, DEGREVLEX)
    finally:
        sys.setprofile(None)
    return fiber, calls


class TestFacetPruning:
    # <e1, e2, e3, e1+e2, e2+e3>: the grading is (1, 1, 1), and the facets
    # of the real cone, the coordinate planes, are not parallel to it
    SG = Semigroup(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]])

    @pytest.mark.parametrize("k", [10, 40, 160])
    def test_edge_degree_visits_linearly_many_nodes(self, k):
        # the weight bound alone lets x3, x4 and x5 each run to k; the facets
        # x1 >= 0 and x2 >= 0 hold x1, x2 and x4 at 0, so only x3 is scanned
        fiber, nodes = search_nodes(self.SG, (0, 0, k))
        assert fiber == ((0, 0, k, 0, 0),)
        assert nodes <= 2 * k + 5

    def test_degree_outside_the_cone_visits_no_node(self):
        # weight 5 >= 0, but the facet x1 >= 0 rules it out at once
        assert search_nodes(self.SG, (-1, 3, 3)) == ((), 0)
        assert not self.SG.member((-1, 3, 3))

    def test_matches_boxed_brute_force(self):
        sg = self.SG
        for m in [(0, 0, 4), (2, 0, 3), (0, 3, 0), (2, 3, 1), (1, 4, 2), (3, 3, 3)]:
            assert set(sg.fiber(m, DEGREVLEX)) == brute_force_fiber(sg, m)

    def test_grading_parallel_facet_adds_no_bound(self, numerical_semigroup):
        # <3, 5>: the one facet is the grading itself
        numerical_semigroup.fiber((30,), DEGREVLEX)
        assert numerical_semigroup._cuts == ([], ((), ()))


class TestDivisibilityOrder:
    def test_comparable_pair(self, example_semigroup):
        # the difference (31, 5) has a nonempty fiber, found by brute force
        diff = (31, 5)
        assert brute_force_fiber(example_semigroup, diff)
        assert s_less(example_semigroup, (21, 3), (52, 8))

    def test_reflexive(self, example_semigroup):
        assert s_less(example_semigroup, (52, 8), (52, 8))

    def test_negative_difference(self, example_semigroup):
        assert not s_less(example_semigroup, (52, 8), (21, 3))


def test_degrees_up_to_enumeration(example_semigroup):
    degrees = example_semigroup.degrees_up_to(2)
    assert degrees[0] == (0, 0)
    expected = {(0, 0), (4, 1), (5, 1), (7, 1), (8, 1)}
    expected |= {
        tuple(a + b for a, b in zip(n1, n2))
        for n1 in example_semigroup.generators
        for n2 in example_semigroup.generators
    }
    assert set(degrees) == expected


def test_degrees_up_to_negative_bound_is_empty(example_semigroup, numerical_semigroup):
    # the zero degree has weight 0, which is above a negative bound
    for sg in (example_semigroup, numerical_semigroup):
        assert sg.degrees_up_to(-1) == []
        assert sg.degrees_up_to("-1/2") == []
        assert sg.degrees_up_to(0) == [sg.zero_degree()]


@pytest.mark.parametrize("columns, facets", [
    ([[4, 1], [5, 1], [7, 1], [8, 1]], ((-1, 8), (1, -4))),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
    ([[-3], [-5]], ((-1,),)),
    # rank 2 in Z^3: the normals use the first two coordinates, and the
    # generator (1, 1, 2) lies inside the cone
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], ((0, 1, 0), (1, 0, 0))),
    ([[1, -1], [1, 1], [1, 0]], ((1, -1), (1, 1))),
], ids=["example", "e1-e2-e3", "negative-line", "plane-in-z3", "mixed-signs"])
def test_cone_facets(columns, facets):
    assert Semigroup(len(columns[0]), columns)._cone_facets() == facets


def test_divisors_on_a_plane_in_z3():
    # N = (2, 2, 4): of D(N), N alone lies in N + S.  Degrees off the plane
    # z = x + y, or outside the cone, divide nothing.  The order is by weight
    # (here the last coordinate), ties by degree.
    sg = Semigroup(3, [[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert sg.apery_divisors((2, 1, 3)) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2),
                                            (2, 0, 2), (2, 1, 3)]
    assert sg.apery_divisors((2, 2, 4)) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (0, 2, 2),
                                            (1, 1, 2), (2, 0, 2), (1, 2, 3), (2, 1, 3)]
    assert sg.apery_divisors((2, 1, 4)) == []
    assert sg.apery_divisors((-1, 1, 0)) == []
    assert not sg.member((2, 1, 4)) and not sg.member((1, 0, 2))


def test_apery_divisors_of_a_mixed_sign_presentation():
    # (-1, 1) puts m - n_1 after m in degree order; the walk still lists
    # D(m) minus N + S by weight
    sg = Semigroup(2, [[-1, 1], [0, 1], [2, 1], [3, 1]])
    m, big_n = (10, 10), (4, 4)
    divisors = divisor_degrees(sg, m)
    expected = sorted((x for x in divisors
                       if not sg.member(tuple(a - b for a, b in zip(x, big_n)))),
                      key=lambda x: (sg.weight(x), x))
    assert sg.apery_divisors(m) == expected
    assert (len(divisors), len(expected)) == (109, 68)


class TestDegreeLength:
    """A degree of the wrong length is an error that names it and dim, not
    one silently cut to dim coordinates."""

    @pytest.mark.parametrize("degree", [(4, 1, 0), (4,)])
    def test_member(self, example_semigroup, degree):
        with pytest.raises(SemigroupError, match=rf"degree \({degree[0]},.*dim is 2"):
            example_semigroup.member(degree)

    def test_fiber(self, example_semigroup):
        with pytest.raises(SemigroupError, match=r"degree \(8, 2, 1\).*dim is 2"):
            example_semigroup.fiber((8, 2, 1), DEGREVLEX)

    def test_apery_divisors(self, example_semigroup):
        with pytest.raises(SemigroupError, match=r"degree \(60,\).*dim is 2"):
            example_semigroup.apery_divisors((60,))
        with pytest.raises(SemigroupError, match=r"degree \(60,\).*dim is 2"):
            ResolutionEngine(example_semigroup, Config()).harvest((60,), 3)


def test_matrix_rank(example_semigroup, numerical_semigroup):
    assert example_semigroup.matrix_rank() == 2
    assert numerical_semigroup.matrix_rank() == 1


def test_matrix_rank_lists_only_nonzero_entries(monkeypatch):
    from toricsyz import semigroup

    sg = Semigroup(2, [[1, 0], [0, 1], [1, 1]])
    rows_seen = []
    original = semigroup.gauss_reduce

    def recorded(rows, ncols, field):
        rows_seen.extend(rows)
        return original(rows, ncols, field)

    monkeypatch.setattr(semigroup, "gauss_reduce", recorded)
    assert sg.matrix_rank() == 2
    # one row per coordinate, one (generator, entry) pair per nonzero entry
    assert rows_seen == [[(0, 1), (2, 1)], [(1, 1), (2, 1)]]


class TestOtherShapes:
    def test_validate_presentation_function(self):
        assert Semigroup(2, [[4, 1], [5, 1], [7, 1], [8, 1]]).grading == \
            (Fraction(0), Fraction(1))

    def test_single_generator(self):
        sg = Semigroup(1, [[2]])
        assert sg.fiber((4,), DEGREVLEX) == ((2,),)
        assert sg.fiber((3,), DEGREVLEX) == ()
        assert sg.member((0,)) and not sg.member((-2,))

    def test_negative_entries_accepted_with_grading(self):
        sg = Semigroup(2, [[1, -1], [0, 1]])
        assert all(sg.weight(n) >= 1 for n in sg.generators)
        for m in sg.degrees_up_to(4):
            assert set(sg.fiber(m, DEGREVLEX)) == brute_force_fiber(sg, m)

    def test_numerical_semigroup_fibers(self, numerical_semigroup):
        sg = numerical_semigroup
        assert set(sg.fiber((12,), DEGREVLEX)) == {(6, 0), (3, 2), (0, 4)}
        assert not sg.member((1,))
