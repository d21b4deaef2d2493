"""Property tests on random small presentations.

Presentations have d <= 3 rows and r <= 5 columns with entries of both
signs; those that are not combinatorially finite (or have a zero column)
are filtered out. Degrees are semigroup elements of small weight, plus
shifts of them that usually leave the semigroup.  The grading certificate
is checked on its own columns (d <= 4, r <= 7 plus some negated copies),
which are kept whether or not a grading exists.  Fiber and comparison
complexes for the spanning-forest check are drawn directly, as vertex and
face sets.
"""
import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from itertools import combinations
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import (
    MemoOffEngine,
    brute_force_fiber,
    divisor_degrees,
    face_masks,
    fourier_motzkin_point,
    gcd_closure_degrees,
    greedy_extension,
    layered_delta,
    harvest_every_basis,
    in_real_cone,
    kernel_by_solve,
    nabla_face_order,
    oracle_v0,
    pruned_fourier_motzkin_point,
    q_fixed_cycle_basis,
)

from toricsyz import (
    DEGREVLEX,
    LEX,
    Config,
    DeltaComplex,
    NablaComplex,
    NotACycle,
    NotCombinatoriallyFinite,
    ResolutionEngine,
    Semigroup,
    SemigroupError,
    betti_reduced,
    boundary_matrix,
    build_delta,
    build_nabla,
    fixed_cycle_basis,
    gauss_reduce,
    get_field,
)
from toricsyz import cli, semigroup
from toricsyz.homology import (
    _basis_fault,
    basis_cache_key,
    chain_boundary,
    load_cached_basis,
    reduce_boundary,
    store_cached_basis,
)
from toricsyz.resolution import syz_mono_mul
from toricsyz.serialize import (
    decomposition_to_json,
    dumps,
    fragment_to_json,
    gid_to_json,
    verify_fragment_json,
)

FIELDS = ("rational", 5, 32003)


@st.composite
def presentations(draw, max_dim=3, max_gens=5, min_codim=None):
    d = draw(st.integers(1, max_dim))
    r = draw(st.integers(2 if min_codim is None else d + min_codim, max_gens))
    # small entries give relations, hence homology, at small weights
    columns = draw(st.lists(st.lists(st.integers(-1, 3), min_size=d, max_size=d),
                            min_size=r, max_size=r))
    try:
        return Semigroup(d, columns)
    except SemigroupError:  # NotCombinatoriallyFinite or ZeroGenerator
        assume(False)


@st.composite
def small_complexes(draw, fiber_only=False):
    """A fiber or comparison complex on up to 5 variables, not from a fiber search.

    Vertex sets of a fiber complex and face sets of a comparison complex
    are drawn directly, so edgeless, disconnected, irrelevant and void
    complexes come up often.  A fiber complex's vertices are sorted in
    degrevlex or lex, and may hold the unit monomial.
    """
    r = draw(st.integers(1, 5))
    sg = Semigroup(1, [[i + 1] for i in range(r)])
    if fiber_only or draw(st.booleans()):
        # mostly-zero exponents keep the variables' covers apart
        monomial = st.tuples(*[st.sampled_from((0, 0, 0, 1, 2))] * r)
        vertices = draw(st.lists(monomial, max_size=12, unique=True))
        order = draw(st.sampled_from((DEGREVLEX, LEX)))
        return NablaComplex(sg, (0,), order, tuple(order.sort_decreasing(vertices)))
    faces = {()} if draw(st.booleans()) else set()
    facets = st.sets(st.integers(0, r - 1), min_size=1, max_size=3)
    for facet in draw(st.lists(facets, max_size=6)):
        facet = sorted(facet)
        faces.update(sub for k in range(len(facet) + 1) for sub in combinations(facet, k))
    return DeltaComplex(sg, (0,), face_masks(faces))


@st.composite
def generator_columns(draw, max_dim=4, max_gens=7, max_total=None):
    """Nonzero mixed-sign columns, many followed by a partner.

    The partner is the column's negative, a repeat of it or a multiple of
    it: a +- pair admits no positive grading, and a repeat or a multiple
    gives rows that merge once scaled.  At most max_gens columns are drawn,
    and the list is cut to max_total.
    """
    d = draw(st.integers(1, max_dim))
    column = st.lists(st.integers(-2, 3), min_size=d, max_size=d).filter(any)
    columns = []
    for col in draw(st.lists(column, min_size=1, max_size=max_gens)):
        columns.append(col)
        factor = draw(st.sampled_from((None, None, None, -1, -1, 1, 2, 3)))
        if factor is not None:
            columns.append([factor * x for x in col])
    return d, columns[:max_total]


@settings(max_examples=200)
@given(generator_columns(max_gens=10, max_total=10))
def test_pruned_elimination_gives_the_reference_point(case):
    d, columns = case
    rows = [(tuple(col), 1) for col in columns]
    point = fourier_motzkin_point(rows, d)
    assert pruned_fourier_motzkin_point(rows, d) == point, columns
    if point is None:
        with pytest.raises(NotCombinatoriallyFinite):
            Semigroup(d, columns)
    else:
        scale = min(sum(a * b for a, b in zip(point, col)) for col in columns)
        assert Semigroup(d, columns).grading == tuple(x / scale for x in point)


@settings(max_examples=200)
@given(generator_columns(max_gens=10, max_total=10))
@example((3, [[1, 0, -2], [1, 2, 3], [-2, -1, 3], [3, 0, -2]]))
def test_no_row_past_chernikovs_count_is_built(case):
    # the k-th merge, after k eliminations, sees only rows of at most k + 1
    # original rows: a pair past the count is skipped before its row exists
    d, columns = case
    merged = []
    merge = semigroup._pruned
    with mock.patch.object(semigroup, "_pruned",
                           lambda rows: merged.append(rows) or merge(rows)):
        semigroup._fourier_motzkin_numerators([(tuple(col), 1) for col in columns], d)
    assert len(merged) == d
    for k, rows in enumerate(merged):
        assert all(history.bit_count() <= k + 1 for _, _, history in rows), (k, columns)


@given(generator_columns())
def test_grading_is_the_reference_point_over_its_minimum(case):
    # the certificate's scaling to min w.n_i = 1, and the integer weights
    # the fiber search divides by, against plain elimination
    d, columns = case
    point = fourier_motzkin_point([(tuple(col), 1) for col in columns], d)
    if point is None:
        with pytest.raises(NotCombinatoriallyFinite):
            Semigroup(d, columns)
        return
    sg = Semigroup(d, columns)
    scale = min(sum(a * b for a, b in zip(point, col)) for col in columns)
    assert sg.grading == tuple(x / scale for x in point), columns
    assert min(sg.weight(col) for col in sg.generators) == 1
    factor = sg._wdots[0] / sg.weight(sg.generators[0])
    assert factor > 0
    assert sg._int_grading == tuple(x * factor for x in sg.grading)
    assert sg._wdots == tuple(sg.weight(col) * factor for col in sg.generators)


@given(data=st.data())
def test_fiber_search_matches_brute_force(data):
    sg = data.draw(presentations())
    m = data.draw(st.sampled_from(sg.degrees_up_to(3)))
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=sg.dim, max_size=sg.dim))
    shifted = tuple(a + b for a, b in zip(m, shift))
    if sg.weight(shifted) <= 4:
        m = shifted
    # member answers before fiber fills its cache, by its own search
    member = sg.member(m)
    fiber = sg.fiber(m, DEGREVLEX)
    assert set(fiber) == brute_force_fiber(sg, m)
    assert len(set(fiber)) == len(fiber)
    assert member == bool(fiber)


def _fraction_weight_degrees(sg, w_bound):
    """degrees_up_to as it was before the integer enumeration: a breadth-first
    search that weighs each degree with Fractions, sorted on (weight, degree)."""
    bound = Fraction(w_bound)
    if bound < 0:
        return []
    zero = sg.zero_degree()
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for m in frontier:
            for n in sg.generators:
                m2 = tuple(a + b for a, b in zip(m, n))
                if m2 not in seen and sg.weight(m2) <= bound:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return sorted(seen, key=lambda d: (sg.weight(d), d))


weight_bounds = st.one_of(
    st.integers(-2, 4), st.fractions(-2, 4, max_denominator=4), st.just(Fraction(7, 2)),
).flatmap(lambda b: st.sampled_from((b, str(b))))


def _sum(sg):
    """N, the sum of the generators."""
    return tuple(map(sum, zip(*sg.generators)))


@given(data=st.data())
def test_membership_lookup_matches_the_search(data):
    # one enumeration, the walk, which searches nothing, and one membership
    # answer, the search, made once per degree
    sg = data.draw(presentations())
    w_bound, smaller = data.draw(weight_bounds), data.draw(weight_bounds)
    search = mock.Mock(wraps=sg._search)
    with mock.patch.object(sg, "_search", search):
        degrees = sg.degrees_up_to(w_bound)
        assert sg.degrees_up_to(smaller) == _fraction_weight_degrees(sg, smaller)
        assert search.call_count == 0
        # degrees at and below the bound, one generator above it, shifted
        # off the semigroup, and of negative weight
        queries = set(degrees) | {sg.zero_degree()}
        queries |= {tuple(a + b for a, b in zip(m, n))
                    for m in degrees for n in sg.generators}
        queries |= {tuple(-a for a in n) for n in sg.generators}
        for m in list(queries):
            shift = data.draw(st.lists(st.integers(-1, 1), min_size=sg.dim, max_size=sg.dim))
            queries.add(tuple(a + b for a, b in zip(m, shift)))
        reference = Semigroup(sg.dim, sg.generators)
        for m in sorted(queries) * 2:
            assert sg.member(m) == reference._search(m, find_all=False), m
        assert search.call_count == len(queries)
    assert degrees == _fraction_weight_degrees(sg, w_bound)
    assert all(sg.member(m) for m in degrees)


@given(data=st.data())
def test_divisor_enumeration_is_the_cone_below_the_degree(data):
    # the facet normals cut out the real cone: the walk of m - C lists the
    # elements m' of S with m - m' in it and no other, by weight, and with
    # apery those of them outside N + S
    sg = data.draw(presentations())
    m = data.draw(st.sampled_from(sg.degrees_up_to(4)))
    assert all(sum(map(mul, y, n)) >= 0 for y in sg._cone_facets() for n in sg.generators)
    rows = tuple((y, sum(map(mul, y, m))) for y in (sg._int_grading, *sg._cone_facets()))
    cone = [x for x in sg.degrees_up_to(sg.weight(m))
            if in_real_cone(sg, sg.sub_degree(m, x))]
    assert sg._walk(rows) == cone
    big_n = _sum(sg)
    assert sg._walk(rows, big_n) == [
        x for x in cone if not sg.member(sg.sub_degree(x, big_n))]


@given(data=st.data())
def test_apery_divisors_are_the_divisors_outside_n_plus_s(data):
    # also at shifts of m, which mostly leave the semigroup: then D(m) is empty
    sg = data.draw(presentations())
    m = data.draw(st.sampled_from(sg.degrees_up_to(4)))
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=sg.dim, max_size=sg.dim))
    reference, big_n = Semigroup(sg.dim, sg.generators), _sum(sg)
    for q in (m, tuple(a + b for a, b in zip(m, shift))):
        expected = sorted((x for x in divisor_degrees(reference, q)
                           if not reference.member(sg.sub_degree(x, big_n))),
                          key=lambda x: (sg.weight(x), x))
        search = mock.Mock(wraps=sg._search)
        with mock.patch.object(sg, "_search", search):
            assert sg.apery_divisors(q) == expected, (sg, q)
        assert search.call_count == 0


@given(data=st.data())
def test_betti_delta_vanishes_where_the_walk_skips(data):
    # at a degree of D(m) in N + S the comparison complex is the full simplex
    sg = data.draw(presentations())
    m = data.draw(st.sampled_from(sg.degrees_up_to(6)))
    skipped = divisor_degrees(sg, m) - set(sg.apery_divisors(m))
    r = sg.num_generators
    for field in FIELDS:
        engine = ResolutionEngine(sg, Config(field=field))
        for x in skipped:
            assert build_delta(sg, x).masks == frozenset(range(1 << r)), (sg, x)
            assert [engine.betti_delta(x, j) for j in range(-1, r)] == [0] * (r + 1), \
                (sg, m, x, field)


@given(data=st.data())
def test_betti_delta_matches_fiber_complex(data):
    sg = data.draw(presentations())
    # small fibers keep the fiber complexes, and the test, small
    degrees = [m for m in sg.degrees_up_to(6) if len(sg.fiber(m, DEGREVLEX)) <= 12]
    for field in FIELDS:
        engine = ResolutionEngine(sg, Config(field=field))
        for m in degrees:
            for j in range(sg.num_generators):
                assert engine.betti_delta(m, j) == engine.multigraded_betti(m, j), \
                    (sg, m, j, field)


@given(data=st.data())
def test_comparison_complex_memo_matches_the_layered_oracle(data):
    # the engine reduces one comparison complex per face set; each degree,
    # asked for again or after another of its face set, in any order, must
    # read the Betti numbers of its own complex grown as index tuples
    sg = data.draw(presentations())
    members = sg.degrees_up_to(8)
    degrees = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=20))
    # shifts mostly leave the semigroup: those all share the void complex
    for m in list(degrees):
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=sg.dim, max_size=sg.dim))
        degrees.append(tuple(a + b for a, b in zip(m, shift)))
    oracle = {m: layered_delta(sg, m) for m in degrees}
    for m, cx in oracle.items():
        built = build_delta(sg, m)
        assert built.masks == cx.masks, (sg, m)
    queries = [(m, j) for m in degrees + degrees[::2] for j in range(-1, sg.num_generators)]
    for field in FIELDS:
        engine = ResolutionEngine(sg, Config(field=field))
        for m, j in data.draw(st.permutations(queries)):
            assert engine.betti_delta(m, j) == betti_reduced(oracle[m], j, get_field(field)), \
                (sg, m, j, field)
        assert set(engine._delta) == {cx.masks for cx in oracle.values()}


@given(data=st.data())
def test_comparison_complexes_read_off_their_neighbours_match_the_oracle(data):
    # walk_face_sets reads each face set off the neighbours' along a weight
    # ball and along the Apéry degrees of a D(m), building none on its own;
    # betti_delta builds the complex at a degree no walk recorded.  All must
    # give the complex grown as index tuples.
    from toricsyz import resolution

    sg = data.draw(presentations())
    degrees = sg.degrees_up_to(8)
    divisors = sg.apery_divisors(data.draw(st.sampled_from(degrees)))
    for walk in (degrees, divisors):
        oracle = {m: layered_delta(sg, m).masks for m in walk}
        engine = ResolutionEngine(sg, Config())
        with mock.patch.object(resolution, "build_delta", side_effect=AssertionError):
            engine.walk_face_sets(walk)
            assert [engine.betti_delta(m, 0) for m in walk] == [
                betti_reduced(engine._delta[oracle[m]], 0, get_field("rational"))
                for m in walk]
        assert engine._delta_faces == oracle, sg
    engine = ResolutionEngine(sg, Config())
    for m in degrees[::-1]:
        engine.betti_delta(m, 0)
    assert engine._delta_faces == {m: layered_delta(sg, m).masks for m in degrees}, sg


@given(data=st.data())
def test_homology_representatives_are_the_greedy_extension(data):
    sg = data.draw(presentations())
    degrees = [m for m in sg.degrees_up_to(6) if len(sg.fiber(m, DEGREVLEX)) <= 12]
    for field in map(get_field, FIELDS):
        for m in degrees:
            cx = build_nabla(sg, m, DEGREVLEX)
            for j in range(sg.num_generators):
                basis = fixed_cycle_basis(cx, j, field)
                index = basis.face_index
                boundary = [{index[f]: c for f, c in ch.items()} for ch in basis.boundary]
                d_j = boundary_matrix(cx, j).data
                kernel = kernel_by_solve(gauss_reduce(d_j, len(basis.faces), field), d_j,
                                         len(basis.faces), field)
                homology = [{index[f]: c for f, c in ch.items()} for ch in basis.homology]
                assert homology == greedy_extension(field, boundary, kernel), \
                    (sg, m, j, field)


def _crafted_representatives(basis):
    """Each representative changed so that it is no longer the fixed one.

    Plus the boundary of an up-face (a cycle in the same class), scaled by
    2 (a cycle with 2 at its last face), and with an explicit zero term on
    a face it misses; the rest of the homology part is kept.
    """
    field, two = basis.field, basis.field.of(2)
    for i, h in enumerate(basis.homology):
        variants = [{face: field.of(two * c) for face, c in h.items()}]
        if basis.up_faces:
            plus = dict(h)
            field.axpy(plus, chain_boundary({basis.up_faces[0]: field.one}, field), field.one)
            variants.append(plus)
        variants += [{**h, face: field.zero} for face in basis.faces if face not in h][:1]
        for chain in variants:
            yield basis.homology[:i] + [chain] + basis.homology[i + 1:]


@given(data=st.data())
def test_built_and_cached_bases_pass_one_check(data):
    # fixed_cycle_basis and load_cached_basis share _basis_fault: a built
    # basis passes it and comes back from the cache with equal homology,
    # and a changed representative is refused by the check and the loader
    sg = data.draw(presentations())
    degrees = [m for m in sg.degrees_up_to(6) if len(sg.fiber(m, DEGREVLEX)) <= 12]
    for field in map(get_field, FIELDS):
        with tempfile.TemporaryDirectory() as cache:
            for m in degrees:
                cx = build_nabla(sg, m, DEGREVLEX)
                for j in range(sg.num_generators):
                    basis = fixed_cycle_basis(cx, j, field)
                    assert _basis_fault(basis) is None, (sg, m, j, field)
                    key = basis_cache_key(sg, m, j, "degrevlex", field.name)
                    store_cached_basis(cache, key, basis)
                    loaded = load_cached_basis(cache, key, field, cx, j)
                    assert loaded.homology == basis.homology, (sg, m, j, field)
                    for homology in _crafted_representatives(basis):
                        bad = copy.copy(basis)
                        bad.homology = homology
                        assert _basis_fault(bad), (sg, m, j, field, homology)
                        store_cached_basis(cache, key, bad)
                        assert load_cached_basis(cache, key, field, cx, j) is None, \
                            (sg, m, j, field, homology)


@given(data=st.data())
def test_express_gives_back_the_coefficients_of_a_combination(data):
    sg = data.draw(presentations())
    rng = data.draw(st.randoms(use_true_random=False))
    degrees = [m for m in sg.degrees_up_to(6) if len(sg.fiber(m, DEGREVLEX)) <= 12]
    for field in map(get_field, FIELDS):
        def scalar():
            if field.modulus is None:
                return field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            return rng.randrange(field.modulus)

        for m in degrees:
            cx = build_nabla(sg, m, DEGREVLEX)
            for j in range(sg.num_generators):
                basis = fixed_cycle_basis(cx, j, field)
                if not basis.faces:
                    continue
                lam = [scalar() for _ in basis.homology]
                mu = [scalar() for _ in basis.boundary]
                chain = {}
                for coeff, cycle in zip(lam + mu, basis.homology + basis.boundary):
                    field.axpy(chain, cycle, coeff)
                assert basis.express(chain) == (lam, mu), (sg, m, j, field)
                # one more face: a nonzero boundary
                field.axpy(chain, {rng.choice(basis.faces): field.one}, field.one)
                with pytest.raises(NotACycle):
                    basis.express(chain)


@given(data=st.data())
def test_engine_and_file_verify_give_one_report(data):
    # codimension >= 2, so first syzygies occur at low weight
    sg = data.draw(presentations(max_dim=2, max_gens=4, min_codim=2))
    engine = ResolutionEngine(sg, Config())
    degrees = [m for m in sg.degrees_up_to(6) if len(sg.fiber(m, DEGREVLEX)) <= 12]
    for m in degrees:
        fragment = engine.harvest(m, 1)
    doc = json.loads(dumps(fragment_to_json(fragment, engine)))
    report = engine.verify_fragment(fragment)
    assert report["passed"], report
    assert report == fragment.report == verify_fragment_json(doc, engine)
    if 1 not in fragment.levels:
        return
    # bump one coefficient of the first level-1 record on both sides
    broken = copy.deepcopy(fragment)
    rec = broken.levels[1][0]
    gid2 = min(rec.value)
    mono = min(rec.value[gid2])
    rec.value[gid2][mono] += 1
    entry = next(g for g in doc["generators"] if g["id"] == gid_to_json(rec.gid))
    term = next(t for v in entry["value"] if v["generator"] == gid_to_json(gid2)
                for t in v["coefficient"] if tuple(t["monomial"]) == mono)
    term["coeff"] = engine.field.to_str(rec.value[gid2][mono])
    broken_report = engine.verify_fragment(broken)
    assert not broken_report["passed"]
    assert broken_report == verify_fragment_json(doc, engine)


@given(data=st.data())
def test_minimalize_reconstructs_the_binomial(data):
    sg = data.draw(presentations(max_dim=2, max_gens=4, min_codim=1))
    degrees = [m for m in sg.degrees_up_to(5) if 2 <= len(sg.fiber(m, DEGREVLEX)) <= 12]
    assume(degrees)
    m = data.draw(st.sampled_from(degrees))
    lead, trail = data.draw(st.lists(st.sampled_from(sg.fiber(m, DEGREVLEX)),
                                     min_size=2, max_size=2, unique=True))
    engine = ResolutionEngine(sg, Config(field=data.draw(st.sampled_from(FIELDS))))
    field = engine.field
    result = engine.minimalize_binomial(lead, trail)
    gamma = tuple(map(min, lead, trail))
    # sum of coefficient * (x^lead_g - x^trail_g), multiplied out here
    total = {}
    minus_one = field.neg(field.one)
    for rec, poly in result.entries:
        assert rec.level == 0 and engine.betti_delta(rec.degree, 0) > 0, rec
        binomial = rec.value
        for mono, coeff in poly.items():
            assert all(g <= e for g, e in zip(gamma, mono)), (mono, gamma)
            assert sg.sub_degree(m, sg.degree_of(mono)) == rec.degree
            for term, sign in ((binomial.lead, field.one), (binomial.trail, minus_one)):
                product = tuple(a + b for a, b in zip(mono, term))
                field.axpy(total, {product: coeff}, sign)
    assert total == {lead: field.one, trail: minus_one}, (sg, lead, trail)


def _assert_harvest_is_the_walk(sg, m, max_level, field, order):
    config = Config(field=field, term_order=order)
    engine, walk = ResolutionEngine(sg, config), ResolutionEngine(sg, config)
    fragment = engine.harvest(m, max_level)
    expected = harvest_every_basis(walk, m, max_level)
    assert dumps(fragment_to_json(fragment, engine)) == \
        dumps(fragment_to_json(expected, walk)), (sg, m, max_level, field, order)


@given(data=st.data())
def test_harvest_matches_building_every_basis(data):
    # harvest visits only the degrees of D(m); the face walk at m that it
    # replaced, building every basis there, must register the same generators
    sg = data.draw(presentations(max_dim=2, max_gens=4, min_codim=1))
    degrees = [m for m in sg.degrees_up_to(5) if len(sg.fiber(m, DEGREVLEX)) <= 10]
    max_level = data.draw(st.integers(1, 3))
    for field in FIELDS:
        for order in ("degrevlex", "lex"):
            for m in degrees:
                _assert_harvest_is_the_walk(sg, m, max_level, field, order)


@pytest.mark.parametrize("columns, m, max_level, field, order", [
    ([[4], [5], [6], [7]], (40,), 1, "rational", "degrevlex"),
    ([[4], [5], [6], [7]], (34,), 3, 32003, "lex"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (30, 30, 30), 3, 5, "degrevlex"),
    # D(m) has 125 degrees where the gcd closure at level 3 has 35
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]], (4, 4, 4), 3, 5,
     "degrevlex"),
], ids=["s4567-at-40", "s4567-at-34", "free-e1-e2-e3", "path-e1-e2-e3-at-4"])
def test_harvest_matches_the_walk_on_fixed_inputs(columns, m, max_level, field, order):
    _assert_harvest_is_the_walk(Semigroup(len(columns[0]), columns), m, max_level,
                                field, order)


@given(data=st.data())
def test_divisor_set_has_the_homology_of_the_gcd_closure(data):
    # the gcd closure C(m) lies in D(m), which harvest visits, and has the
    # same degrees and levels of nonzero homology, so both register the same
    # generators
    sg = data.draw(presentations())
    degrees = [m for m in sg.degrees_up_to(5) if len(sg.fiber(m, DEGREVLEX)) <= 10]
    max_level = data.draw(st.integers(0, 3))
    for field in FIELDS:
        engine = ResolutionEngine(sg, Config(field=field))

        def with_homology(degrees):
            return {(mp, j) for mp in degrees for j in range(max_level + 1)
                    if engine.betti_delta(mp, j)}

        for m in degrees:
            closure, divisors = gcd_closure_degrees(sg, m, max_level), divisor_degrees(sg, m)
            assert closure <= divisors, (sg, m)
            assert with_homology(closure) == with_homology(divisors), (sg, m, field)


@given(data=st.data())
def test_oracle_v0_matches_betti_delta(data):
    sg = data.draw(presentations())
    degrees = [m for m in sg.degrees_up_to(6) if len(sg.fiber(m, DEGREVLEX)) <= 12]
    for field in FIELDS:
        engine = ResolutionEngine(sg, Config(field=field))
        for m in degrees:
            assert oracle_v0(engine, m) == engine.betti_delta(m, 0), (sg, m, field)


def _draw_commands(data):
    """A presentation, and a function giving the bytes an engine writes for
    minimalize on drawn binomials and harvest at small degrees."""
    sg = data.draw(presentations(max_dim=2, max_gens=4, min_codim=1))
    degrees = [m for m in sg.degrees_up_to(5) if len(sg.fiber(m, DEGREVLEX)) <= 10]
    binomials = [data.draw(st.lists(st.sampled_from(sg.fiber(m, DEGREVLEX)),
                                    min_size=2, max_size=2, unique=True))
                 for m in degrees if len(sg.fiber(m, DEGREVLEX)) >= 2]
    max_level = data.draw(st.integers(1, 2))

    def outputs(engine):
        out = [dumps(decomposition_to_json(engine.minimalize_binomial(lead, trail),
                                           engine, [lead, trail]))
               for lead, trail in binomials]
        return out + [dumps(fragment_to_json(engine.harvest(m, max_level), engine))
                      for m in degrees]

    return sg, outputs


@settings(max_examples=60)
@given(data=st.data())
def test_pivot_bases_give_the_bytes_of_the_q_bases(data):
    # the preimage pushed into the recursion is the unique chain on the
    # pivot up-faces with the right boundary, whichever boundary basis of
    # the same space it is solved against
    sg, outputs = _draw_commands(data)
    for field in FIELDS:
        engine = ResolutionEngine(sg, Config(field=field))
        reference = ResolutionEngine(sg, Config(field=field))
        with mock.patch("toricsyz.resolution.fixed_cycle_basis", q_fixed_cycle_basis):
            expected = outputs(reference)
        assert outputs(engine) == expected, (sg, field)


@given(data=st.data())
def test_warm_cache_engine_matches_a_cold_one(data):
    # the warm engine loads every basis the cold one stored; each must be
    # the basis a fresh complex gives, and the bytes must not change
    sg, outputs = _draw_commands(data)
    for field in FIELDS:
        with tempfile.TemporaryDirectory() as cache:
            config = Config(field=field, cache_dir=cache)
            expected = outputs(ResolutionEngine(sg, config))
            loads = []

            def load(cache_dir, key, field_, complex_, j):
                basis = load_cached_basis(cache_dir, key, field_, complex_, j)
                loads.append((complex_.degree, j, basis))
                return basis

            with mock.patch("toricsyz.resolution.load_cached_basis", load):
                assert outputs(ResolutionEngine(sg, config)) == expected, (sg, field)
        for m, j, basis in loads:
            assert basis is not None, (sg, field, m, j)
            fresh = fixed_cycle_basis(build_nabla(sg, m, DEGREVLEX), j, get_field(field))
            assert (basis.pivots, basis.free, basis.boundary, basis.homology) == \
                (fresh.pivots, fresh.free, fresh.boundary, fresh.homology), (sg, field, m, j)


@given(data=st.data())
def test_decomposition_memo_matches_an_engine_that_never_stores(data):
    # one warm engine answers every query, so inputs that differ only by
    # content, and repeated queries, are served from its memo; codimension
    # >= 2 gives first syzygies at low weight
    sg = data.draw(presentations(max_dim=2, max_gens=4, min_codim=2))
    degrees = [m for m in sg.degrees_up_to(5) if len(sg.fiber(m, DEGREVLEX)) <= 10]
    binomials = [data.draw(st.lists(st.sampled_from(sg.fiber(m, DEGREVLEX)),
                                    min_size=2, max_size=2, unique=True))
                 for m in degrees if len(sg.fiber(m, DEGREVLEX)) >= 2]
    max_level = data.draw(st.integers(1, 2))
    config = Config(field=data.draw(st.sampled_from(FIELDS)))
    engine, oracle = ResolutionEngine(sg, config), MemoOffEngine(sg, config)

    def decomposition(e, result, input_desc):
        return ([(rec.gid, poly) for rec, poly in result.entries],
                dumps(decomposition_to_json(result, e, input_desc)))

    def outputs(e, syzygies):
        out = [decomposition(e, e.minimalize_binomial(lead, trail), [lead, trail])
               for lead, trail in binomials]
        out += [dumps(fragment_to_json(e.harvest(m, max_level), e)) for m in degrees]
        out += [decomposition(e, e.minimalize_syzygy(level, g), level)
                for level, g in syzygies]
        return out

    assert outputs(engine, []) == outputs(oracle, []), (sg, config.field)
    # every registered syzygy times each variable: its content is that variable
    unit = [0] * sg.num_generators
    syzygies = [(rec.level, syz_mono_mul(rec.value, tuple(unit[:i] + [1] + unit[i + 1:])))
                for rec in engine.registry.records.values() if rec.level
                for i in range(sg.num_generators)]
    assert outputs(engine, syzygies) == outputs(oracle, syzygies), (sg, config.field)
    # records in registration order
    assert [(rec.gid, rec.value, rec.witness) for rec in engine.registry.records.values()] \
        == [(rec.gid, rec.value, rec.witness) for rec in oracle.registry.records.values()]


_SG2 = Semigroup(1, [[1], [2]])
_SG3 = Semigroup(1, [[1], [2], [3]])


@settings(max_examples=200)
@given(small_complexes())
@example(NablaComplex(_SG2, (0,), DEGREVLEX, ((0, 0),)))  # irrelevant
@example(NablaComplex(_SG2, (0,), DEGREVLEX, ((1, 0), (0, 1))))  # edgeless
@example(DeltaComplex(_SG3, (0,), face_masks({()})))  # irrelevant
@example(DeltaComplex(_SG3, (0,), face_masks({(), (0,), (1,), (2,), (0, 1)})))  # disconnected
@example(DeltaComplex(_SG3, (0,), face_masks({(), (1,), (2,), (1, 2)})))  # no vertex 0
@example(DeltaComplex(Semigroup(1, [[1], [2], [3], [4], [5]]), (0,),
                      face_masks({(), (0,), (1,), (3,), (4,), (3, 4)})))  # top two ids joined
def test_spanning_forest_gives_the_pivots_of_elimination(cx):
    # d_0 and d_1 are never eliminated; their pivots are the greedy
    # forest's, which must be those of the left-to-right elimination
    for field in map(get_field, FIELDS + (2,)):
        for j in (0, 1):
            ncols = len(cx.faces_of_dim(j))
            want = gauss_reduce(boundary_matrix(cx, j).data, ncols, field)
            assert reduce_boundary(cx, j, field) == want.pivots, (cx, j, field)


@settings(max_examples=200)
@given(small_complexes(fiber_only=True))
@example(NablaComplex(_SG3, (0,), DEGREVLEX,
                      ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0), (0, 0, 0))))  # with unit
@example(NablaComplex(_SG3, (0,), LEX,
                      ((2, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0))))  # with unit
# vertex 0's partners come from three overlapping covers; the gcd of (1, 2)
# has lost x2 and x3, which vertex 3 has; (1, 2), (1, 4), (2, 4) and (0, 4)
# share the gcd x1; the cover of x1 holds a 3-face
@example(NablaComplex(_SG3, (0,), DEGREVLEX,
                      ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0))))
# the same in lex, with a unit vertex: (1, 2) gets vertex 3 but not 4
@example(NablaComplex(_SG3, (0,), LEX,
                      ((1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, 0))))
# all four triangles have the gcd x2, and (1, 2, 3) is listed first, from
# the edge of largest gcd: the index tuple must still put (0, 1, 2) first
@example(NablaComplex(_SG3, (0,), LEX, ((0, 2, 0), (0, 1, 2), (0, 1, 1), (0, 1, 0))))
def test_face_order_is_the_gcd_key_sort(cx):
    # faces listed as extensions of lower faces and sorted once, against
    # sorting by index tuple and then, stably, by the term order's key of
    # the gcd, largest first
    for j in range(min(cx.dimension, 3) + 1):
        assert cx.faces_of_dim(j) == nabla_face_order(cx, j), (cx.vertices, cx.order, j)


@pytest.mark.parametrize("semigroup, m", [
    (Semigroup(1, [[3], [5]]), (600,)),  # x1^200 - x2^120: 41 vertices
    (Semigroup(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]]), (6, 6, 6)),
], ids=["3_5-at-600", "e1_e2_e3_e12_e23-at-6_6_6"])
@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=str)
def test_large_fiber_face_order_is_the_gcd_key_sort(semigroup, m, order):
    cx = build_nabla(semigroup, m, order)
    for j in range(4):
        faces = cx.faces_of_dim(j)
        assert len(set(faces)) == len(faces)
        assert faces == nabla_face_order(cx, j), (m, order, j)


# keys and strings with quotes, backslashes, control and non-ASCII
# characters, lone surrogates included, next to any other character
_JSON_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\n\x7f\xe9\u2028\ud800\U0001f600')
                     | st.characters(), max_size=6)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(st.integers(), max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(_JSON_TEXT, kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=200)
@given(_JSON_TREES)
def test_json_writer_gives_the_bytes_of_json_dumps(tree):
    assert dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [1.5, {1: "a"}, {"a": [{"b"}]}, Fraction(1, 2), [True, 1.0]])
def test_json_writer_refuses_other_types(payload):
    with pytest.raises(TypeError):
        dumps(payload)


# every option string and command word, the values the options take, and
# what only argparse may answer: abbreviations, "=" forms, an attached
# short value, negative numbers, help, "--" and the empty string
_OPTION_STRINGS = sorted({flag for flags, _ in cli._GLOBAL_OPTIONS for flag in flags}
                         | {flag for _, _, options in cli._COMMANDS.values()
                            for flags, _ in options for flag in flags})
_ARGV_VALUES = [*cli._COMMANDS, "lex", "degrevlex", "json", "text", "32003", "60,10", "3",
                "x.json", " 7", "1_0", "", "-1", "-2,5"]
_ARGV_ODD = ["--form", "--deg", "--max", "--format=json", "--jmax=2", "-m60,10", "-h", "--help",
             "--", "-", "-x"]
_TOKENS = st.sampled_from(_OPTION_STRINGS + _ARGV_VALUES + _ARGV_ODD)


@st.composite
def _argvs(draw):
    """A command line, most often well formed, then up to three tokens edited."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, positionals, options = cli._COMMANDS[command]

    def chunk(flags, kwargs):
        flag = draw(st.sampled_from(flags))
        if "action" in kwargs:
            return [flag]
        return [flag, draw(st.sampled_from(kwargs.get("choices", []) + _ARGV_VALUES))]

    before = [chunk(*draw(st.sampled_from(cli._GLOBAL_OPTIONS)))
              for _ in range(draw(st.integers(0, 2)))]
    after = [[draw(st.sampled_from(_ARGV_VALUES))] for _ in positionals]
    after += [chunk(*spec) for spec in options
              if spec[1].get("required") and draw(st.integers(0, 4))]
    after += [chunk(*draw(st.sampled_from(cli._GLOBAL_OPTIONS + options)))
              for _ in range(draw(st.integers(0, 3)))]
    argv = sum(before, []) + [command] + sum(draw(st.permutations(after)), [])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        if edit != "insert":
            del argv[i:i + 1]
        if edit != "drop":
            argv.insert(i, draw(_TOKENS))
    return argv


@settings(max_examples=500)
@given(st.lists(_TOKENS, max_size=8) | _argvs())
@example(["--format", "json", "verify", "a", "--order", "lex", "b", "--format", "text"])
@example(["scan", "s", "--w-bound", "scan", "--jmax", " 7", "--delta-crosscheck"])
def test_plain_parse_gives_the_namespace_of_argparse(argv):
    got = cli._plain_parse(argv)
    if got is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            want = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}, which the plain pass takes")
    assert vars(got) == vars(want), argv
