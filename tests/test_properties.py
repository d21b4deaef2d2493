"""Property tests on random small presentations.

Presentations have d <= 3 rows and r <= 5 columns with entries of both
signs; those that are not combinatorially finite (or have a zero column)
are filtered out. Degrees are semigroup elements of small weight, plus
shifts of them that usually leave the semigroup.
"""
from hypothesis import assume, given, strategies as st

from toricsyz import DEGREVLEX, Config, ResolutionEngine, Semigroup, SemigroupError

FIELDS = ("rational", 32003)


@st.composite
def presentations(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.integers(2, 5))
    # small entries give relations, hence homology, at small weights
    columns = draw(st.lists(st.lists(st.integers(-1, 3), min_size=d, max_size=d),
                            min_size=r, max_size=r))
    try:
        return Semigroup(d, columns)
    except SemigroupError:  # NotCombinatoriallyFinite or ZeroGenerator
        assume(False)


@given(data=st.data())
def test_fiber_search_matches_brute_force(data):
    sg = data.draw(presentations())
    m = data.draw(st.sampled_from(sg.degrees_up_to(3)))
    shift = data.draw(st.lists(st.integers(-1, 1), min_size=sg.dim, max_size=sg.dim))
    shifted = tuple(a + b for a, b in zip(m, shift))
    if sg.weight(shifted) <= 4:
        m = shifted
    # member runs its own search first; fiber would fill its cache
    member = sg.member(m)
    fiber = sg.fiber(m, DEGREVLEX)
    assert set(fiber) == sg.brute_force_fiber(m)
    assert len(set(fiber)) == len(fiber)
    assert member == bool(fiber)


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
