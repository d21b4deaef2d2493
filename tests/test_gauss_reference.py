"""The sparse gauss_reduce against the dense reference in dense_gauss.py.

The reference pivots on the topmost row and keeps P^-1 and Q; the library
picks its pivot rows freely and keeps echelon rows and row steps.  Their
row operations differ, but what the library returns depends on the pivot
columns alone: rank, pivots, the normal-form kernel vectors (read
through ``solve``, oracles.kernel_by_solve, against the reference's
kernel columns of Q) and every ``solve`` result, None included, must be
equal, not just equivalent.  The library reads the reference's dense rows
as pairs (to_pairs), and its vectors hold exactly the reference's nonzeros.
"""
import random
from fractions import Fraction

import pytest
from dense_gauss import check_decomposition, dense_gauss_reduce, to_pairs
from hypothesis import given, settings, strategies as st
from oracles import kernel_by_solve

from toricsyz import PrimeField, RationalField, gauss_reduce

FIELDS = [RationalField(), PrimeField(5), PrimeField(32003)]


def random_matrix(rng, field, m, n, density, rank_cap=None):
    """Entries mostly 0/+-1; rows past rank_cap are combinations of earlier rows."""
    values = [-1, 1, 1, -1, 2, -3, 4]
    if field.modulus is None:
        values.append(Fraction(1, 2))
    rows = [[rng.choice(values) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]
    if rank_cap is not None and rank_cap > 0:
        for i in range(rank_cap, m):
            a, b = rng.randrange(rank_cap), rng.randrange(rank_cap)
            ca, cb = rng.choice([1, -1, 2]), rng.choice([0, 1, -2])
            rows[i] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    if field.modulus is not None:
        rows = [[v % field.modulus for v in row] for row in rows]
    return rows


def shapes(rng):
    """(m, n, density, rank_cap) cases: empty, zero, wide, tall, deficient."""
    yield from [(0, 0, 0.5, None), (0, 4, 0.5, None), (3, 0, 0.5, None),
                (1, 1, 1.0, None), (4, 4, 0.0, None), (1, 6, 1.0, None), (6, 1, 1.0, None)]
    for _ in range(150):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        kind = rng.randrange(4)
        if kind == 0:  # wide
            n = m + rng.randint(1, 8)
        elif kind == 1:  # tall
            m = n + rng.randint(1, 8)
        rank_cap = rng.randint(1, max(1, min(m, n) - 1)) if kind == 2 else None
        yield m, n, rng.choice([0.15, 0.3, 0.6, 1.0]), rank_cap


def random_target(rng, field, rows, m):
    """Half of the targets lie in the column space (A x), half are arbitrary."""
    if rows and rows[0] and rng.random() < 0.5:
        x = [rng.choice([0, 1, -1, 2]) for _ in rows[0]]
        vec = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        vec = [rng.choice([0, 0, 1, -1, 3]) for _ in range(m)]
    if field.modulus is not None:
        vec = [v % field.modulus for v in vec]
    return vec


def assert_matches_reference(rows, n, field, targets):
    """Rank, pivots, kernel vectors and the solve of each target, as the reference's.

    Returns how many targets were consistent.
    """
    ref = dense_gauss_reduce([list(r) for r in rows], n, field)
    sparse = gauss_reduce(to_pairs(rows), n, field)
    assert (sparse.rank, sparse.pivots) == (ref.rank, ref.pivots), rows
    assert kernel_by_solve(sparse, to_pairs(rows), n, field) == \
        [dict(*to_pairs([col])) for col in ref.kernel_columns()], rows
    check_decomposition(sparse, to_pairs(rows), n, field)
    consistent = 0
    for vec in targets:
        expected = ref.solve(vec)
        got = sparse.solve(dict(*to_pairs([vec])))
        assert got == (None if expected is None else dict(*to_pairs([expected]))), (rows, vec)
        consistent += expected is not None
    return consistent


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_sparse_matches_dense_reference(field):
    rng = random.Random(f"gauss-{field.name}")
    consistent = inconsistent = 0
    for m, n, density, rank_cap in shapes(rng):
        rows = random_matrix(rng, field, m, n, density, rank_cap)
        solved = assert_matches_reference(
            rows, n, field, [random_target(rng, field, rows, m) for _ in range(4)])
        consistent += solved
        inconsistent += 4 - solved
    assert consistent and inconsistent


@st.composite
def non_unit_systems(draw):
    """(field, rows, ncols, targets): entries 0, +-1, 2, -3, 4 (and 1/2 over Q)."""
    field = draw(st.sampled_from(FIELDS))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = [0, 0, 1, -1, 2, -3, 4] + ([Fraction(1, 2)] if field.modulus is None else [])
    entry = st.sampled_from(values)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    # half of the targets lie in the column space (A x), half are arbitrary
    targets = []
    for _ in range(4):
        if draw(st.booleans()):
            x = draw(st.lists(entry, min_size=n, max_size=n))
            targets.append([sum(a * b for a, b in zip(row, x)) for row in rows])
        else:
            targets.append(draw(st.lists(entry, min_size=m, max_size=m)))
    if field.modulus is not None:
        rows = [[v % field.modulus for v in row] for row in rows]
        targets = [[v % field.modulus for v in vec] for vec in targets]
    return field, rows, n, targets


@settings(max_examples=300)
@given(non_unit_systems())
def test_kernel_and_solve_match_the_reference_on_non_unit_entries(system):
    # pivot rows without a unit entry are scaled by a non-unit, and the
    # row rule then departs from the reference's topmost row
    field, rows, n, targets = system
    assert_matches_reference(rows, n, field, targets)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pivots_are_where_prefix_rank_grows(field):
    rng = random.Random(f"pivots-{field.name}")
    for m, n, density, rank_cap in shapes(rng):
        rows = random_matrix(rng, field, m, n, density, rank_cap)
        ranks = [dense_gauss_reduce([row[:k] for row in rows], k, field).rank
                 for k in range(n + 1)]
        expected = [k for k in range(n) if ranks[k + 1] > ranks[k]]
        assert gauss_reduce(to_pairs(rows), n, field).pivots == expected, rows


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pivot_columns_of_q_are_supported_on_the_pivots(field):
    # solve applies what were Q's pivot columns: A restricted to the pivot
    # columns is injective, so a chain on them is fixed by its image, and a
    # fixed basis needs the pivots, not Q
    rng = random.Random(f"gauss-{field.name}")
    for m, n, density, rank_cap in shapes(rng):
        rows = random_matrix(rng, field, m, n, density, rank_cap)
        decomp = gauss_reduce(to_pairs(rows), n, field)
        pivots = set(decomp.pivots)
        for _ in range(4):
            sol = decomp.solve(dict(*to_pairs([random_target(rng, field, rows, m)])))
            assert sol is None or sol.keys() <= pivots, rows
