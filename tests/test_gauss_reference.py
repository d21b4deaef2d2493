"""The sparse gauss_reduce against the dense reference in dense_gauss.py.

Both use the same pivot rule and the same row and column operations in
exact arithmetic, so rank, every column of Q, every row of P^-1 and every
``solve`` result (None included) must be equal, not just equivalent.  The
library reads the reference's dense rows as pairs (to_pairs), and its
solutions hold exactly the reference's nonzeros.
Every keep mode of gauss_reduce is checked: rank and pivots never depend
on it, a kept P^-1 or Q equals the reference and one not kept is None.
"""
import random
from fractions import Fraction

import pytest
from dense_gauss import dense_gauss_reduce, densify, to_pairs

from toricsyz import PrimeField, RationalField, gauss_reduce

FIELDS = [RationalField(), PrimeField(5), PrimeField(32003)]
KEEPS = ["pq", "q", "p", ""]


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


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_sparse_matches_dense_reference(field):
    rng = random.Random(f"gauss-{field.name}")
    consistent = inconsistent = 0
    for m, n, density, rank_cap in shapes(rng):
        rows = random_matrix(rng, field, m, n, density, rank_cap)
        ref = dense_gauss_reduce([list(r) for r in rows], n, field)
        decomps = {keep: gauss_reduce(to_pairs(rows), n, field, keep=keep)
                   for keep in KEEPS}
        for keep, sparse in decomps.items():
            dense = densify(sparse)
            assert sparse.rank == ref.rank, (rows, keep)
            assert dense.q_cols == (ref.q_cols if "q" in keep else None), (rows, keep)
            assert dense.p_inv_rows == (ref.p_inv_rows if "p" in keep else None), (rows, keep)
            # readers copy these dicts into chains, so a stored zero would show
            kept = (sparse.q_cols or []) + (sparse.p_inv_rows or [])
            assert all(v for vec in kept for v in vec.values())
        for _ in range(4):
            vec = random_target(rng, field, rows, m)
            expected = ref.solve(vec)
            got = decomps["pq"].solve(dict(*to_pairs([vec])))
            assert got == (None if expected is None else dict(*to_pairs([expected]))), \
                (rows, vec)
            if expected is None:
                inconsistent += 1
            else:
                consistent += 1
    assert consistent and inconsistent


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pivots_are_where_prefix_rank_grows(field):
    rng = random.Random(f"pivots-{field.name}")
    for m, n, density, rank_cap in shapes(rng):
        rows = random_matrix(rng, field, m, n, density, rank_cap)
        ranks = [dense_gauss_reduce([row[:k] for row in rows], k, field).rank
                 for k in range(n + 1)]
        expected = [k for k in range(n) if ranks[k + 1] > ranks[k]]
        for keep in KEEPS:
            decomp = gauss_reduce(to_pairs(rows), n, field, keep=keep)
            assert decomp.pivots == expected, (rows, keep)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pivot_columns_of_q_are_supported_on_the_pivots(field):
    # A restricted to its pivot columns is injective, so a chain on them is
    # fixed by its image: a fixed basis needs the pivots, not Q
    rng = random.Random(f"gauss-{field.name}")
    for m, n, density, rank_cap in shapes(rng):
        rows = random_matrix(rng, field, m, n, density, rank_cap)
        decomp = gauss_reduce(to_pairs(rows), n, field, keep="q")
        pivots = set(decomp.pivots)
        assert all(col.keys() <= pivots for col in decomp.q_cols[:decomp.rank]), rows


def test_unknown_keep_mode_is_rejected():
    with pytest.raises(ValueError):
        gauss_reduce([[(0, 1)]], 1, RationalField(), keep="pqx")
