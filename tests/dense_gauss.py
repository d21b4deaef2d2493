"""Dense reference elimination and checks of a sparse decomposition.

``dense_gauss_reduce`` is an independent dense elimination with the
topmost-row rule: it keeps M, an m x m P^-1 and an n x n Q as lists of
lists and swaps columns physically, so P^-1 A Q is the block identity.
The library's sparse ``toricsyz.homology.gauss_reduce`` picks its pivot
rows freely, so its row operations differ, but whatever it returns depends
on the pivot columns alone and must equal the reference exactly: rank,
pivots, the normal-form kernel vectors (Q's last columns; the library's
are read through ``solve``, see ``oracles.kernel_by_solve``) and every
``solve`` result (Q's pivot columns applied to P^-1 vec), None included.
``check_decomposition`` checks a sparse decomposition against its matrix
directly.  ``to_pairs`` and ``to_dense`` convert between dense rows and the
library's rows of (column, nonzero entry) pairs; a vector is a one-row
matrix.
"""
from __future__ import annotations


def to_pairs(rows):
    """Dense rows as lists of (column, entry) pairs, one per nonzero."""
    return [[(k, v) for k, v in enumerate(row) if v] for row in rows]


def to_dense(rows, ncols):
    """Rows of (column, entry) pairs as dense lists of length ncols."""
    out = [[0] * ncols for _ in rows]
    for dense, row in zip(out, rows):
        for k, v in row:
            dense[k] = v
    return out


def _row_axpy(dst, src, factor, p):
    """dst -= factor * src, entrywise, optionally mod p."""
    if p is None:
        for k, v in enumerate(src):
            if v:
                dst[k] -= factor * v
    else:
        for k, v in enumerate(src):
            if v:
                dst[k] = (dst[k] - factor * v) % p


class DenseDecomposition:
    """Rank, pivots, Q as dense columns and P^-1 as dense rows."""

    def __init__(self, field, nrows, ncols, rank, p_inv_rows, q_cols, pivots):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rank = rank
        self.p_inv_rows = p_inv_rows
        self.q_cols = q_cols
        self.pivots = pivots

    def kernel_columns(self):
        return self.q_cols[self.rank:]

    def solve(self, vec):
        """x = Q . [(P^-1 vec)_{1..r}; 0], or None when A x = vec is inconsistent."""
        p = self.field.modulus
        support = [k for k, v in enumerate(vec) if v]
        u = []
        for row in self.p_inv_rows:
            s = sum(row[k] * vec[k] for k in support)
            u.append(s if p is None else s % p)
        if any(u[self.rank:]):
            return None
        x = [self.field.zero] * self.ncols
        for i in range(self.rank):
            ui = u[i]
            if not ui:
                continue
            for k, q in enumerate(self.q_cols[i]):
                if q:
                    x[k] = x[k] + ui * q if p is None else (x[k] + ui * q) % p
        return x


def dense_gauss_reduce(rows, ncols, field) -> DenseDecomposition:
    """Same pivot rule and operations as the library routine, all dense."""
    m = len(rows)
    n = ncols
    fz, fo = field.zero, field.one
    p = field.modulus
    M = [[field.of(v) for v in row] for row in rows]
    p_inv = [[fo if i == k else fz for k in range(m)] for i in range(m)]
    q_cols = [[fo if i == k else fz for i in range(n)] for k in range(n)]
    pivots = []
    t = 0
    for c in range(n):
        if t >= m:
            break
        piv = next((i for i in range(t, m) if M[i][c]), None)
        if piv is None:
            continue
        if piv != t:
            M[t], M[piv] = M[piv], M[t]
            p_inv[t], p_inv[piv] = p_inv[piv], p_inv[t]
        if c != t:
            for row in M:
                row[t], row[c] = row[c], row[t]
            q_cols[t], q_cols[c] = q_cols[c], q_cols[t]
        pivot = M[t][t]
        if pivot != fo:
            inv = field.div(fo, pivot)
            for row in (M[t], p_inv[t]):
                for k, v in enumerate(row):
                    if v:
                        row[k] = v * inv if p is None else (v * inv) % p
        src = M[t]
        for i in range(m):
            if i != t and M[i][t]:
                f = M[i][t]
                _row_axpy(M[i], src, f, p)
                _row_axpy(p_inv[i], p_inv[t], f, p)
        qt = q_cols[t]
        for jj in range(n):
            if jj != t and src[jj]:
                _row_axpy(q_cols[jj], qt, src[jj], p)
                src[jj] = fz
        pivots.append(c)
        t += 1
    return DenseDecomposition(field, m, n, t, p_inv, q_cols, pivots)


def check_decomposition(g, rows, ncols, field):
    """Assert what a sparse decomposition of rows (pairs, ncols columns) promises.

    Echelon row t has 1 at pivots[t] and nothing to its left, so 0 at every
    earlier pivot; and for every column a_c of A, solve(a_c) is a solution
    supported on the pivots, which is e_c itself when c is a pivot, so
    e_c - solve(a_c) is a kernel vector at each free column c.  Every
    vector holds nonzeros only.
    """
    pivots = set(g.pivots)
    assert g.rank == len(g.pivots) == len(g.rows)
    for t, row in enumerate(g.rows):
        assert row[g.pivots[t]] == field.one and min(row) == g.pivots[t]
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k, v in row:
            columns[k][i] = v

    def image(x):
        out = {}
        for k, v in x.items():
            field.axpy(out, columns[k], v)
        return out

    for c, col in enumerate(columns):
        x = g.solve({i: field.of(v) for i, v in col.items()})
        assert x is not None and all(x.values()) and x.keys() <= pivots
        assert image(x) == image({c: field.one})
        if c in pivots:
            assert x == {c: field.one}
