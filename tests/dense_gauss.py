"""Dense reference elimination and dense views for test assertions.

``dense_gauss_reduce`` is the original dense implementation of
``toricsyz.homology.gauss_reduce``: it keeps M, an m x m P^-1 and an n x n Q
as lists of lists and swaps columns physically. The library's sparse
routine must reproduce its rank, Q, P^-1 and ``solve`` results exactly.
``densify`` turns a sparse decomposition into the same dense form, so
assertions written against dense lists read it unchanged.  ``to_pairs`` and
``to_dense`` convert between dense rows and the library's rows of
(column, nonzero entry) pairs; a vector is a one-row matrix.
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
    """Rank, Q as dense columns, P^-1 as dense rows, and P on demand."""

    def __init__(self, field, nrows, ncols, rank, p_inv_rows, q_cols):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rank = rank
        self.p_inv_rows = p_inv_rows
        self.q_cols = q_cols

    def kernel_columns(self):
        return self.q_cols[self.rank:]

    @property
    def p_columns(self):
        """Columns of P, computed by inverting P^-1; fails if it is singular."""
        inv = dense_gauss_reduce(self.p_inv_rows, self.nrows, self.field)
        if inv.rank != self.nrows:
            raise ArithmeticError("P^-1 is singular; elimination is broken")
        cols = []
        for i in range(self.nrows):
            e = [self.field.zero] * self.nrows
            e[i] = self.field.one
            cols.append(inv.solve(e))
        return cols

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
        t += 1
    return DenseDecomposition(field, m, n, t, p_inv, q_cols)


def densify(g) -> DenseDecomposition:
    """Dense copy of a sparse GaussDecomposition (dict rows and columns).

    A P^-1 or Q the decomposition did not keep stays None.
    """
    fz = g.field.zero

    def dense(vecs, size):
        if vecs is None:
            return None
        out = []
        for vec in vecs:
            out.append([fz] * size)
            for k, v in vec.items():
                out[-1][k] = v
        return out

    return DenseDecomposition(
        g.field, g.nrows, g.ncols, g.rank,
        dense(g.p_inv_rows, g.nrows), dense(g.q_cols, g.ncols),
    )
