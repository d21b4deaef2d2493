"""Reduced simplicial homology over an exact field with fixed bases.

Boundary matrices are taken in the fixed face orders of the host complex.
Elimination scans columns left to right; its pivot columns are the first
columns independent of all columns to their left, the greedy basis of the
column matroid, so A restricted to them is injective.  An elimination is
read in one way, solve: the one solution supported on the pivot columns.
The pivot columns are load bearing; the row rule is not, so gauss_reduce
picks its pivot rows to keep fill-in low.

The fixed basis of the cycles in dimension j has two parts.  Its boundary
part is the boundaries of the pivot faces of d_{j+1}, each with that one
face as its preimage on the pivot faces.  Its homology part is a set of
normal-form kernel vectors of d_j: 1 at one free (non-pivot) face f and
the rest on pivot faces, that is f plus the solve of minus f's boundary.
Projecting onto the free faces, in their fixed order (_free_columns), is
injective on cycles and makes these unit vectors.  One reduction of the
projected [boundary part | units] both selects and solves: its pivot
units, the first whose units extend the projected boundary part, are the
free faces of the representatives, and solving a projected cycle against
it gives that cycle's coordinates in the basis.  Built and cached bases
pass one check (_basis_fault).  Every choice here is load bearing: the
resolution machinery is only well defined relative to these bases.

Every matrix is built as rows of (column, nonzero entry) pairs, the one
format gauss_reduce reads; it keeps echelon rows of nonzeros and row
steps, so time and memory stay near the fill-in.  The pivot columns of a
boundary map, all that its rank needs, are found once per dimension and
field and kept on its complex as an ascending list (reduce_boundary),
shared by Betti numbers and fixed bases.  A basis read from the on-disk
cache takes only its homology representatives from the file, and the
rest from these pivots.

d_0 and d_1 are never eliminated for their rank and pivots.  d_1 is the
signed incidence matrix of the 1-skeleton, whose column matroid is the
graphic matroid; that matroid is regular, so it is the same over Q and
every Z/p, and its greedy basis in the fixed edge order is the spanning
forest that Kruskal's rule grows (J. B. Kruskal, Proc. AMS 7, 1956).  A
union-find over the vertices gives those pivots in one pass over the
edges.  Higher dimensions have no such shortcut and keep elimination.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
from fractions import Fraction
from itertools import combinations

Face = tuple[int, ...]
Chain = dict  # Face -> field scalar


class NotACycle(ValueError):
    """A chain handed to ChainBasis.express is not a cycle of its basis."""


class FieldError(ValueError):
    """A field modulus that is not a prime or is too large to certify."""


_SCALAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _scalar_text(txt):
    """txt if it reads [-]digits[/digits] in ASCII, else ValueError; int() refuses the /."""
    if type(txt) is not str or not _SCALAR.fullmatch(txt):
        raise ValueError(f"malformed scalar {txt!r}")
    return txt


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """Exact rationals; plain ints are kept as a fast path where possible."""

    name = "rational"
    modulus = None
    zero = 0
    one = 1

    def of(self, n):
        """Canonical form of n: integral Fractions become ints."""
        if type(n) is not int and n.denominator == 1:
            return n.numerator
        return n

    def axpy(self, dst: dict, src: dict, scale) -> None:
        """dst += scale * src on sparse vectors; zeros are dropped.

        Integral Fractions go back to ints, which keeps most arithmetic on
        boundary matrices off the Fraction path.
        """
        if not scale:
            return
        get = dst.get
        for k, v in src.items():
            acc = get(k, 0) + scale * v
            if acc:
                if type(acc) is not int and acc.denominator == 1:
                    acc = acc.numerator
                dst[k] = acc
            else:
                try:
                    del dst[k]
                except KeyError:  # a zero in src on a key dst lacks
                    pass

    def neg(self, a):
        return -a

    def div(self, a, b):
        q = Fraction(a) / Fraction(b)
        return q.numerator if q.denominator == 1 else q

    def to_str(self, a) -> str:
        f = Fraction(a)
        return f"{f.numerator}/{f.denominator}"

    def from_str(self, txt: str):
        return self.of(Fraction(_scalar_text(txt)))

    def __repr__(self):
        return "RationalField()"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; valid for n < _MR_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d % 2:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers modulo a prime, represented as ints in [0, p)."""

    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise FieldError(f"modulus {p} is too large: primes below "
                             f"{_MR_LIMIT} are supported")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.modulus = p
        self.name = f"prime:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        """Canonical form of n: its residue in [0, p)."""
        return int(n) % self.modulus

    def axpy(self, dst: dict, src: dict, scale) -> None:
        """dst += scale * src on sparse vectors mod p; zeros are dropped."""
        p = self.modulus
        if not scale:
            return
        get = dst.get
        for k, v in src.items():
            acc = (get(k, 0) + scale * v) % p
            if acc:
                dst[k] = acc
            else:
                try:
                    del dst[k]
                except KeyError:  # a zero in src on a key dst lacks
                    pass

    def neg(self, a):
        return -a % self.modulus

    def div(self, a, b):
        b %= self.modulus
        if not b:
            raise ZeroDivisionError("division by zero in prime field")
        return a * pow(b, self.modulus - 2, self.modulus) % self.modulus

    def to_str(self, a) -> str:
        return str(a % self.modulus)

    def from_str(self, txt: str):
        return self.of(int(_scalar_text(txt)))

    def __repr__(self):
        return f"PrimeField({self.modulus})"


_RATIONALS = RationalField()


def get_field(spec):
    """Field from a config value: 'rational', an int, or 'p' / 'prime:p' text.

    The one reader of field specs; text that names no field raises
    FieldError.
    """
    if spec is None or spec == "rational":
        return RationalField()
    if isinstance(spec, str):
        try:
            spec = int(spec.removeprefix("prime:"))
        except ValueError:
            raise FieldError(f"unrecognized field spec {spec!r}") from None
    if not isinstance(spec, int):
        raise FieldError(f"unrecognized field spec {spec!r}")
    return PrimeField(spec)


# ---------------------------------------------------------------------------
# boundary matrices and chains


class BoundaryMatrix:
    """Boundary map in fixed face orders; ``data`` rows are (column, sign) pairs."""

    def __init__(self, row_faces, col_faces, data):
        self.row_faces = row_faces
        self.col_faces = col_faces
        self.data = data

    @property
    def shape(self):
        return (len(self.data), len(self.col_faces))


@functools.cache
def _facet_signs(n: int) -> tuple[int, ...]:
    """(-1)^p for the facets of an n-vertex face in lexicographic order."""
    return tuple(-1 if p % 2 else 1 for p in range(n - 1, -1, -1))


def face_boundary(face: Face):
    """The boundary of one face as (facet, sign) pairs, facets in lexicographic order.

    The one sign rule of every boundary map: the facet without the vertex
    at position p has sign (-1)^p.  A 0-face's facet is the empty face, and
    the empty face has none.
    """
    if not face:
        return iter(())
    return zip(combinations(face, len(face) - 1), _facet_signs(len(face)))


def boundary_matrix(complex_, j: int) -> BoundaryMatrix:
    """Matrix of the j-th boundary map; the target of d_0 is the empty face.

    Column k holds face_boundary of the k-th j-face; every column has
    j + 1 facets, so the signs are looked up once for the whole matrix.
    """
    cols = complex_.faces_of_dim(j)
    rows = ((),) if j == 0 else complex_.faces_of_dim(j - 1)
    row_of = {f: i for i, f in enumerate(rows)}.__getitem__
    data = [[] for _ in rows]
    signs = _facet_signs(j + 1)
    for k, face in enumerate(cols):
        for i, sign in zip(map(row_of, combinations(face, j)), signs):
            data[i].append((k, sign))
    return BoundaryMatrix(rows, cols, data)


def chain_boundary(chain: Chain, field=_RATIONALS) -> Chain:
    """Boundary of a sparse chain; 0-faces map to the empty face."""
    out: Chain = {}
    axpy = field.axpy
    for face, coeff in chain.items():
        axpy(out, dict(face_boundary(face)), coeff)
    return out


def representative_fault(chain: Chain, face_index: dict, field, dim: int, degree):
    """Why chain is off the normal form of a fixed homology representative.

    None when chain is a nonzero cycle on the dim-faces indexed by
    face_index (the faces at degree), with no zero coefficient and with
    coefficient 1 at its last face in the fixed order, as every fixed
    representative is; otherwise the first fault, as a phrase.
    """
    if not chain:
        return "is empty"
    if not chain.keys() <= face_index.keys():
        return f"has a face that is not a {dim}-face at degree {degree}"
    if not all(chain.values()):
        return "has a zero coefficient"
    if chain_boundary(chain, field):
        return "is not a cycle"
    if chain[max(chain, key=face_index.__getitem__)] != field.one:
        return "coefficient at its last face is not 1"
    return None


# ---------------------------------------------------------------------------
# deterministic Gaussian elimination on sparse rows and columns


class GaussDecomposition:
    """Result of gauss_reduce: rank, pivots, echelon rows and row steps.

    ``pivots`` lists the input columns of the pivots in ascending order: the
    columns independent of all input columns to their left.  They alone fix
    solve, the one read-out, whichever rows gauss_reduce picked to pivot.
    ``rows[t]``, a dict column -> nonzero scalar, is the echelon row of
    pivot t: 1 at pivots[t] and nothing to its left.  ``steps[t]`` is (row
    swapped with t, scale of row t, [(row, multiple of row t added)]).
    """

    def __init__(self, field, nrows, rank, rows, steps, pivots):
        self.field = field
        self.nrows = nrows
        self.rank = rank
        self.rows = rows
        self.steps = steps
        self.pivots = pivots

    def solve(self, vec: dict):
        """The solution of A x = vec on the pivot columns, or None when inconsistent.

        vec is {row: value}.  The row steps are replayed on it; a nonzero
        left past the rank means no solution.  Back-substitution on the
        echelon rows then gives x as {column: nonzero}: unique, since the
        pivot columns are independent, and linear in vec.
        """
        of = self.field.of
        y = [0] * self.nrows
        for i, v in vec.items():
            y[i] = of(v)
        for t, (piv, scale, ops) in enumerate(self.steps):
            y[t], y[piv] = y[piv], y[t]
            if y[t]:
                y[t] = v = of(y[t] * scale)
                for i, f in ops:
                    y[i] = of(y[i] + f * v)
        if any(y[self.rank:]):
            return None
        x = {}
        for t in range(self.rank - 1, -1, -1):
            v = of(y[t] - sum(c * x[k] for k, c in self.rows[t].items() if k in x))
            if v:
                x[self.pivots[t]] = v
        return x


def gauss_reduce(rows, ncols: int, field) -> GaussDecomposition:
    """Row-reduce a matrix to echelon form, recording the row steps.

    Each row is a list of (column, nonzero entry) pairs, in any order.
    Columns are scanned left to right, and each one that a row below the
    finished block hits is a pivot.  Of those rows the pivot row has a unit
    entry (+-1) there if one does, then the fewest nonzeros, then the
    lowest index (Markowitz, Management Sci. 3, 1957), which keeps 0/+-1
    boundary matrices off Fraction arithmetic.  It is swapped up, scaled to
    1 and cleared from the rows below.  Any row rule gives the same
    pivots and solutions.
    """
    m = len(rows)
    fo, of = field.one, field.of
    units = (fo, field.neg(fo))
    M = [{k: w for k, v in row if (w := of(v))} for row in rows]
    pivots, steps = [], []
    for c in range(ncols):
        t = len(pivots)
        if t >= m:
            break
        hits = [i for i in range(t, m) if c in M[i]]
        if not hits:
            continue
        piv = hits[0] if len(hits) == 1 else min(
            hits, key=lambda i: (M[i][c] not in units, len(M[i])))
        M[t], M[piv] = M[piv], M[t]
        src = M[t]
        scale = src[c] if src[c] in units else field.div(fo, src[c])  # 1/(+-1) is +-1
        if scale != fo:
            for k, v in src.items():
                src[k] = of(v * scale)
        # the swap moved only rows t and piv: row t's old entries are at piv
        below = [piv if i == t else i for i in hits if i != piv]
        ops = [(i, field.neg(M[i][c])) for i in below]
        for i, f in ops:
            field.axpy(M[i], src, f)
        steps.append((piv, scale, ops))
        pivots.append(c)
    return GaussDecomposition(field, m, len(pivots), M[:len(pivots)], steps, pivots)


# ---------------------------------------------------------------------------
# fixed cycle bases


class ChainBasis:
    """Fixed basis of the cycle space in one degree and dimension.

    ``pivots`` lists, in ascending order, the indices into ``up_faces`` of
    the pivot faces of d_{j+1}.  ``boundary`` holds the boundary of each
    pivot face, in that order; the face itself is its preimage.
    ``homology`` holds the normal-form kernel vectors whose classes form a
    basis of reduced homology.  ``free`` lists the free (non-pivot) faces
    of d_j, given as indices into faces, in the fixed free order
    (_free_columns): the rows of the projection.
    """

    def __init__(self, degree, dim, field, faces, up_faces, pivots, homology, free):
        self.degree = tuple(degree)
        self.dim = dim
        self.field = field
        self.faces = tuple(faces)
        self.up_faces = tuple(up_faces)
        self.pivots = list(pivots)
        self.boundary = [chain_boundary({self.up_faces[k]: field.one}, field)
                         for k in self.pivots]
        self.homology = homology
        self.face_index = {f: i for i, f in enumerate(self.faces)}
        self.free = tuple(self.faces[k] for k in free)
        self._solver = None

    def solver(self) -> GaussDecomposition:
        """[projected boundary cycles | units] reduced, for its pivots and solve.

        Built on first use and kept.  Its pivot columns past the boundaries
        are the units of the representatives' last faces, in order: the
        selection of fixed_cycle_basis, which _basis_fault checks.
        """
        if self._solver is None:
            field, nb = self.field, len(self.boundary)
            rows = {face: [(nb + i, field.one)] for i, face in enumerate(self.free)}
            for b, cycle in enumerate(self.boundary):
                for face, v in cycle.items():
                    if face in rows:
                        rows[face].append((b, v))
            self._solver = gauss_reduce(list(rows.values()), nb + len(rows), field)
        return self._solver

    def express(self, chain: Chain):
        """Unique coordinates (lam, mu) with chain = sum lam.h + sum mu.b.

        The basis spans exactly the cycles, so a chain off the faces or with
        nonzero boundary raises NotACycle.  Projecting onto the free faces
        is injective on cycles, so the projected chain is solved against the
        selection: mu on the boundary columns, lam on the representatives'
        units.
        """
        field = self.field
        nb = len(self.boundary)
        if not chain:
            return [field.zero] * len(self.homology), [field.zero] * nb
        if not chain.keys() <= self.face_index.keys():
            raise NotACycle(f"chain has a face that is not a {self.dim}-face here")
        if chain_boundary(chain, field):
            raise NotACycle("chain is not a cycle")
        solver = self.solver()
        sol = solver.solve({i: chain[f] for i, f in enumerate(self.free) if f in chain})
        return ([sol.get(p, field.zero) for p in solver.pivots[nb:]],
                [sol.get(b, field.zero) for b in range(nb)])

    def to_dict(self):
        """The cache entry: the homology chains, nothing else."""
        return {"homology": [[[list(face), self.field.to_str(coeff)]
                              for face, coeff in sorted(ch.items())]
                             for ch in self.homology]}


def _free_columns(pivots, ncols: int) -> list:
    """The non-pivot columns in the fixed free order of the bases.

    Swapping position t with pivots[t], for each t in turn, leaves them past
    the rank in this order.  It is not ascending in general, and as the
    order of ChainBasis.free it decides the representatives.
    """
    col_at = list(range(ncols))
    for t, c in enumerate(pivots):
        col_at[t], col_at[c] = c, col_at[t]
    return col_at[len(pivots):]


def reduce_boundary(complex_, j: int, field) -> list:
    """The pivot columns of the j-th boundary map of complex_, ascending.

    Their number is the map's rank.  Found once per (dimension, field) and
    kept in the complex's ``_reductions``, so every reader of a rank or of
    pivots shares one elimination.  d_0 and d_1 need none: their pivots
    are those of the greedy spanning forest (_spanning_forest).  Without
    j-faces there is nothing to eliminate and no pivot.
    """
    key = (j, field.name)
    pivots = complex_._reductions.get(key)
    if pivots is None:
        if j in (0, 1):
            pivots = _spanning_forest(complex_, j)
        elif complex_.faces_of_dim(j):
            pivots = gauss_reduce(boundary_matrix(complex_, j).data,
                                  len(complex_.faces_of_dim(j)), field).pivots
        else:
            pivots = []
        complex_._reductions[key] = pivots
    return pivots


def _spanning_forest(complex_, j: int) -> list:
    """The pivot columns of d_0 (j = 0) or d_1 (j = 1), with no elimination.

    The pivot edges of d_1, those independent of all edges to their left,
    are the edges that join two trees of the forest grown from the edges
    before them: Kruskal's rule (see the module docstring), on a parent
    list up to the largest vertex id (a comparison complex's 0-faces can
    skip ids) with path halving.  d_0 is a row of ones: pivot 0 when there
    is a vertex.  Both are the same over every field.
    """
    vertices = complex_.faces_of_dim(0)
    if j == 0:
        return [0] if vertices else []
    edges = complex_.faces_of_dim(1)
    parent = list(range(vertices[-1][0] + 1 if edges else 0))
    pivots = []
    for k, (a, b) in enumerate(edges):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            pivots.append(k)
    return pivots


def _boundary_basis(complex_, j: int, field) -> ChainBasis:
    """The fixed basis of complex_ in dimension j without its homology part.

    Pivots come from reduce_boundary of d_{j+1}, and the free columns from
    d_j's pivots; a built basis and a cached one both start here.
    """
    faces = complex_.faces_of_dim(j)
    return ChainBasis(complex_.degree, j, field, faces, complex_.faces_of_dim(j + 1),
                      reduce_boundary(complex_, j + 1, field), [],
                      _free_columns(reduce_boundary(complex_, j, field), len(faces)))


def fixed_cycle_basis(complex_, j: int, field) -> ChainBasis:
    """The fixed basis of cycles in dimension j, boundaries listed first.

    Only where nullity(d_j) > rank(d_{j+1}), that is where there are more
    free faces than pivot up-faces, is there homology and is d_j reduced a
    second time.  The basis's solver picks the free faces; the one at face
    f is 1 at f plus the solve of minus f's boundary column, the kernel
    vector on d_j's pivots and f, so f is its last face.
    """
    basis = _boundary_basis(complex_, j, field)
    faces, nb = basis.faces, len(basis.boundary)
    if len(basis.free) <= nb:
        return basis
    mat = boundary_matrix(complex_, j)
    reduced = gauss_reduce(mat.data, len(faces), field)
    row_of = {face: i for i, face in enumerate(mat.row_faces)}
    for p in basis.solver().pivots[nb:]:
        face = basis.free[p - nb]
        column = {row_of[facet]: -sign for facet, sign in face_boundary(face)}
        rep = {basis.face_index[face]: field.one, **reduced.solve(column)}
        basis.homology.append({faces[k]: rep[k] for k in sorted(rep)})
    fault = _basis_fault(basis)
    if fault:
        raise ArithmeticError(fault)
    return basis


def _basis_fault(basis: ChainBasis):
    """Why basis.homology is not the fixed homology part of basis, or None.

    The one check of built and cached bases: each representative passes
    representative_fault and has its last face as its one free face, and
    the solver's pivots are the boundary columns, then the units of those
    last faces, in order; the unit block spans every free row, so that
    fixes their number at nullity(d_j) - rank(d_{j+1}).
    """
    nb, index = len(basis.boundary), basis.face_index
    column = {face: nb + i for i, face in enumerate(basis.free)}
    last = []
    for chain in basis.homology:
        fault = representative_fault(chain, index, basis.field, basis.dim, basis.degree)
        if fault:
            return f"homology representative {fault}"
        free = [face for face in chain if face in column]
        if free != [max(chain, key=index.__getitem__)]:
            return "homology representative has a free face other than its last face"
        last.append(column[free[0]])
    pivots = basis.solver().pivots
    if pivots[:nb] != list(range(nb)):
        return "boundary basis vectors are dependent"
    if pivots[nb:] != last:
        return "homology representatives are not the selected ones"
    return None


def betti_reduced(complex_, j: int, field) -> int:
    """Rank of reduced homology in dimension j (j = -1 supported).

    Boundary ranks come from reduce_boundary, so neighbouring dimensions
    share them.
    """
    if j < 0:
        if j == -1:
            return 1 if complex_.is_irrelevant else 0
        return 0
    faces = complex_.faces_of_dim(j)
    if not faces:
        return 0
    return (len(faces) - len(reduce_boundary(complex_, j, field))
            - len(reduce_boundary(complex_, j + 1, field)))


# ---------------------------------------------------------------------------
# on-disk basis cache


def basis_cache_key(semigroup, m, j, order_name, field_name) -> str:
    payload = json.dumps(
        [semigroup.to_dict(), list(m), j, order_name, field_name],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_cached_basis(cache_dir, key, field, complex_, j):
    """The cached basis of complex_ in dimension j under key, or None on a miss.

    An entry holds only the homology chains ({"homology": [...]}); the
    rest of the basis is built from complex_ as fixed_cycle_basis builds
    it.  An entry counts as a miss when it cannot be read back (invalid
    JSON, bad scalars, a face that is not a list of ints, a chain that
    lists one face twice), when its keys are not exactly {"homology"}
    (every earlier format), or when its chains fail _basis_fault, the
    check every built basis passes.
    """
    path = os.path.join(cache_dir, f"basis-{key}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if type(data) is not dict or data.keys() != {"homology"}:
            return None
        homology = [{_cached_face(face): field.from_str(c) for face, c in ch}
                    for ch in data["homology"]]
        if list(map(len, homology)) != list(map(len, data["homology"])):
            return None  # a face listed twice
    except FileNotFoundError:
        return None
    except (ValueError, TypeError, ArithmeticError, RecursionError):
        # bad JSON, UTF-8, face or scalar text is a ValueError, a zero
        # denominator an ArithmeticError, and arrays nested too deeply a
        # RecursionError
        return None
    basis = _boundary_basis(complex_, j, field)
    basis.homology = homology
    return None if _basis_fault(basis) else basis


def _cached_face(face) -> Face:
    """face as a tuple when it is a list of ints (a JSON bool is no int), else ValueError."""
    if type(face) is not list or not all(type(x) is int for x in face):
        raise ValueError(f"malformed face {face!r}")
    return tuple(face)


def store_cached_basis(cache_dir, key, basis) -> None:
    """Write one basis entry atomically, replacing any entry under key.

    The entry goes through a temp file of its own (exclusive create, random
    name), so concurrent writers of one key never share a temp path; the
    last os.replace wins with identical bytes.  The engine stores only
    after its load missed, so an entry found at the path failed to load and
    is overwritten.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"basis-{key}.json")
    text = json.dumps(basis.to_dict(), sort_keys=True, separators=(",", ":"))
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
