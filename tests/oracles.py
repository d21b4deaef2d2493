"""Independent test oracles, kept apart from the engine they check."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from dense_gauss import DenseDecomposition, dense_gauss_reduce, to_dense

from toricsyz.complexes import DeltaComplex, NablaComplex
from toricsyz.homology import ChainBasis, _free_columns, boundary_matrix
from toricsyz.orders import DEGREVLEX, mono_div, mono_gcd, mono_is_unit, mono_mul
from toricsyz.resolution import ResolutionEngine, ResolutionFragment
from toricsyz.semigroup import _fourier_motzkin_numerators
from toricsyz.serialize import record_to_json


class DegreeMismatch(ValueError):
    """The restricting monomial's degree does not divide the complex degree."""


def level_records(engine) -> dict:
    """Every generator the engine registered, by level, each level in canonical order."""
    levels = {}
    for rec in engine.registry.records.values():
        levels.setdefault(rec.level, []).append(rec)
    return {level: sorted(records, key=lambda r: r.sort_key(engine.semigroup))
            for level, records in sorted(levels.items())}


def brute_force_fiber(sg, m) -> set:
    """Independent boxed enumeration of the fiber of m, for cross-checking.

    Scans the full box 0 <= a_i <= w.m / w.n_i coordinate by coordinate
    with no pruning or early solving.
    """
    m = tuple(m)
    wm = sg.weight(m)
    if wm < 0:
        return set()
    ranges = [range(int(wm / sg.weight(n)) + 1) for n in sg.generators]
    return {alpha for alpha in product(*ranges) if sg.degree_of(alpha) == m}


def s_less(sg, mp, m) -> bool:
    """The divisibility partial order of S: mp precedes m iff m - mp is in S."""
    return sg.member(sg.sub_degree(m, mp))


def gcd_closure_degrees(sg, m, max_level) -> set:
    """C(m): m - deg gcd(U) over every set U of at most min(r, max_level + 2) fiber monomials.

    A degree m' with m - m' in S and homology at a level j <= max_level has
    j + 2 fiber monomials with gcd 1 (else its fiber complex holds the full
    (j+1)-skeleton); times x^c of degree m - m', their gcd is x^c.  The gcd
    of any set is that of at most r of its members.  So C(m) holds every
    such m', though it is a subset of D(m) (`divisor_degrees`).
    """
    size = min(sg.num_generators, max_level + 2)
    return {sg.sub_degree(m, sg.degree_of(tuple(map(min, zip(*subset)))))
            for k in range(1, size + 1)
            for subset in combinations(sg.fiber(m, DEGREVLEX), k)}


def divisor_degrees(sg, m) -> set:
    """D(m) = {m' in S : m - m' in S}, without the semigroup's walk.

    m' is in D(m) exactly when m' is the degree of a monomial dividing one
    of degree m, so D(m) is read off the divisors of the fiber at m.
    """
    return {sg.degree_of(alpha) for beta in sg.fiber(m, DEGREVLEX)
            for alpha in product(*(range(b + 1) for b in beta))}


def in_real_cone(sg, z) -> bool:
    """Is z a nonnegative real combination of the generators?

    Asks the engine's Fourier-Motzkin elimination for a point of
    {lambda >= 0, A lambda = z}, with each equation as two inequalities:
    an elimination independent of the facet normals that
    `Semigroup.apery_divisors` cuts its walk's region with.
    """
    r = sg.num_generators
    rows = [(tuple(int(i == k) for i in range(r)), 0) for k in range(r)]
    for j, zj in enumerate(z):
        row = tuple(n[j] for n in sg.generators)
        rows += [(row, zj), (tuple(-x for x in row), -zj)]
    return _fourier_motzkin_numerators(rows, r) is not None


def fourier_motzkin_point(rows: list[tuple[tuple[int, ...], int]], dim: int):
    """Feasible rational point for the system {coeffs . x >= rhs}, or None.

    Plain Fourier-Motzkin elimination with no redundancy removal, the
    reference the engine's pruned elimination must reproduce exactly.
    Variables are eliminated from the last index down to index 1, then the
    point is rebuilt front to back, clamping 0 into the admissible interval
    of each variable.  Deterministic by construction.
    """
    systems = [rows]
    for var in range(dim - 1, 0, -1):
        current = systems[-1]
        lower, upper, rest = [], [], []
        for coeffs, rhs in current:
            c = coeffs[var]
            if c > 0:
                lower.append((coeffs, rhs))
            elif c < 0:
                upper.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        combined = list(rest)
        for pc, prhs in lower:
            for nc, nrhs in upper:
                a, b = pc[var], -nc[var]
                # a*(upper row) + b*(lower row): positive combination, var cancels
                coeffs = tuple(a * nc[i] + b * pc[i] for i in range(dim))
                combined.append((coeffs, a * nrhs + b * prhs))
        systems.append(combined)

    point: list[Fraction] = []
    for var in range(dim):
        current = systems[dim - 1 - var]
        lo = hi = None
        for coeffs, rhs in current:
            c = coeffs[var]
            residual = Fraction(rhs) - sum(
                coeffs[i] * point[i] for i in range(var)
            )
            if c > 0:
                bound = residual / c
                lo = bound if lo is None else max(lo, bound)
            elif c < 0:
                bound = residual / c
                hi = bound if hi is None else min(hi, bound)
            elif residual > 0:
                return None
        if lo is not None and hi is not None and lo > hi:
            return None
        x = Fraction(0)
        if lo is not None:
            x = max(x, lo)
        if hi is not None:
            x = min(x, hi)
        point.append(x)
    return point


def pruned_fourier_motzkin_point(rows: list[tuple[tuple[int, ...], int]], dim: int):
    """The engine's pruned elimination point as Fractions, or None."""
    found = _fourier_motzkin_numerators(rows, dim)
    if found is None:
        return None
    nums, den = found
    return [Fraction(v, den) for v in nums]


def harvest_every_basis(engine, m, max_level) -> ResolutionFragment:
    """ResolutionEngine.harvest as a walk over the faces at m.

    Builds the fixed basis at (m, j) for every j up to max_level and takes
    the generator count from its homology, whether or not the comparison
    complex has homology there; then evaluates psi on every face at m of
    dimension 1 to max_level + 1 and keeps what the recursion registers.
    """
    m = tuple(m)
    if not engine.semigroup.member(m):
        fragment = ResolutionFragment(m, max_level, {})
        fragment.report = engine.verify_fragment(fragment)
        return fragment
    cx = engine.nabla(m)
    for j in range(max_level + 1):
        basis = engine.chain_basis(m, j)
        for idx in range(len(basis.homology)):
            engine._ensure_generator(j, m, idx)
    for dim in range(1, max_level + 2):
        for face in cx.faces_of_dim(dim):
            engine._psi_face(m, dim, face)
    levels = {level: records for level, records in level_records(engine).items()
              if level <= max_level}
    fragment = ResolutionFragment(m, max_level, levels)
    fragment.report = engine.verify_fragment(fragment)
    return fragment


class _NeverStores(dict):
    """A dict that drops every assignment, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


class MemoOffEngine(ResolutionEngine):
    """ResolutionEngine whose decomposition memo never stores.

    Every content-free input is decomposed afresh on each call, as the
    engine did before it kept one decomposition per input.
    """

    def __init__(self, semigroup, config=None):
        super().__init__(semigroup, config)
        self._decompositions = _NeverStores()


def reduce_columns(columns, nrows: int, field) -> DenseDecomposition:
    """The dense reference reduction of the matrix whose columns are the vectors given.

    Each column is a dict row index -> scalar.
    """
    rows = [[field.zero] * len(columns) for _ in range(nrows)]
    for k, col in enumerate(columns):
        for i, v in col.items():
            rows[i][k] = v
    return dense_gauss_reduce(rows, len(columns), field)


def kernel_by_solve(g, rows, ncols: int, field) -> list:
    """The normal-form kernel vectors of a sparse decomposition g, read through solve.

    rows are g's input rows of (column, entry) pairs.  One vector per free
    column f, in the fixed free order (_free_columns): 1 at f plus the
    solve of minus column f, supported on the pivots, as the reference's
    kernel columns of Q are.
    """
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k, v in row:
            columns[k][i] = field.neg(field.of(v))
    return [{f: field.one, **g.solve(columns[f])} for f in _free_columns(g.pivots, ncols)]


def _reference_q(complex_, j, field) -> DenseDecomposition:
    """The dense reference reduction of d_j, for its Q."""
    mat = boundary_matrix(complex_, j)
    return dense_gauss_reduce(to_dense(mat.data, len(mat.col_faces)), len(mat.col_faces),
                              field)


def _nonzeros(vec, field) -> dict:
    """A dense vector as {index: nonzero}, in index order."""
    return {k: field.of(v) for k, v in enumerate(vec) if v}


class QChainBasis(ChainBasis):
    """A fixed basis whose boundary part is the images of Q's pivot columns.

    ``preimages[i]`` is the column of Q_{j+1} whose image is
    ``boundary[i]``.  express solves against those images, then pushes the
    boundary coordinates through the preimages onto the pivot up-faces,
    where the engine reads them.
    """

    def express(self, chain):
        lam, mu = super().express(chain)
        nu = {}
        for preimage, coeff in zip(self.preimages, mu):
            self.field.axpy(nu, preimage, coeff)
        assert nu.keys() <= set(self.pivots), "preimage chain off the pivot up-faces"
        return lam, [nu.get(k, self.field.zero) for k in self.pivots]


def q_fixed_cycle_basis(complex_, j, field) -> ChainBasis:
    """fixed_cycle_basis as it was when the boundary part came from Q.

    Reduces d_j and d_{j+1} afresh with the dense reference
    (dense_gauss_reduce), so its Q shares no elimination code with the
    engine.  Each boundary element is
    the image of one pivot column of Q_{j+1}, with that column as its
    preimage; the homology representatives are the kernel columns of Q_j
    whose free coordinates extend the projected boundary cycles, and the
    free columns are read off those kernel columns.  It differs from the
    engine's basis only in the boundary cycles, which span the same space,
    so every coordinate the engine reads (the homology part, and the
    preimage chain summed over the boundary part, on the pivot up-faces)
    must come out the same.
    """
    faces = complex_.faces_of_dim(j)
    up_faces = complex_.faces_of_dim(j + 1)
    if not faces:
        return ChainBasis(complex_.degree, j, field, (), up_faces, [], [], [])
    face_index = {f: i for i, f in enumerate(faces)}
    g_down = _reference_q(complex_, j, field)
    g_up = _reference_q(complex_, j + 1, field)
    cycles, preimages = [], []
    for qcol in g_up.q_cols[:g_up.rank]:
        preimage = _nonzeros(qcol, field)
        vec = {}
        for k, v in preimage.items():
            face = up_faces[k]
            field.axpy(vec, {face_index[face[:p] + face[p + 1:]]: -1 if p % 2 else 1
                             for p in range(len(face))}, v)
        preimages.append(preimage)
        cycles.append(vec)
    kernel = [_nonzeros(col, field) for col in g_down.kernel_columns()]
    pivot_set = set(g_down.pivots)
    free_row = {}
    for i, col in enumerate(kernel):
        (free,) = [k for k in col if k not in pivot_set]
        free_row[free] = i
    projected = [{free_row[k]: v for k, v in vec.items() if k in free_row} for vec in cycles]
    projected += [{i: field.one} for i in range(len(kernel))]
    nb = len(cycles)
    pivots = reduce_columns(projected, len(kernel), field).pivots
    assert pivots[:nb] == list(range(nb)), "boundary cycles are dependent"
    homology = [{faces[k]: col[k] for k in sorted(col)}
                for col in (kernel[p - nb] for p in pivots[nb:])]
    free = sorted(free_row, key=free_row.__getitem__)
    basis = QChainBasis(complex_.degree, j, field, faces, up_faces, g_up.pivots,
                        homology, free)
    basis.boundary = [{faces[i]: c for i, c in vec.items()} for vec in cycles]
    basis.preimages = preimages
    return basis


def face_gcd(complex_, face):
    """The gcd of the vertices of a fiber-complex face."""
    return mono_gcd(*(complex_.vertices[i] for i in face))


def nabla_face_order(complex_, j: int) -> tuple:
    """The j-faces of a fiber complex in the fixed order, by plain sorting.

    Faces are all (j+1)-sets of vertices with a nontrivial gcd, sorted by
    index tuple and then, stably, by the term order's key of their gcd,
    largest first: ties stay in ascending index order.
    """
    faces = sorted(f for f in combinations(range(len(complex_.vertices)), j + 1)
                   if not mono_is_unit(face_gcd(complex_, f)))
    return tuple(sorted(faces, key=lambda f: complex_.order.key(face_gcd(complex_, f)),
                        reverse=True))


def nabla_is_face(complex_, face) -> bool:
    """Whether a vertex tuple of a fiber complex is a face: its gcd is not 1."""
    face = tuple(face)
    if not face or any(not 0 <= i < len(complex_.vertices) for i in face):
        return False
    return not mono_is_unit(face_gcd(complex_, face))


def delta_is_face(complex_, face) -> bool:
    """Whether a set of variable indices is a face of a comparison complex."""
    return face_masks([face]) <= complex_.masks


def face_masks(faces) -> frozenset[int]:
    """Index-tuple faces as the subset masks a DeltaComplex holds, bit i for index i."""
    return frozenset(sum(1 << i for i in face) for face in faces)


def layered_delta(sg, m) -> DeltaComplex:
    """The comparison complex of m, grown one face size at a time as index tuples.

    A candidate face + (i,), with i above the face's last index, is tested
    for membership only when each facet that drops one of the face's own
    indices is already a face.
    """
    m = tuple(m)
    if not sg.member(m):
        return DeltaComplex(sg, m, frozenset())
    r = sg.num_generators
    shifted = {(): m}  # face F -> m - n_F
    layer = [()]
    while layer:
        grown = []
        for face in layer:
            for i in range(face[-1] + 1 if face else 0, r):
                cand = face + (i,)
                if any(cand[:k] + cand[k + 1:] not in shifted for k in range(len(face))):
                    continue
                target = sg.sub_degree(shifted[face], sg.generators[i])
                if sg.member(target):
                    shifted[cand] = target
                    grown.append(cand)
        layer = grown
    return DeltaComplex(sg, m, face_masks(shifted))


def restrict_nabla(complex_, beta) -> NablaComplex:
    """Divide out a monomial of the fiber of m - m'.

    The vertices divisible by beta, each divided by beta, form exactly the
    fiber of the reduced degree; faces restrict accordingly.  The result is
    rebuilt directly so it compares equal to a fresh construction.
    """
    sg = complex_.semigroup
    beta = tuple(beta)
    target = sg.sub_degree(complex_.degree, sg.degree_of(beta))
    if not sg.member(target):
        raise DegreeMismatch(
            f"degree of {beta} does not divide {complex_.degree} inside the semigroup"
        )
    reduced = [mono_div(v, beta) for v in complex_.vertices
               if all(b <= e for b, e in zip(beta, v))]
    vertices = tuple(complex_.order.sort_decreasing(reduced))
    return NablaComplex(sg, target, complex_.order, vertices)


def greedy_extension(field, boundary, candidates):
    """The candidates that extend the span of boundary, kept greedily.

    Vectors are sparse dicts index -> scalar.  Each vector is reduced
    against the rows kept so far, one pivot at a time; a nonzero rest is
    independent and is kept.  Raises ArithmeticError when the boundary
    vectors are themselves dependent.  Incremental, so it shares no
    elimination code with the engine.
    """
    rows = {}  # pivot index -> row normalized to 1 there

    def add(vec):
        work = dict(vec)
        while work:
            piv = min(work)
            row = rows.get(piv)
            if row is None:
                inv = field.div(field.one, work[piv])
                rows[piv] = {k: field.of(v * inv) for k, v in work.items()}
                return True
            field.axpy(work, row, -work[piv])
        return False

    if not all(add(vec) for vec in boundary):
        raise ArithmeticError("boundary vectors are dependent")
    return [vec for vec in candidates if add(vec)]


def oracle_v0(engine, m) -> int:
    """Brute-force count of degree-m minimal generators of the toric ideal.

    Computes dim (I)_m - dim (irrelevant * I)_m directly: the degree-m
    part of the ideal is spanned by consecutive fiber differences, and
    the shifted part by variable multiples of lower-degree differences.
    Uses its own small row reduction on purpose, so it shares no
    elimination code with the engine.
    """
    m = tuple(m)
    sg = engine.semigroup
    fiber = sg.fiber(m, engine.order)
    t = len(fiber)
    if t <= 1:
        return 0
    index = {mono: i for i, mono in enumerate(fiber)}
    field = engine.field
    rows = []
    r = sg.num_generators
    for i in range(r):
        shift = tuple(1 if k == i else 0 for k in range(r))
        m2 = sg.sub_degree(m, sg.generators[i])
        fib2 = sg.fiber(m2, engine.order)
        for a in range(len(fib2) - 1):
            vec = [field.zero] * t
            vec[index[mono_mul(fib2[a], shift)]] = field.one
            vec[index[mono_mul(fib2[a + 1], shift)]] = field.neg(field.one)
            rows.append(vec)
    rank = 0
    reduced: list[tuple[int, list]] = []
    for vec in rows:
        vec = list(vec)
        for piv, base in reduced:
            if vec[piv]:
                f = field.div(vec[piv], base[piv])
                for k in range(t):
                    if base[k]:
                        acc = vec[k] - f * base[k]
                        vec[k] = acc if field.modulus is None else acc % field.modulus
        piv = next((k for k in range(t) if vec[k]), None)
        if piv is not None:
            reduced.append((piv, vec))
            rank += 1
    return (t - 1) - rank


def registry_to_json(engine):
    """Every registered generator, in canonical order, as one JSON document."""
    records = [record_to_json(rec, engine.field)
               for records_at in level_records(engine).values() for rec in records_at]
    return {
        "config": engine.config.describe(),
        "kind": "registry",
        "generators": records,
    }
