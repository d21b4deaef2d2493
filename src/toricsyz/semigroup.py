"""Finitely generated subsemigroups of Z^d and their monomial fibers.

A presentation is a d x r integer matrix whose columns n_1, ..., n_r
generate the semigroup S.  Everything downstream needs S to admit only
finitely many factorizations per element, which is certified here by a
rational weight vector w with w.n_i >= 1 for every generator: such a w
exists exactly when no nonzero nonnegative combination of the columns
vanishes.  The weight also bounds every fiber enumeration.

w is found by Fourier-Motzkin elimination on {w.n_i >= 1} that drops only
rows the other rows imply: a pair of rows that would combine too many
generators is skipped before its row is built (Chernikov's rule), each
row is divided by the gcd of its coefficients and right-hand side (never
rounded, since integer tightening would change the rational polyhedron
and so w), and duplicates are merged.  Every projection is the one plain
elimination gives, and w is rebuilt from the rows that bound each
variable where it is eliminated, so it is plain elimination's point; w
shows in `validate` output, in weight bounds and in degree order.

The rebuild and the scaling to min w.n_i = 1 run in integers: the point
is kept as numerators over one common denominator, bounds are compared by
cross-multiplication, and each coordinate is reduced once.  This gives
the same w as rational arithmetic, and the numerators are also the
integer weights of the fiber search and of the degree enumeration.

Membership is one memoized depth-first search (`member`).  Enumeration
is one walk from 0 that steps by the generators inside a region
{x : y.x <= b for each row (y, b)}, the rows nonnegative on the
generators, and pops its elements in (weight, degree) order.
`degrees_up_to` walks a weight ball; `apery_divisors(m)` walks m - C, C
the real cone of S, and lists there only the Apéry set
Ap(S, N) = S - (N + S) of N = n_1 + ... + n_r, so every test on the way
is a set lookup.  Each walk lists a subset of S closed under divisors in
S, by weight, which is what the engine reads comparison complexes along.

Presentations are read strictly: dim and every generator entry must be
ints (not bools), so a float, string or null in a JSON input is an error
that names the entry rather than a silently truncated matrix.
"""
from __future__ import annotations

import json
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import floor, gcd, lcm
from operator import add, floordiv, le, mul, sub

from .homology import RationalField, gauss_reduce
from .orders import Monomial, TermOrder

Degree = tuple[int, ...]


class SemigroupError(ValueError):
    pass


class ZeroGenerator(SemigroupError):
    """Some generator column is the zero vector."""


class NotCombinatoriallyFinite(SemigroupError):
    """A nonzero nonnegative combination of generators is zero."""


def _dot(w, v):
    return sum(map(mul, w, v))


def _meets(x, found, step, tries: int) -> bool:
    """Is one of x, x - step, ..., x - (tries - 1) step in found?"""
    for _ in range(tries):
        if x in found:
            return True
        x = tuple(map(sub, x, step))
    return False


def _sparse_rows(rows):
    """Integer rows as gauss_reduce reads them: (column, entry) per nonzero entry."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in rows]


def _shown(x) -> str:
    """x as it reads in a JSON input."""
    return json.dumps(x, default=repr)


def _pruned(rows):
    """The rows of one projected system, scaled and with duplicates merged.

    Each row is (coeffs, rhs, history), the history being a bitmask of the
    original rows it combines; no row past Chernikov's count reaches here.
    Each row is divided by the gcd of its coefficients and rhs (0 >= 0
    goes), and rows then equal are merged, keeping the smaller history
    where one history contains the other.  Duplicates with incomparable
    histories all stay: each may be the row of an extreme combination, and
    its history is what later steps test.
    """
    kept: dict[tuple, list[int]] = {}
    for coeffs, rhs, history in rows:
        g = gcd(*coeffs, rhs)
        if g != 1:
            if not g:
                continue  # 0 >= 0
            # exact division: rounding rhs would change the polyhedron
            coeffs, rhs = tuple([c // g for c in coeffs]), rhs // g
        histories = kept.get((coeffs, rhs))
        if histories is None:
            kept[coeffs, rhs] = [history]
        elif all(h & ~history for h in histories):
            # no kept duplicate's history is a subset of this one: keep
            # this one, and drop those whose histories contain it
            histories[:] = [h for h in histories if history & ~h] + [history]
    return [(c, b, h) for (c, b), hs in kept.items() for h in hs]


def _fourier_motzkin_numerators(rows: list[tuple[tuple[int, ...], int]], dim: int):
    """Feasible rational point for the system {coeffs . x >= rhs}, or None.

    The point is returned as (nums, den): integer numerators over the
    lcm den of its coordinates' denominators.  Variables are eliminated
    from the last index down to index 1, then the point is rebuilt front to
    back, clamping 0 into the admissible interval of each variable.
    Deterministic by construction.

    Plain Fourier-Motzkin elimination can square the row count at every
    step.  Here, after k eliminations, a pair whose histories together hold
    more than k + 1 original rows is skipped before its row is built
    (Chernikov's rule; S. N. Chernikov, 1965; J.-L. Imbert, 1993): its
    multipliers are no extreme combination, so the rows of the extreme
    ones, which the rule keeps, imply it.  That holds for all-zero rows
    too, so an infeasible system stays infeasible.  The rows built are
    scaled and merged (`_pruned`).  Only implied rows go, so every
    projected system describes the same polyhedron as the unpruned one.

    The interval each coordinate is clamped into is the fiber of that
    projection over the coordinates already fixed, which redundant rows do
    not narrow, so the point is the one plain elimination would give.  It
    is rebuilt from the rows that bound each variable in the system it is
    eliminated from (index 0: the last one); a row that is 0 there passed
    on to the next system, so it holds at the coordinates fixed before.
    The last system's other rows are all zero; one with rhs > 0 leaves no
    point.  The rebuild runs in integers: the residuals are numerators over
    den, bounds are compared by cross-multiplication, and each coordinate
    is reduced once, when it is fixed.
    """
    # row i's history is the bit 1 << i
    system = _pruned([(c, b, 1 << i) for i, (c, b) in enumerate(rows)])
    bounds = []  # the rows bounding each variable, from the last one down
    for var in range(dim - 1, -1, -1):
        lower, upper, rest = [], [], []
        for row in system:
            c = row[0][var]
            (lower if c > 0 else upper if c < 0 else rest).append(row)
        bounds.append(lower + upper)
        if not var:
            break
        limit = dim - var + 1  # Chernikov's count once var is eliminated
        for pc, prhs, ph in lower:
            a = pc[var]
            for nc, nrhs, nh in upper:
                if (history := ph | nh).bit_count() <= limit:
                    b = -nc[var]
                    # a*(upper row) + b*(lower row): positive combination, var cancels
                    rest.append((tuple(map(add, map(a.__mul__, nc), map(b.__mul__, pc))),
                                 a * nrhs + b * prhs, history))
        system = _pruned(rest)
    if any(rhs > 0 for _, rhs, _ in rest):
        return None

    nums: list[int] = []  # the coordinates fixed so far, times den
    den = 1
    for var, bounding in enumerate(reversed(bounds)):
        # each bound is (n, c) with c > 0, standing for n / (c * den)
        lo = hi = None
        for coeffs, rhs, _ in bounding:
            c = coeffs[var]
            # den * (rhs - coeffs . point) over the coordinates already fixed
            residual = rhs * den - sum(map(mul, coeffs, nums))
            if c > 0:
                if lo is None or residual * lo[1] > lo[0] * c:
                    lo = (residual, c)
            elif hi is None or residual * hi[1] > hi[0] * c:
                hi = (-residual, -c)
        if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
            return None
        x = lo if lo is not None and lo[0] > 0 else (0, 1)
        if hi is not None and hi[0] * x[1] < x[0] * hi[1]:
            x = hi
        # the coordinate n / d in lowest terms; den becomes the lcm of them all
        g = gcd(x[0], x[1] * den)
        n, d = x[0] // g, x[1] * den // g
        new_den = lcm(den, d)
        if new_den != den:
            step = new_den // den
            nums = [v * step for v in nums]
            den = new_den
        nums.append(n * (den // d))
    return nums, den


class Semigroup:
    """Validated presentation of a combinatorially finite semigroup.

    Immutable after construction; all query methods are pure (membership
    answers are memoized internally).
    """

    def __init__(self, dim: int, generators):
        # type(x) is int: JSON true and false load as bools, a subclass
        if type(dim) is not int:
            raise SemigroupError(f"dim is {_shown(dim)}, not an integer")
        if dim < 1:
            raise SemigroupError("dimension must be positive")
        if not isinstance(generators, (list, tuple)):
            raise SemigroupError(
                f"generators is {_shown(generators)}, not a list of columns")
        if not generators:
            raise SemigroupError("at least one generator required")
        for i, col in enumerate(generators):
            if not isinstance(col, (list, tuple)):
                raise SemigroupError(
                    f"generators[{i}] is {_shown(col)}, not a list of integers")
            for k, x in enumerate(col):
                if type(x) is not int:
                    raise SemigroupError(
                        f"generators[{i}][{k}] is {_shown(x)}, not an integer")
        gens = tuple(tuple(col) for col in generators)
        for col in gens:
            if len(col) != dim:
                raise SemigroupError(f"generator {col} does not have length {dim}")
            if not any(col):
                raise ZeroGenerator(f"zero generator column {col}")
        self.dim = dim
        self.generators = gens
        self.num_generators = len(gens)
        # the grading, and a positive integer multiple of it with its
        # products with the generators, for the fiber and membership search
        self.grading, self._int_grading, self._wdots = self._positive_grading()
        self._member_cache: dict[Degree, bool] = {}
        self._facets = None  # the real cone's facet normals, once asked for
        self._cuts = None  # the fiber search's facet bounds, once it runs

    @classmethod
    def from_dict(cls, data) -> "Semigroup":
        try:
            dim = data["dim"]
            generators = data["generators"]
        except (TypeError, KeyError) as exc:
            raise SemigroupError(f"malformed semigroup description: {exc}") from exc
        return cls(dim, generators)

    @classmethod
    def from_file(cls, path) -> "Semigroup":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SemigroupError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self):
        return {"dim": self.dim, "generators": [list(col) for col in self.generators]}

    def _positive_grading(self):
        """The certificate w: w.n_i >= 1 for every generator, min exactly 1.

        Returned with the point's numerators v (w = v / min_k v.n_k) and
        the products v.n_i, all integers.
        """
        found = _fourier_motzkin_numerators(
            [(col, 1) for col in self.generators], self.dim)
        if found is None:
            raise NotCombinatoriallyFinite(
                "no positive grading exists: a nonzero nonnegative combination "
                "of generators is zero"
            )
        nums = tuple(found[0])
        dots = tuple(_dot(nums, n) for n in self.generators)
        scale = min(dots)
        return tuple(Fraction(v, scale) for v in nums), nums, dots

    def weight(self, m: Degree) -> Fraction:
        return _dot(self.grading, m)

    def degree_of(self, mono: Monomial) -> Degree:
        if len(mono) != self.num_generators:
            raise SemigroupError(
                f"exponent vector of length {len(mono)}, expected {self.num_generators}"
            )
        return tuple(
            sum(a * n[j] for a, n in zip(mono, self.generators))
            for j in range(self.dim)
        )

    def zero_degree(self) -> Degree:
        return (0,) * self.dim

    def sub_degree(self, m: Degree, mp: Degree) -> Degree:
        return tuple(a - b for a, b in zip(m, mp))

    def _degree(self, m: Degree) -> Degree:
        """m as a tuple, checked to have dim coordinates."""
        m = tuple(m)
        if len(m) != self.dim:
            raise SemigroupError(f"degree {m} has {len(m)} coordinates, but dim is {self.dim}")
        return m

    def member(self, m: Degree) -> bool:
        """Is m a nonnegative integer combination of the generators?  Searched once."""
        m = self._degree(m)
        cached = self._member_cache.get(m)
        if cached is None:
            cached = self._member_cache[m] = self._search(m, find_all=False)
        return cached

    def fiber(self, m: Degree, order: TermOrder) -> tuple[Monomial, ...]:
        """All monomials of degree m, sorted decreasing in the term order.

        Searched afresh on every call: the engine keeps the fiber complex
        of each degree it visits, so no caller asks for a fiber twice.
        """
        m = self._degree(m)
        fiber = tuple(order.sort_decreasing(self._search(m, find_all=True)))
        self._member_cache[m] = bool(fiber)
        return fiber

    def _search(self, m: Degree, find_all: bool):
        """DFS over exponent vectors with weight and facet pruning.

        Any solution alpha satisfies sum(a_i * w.n_i) = w.m with every
        w.n_i >= 1, so each exponent is bounded by the residual weight.
        The weights are the certificate's numerators v = L.w, where the
        positive integer L is min_k v.n_k, so they are ints with
        L.w.n_i >= L; the residual weight never goes negative, so floor
        division gives the bounds of the rational quotient.
        Each facet normal y of the real cone (`_cone_facets`) has
        y.n_k >= 0 for every generator, so likewise a_i <= y.res / y.n_i
        wherever y.n_i > 0, and there is no solution when y.m < 0.  These
        bounds cut only branches without solutions, so the search finds
        the same solutions in the same order.  They matter near the
        boundary of the cone, where the weight alone lets every exponent
        run: at k.e3 over <e1, e2, e3, e1+e2, e2+e3> the search visits
        2k + 5 nodes, where the weight bound alone visits 84,315 at k = 40.
        Normals parallel to v add nothing and are skipped.
        The last coordinate is solved exactly instead of scanned.
        """
        r = self.num_generators
        gens = self.generators
        wdots = self._wdots
        wm = _dot(self._int_grading, m)
        if self._cuts is None:
            v = self._int_grading
            grading = tuple(x // gcd(*v) for x in v)  # primitive, as the normals are
            rows = [y for y in self._cone_facets() if y != grading]
            # per generator, the facet rows positive on it, with that product
            self._cuts = rows, tuple(tuple((y, _dot(y, n)) for y in rows if _dot(y, n) > 0)
                                     for n in gens)
        rows, cuts = self._cuts
        solutions: list[Monomial] = []
        last = gens[-1]
        pivot = next(i for i, x in enumerate(last) if x)

        def rec(i, residual, wres, prefix):
            if i == r - 1:
                # residual must be a nonnegative multiple of the last generator
                q, rem = divmod(residual[pivot], last[pivot])
                if rem or q < 0 or any(x != q * n for x, n in zip(residual, last)):
                    return False
                solutions.append(prefix + (q,))
                return not find_all
            bound = wres // wdots[i]
            for y, yn in cuts[i]:
                bound = min(bound, sum(map(mul, y, residual)) // yn)
            res = list(residual)
            n = gens[i]
            for a in range(bound + 1):
                if rec(i + 1, tuple(res), wres - a * wdots[i], prefix + (a,)):
                    return True
                for j in range(self.dim):
                    res[j] -= n[j]
            return False

        found = (wm >= 0 and all(_dot(y, m) >= 0 for y in rows)
                 and rec(0, tuple(m), wm, ()))
        return solutions if find_all else found

    def _walk(self, rows, apery: Degree | None = None) -> list[Degree]:
        """The elements x of S with y.x <= b for each row (y, b), by (weight, degree).

        rows[0] is the weight row (v, b), v the integer grading, and every
        y is nonnegative on the generators, so the region holds each partial
        sum of a factorization of each of its elements: a walk from 0 that
        steps by the generators inside the region reaches them all, and a
        heap pops them by weight, ties by degree.  Row values are carried
        along as integers.

        With apery = N, the sum of the generators, only the elements outside
        N + S are listed and stepped from.  Every element seen lies in S, so
        x is in N + S exactly when some x - kN, k >= 1, has been seen: such
        an x is a + kN with a in the Apéry set, which is closed under
        divisors in S, and a lies in the region and weighs less than x, so
        the walk has listed it.
        """
        bounds = tuple(b for _, b in rows)
        steps = tuple((n, tuple(_dot(y, n) for y, _ in rows)) for n in self.generators)
        at_sum = tuple(map(sum, zip(*(dn for _, dn in steps))))  # y.N per row, all > 0
        zero = self.zero_degree()
        listed, seen = [], {zero}
        heap = [(0, zero, (0,) * len(rows))] if min(bounds) >= 0 else []
        while heap:
            _, x, vals = heappop(heap)
            # only the x - kN with every y.(x - kN) >= 0 can have been seen
            if apery and _meets(tuple(map(sub, x, apery)), seen, apery,
                                min(map(floordiv, vals, at_sum))):
                continue
            listed.append(x)
            for n, dn in steps:
                x2 = tuple(map(add, x, n))
                if x2 not in seen:
                    vals2 = tuple(map(add, vals, dn))
                    if all(map(le, vals2, bounds)):
                        seen.add(x2)
                        heappush(heap, (vals2[0], x2, vals2))
        return listed

    def degrees_up_to(self, w_bound) -> list[Degree]:
        """All semigroup elements of weight at most w_bound, by weight, ties by degree.

        In integer weights w.m <= w_bound exactly when v.m <= floor(w_bound
        * L), v = L.w being the certificate's numerators.
        """
        bound = floor(Fraction(w_bound) * min(self._wdots))
        return self._walk(((self._int_grading, bound),))

    def apery_divisors(self, m: Degree) -> list[Degree]:
        """D(m) minus N + S, by weight, ties by degree; empty when m is not in S.

        D(m) = {m' in S : m - m' in S}, and N = n_1 + ... + n_r.  The walk
        covers m - C, cut out by the facet normals y of the real cone C
        (`_cone_facets`) and the weight row they imply, which keeps it
        bounded by its first row alone, and lists the Apéry set
        Ap(S, N) = S - (N + S) there.  S = Ap + kN over k >= 0, and each
        such a = m - m' - kN with m - m' in S lies in m - C, so m' is kept
        exactly when some m - m' - kN is listed.  The result is closed under
        divisors in S: each m' - n_i in S lies in Ap and in D(m).
        """
        m = self._degree(m)
        big_n = tuple(map(sum, zip(*self.generators)))
        rows = (self._int_grading, *self._cone_facets())
        listed = self._walk(tuple((y, _dot(y, m)) for y in rows), big_n)
        found, v, wn = set(listed), self._int_grading, sum(self._wdots)
        # only the m - x - kN of weight >= 0 can be listed
        return [x for x in listed
                if _meets(rest := tuple(map(sub, m, x)), found, big_n, _dot(v, rest) // wn + 1)]

    def _cone_facets(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer normals y of the facets of the real cone C of S.

        Each has y.n_i >= 0 for every generator, with equality on rank(C) - 1
        independent ones, so {x : y.x >= 0 for every y} meets the span of C
        in C.  The normals live on the pivot coordinates of the generator
        rows, on which the generators keep their rank: there C is
        full-dimensional and pointed, so each facet is spanned by rank(C) - 1
        independent generators with all the others on one side, and its
        normal is their kernel.  Computed once, sorted.
        """
        if self._facets is None:
            field = RationalField()
            coords = gauss_reduce(_sparse_rows(self.generators), self.dim, field).pivots
            points = [tuple(n[c] for c in coords) for n in self.generators]
            rank = len(coords)
            normals = set()
            for spanning in combinations(points, rank - 1):
                reduced = gauss_reduce(_sparse_rows(spanning), rank, field)
                if reduced.rank < rank - 1:
                    continue  # dependent: spans no hyperplane
                (f,) = set(range(rank)) - set(reduced.pivots)
                kernel = {f: 1, **reduced.solve({i: -q[f] for i, q in enumerate(spanning)})}
                den = lcm(*(x.denominator for x in kernel.values()))
                z = [int(kernel.get(c, 0) * den) for c in range(rank)]
                dots = [_dot(z, q) for q in points]  # not all 0: the points span
                if min(dots) < 0 < max(dots):
                    continue  # generators on both sides: no facet
                scale = gcd(*z) if max(dots) > 0 else -gcd(*z)
                lifted = dict(zip(coords, z))
                normals.add(tuple(lifted.get(c, 0) // scale for c in range(self.dim)))
            self._facets = tuple(sorted(normals))
        return self._facets

    def matrix_rank(self) -> int:
        """Rank of the generator matrix over the rationals."""
        rows = _sparse_rows(zip(*self.generators))
        return gauss_reduce(rows, self.num_generators, RationalField()).rank

    def __repr__(self):
        return f"Semigroup(dim={self.dim}, generators={list(self.generators)})"
