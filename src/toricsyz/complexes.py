"""Fiber complexes and index-set comparison complexes.

For a degree m the fiber complex has the monomials of degree m as
vertices and declares a subset a face when its gcd is a proper monomial.
Since the gcd of a set is nontrivial exactly when some variable divides
every member, the complex is the union of one full simplex per variable
(the cover sets below), which keeps face enumeration cheap.

The comparison complex lives on the variable indices themselves: a
subset F is a face when m minus the sum of the corresponding generators
stays in the semigroup.  Without its empty face it is the nerve of the
cover above (F is a face exactly when some fiber monomial is divisible by
every x_i with i in F), so by the nerve theorem both complexes have the
same reduced homology; rank-only queries use it, since it has at most 2^r
faces and needs no fiber.  The test suite checks the equality as a
property.
"""
from __future__ import annotations

from itertools import combinations

from .orders import (
    Monomial,
    TermOrder,
    mono_gcd,
)
from .semigroup import Degree, Semigroup

Face = tuple[int, ...]


class NablaComplex:
    """Simplicial complex on a monomial fiber, faces = subsets with gcd != 1.

    Vertices are stored in decreasing term order; all face lists are
    deterministic for a fixed presentation, degree and order.  Immutable
    after construction, except for two memos: the face lists, and the
    boundary reductions that homology.reduce_boundary keeps in
    ``_reductions``.
    """

    def __init__(self, semigroup: Semigroup, degree: Degree, order: TermOrder,
                 vertices: tuple[Monomial, ...]):
        self.semigroup = semigroup
        self.degree = tuple(degree)
        self.order = order
        self.vertices = vertices
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        r = semigroup.num_generators
        self.cover = tuple(
            frozenset(i for i, v in enumerate(vertices) if v[var] > 0)
            for var in range(r)
        )
        self._faces: dict[int, tuple[Face, ...]] = {}
        self._reductions: dict = {}  # owned by homology.reduce_boundary

    @property
    def is_void(self) -> bool:
        """No vertices at all (the degree is not in the semigroup)."""
        return not self.vertices

    @property
    def is_irrelevant(self) -> bool:
        """Has vertices but no faces (only the unit monomial, degree zero)."""
        return bool(self.vertices) and not any(self.cover)

    @property
    def dimension(self) -> int:
        return max((len(d) for d in self.cover), default=0) - 1

    def face_gcd(self, face: Face) -> Monomial:
        return mono_gcd(*(self.vertices[i] for i in face))

    def faces_of_dim(self, j: int) -> tuple[Face, ...]:
        """All j-faces, largest gcd first, ties by ascending index tuple."""
        if j < 0 or j > self.dimension:
            return ()
        cached = self._faces.get(j)
        if cached is not None:
            return cached
        found: set[Face] = set()
        for cover_set in self.cover:
            if len(cover_set) > j:
                found.update(combinations(sorted(cover_set), j + 1))
        ordered = sorted(found)
        ordered.sort(key=lambda f: self.order.key(self.face_gcd(f)), reverse=True)
        result = tuple(ordered)
        self._faces[j] = result
        return result

    def facets(self) -> tuple[Face, ...]:
        """Maximal faces: the maximal distinct cover simplices."""
        sets = {d for d in self.cover if d}
        maximal = [d for d in sets if not any(d < other for other in sets)]
        return tuple(sorted(tuple(sorted(d)) for d in maximal))

    def components(self) -> list[set[int]]:
        """Connected components of the vertex set (union of cover simplices)."""
        parent = list(range(len(self.vertices)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for cover_set in self.cover:
            members = sorted(cover_set)
            for other in members[1:]:
                ra, rb = find(members[0]), find(other)
                if ra != rb:
                    parent[rb] = ra
        groups: dict[int, set[int]] = {}
        for i in range(len(self.vertices)):
            groups.setdefault(find(i), set()).add(i)
        return [groups[k] for k in sorted(groups)]

    def to_dict(self):
        return {
            "degree": list(self.degree),
            "vertices": [list(v) for v in self.vertices],
            "facets": [list(f) for f in self.facets()],
        }

    def __repr__(self):
        return f"NablaComplex(degree={self.degree}, vertices={len(self.vertices)})"


def build_nabla(semigroup: Semigroup, m: Degree, order: TermOrder) -> NablaComplex:
    vertices = semigroup.fiber(m, order)
    return NablaComplex(semigroup, m, order, vertices)


class DeltaComplex:
    """Complex on variable indices: F is a face iff m - n_F stays in S.

    Contains the empty face whenever m itself lies in S.  Faces of each
    dimension are ordered by ascending index tuple.  Immutable after
    construction, except for two memos: the face lists by dimension, and
    the boundary reductions that homology.reduce_boundary keeps in
    ``_reductions``.
    """

    def __init__(self, semigroup: Semigroup, degree: Degree, faces: frozenset):
        self.semigroup = semigroup
        self.degree = tuple(degree)
        self.faces = faces
        self.num_vertices = semigroup.num_generators
        self._by_dim: dict[int, tuple[Face, ...]] = {}
        self._reductions: dict = {}  # owned by homology.reduce_boundary

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def is_irrelevant(self) -> bool:
        return self.faces == frozenset({()})

    @property
    def dimension(self) -> int:
        return max((len(f) for f in self.faces), default=0) - 1

    def faces_of_dim(self, j: int) -> tuple[Face, ...]:
        cached = self._by_dim.get(j)
        if cached is None:
            cached = tuple(sorted(f for f in self.faces if len(f) == j + 1))
            self._by_dim[j] = cached
        return cached

    def facets(self) -> tuple[Face, ...]:
        proper = {f for f in self.faces if f}
        maximal = [
            f for f in proper
            if not any(set(f) < set(other) for other in proper)
        ]
        return tuple(sorted(maximal))

    def to_dict(self):
        return {
            "degree": list(self.degree),
            "num_vertices": self.num_vertices,
            "facets": [list(f) for f in self.facets()],
        }

    def __repr__(self):
        return f"DeltaComplex(degree={self.degree}, faces={len(self.faces)})"


def build_delta(semigroup: Semigroup, m: Degree) -> DeltaComplex:
    """The comparison complex of m, built up one face size at a time.

    Faces are closed under subsets (m - n_F in S implies m - n_G in S for
    G inside F), so a candidate is tested for membership only when each of
    its facets is already a face.
    """
    m = tuple(m)
    if not semigroup.member(m):
        return DeltaComplex(semigroup, m, frozenset())
    r = semigroup.num_generators
    gens = semigroup.generators
    shifted = {(): m}  # face F -> m - n_F
    layer = [()]
    while layer:
        grown = []
        for face in layer:
            rest = shifted[face]
            for i in range(face[-1] + 1 if face else 0, r):
                cand = face + (i,)
                if any(cand[:k] + cand[k + 1:] not in shifted
                       for k in range(len(face))):
                    continue
                target = semigroup.sub_degree(rest, gens[i])
                if semigroup.member(target):
                    shifted[cand] = target
                    grown.append(cand)
        layer = grown
    return DeltaComplex(semigroup, m, frozenset(shifted))
