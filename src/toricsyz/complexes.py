"""Fiber complexes and index-set comparison complexes.

For a degree m the fiber complex has the monomials of degree m as
vertices and declares a subset a face when its gcd is a proper monomial.
Since the gcd of a set is nontrivial exactly when some variable divides
every member, the complex is the union of one full simplex per variable
(the cover sets below), which keeps face enumeration cheap: each
(j-1)-face is extended by the later vertices in the covers of the
variables that divide its gcd, so every j-face is listed once, and the
j-faces take one sort keyed by their gcds, computed per variable.

The comparison complex lives on the variable indices themselves: a
subset F is a face when m minus the sum of the corresponding generators
stays in the semigroup.  Without its empty face it is the nerve of the
cover above (F is a face exactly when some fiber monomial is divisible by
every x_i with i in F), so by the nerve theorem both complexes have the
same reduced homology; rank-only queries use it, since it has at most 2^r
faces and needs no fiber.  The test suite checks the equality as a
property.  Its faces are subset masks of the r indices, and since the
complex depends on m only through which subsets pass the test, many
degrees share one face set: the engine reduces one complex per face set.
Neighbouring degrees determine it: F containing i is a face at m exactly
when F - {i} is one at m - n_i, and the empty face is one exactly when m
is in S.  So along a divisor-closed set of S walked by weight, Delta_m
is read off the face sets at the m - n_i (`read_face_sets`), and this is
the only way it is built: at one degree, `build_delta` walks that
degree's Apéry divisors (`delta_face_set`).  No membership is searched.
"""
from __future__ import annotations

from bisect import bisect_right
from operator import add, itemgetter, neg, sub

from .orders import Monomial, TermOrder
from .semigroup import Degree, Semigroup

Face = tuple[int, ...]


class NablaComplex:
    """Simplicial complex on a monomial fiber, faces = subsets with gcd != 1.

    Vertices are stored in decreasing term order; all face lists are
    deterministic for a fixed presentation, degree and order.  Immutable
    after construction, except for two memos: the face lists, and the
    boundary pivots that homology.reduce_boundary keeps in
    ``_reductions``.
    """

    def __init__(self, semigroup: Semigroup, degree: Degree, order: TermOrder,
                 vertices: tuple[Monomial, ...]):
        self.semigroup = semigroup
        self.degree = tuple(degree)
        self.order = order
        self.vertices = vertices
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        # per variable x_i: its exponent by vertex id, and its cover, the
        # ascending list of the ids of the vertices that x_i divides
        columns = tuple(zip(*vertices)) or ((),) * semigroup.num_generators
        self._exponents = tuple([col.__getitem__ for col in columns])
        self.cover = tuple([[i for i, e in enumerate(col) if e] for col in columns])
        self.dimension = max(map(len, self.cover), default=0) - 1
        self._faces: list[tuple[Face, ...]] = []  # by dimension, listed upwards
        self._reductions: dict = {}  # owned by homology.reduce_boundary

    @property
    def is_void(self) -> bool:
        """No vertices at all (the degree is not in the semigroup)."""
        return not self.vertices

    @property
    def is_irrelevant(self) -> bool:
        """Has vertices but no faces (only the unit monomial, degree zero)."""
        return bool(self.vertices) and not any(self.cover)

    def faces_of_dim(self, j: int) -> tuple[Face, ...]:
        """All j-faces, largest gcd first, ties by ascending index tuple.

        Vertices are distinct and decreasing, so 0-faces in index order are
        in gcd order.  Dimensions are listed upwards, each once: a j-face is
        the (j-1)-face of its first j vertices extended by its last one
        (_extend), and the j-faces take one keyed sort.
        """
        if j < 0 or j > self.dimension:
            return ()
        faces = self._faces
        while len(faces) <= j:
            faces.append(self._extend(faces[-1]) if faces else
                         tuple((i,) for i, v in enumerate(self.vertices) if any(v)))
        return faces[j]

    def _extend(self, lower: tuple[Face, ...]) -> tuple[Face, ...]:
        """The faces one vertex above ``lower``, in the order faces_of_dim gives.

        The keys come from a separate call, so that its partner lists and
        gcd columns are freed before the sort.
        """
        keys = self._extension_keys(lower)
        keys.sort()
        return tuple(map(itemgetter(-1), keys))

    def _extension_keys(self, lower: tuple[Face, ...]) -> list[tuple]:
        """Sort keys of the faces p + (w,), p in ``lower`` and w > p[-1].

        Such a face has a nontrivial gcd exactly when w lies in the cover of
        a variable that divides p's gcd g, so p's partners are the tails of
        those covers past p[-1], found by bisection, and merged when several
        contribute and none holds every later vertex.  Their gcds are
        min(g[i], exponent of x_i in w), one comprehension per variable over
        every partner list.  The keys are (-deg, g reversed, face) for
        degrevlex and (-g, face) for lex: ascending, they run from the
        largest gcd down, ties by index tuple.  Only variables whose cover
        is larger than p take part: every other one has exponent 0 in all
        these gcds, so it can neither contribute a partner nor decide the
        order.
        """
        size = len(lower[0])
        covers, exponents, top = [], [], 0
        for c, exponent in zip(self.cover, self._exponents):
            if len(c) > size:
                covers.append(c)
                exponents.append(exponent)
                top = max(top, c[-1])
        lower = [p for p in lower if p[-1] < top]  # the others have no partner
        # the gcds of the lower faces, one column per variable
        positions = [*zip(*lower)]
        lower_gcds = []
        for exponent in exponents:
            col = map(exponent, positions[0])
            for ids in positions[1:]:
                col = [a if a < b else b for a, b in zip(col, map(exponent, ids))]
            lower_gcds.append(col)
        prefixes, gcds, partners = [], [], []
        for p, g in zip(lower, zip(*lower_gcds)):
            last = p[-1]
            tails = []
            for c, e in zip(covers, g):
                if e:
                    s = bisect_right(c, last)
                    if s < len(c):
                        tails.append(c[s:])
            if tails:
                ws = tails[0] if len(tails) == 1 else max(tails, key=len)
                if len(ws) < top - last and len(tails) > 1:
                    ws = [*set().union(*tails)]
                prefixes.append(p)
                gcds.append(g)
                partners.append(ws)
        columns = [[e if x > e else x for e, ws in zip(g, partners) for x in map(exponent, ws)]
                   for exponent, g in zip(exponents, zip(*gcds))]
        faces = (p + (w,) for p, ws in zip(prefixes, partners) for w in ws)
        if self.order.kind == "lex":
            return [*zip(*[map(neg, col) for col in columns], faces)]
        degrees = columns[0]
        for col in columns[1:]:
            degrees = map(add, degrees, col)
        return [*zip(map(neg, degrees), *reversed(columns), faces)]

    def facets(self) -> tuple[Face, ...]:
        """Maximal faces: the maximal distinct cover simplices."""
        sets = {frozenset(d) for d in self.cover if d}
        maximal = [d for d in sets if not any(d < other for other in sets)]
        return tuple(sorted(tuple(sorted(d)) for d in maximal))

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

    Faces are held as subset masks, bit i standing for variable i; the
    empty face, mask 0, is one whenever m itself lies in S.  Faces of each
    dimension are listed as index tuples in ascending order.  Only the
    export reads the degree, so the engine lets one complex stand for
    every degree with its face set.  Immutable after construction, except
    for two memos: the face lists of every size, grouped in one pass over
    the masks at the first ask, and the boundary pivots that
    homology.reduce_boundary keeps in ``_reductions``.
    """

    def __init__(self, semigroup: Semigroup, degree: Degree, masks: frozenset[int]):
        self.semigroup = semigroup
        self.degree = tuple(degree)
        self.masks = masks
        self.num_vertices = semigroup.num_generators
        self._by_size: list[tuple[Face, ...]] = []
        self._reductions: dict = {}  # owned by homology.reduce_boundary

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def is_irrelevant(self) -> bool:
        return self.masks == {0}

    def faces_of_dim(self, j: int) -> tuple[Face, ...]:
        """The j-faces in ascending index-tuple order; j = -1 gives the empty face."""
        if not self._by_size:
            by_size = [[] for _ in range(self.num_vertices + 1)]
            for k in self.masks:
                by_size[k.bit_count()].append(_mask_face(k))
            self._by_size = [tuple(sorted(faces)) for faces in by_size]
        return self._by_size[j + 1] if 0 <= j + 1 < len(self._by_size) else ()

    def facets(self) -> tuple[Face, ...]:
        proper = [k for k in self.masks if k]
        maximal = [k for k in proper if not any(k != o and k & o == k for o in proper)]
        return tuple(sorted(map(_mask_face, maximal)))

    def to_dict(self):
        return {
            "degree": list(self.degree),
            "num_vertices": self.num_vertices,
            "facets": [list(f) for f in self.facets()],
        }

    def __repr__(self):
        return f"DeltaComplex(degree={self.degree}, faces={len(self.masks)})"


def _mask_face(mask: int) -> Face:
    """The ascending index tuple of the set bits of a subset mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def read_face_sets(semigroup: Semigroup, degrees, known: dict, unions: dict) -> None:
    """Record in ``known`` the comparison complex's face set at each degree of a walk.

    The degrees are a set of S closed under divisors in S, by weight, as
    `Semigroup.degrees_up_to` and `Semigroup.apery_divisors` list them:
    each m - n_i in S is among them and weighs less than m, so its face
    set is known first, and a neighbour without one lies outside S.  With
    m in S,

        Delta_m = {empty} | U_i {G + {i} : G in Delta_(m - n_i), i not in G},

    as F containing i is a face at m exactly when F - {i} is one at
    m - n_i.  ``unions`` maps the neighbours' face sets to their union, so
    degrees with the same neighbours share it, and each union to itself,
    so that equal face sets are one object.
    """
    gens, void = semigroup.generators, frozenset()
    for m in degrees:
        below = tuple([known.get(tuple(map(sub, m, n)), void) for n in gens])
        faces = unions.get(below)
        if faces is None:
            found = {0}
            for i, faces_i in enumerate(below):
                bit = 1 << i
                found.update(g | bit for g in faces_i if not g & bit)
            found = frozenset(found)
            faces = unions[below] = unions.setdefault(found, found)
        known[m] = faces


def delta_face_set(semigroup: Semigroup, m: Degree, known: dict,
                   unions: dict) -> frozenset[int]:
    """The face set of Delta_m, read off the walk of `Semigroup.apery_divisors(m)`.

    The walk's degrees are recorded as `read_face_sets` records them.  m
    is among them unless it is in N + S, N the sum of the generators, where
    every m - n_F is in S and Delta_m is the full simplex, or outside S,
    where the walk is empty and so is Delta_m.
    """
    walk = semigroup.apery_divisors(m)
    read_face_sets(semigroup, walk, known, unions)
    if m not in known:
        faces = frozenset(range(1 << semigroup.num_generators) if walk else ())
        known[m] = unions.setdefault(faces, faces)
    return known[m]


def build_delta(semigroup: Semigroup, m: Degree) -> DeltaComplex:
    """The comparison complex of m on its own (`delta_face_set`)."""
    m = tuple(m)
    return DeltaComplex(semigroup, m, delta_face_set(semigroup, m, {}, {}))
