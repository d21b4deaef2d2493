"""Minimal generators and syzygies extracted from single degrees.

The engine in this module walks one recursion step, the same at every
homological level.  Its input is a polynomial at level 0 (a binomial) and
a syzygy vector over the level-below generators above that.  The step
factors out the monomial content, lifts what remains to a cycle of the
fiber complex at the reduced degree (at level 0 each monomial is a
vertex), splits that cycle against the fixed basis there, harvests the
homology coordinates as minimal generators and pushes the boundary
coordinates onto their preimage faces one dimension up.  The value of a
face is the step applied to the image of its boundary; the monomials of a
face share a variable, so that image has nontrivial content and the step
recurses at a strictly smaller degree.  The step on a content-free input
is made once per engine: inputs that differ only by content share it.

Harvesting a degree M walks no faces: the comparison complexes at the
degrees of its divisor set D(M) = {m' in S : M - m' in S} say where the
generators below M sit and how many there are, and only its degrees
outside N + S, N the sum of the generators, can hold any.

Every generator is identified by (level, degree, index of its homology
representative in the fixed basis), which makes results of independent
queries pieces of one and the same minimal system.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .complexes import (DeltaComplex, NablaComplex, build_nabla, delta_face_set,
                        read_face_sets)
from .config import Config
from .homology import (
    ChainBasis,
    basis_cache_key,
    betti_reduced,
    boundary_matrix,
    face_boundary,
    fixed_cycle_basis,
    gauss_reduce,
    get_field,
    load_cached_basis,
    representative_fault,
    store_cached_basis,
)
from .orders import (
    Monomial,
    TermOrder,
    mono_div,
    mono_gcd,
    mono_is_unit,
    mono_mul,
    mono_str,
)
from .semigroup import Degree, Semigroup

GenId = tuple  # (level, degree, homology index)
Polynomial = dict  # Monomial -> field scalar
SyzygyVector = dict  # GenId -> Polynomial


class ResolutionError(ValueError):
    pass


class NotHomogeneous(ResolutionError):
    """Input monomials or coefficients do not share one degree."""


class NotInIdeal(ResolutionError):
    """The two monomials of a binomial coincide."""


class NotASyzygy(ResolutionError):
    """A vector whose image under the enclosing map is nonzero."""


class CheckFailed(ResolutionError):
    """An internal consistency check failed: the engine's state is wrong, not its input."""


class LiftFailed(CheckFailed):
    """A shifted witness cycle failed to bound; bases are inconsistent."""


class NotAFace(ResolutionError):
    """Invalid vertex tuple handed to a simplicial evaluation."""


class UnknownGenerator(ResolutionError):
    """A syzygy vector references a generator id that was never registered."""


# ---------------------------------------------------------------------------
# sparse polynomial helpers (field aware)


def poly_mono_mul(p: Polynomial, mono: Monomial) -> Polynomial:
    if mono_is_unit(mono):
        return dict(p)
    return {mono_mul(m, mono): c for m, c in p.items()}


def poly_mono_div(p: Polynomial, mono: Monomial) -> Polynomial:
    return {mono_div(m, mono): c for m, c in p.items()}


def poly_mul(a: Polynomial, b: Polynomial, field) -> Polynomial:
    out: Polynomial = {}
    for ma, ca in a.items():
        field.axpy(out, poly_mono_mul(b, ma), ca)
    return out


def syz_add_scaled(target: SyzygyVector, source: SyzygyVector, scale, field) -> None:
    if not scale:
        return
    for gid, poly in source.items():
        acc = target.setdefault(gid, {})
        field.axpy(acc, poly, scale)
        if not acc:
            del target[gid]


def syz_mono_mul(g: SyzygyVector, mono: Monomial) -> SyzygyVector:
    return {gid: poly_mono_mul(p, mono) for gid, p in g.items()}


def monomial_content(level: int, g) -> Monomial:
    """gcd of the monomials of g: a polynomial at level 0, a syzygy vector above."""
    return mono_gcd(*(g if level == 0 else [m for p in g.values() for m in p]))


def _shifted(semigroup: Semigroup, mono: Monomial, degree: Degree) -> Degree:
    """Degree of x^mono times a generator of the given degree."""
    return tuple(a + b for a, b in zip(semigroup.degree_of(mono), degree))


# ---------------------------------------------------------------------------
# records and containers


@dataclass(frozen=True)
class Binomial:
    """Pure difference of two monomials of one degree, lead first."""

    lead: Monomial
    trail: Monomial

    def as_polynomial(self, field) -> Polynomial:
        return {self.lead: field.one, self.trail: field.neg(field.one)}

    def __str__(self):
        return f"{mono_str(self.lead)} - {mono_str(self.trail)}"


def phi_image(g: SyzygyVector, value_of, field):
    """Image of g under substituting generator values: sum of f * value_of(gid).

    A polynomial where the referenced values are Binomials (g at level 1),
    a syzygy vector where they are syzygy vectors (higher levels).
    """
    out: dict = {}
    for gid, f in g.items():
        value = value_of(gid)
        if isinstance(value, Binomial):
            field.axpy(out, poly_mul(f, value.as_polynomial(field), field), field.one)
        else:
            syz_add_scaled(out, {gid2: poly_mul(f, p2, field) for gid2, p2 in value.items()},
                           field.one, field)
    return out


@dataclass
class GeneratorRecord:
    """One minimal generator with the cycle that witnessed it."""

    gid: GenId
    level: int
    degree: Degree
    value: object  # Binomial at level 0, SyzygyVector above
    witness: dict  # homology representative, a chain in its fiber complex
    orientation: object  # scalar relating psi(witness) to value

    def sort_key(self, semigroup: Semigroup):
        return (self.level, semigroup.weight(self.degree), self.degree, self.gid[2])


class GeneratorRegistry:
    """Append-only store of discovered generators, indexed by id."""

    def __init__(self):
        self.records: dict[GenId, GeneratorRecord] = {}

    def __contains__(self, gid):
        return gid in self.records

    def get(self, gid) -> GeneratorRecord:
        rec = self.records.get(gid)
        if rec is None:
            raise UnknownGenerator(f"generator {gid} is not registered")
        return rec

    def value(self, gid):
        return self.get(gid).value

    def add(self, record: GeneratorRecord) -> None:
        if record.gid in self.records:
            raise ResolutionError(f"duplicate registration of {record.gid}")
        self.records[record.gid] = record


@dataclass
class DecompositionResult:
    """Exact expression of an input as a combination of minimal generators."""

    input_degree: Degree
    entries: list  # (GeneratorRecord, Polynomial), canonical order


@dataclass
class ResolutionFragment:
    """Verified slice of the minimal free resolution discovered from one degree."""

    degree: Degree
    max_level: int
    levels: dict  # level -> list of GeneratorRecord, canonical order
    report: dict = dataclass_field(default_factory=dict)

    def ranks(self) -> dict:
        return {level: len(records) for level, records in sorted(self.levels.items())}

    def all_records(self):
        for level in sorted(self.levels):
            yield from self.levels[level]


# ---------------------------------------------------------------------------
# the engine


class ResolutionEngine:
    """Shared state for one presentation, term order and field.

    Owns the generator registry plus every cache (fibers, complexes, fixed
    bases, evaluated faces, decompositions), so that independent queries
    agree on one common minimal system.  Each content-free input is
    decomposed once; inputs that differ only by content share that
    decomposition, read-only, and a hit only skips work whose
    registrations already happened.  Registry mutations happen in the
    deterministic order induced by the recursion.
    """

    def __init__(self, semigroup: Semigroup, config: Config | None = None):
        self.semigroup = semigroup
        self.config = config or Config()
        self.order = TermOrder(self.config.term_order)
        self.field = get_field(self.config.field)
        self.registry = GeneratorRegistry()
        self._nabla: dict[Degree, NablaComplex] = {}
        # degree -> its comparison complex's face set, and face set -> the
        # one complex, with its reductions, that all those degrees share
        self._delta_faces: dict[Degree, frozenset[int]] = {}
        self._delta: dict[frozenset[int], DeltaComplex] = {}
        self._delta_unions: dict = {}  # see complexes.read_face_sets
        self._delta_betti: dict[tuple, int] = {}  # (face set, j) -> Betti number
        self._bases: dict[tuple, ChainBasis] = {}
        self._psi: dict[tuple, SyzygyVector] = {}
        self._lifts: dict[tuple, tuple] = {}
        # (level, reduced degree, content-free input) -> its decomposition
        self._decompositions: dict[tuple, SyzygyVector] = {}

    # -- cached geometry ----------------------------------------------------

    def nabla(self, m: Degree) -> NablaComplex:
        m = tuple(m)
        cx = self._nabla.get(m)
        if cx is None:
            cx = build_nabla(self.semigroup, m, self.order)
            self._nabla[m] = cx
        return cx

    def chain_basis(self, m: Degree, j: int) -> ChainBasis:
        m = tuple(m)
        key = (m, j)
        basis = self._bases.get(key)
        if basis is not None:
            return basis
        cache_dir = self.config.cache_dir
        disk_key = None
        if cache_dir:
            disk_key = basis_cache_key(
                self.semigroup, m, j, self.order.kind, self.field.name
            )
            basis = load_cached_basis(cache_dir, disk_key, self.field,
                                      self.nabla(m), j)
        if basis is None:
            basis = fixed_cycle_basis(self.nabla(m), j, self.field)
            if cache_dir:
                store_cached_basis(cache_dir, disk_key, basis)
        self._bases[key] = basis
        return basis

    def multigraded_betti(self, m: Degree, j: int) -> int:
        """Rank of degree-m homology in dim j, read off the fiber complex.

        Builds the fixed basis there (and stores it in the disk cache), as
        generator-making code does through chain_basis; it serves as the
        cross-check of betti_delta, and rank-only queries go through that.
        """
        cx = self.nabla(m)
        if not cx.faces_of_dim(j):
            return 0
        return len(self.chain_basis(m, j).homology)

    def betti_delta(self, m: Degree, j: int) -> int:
        """The Betti count at (m, j) from the comparison complex.

        The comparison complex minus its empty face is the nerve of the
        fiber complex's cover by one simplex per variable, so by the nerve
        theorem both have the same reduced homology; this one has at most
        2^r faces and needs no fiber.  It depends on m only through its
        face set, so every degree with the same face set shares one
        complex, built when the first of them is asked; that complex keeps its
        boundary reductions, so each (face set, dimension) is reduced once
        and neighbouring dimensions share them; the count itself is kept
        per (face set, dimension).

        The face set is the one a walk recorded (`walk_face_sets`), as in
        `scan`, `harvest` and `check_entries`; at a degree no walk recorded,
        as in `betti`, it is read off the walk of that degree's Apéry
        divisors (`complexes.delta_face_set`), which records theirs too.
        """
        m = tuple(m)
        faces = self._face_set(m)
        key = (faces, j)
        betti = self._delta_betti.get(key)
        if betti is None:
            cx = self._delta.get(faces)
            if cx is None:
                cx = self._delta[faces] = DeltaComplex(self.semigroup, m, faces)
            betti = self._delta_betti[key] = betti_reduced(cx, j, self.field)
        return betti

    def _face_set(self, m: Degree) -> frozenset[int]:
        """m's recorded face set, else the one read off its Apéry divisors' walk."""
        faces = self._delta_faces.get(m)
        if faces is None:
            faces = delta_face_set(self.semigroup, m, self._delta_faces, self._delta_unions)
        return faces

    def walk_face_sets(self, degrees: list) -> list:
        """Record the comparison complex's face set at each degree of a walk; return the degrees.

        The degrees are a set of S closed under divisors in S, by weight;
        `complexes.read_face_sets` reads each face set off those at the
        m - n_i.  Degrees whose neighbours have the same face sets share one
        union, and degrees with the same face set share one complex.
        """
        read_face_sets(self.semigroup, degrees, self._delta_faces, self._delta_unions)
        return degrees

    # -- one recursion step, every level ----------------------------------

    def psi0(self, chain: dict, m: Degree) -> Polynomial:
        """Linear extension of vertex -> monomial on 0-chains at degree m."""
        cx = self.nabla(m)
        out: Polynomial = {}
        for face, coeff in chain.items():
            if len(face) != 1 or not 0 <= face[0] < len(cx.vertices):
                raise NotAFace(f"{face} is not a vertex of the complex at {m}")
            self.field.axpy(out, {cx.vertices[face[0]]: self.field.one}, coeff)
        return out

    def minimalize_binomial(self, lead: Monomial, trail: Monomial) -> DecompositionResult:
        """Decompose x^lead - x^trail over minimal binomial generators.

        The result reconstructs the input exactly and every coefficient is
        divisible by gcd(lead, trail).
        """
        lead, trail = tuple(lead), tuple(trail)
        m = self.semigroup.degree_of(lead)
        if m != self.semigroup.degree_of(trail):
            raise NotHomogeneous(
                f"{mono_str(lead)} and {mono_str(trail)} have different degrees"
            )
        if lead == trail:
            raise NotInIdeal("the two monomials coincide; the binomial is zero")
        return self._minimalize(0, Binomial(lead, trail).as_polynomial(self.field), m)

    def minimalize_syzygy(self, level: int, g: SyzygyVector) -> DecompositionResult:
        """Decompose a level-th syzygy over minimal generators of that level."""
        if not g:
            return DecompositionResult(self.semigroup.zero_degree(), [])
        return self._minimalize(level, g, self._validate_syzygy(level, g))

    def _minimalize(self, level: int, g, m: Degree) -> DecompositionResult:
        """Decompose, check the reconstruction, sort the entries canonically."""
        coeffs = self._decompose(level, g, m)
        self._check_reconstruction(coeffs, g, monomial_content(level, g))
        entries = [(self.registry.get(gid), dict(poly))
                   for gid, poly in coeffs.items() if poly]
        entries.sort(key=lambda item: item[0].sort_key(self.semigroup))
        return DecompositionResult(tuple(m), entries)

    def _decompose(self, level: int, g, m: Degree) -> SyzygyVector:
        """Coefficients of g over the level-th minimal generators.

        g is a polynomial at level 0 and a syzygy vector above, homogeneous
        of degree m.  Its monomial content is factored out and the rest
        decomposed at the reduced degree, once per engine: inputs that
        differ only by content share that decomposition.
        """
        if not g:
            return {}
        c = monomial_content(level, g)
        if mono_is_unit(c):
            reduced, m_red = g, tuple(m)
        else:
            reduced = (poly_mono_div(g, c) if level == 0
                       else {gid: poly_mono_div(p, c) for gid, p in g.items()})
            m_red = self.semigroup.sub_degree(m, self.semigroup.degree_of(c))
        key = (level, m_red, frozenset(reduced.items()) if level == 0 else
               frozenset((gid, frozenset(p.items())) for gid, p in reduced.items()))
        out = self._decompositions.get(key)
        if out is None:
            out = self._decompositions[key] = self._decompose_reduced(level, reduced, m_red)
        if not mono_is_unit(c):
            out = syz_mono_mul(out, c)
        if self.config.debug_checks:
            self._check_reconstruction(out, g, c)
        return out

    def _decompose_reduced(self, level: int, g, m: Degree) -> SyzygyVector:
        """Coefficients of a content-free g of degree m.

        g is lifted to a cycle of the fiber complex at m and split against
        the fixed basis there: homology coordinates are generators,
        boundary coordinates recurse through the preimage faces one
        dimension up, at that same degree.
        """
        field = self.field
        basis = self.chain_basis(m, level)
        lam, mu = basis.express(self._lift(level, g, m))
        out: SyzygyVector = {}
        unit = (0,) * self.semigroup.num_generators
        for idx, lv in enumerate(lam):
            if lv:
                rec = self._ensure_generator(level, m, idx)
                syz_add_scaled(out, {rec.gid: {unit: rec.orientation}}, lv, field)
        for k, mv in zip(basis.pivots, mu):
            if mv:
                syz_add_scaled(out, self._psi_face(m, level + 1, basis.up_faces[k]),
                               mv, field)
        return out

    def _ensure_generator(self, level: int, m: Degree, idx: int) -> GeneratorRecord:
        gid = (level, tuple(m), idx)
        if gid in self.registry:
            return self.registry.get(gid)
        field = self.field
        basis = self.chain_basis(m, level)
        witness = basis.homology[idx]
        if level == 0:
            raw = self.psi0(witness, m)
            if len(raw) != 2:
                raise CheckFailed("0-dimensional witness is not a vertex pair")
            top = max(raw, key=self.order.key)
            other = next(mono for mono in raw if mono != top)
            orientation = raw[top]
            if orientation not in (field.one, field.neg(field.one)):
                raise CheckFailed("witness pair has non-unit coefficients")
            record = GeneratorRecord(gid, 0, tuple(m), Binomial(top, other),
                                     dict(witness), orientation)
        else:
            value: SyzygyVector = {}
            for face in sorted(witness):
                sub = self._psi_face(m, level, face)
                syz_add_scaled(value, sub, witness[face], field)
            record = GeneratorRecord(gid, level, tuple(m), value,
                                     dict(witness), field.one)
        self.registry.add(record)
        return record

    def _check_reconstruction(self, coeffs: SyzygyVector, expected, divisor: Monomial) -> None:
        """Every coefficient is divisible by divisor and phi(coeffs) == expected."""
        for gid, poly in coeffs.items():
            if any(any(d > e for d, e in zip(divisor, mono)) for mono in poly):
                raise CheckFailed(
                    f"coefficient of {gid} is not divisible by {mono_str(divisor)}"
                )
        if phi_image(coeffs, self.registry.value, self.field) != expected:
            raise CheckFailed("decomposition does not reconstruct its input")

    # -- psi on faces ---------------------------------------------------------

    def psi(self, level: int, face, m: Degree) -> SyzygyVector:
        """Evaluate the level-th comparison map on a vertex tuple at degree m.

        Defined by decomposing the image of the tuple's boundary one level
        down; on actual faces this makes the resolution diagrams commute,
        which debug mode checks: phi(psi(F)) must equal psi(boundary F).
        """
        if level < 1:
            raise ResolutionError("psi is defined for level >= 1")
        face, m = tuple(face), tuple(m)
        cx = self.nabla(m)
        if (len(face) != level + 1 or len(set(face)) != len(face)
                or list(face) != sorted(face)
                or any(not 0 <= i < len(cx.vertices) for i in face)):
            raise NotAFace(f"{face} is not a valid {level}-dimensional vertex tuple")
        result = self._psi_face(m, level, face)
        if (self.config.debug_checks and phi_image(result, self.registry.value, self.field)
                != self._boundary_image(m, level, face)):
            raise CheckFailed(f"diagram check failed for face {face} at {m}")
        return result

    def _psi_face(self, m: Degree, dim: int, face) -> SyzygyVector:
        key = (m, dim, face)
        cached = self._psi.get(key)
        if cached is None:
            cached = self._psi[key] = self._decompose(
                dim - 1, self._boundary_image(m, dim, face), m)
        return cached

    def _boundary_image(self, m: Degree, dim: int, face):
        """psi_{dim-1} of the boundary of a face: for an edge its binomial,
        above that the signed sum of the facets' psi values."""
        field = self.field
        if dim == 1:
            cx = self.nabla(m)
            return Binomial(cx.vertices[face[1]], cx.vertices[face[0]]).as_polynomial(field)
        out: SyzygyVector = {}
        for sub, sign in face_boundary(face):
            syz_add_scaled(out, self._psi_face(m, dim - 1, sub), sign, field)
        return out

    # -- syzygy input ---------------------------------------------------------

    def _syzygy_faults(self, level: int, degree, value: SyzygyVector, entry_of):
        """(exception type, message) for each fault of a level-th syzygy entry.

        entry_of(gid) gives (level, degree, value, ...) of a referenced
        generator, or None.  Each term must reference a generator one level
        down with a nonzero, constant-free polynomial of total degree
        `degree` and no zero coefficient, and the vector must compose to
        zero with the level below.
        """
        sg = self.semigroup
        unit = (0,) * sg.num_generators
        usable = {}
        for gid, poly in value.items():
            ref = entry_of(gid)
            if ref is None:
                yield UnknownGenerator, f"references missing generator {gid}"
                continue
            if not poly:
                yield ResolutionError, f"stored zero polynomial on {gid}"
            elif not all(poly.values()):
                yield ResolutionError, f"zero coefficient on {gid}"
            if unit in poly:
                yield ResolutionError, f"constant coefficient on {gid}"
            if ref[0] != level - 1:
                yield ResolutionError, f"level mismatch against {gid}"
                continue
            if any(_shifted(sg, mono, ref[1]) != degree for mono in poly):
                yield NotHomogeneous, f"inhomogeneous entry on {gid}"
            usable[gid] = poly
        if phi_image(usable, lambda gid: entry_of(gid)[2], self.field):
            yield NotASyzygy, "composition with previous level is nonzero"

    def _validate_syzygy(self, level: int, g: SyzygyVector, m: Degree | None = None) -> Degree:
        """Raise the first fault of g as a level-th syzygy of degree m; return m.

        Without m, the degree is that of g's first term.
        """
        if level < 1:
            raise ResolutionError("syzygy levels start at 1")
        records = self.registry.records

        def entry_of(gid):
            rec = records.get(gid)
            return None if rec is None else (rec.level, rec.degree, rec.value)

        if m is None:
            gid, poly = next(iter(g.items()))
            if gid in records and poly:
                m = _shifted(self.semigroup, next(iter(poly)), records[gid].degree)
        else:
            m = tuple(m)
        # a first term without a degree is itself the first fault
        for exc_type, message in self._syzygy_faults(level, m, g, entry_of):
            raise exc_type(message)
        return m

    def lift_to_cycle(self, level: int, g: SyzygyVector, m: Degree | None = None) -> dict:
        """Cycle in the fiber complex whose psi image is g; verified."""
        if not g:
            return {}
        m = self._validate_syzygy(level, g, m)
        chain = self._lift(level, g, m)
        recon: SyzygyVector = {}
        for face, coeff in chain.items():
            syz_add_scaled(recon, self._psi_face(m, level, face), coeff, self.field)
        if recon != g:
            raise LiftFailed("psi of the lifted chain does not reconstruct the input")
        return chain

    def _lift(self, level: int, g, m: Degree) -> dict:
        """Cycle c with psi_level(c) = g, deterministic.

        Level 0 is the vertex lift: each monomial of the polynomial g is a
        vertex of the fiber complex at its degree.

        Level 1 is the classical edge lift: a term x^delta on a binomial
        generator pulls back to the edge joining the delta-shifts of its
        two monomials, and each such edge maps exactly onto its own term,
        so the lift works term by term.

        Higher levels solve for the chain globally: the per-face psi
        values span the syzygies of degree m, and the cycle condition is
        imposed alongside.  Summing per-term preimages of the shifted
        witness cycles would not do here: for a valid syzygy those shifted
        cycles cancel, so any solver linear in the boundary target returns
        the zero chain and loses exactly the homology content.
        """
        field = self.field
        cx = self.nabla(m)
        if level == 0:
            try:
                return {(cx.vertex_index[mono],): coeff for mono, coeff in g.items()}
            except KeyError as exc:
                raise LiftFailed(f"monomial {exc} is not in the fiber of {m}") from exc
        if level == 1:
            chain: dict = {}
            for gid, f in g.items():
                rec = self.registry.get(gid)
                for delta, coeff in f.items():
                    try:
                        iu = cx.vertex_index[mono_mul(delta, rec.value.lead)]
                        iv = cx.vertex_index[mono_mul(delta, rec.value.trail)]
                    except KeyError as exc:
                        raise LiftFailed(
                            f"shifted generator {gid} leaves the fiber of {m}"
                        ) from exc
                    field.axpy(chain, {(iu, iv): field.one}, field.neg(coeff))
            return chain
        faces, key_index, decomp = self._lift_solver(m, level)
        if not faces:
            raise LiftFailed(f"no {level}-faces at {m} to lift onto")
        target = {}
        for gid, poly in g.items():
            for mono, coeff in poly.items():
                idx = key_index.get((gid, mono))
                if idx is None:
                    raise LiftFailed(
                        f"coordinate ({gid}, {mono}) unreachable from faces at {m}"
                    )
                target[idx] = coeff
        sol = decomp.solve(target)
        if sol is None:
            raise LiftFailed("no cycle maps onto the given syzygy")
        return {faces[k]: sol[k] for k in sorted(sol)}

    def _lift_solver(self, m: Degree, level: int):
        """Reduced system [psi coordinates; boundary map] over the level-faces."""
        key = (tuple(m), level)
        cached = self._lifts.get(key)
        if cached is not None:
            return cached
        cx = self.nabla(m)
        faces = cx.faces_of_dim(level)
        psi_values = [self._psi_face(tuple(m), level, face) for face in faces]
        coord_keys = sorted({
            (gid, mono)
            for val in psi_values
            for gid, poly in val.items()
            for mono in poly
        })
        key_index = {k: i for i, k in enumerate(coord_keys)}
        rows = [[] for _ in coord_keys]
        for col, val in enumerate(psi_values):
            for gid, poly in val.items():
                for mono, coeff in poly.items():
                    rows[key_index[(gid, mono)]].append((col, coeff))
        rows.extend(boundary_matrix(cx, level).data)
        decomp = gauss_reduce(rows, len(faces), self.field)
        cached = (faces, key_index, decomp)
        self._lifts[key] = cached
        return cached

    # -- harvesting -----------------------------------------------------------

    def harvest(self, m: Degree, max_level: int) -> ResolutionFragment:
        """The generators up to max_level in the divisor set D(m), registered on the walk.

        D(m) = {m' in S : m - m' in S}; the comparison complex gives their
        number per level and degree.  The fragment holds these alone,
        whatever the engine registered before, and every generator the
        recursion registers on the way is one of them.  The comparison
        complex's reduced homology vanishes from dimension r - 1 on, so
        levels beyond r - 2 cost nothing.  At m' with m' - N in S, N the
        sum of the generators, every m' - n_F is in S, so the complex is the
        full simplex and has no reduced homology: only the degrees of
        `Semigroup.apery_divisors(m)`, those of D(m) outside N + S, are
        read, along the walk that lists them (`walk_face_sets`), so neither
        the counts nor the fragment's verification searches for a member.
        """
        if max_level < 0:
            raise ResolutionError(f"--max-level must be nonnegative, got {max_level}")
        m = tuple(m)
        sg = self.semigroup
        found: dict[int, list] = {}
        divisors = self.walk_face_sets(sg.apery_divisors(m))
        top = min(max_level, sg.num_generators - 2)
        for mp in divisors:
            for j in range(top + 1):
                for idx in range(self.betti_delta(mp, j)):
                    found.setdefault(j, []).append(self._ensure_generator(j, mp, idx))
        levels = {level: sorted(records, key=lambda r: r.sort_key(sg))
                  for level, records in sorted(found.items())}
        fragment = ResolutionFragment(m, max_level, levels)
        fragment.report = self.verify_fragment(fragment)
        return fragment

    def verify_fragment(self, fragment: ResolutionFragment) -> dict:
        """The check_entries report of the fragment's records."""
        return self.check_entries({rec.gid: (rec.level, rec.degree, rec.value, rec.witness)
                                   for rec in fragment.all_records()})

    def check_entries(self, entries: dict) -> dict:
        """Exact checks on a {gid: (level, degree, value, witness)} map; the fragment report.

        Binomials must be homogeneous of their degree and constant-free,
        and, since psi0 needs no basis, the image of their witness: its two
        fiber monomials, the larger in the term order first, as
        _ensure_generator builds them.  A syzygy entry must reference a
        generator of the map one level down and be a nonzero, constant-free
        polynomial of the record's degree with no zero coefficient; each
        record must compose to zero with the level below.  Each
        witness must be a nonzero cycle on the level-faces of the fiber
        complex at the record's degree, with no zero coefficient and 1 at its
        last face in the fixed order, as every fixed representative has.  No
        (level, degree) may hold more generators than the homology rank
        from the comparison complex, which shares nothing with the fixed
        bases the generators came from, and each generator index must be
        below that rank.  The record degrees' comparison complexes are read
        heaviest first, so the walk of the Apéry divisors of one record
        degree records every lighter one among them: a harvested fragment
        costs one walk.
        """
        sg = self.semigroup
        violations = []
        face_indices: dict = {}
        for gid, (level, degree, value, witness) in sorted(entries.items()):
            key = (degree, level)
            index = face_indices.get(key)
            if index is None:
                faces = self.nabla(degree).faces_of_dim(level)
                index = face_indices[key] = {f: i for i, f in enumerate(faces)}
            fault = representative_fault(witness, index, self.field, level, degree)
            if fault:
                violations.append(f"{gid}: witness {fault}")
            if level == 0:
                if any(sg.degree_of(mono) != degree for mono in (value.lead, value.trail)):
                    violations.append(f"{gid}: binomial is not homogeneous")
                if mono_is_unit(value.lead) or mono_is_unit(value.trail):
                    violations.append(f"{gid}: constant term in binomial")
                if not fault:
                    image = sorted(self.psi0(witness, degree), key=self.order.key,
                                   reverse=True)
                    if [value.lead, value.trail] != image:
                        violations.append(f"{gid}: binomial is not the image of its witness")
                continue
            violations += [f"{gid}: {message}" for _type, message
                           in self._syzygy_faults(level, degree, value, entries.get)]
        by_key: dict = {}
        for gid, (level, degree, _value, _witness) in entries.items():
            by_key.setdefault((level, degree), []).append(gid)
        unread = {degree for _, degree in by_key} - self._delta_faces.keys()
        for degree in sorted(unread, key=lambda d: (sg.weight(d), d), reverse=True):
            self._face_set(degree)
        ranks: dict = {}
        for (level, degree), gids in sorted(by_key.items()):
            ranks[str(level)] = ranks.get(str(level), 0) + len(gids)
            bound = self.betti_delta(degree, level)
            if len(gids) > bound:
                violations.append(
                    f"{len(gids)} generators at level {level}, degree {degree}, "
                    f"but homology rank is {bound}"
                )
            violations += [f"{gid}: index {gid[2]} is out of range for homology rank {bound}"
                           for gid in sorted(gids) if not 0 <= gid[2] < bound]
        return {"passed": not violations, "violations": violations, "ranks": ranks}
