"""Minimal generators and syzygies extracted from single degrees.

The engine in this module walks the recursion that underlies the whole
library.  A homogeneous binomial is decomposed by factoring out the gcd
of its two monomials, expressing the resulting pair of vertices in the
fixed cycle basis of the reduced-degree fiber complex, harvesting the
homology coordinates as minimal generators and pushing the boundary
coordinates onto edges, which recurse at strictly smaller degrees.  The
same scheme one homological level up decomposes syzygy vectors: factor
the monomial content, lift to a cycle, split against the fixed basis,
recurse through the preimage faces.

Every generator is identified by (level, degree, index of its homology
representative in the fixed basis), which makes results of independent
queries pieces of one and the same minimal system.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .complexes import DeltaComplex, NablaComplex, build_delta, build_nabla
from .config import Config
from .homology import (
    ChainBasis,
    GaussDecomposition,
    basis_cache_key,
    betti_reduced,
    boundary_matrix,
    chain_add_scaled,
    fixed_cycle_basis,
    gauss_reduce,
    get_field,
    load_cached_basis,
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


class LiftFailed(ResolutionError):
    """A shifted witness cycle failed to bound; bases are inconsistent."""


class NotAFace(ResolutionError):
    """Invalid vertex tuple handed to a simplicial evaluation."""


class UnknownGenerator(ResolutionError):
    """A syzygy vector references a generator id that was never registered."""


# ---------------------------------------------------------------------------
# sparse polynomial helpers (field aware)


def poly_add_scaled(target: Polynomial, source: Polynomial, scale, modulus) -> None:
    if not scale:
        return
    for mono, coeff in source.items():
        acc = target.get(mono)
        term = scale * coeff
        acc = term if acc is None else acc + term
        if modulus is not None:
            acc %= modulus
        if acc:
            target[mono] = acc
        elif mono in target:
            del target[mono]


def poly_scale(p: Polynomial, scale, modulus) -> Polynomial:
    out: Polynomial = {}
    poly_add_scaled(out, p, scale, modulus)
    return out


def poly_mono_mul(p: Polynomial, mono: Monomial) -> Polynomial:
    if mono_is_unit(mono):
        return dict(p)
    return {mono_mul(m, mono): c for m, c in p.items()}


def poly_mono_div(p: Polynomial, mono: Monomial) -> Polynomial:
    if mono_is_unit(mono):
        return dict(p)
    return {mono_div(m, mono): c for m, c in p.items()}


def poly_mul(a: Polynomial, b: Polynomial, modulus) -> Polynomial:
    out: Polynomial = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = mono_mul(ma, mb)
            acc = out.get(key)
            term = ca * cb
            acc = term if acc is None else acc + term
            if modulus is not None:
                acc %= modulus
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
    return out


def poly_content(p: Polynomial) -> Monomial:
    """Greatest common monomial divisor of the support."""
    return mono_gcd(*p.keys())


def poly_str(p: Polynomial, field) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, key=lambda m: (sum(m), m), reverse=True):
        parts.append(f"({field.to_str(p[mono])})*{mono_str(mono)}")
    return " + ".join(parts)


def syz_add_scaled(target: SyzygyVector, source: SyzygyVector, scale, modulus) -> None:
    if not scale:
        return
    for gid, poly in source.items():
        acc = target.setdefault(gid, {})
        poly_add_scaled(acc, poly, scale, modulus)
        if not acc:
            del target[gid]


def syz_mono_mul(g: SyzygyVector, mono: Monomial) -> SyzygyVector:
    return {gid: poly_mono_mul(p, mono) for gid, p in g.items()}


def syz_content(g: SyzygyVector) -> Monomial:
    monos = [m for p in g.values() for m in p]
    return mono_gcd(*monos)


# ---------------------------------------------------------------------------
# records and containers


@dataclass(frozen=True)
class Binomial:
    """Pure difference of two monomials of one degree, lead first."""

    lead: Monomial
    trail: Monomial

    def as_polynomial(self, field) -> Polynomial:
        return {self.lead: field.one, self.trail: field.neg(field.one)}

    def gcd(self) -> Monomial:
        return mono_gcd(self.lead, self.trail)

    def __str__(self):
        return f"{mono_str(self.lead)} - {mono_str(self.trail)}"


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
        self.by_level: dict[int, list[GeneratorRecord]] = {}

    def __contains__(self, gid):
        return gid in self.records

    def get(self, gid) -> GeneratorRecord:
        rec = self.records.get(gid)
        if rec is None:
            raise UnknownGenerator(f"generator {gid} is not registered")
        return rec

    def add(self, record: GeneratorRecord) -> None:
        if record.gid in self.records:
            raise ResolutionError(f"duplicate registration of {record.gid}")
        self.records[record.gid] = record
        self.by_level.setdefault(record.level, []).append(record)

    def level_records(self, level: int, semigroup: Semigroup):
        return sorted(self.by_level.get(level, []), key=lambda r: r.sort_key(semigroup))

    def count(self, level: int, degree: Degree) -> int:
        return sum(1 for r in self.by_level.get(level, []) if r.degree == tuple(degree))


@dataclass
class DecompositionResult:
    """Exact expression of an input as a combination of minimal generators."""

    input_degree: Degree
    entries: list  # (GeneratorRecord, Polynomial), canonical order

    def coefficient_of(self, gid) -> Polynomial:
        for rec, poly in self.entries:
            if rec.gid == gid:
                return poly
        return {}

    def generator_degrees(self):
        return [rec.degree for rec, _ in self.entries]


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
    bases, evaluated faces), so that independent queries agree on one
    common minimal system.  Registry mutations happen in the deterministic
    order induced by the recursion; readers may run concurrently.
    """

    def __init__(self, semigroup: Semigroup, config: Config | None = None):
        self.semigroup = semigroup
        self.config = config or Config()
        self.order = TermOrder(self.config.term_order)
        self.field = get_field(self.config.field)
        self.registry = GeneratorRegistry()
        self._nabla: dict[Degree, NablaComplex] = {}
        self._delta: dict[Degree, DeltaComplex] = {}
        self._bases: dict[tuple, ChainBasis] = {}
        self._gauss: dict[tuple, GaussDecomposition] = {}
        self._psi: dict[tuple, SyzygyVector] = {}
        self._binomials: dict[tuple, SyzygyVector] = {}
        self._lifts: dict[tuple, tuple] = {}

    # -- cached geometry ----------------------------------------------------

    def nabla(self, m: Degree) -> NablaComplex:
        m = tuple(m)
        cx = self._nabla.get(m)
        if cx is None:
            cx = build_nabla(self.semigroup, m, self.order)
            self._nabla[m] = cx
        return cx

    def delta(self, m: Degree) -> DeltaComplex:
        m = tuple(m)
        cx = self._delta.get(m)
        if cx is None:
            cx = build_delta(self.semigroup, m)
            self._delta[m] = cx
        return cx

    def _gauss_at(self, m: Degree, j: int) -> GaussDecomposition:
        """Reduction of the fiber complex's boundary matrix at m in dim j."""
        key = (tuple(m), j)
        decomp = self._gauss.get(key)
        if decomp is None:
            matrix = boundary_matrix(self.nabla(m), j)
            decomp = gauss_reduce(matrix.data, len(matrix.col_faces), self.field)
            self._gauss[key] = decomp
        return decomp

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
            cx = self.nabla(m)
            g_down = self._gauss_at(m, j)
            g_up = self._gauss_at(m, j + 1)
            basis = fixed_cycle_basis(cx, j, self.field, g_down=g_down, g_up=g_up)
            if cache_dir:
                store_cached_basis(cache_dir, disk_key, basis)
        self._bases[key] = basis
        return basis

    def multigraded_betti(self, m: Degree, j: int) -> int:
        """Rank of degree-m homology in dim j, read off the fiber complex.

        Builds the fixed basis there (and stores it in the disk cache), so
        this is the path for generator-making code and the cross-check of
        betti_delta; rank-only queries go through betti_delta.
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
        2^r faces and needs no fiber.
        """
        return betti_reduced(self.delta(m), j, self.field)

    # -- level 0 ------------------------------------------------------------

    def psi0(self, chain: dict, m: Degree) -> Polynomial:
        """Linear extension of vertex -> monomial on 0-chains at degree m."""
        cx = self.nabla(m)
        out: Polynomial = {}
        for face, coeff in chain.items():
            if len(face) != 1 or not 0 <= face[0] < len(cx.vertices):
                raise NotAFace(f"{face} is not a vertex of the complex at {m}")
            poly_add_scaled(out, {cx.vertices[face[0]]: self.field.one},
                            coeff, self.field.modulus)
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
        coeffs = self._decompose_binomial(lead, trail)
        result = self._finish_result(m, coeffs)
        self._check_binomial_reconstruction(lead, trail, result)
        return result

    def _decompose_binomial(self, alpha: Monomial, beta: Monomial) -> SyzygyVector:
        key = (alpha, beta)
        cached = self._binomials.get(key)
        if cached is not None:
            return cached
        field = self.field
        gamma = mono_gcd(alpha, beta)
        a_red = mono_div(alpha, gamma)
        b_red = mono_div(beta, gamma)
        m_red = self.semigroup.degree_of(a_red)
        cx = self.nabla(m_red)
        basis = self.chain_basis(m_red, 0)
        ia = cx.vertex_index[a_red]
        ib = cx.vertex_index[b_red]
        z = {(ia,): field.one, (ib,): field.neg(field.one)}
        lam, mu = basis.express(z)
        out: SyzygyVector = {}
        for idx, lv in enumerate(lam):
            if not lv:
                continue
            rec = self._ensure_generator(0, m_red, idx)
            coeff = lv * rec.orientation
            if field.modulus is not None:
                coeff %= field.modulus
            poly_add_scaled(out.setdefault(rec.gid, {}),
                            {(0,) * len(alpha): field.one}, coeff, field.modulus)
            if not out[rec.gid]:
                del out[rec.gid]
        self._push_boundary_part(out, basis, mu, m_red, 1)
        if not mono_is_unit(gamma):
            out = syz_mono_mul(out, gamma)
        self._binomials[key] = out
        return out

    def _push_boundary_part(self, out, basis, mu, m_red, dim) -> None:
        """Convert boundary coordinates to face coefficients and recurse."""
        if not any(mu):
            return
        field = self.field
        nu: dict[int, object] = {}
        for j, mv in enumerate(mu):
            if not mv:
                continue
            for k, q in basis.boundary[j][1].items():
                acc = nu.get(k, field.zero) + mv * q
                if field.modulus is not None:
                    acc %= field.modulus
                if acc:
                    nu[k] = acc
                elif k in nu:
                    del nu[k]
        for k in sorted(nu):
            face = basis.up_faces[k]
            sub = self._psi_face(m_red, dim, face)
            syz_add_scaled(out, sub, nu[k], field.modulus)

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
                raise ResolutionError("0-dimensional witness is not a vertex pair")
            top = max(raw, key=self.order.key)
            other = next(mono for mono in raw if mono != top)
            if raw[top] == field.one:
                orientation = field.one
            elif raw[top] == field.neg(field.one):
                orientation = field.neg(field.one)
            else:
                raise ResolutionError("witness pair has non-unit coefficients")
            record = GeneratorRecord(gid, 0, tuple(m), Binomial(top, other),
                                     dict(witness), orientation)
        else:
            value: SyzygyVector = {}
            for face in sorted(witness):
                sub = self._psi_face(m, level, face)
                syz_add_scaled(value, sub, witness[face], field.modulus)
            record = GeneratorRecord(gid, level, tuple(m), value,
                                     dict(witness), field.one)
        self.registry.add(record)
        return record

    # -- psi on faces ---------------------------------------------------------

    def psi(self, level: int, face, m: Degree) -> SyzygyVector:
        """Evaluate the level-th comparison map on a vertex tuple at degree m.

        Defined by decomposing the image of the tuple's boundary one level
        down; on actual faces this makes the resolution diagrams commute.
        """
        if level < 1:
            raise ResolutionError("psi is defined for level >= 1")
        face = tuple(face)
        cx = self.nabla(m)
        if (len(face) != level + 1 or len(set(face)) != len(face)
                or list(face) != sorted(face)
                or any(not 0 <= i < len(cx.vertices) for i in face)):
            raise NotAFace(f"{face} is not a valid {level}-dimensional vertex tuple")
        result = self._psi_face(tuple(m), level, face)
        if self.config.debug_checks:
            self._check_diagram(level, face, m, result)
        return result

    def _psi_face(self, m: Degree, dim: int, face) -> SyzygyVector:
        key = (m, dim, face)
        cached = self._psi.get(key)
        if cached is not None:
            return cached
        if dim == 1:
            cx = self.nabla(m)
            va = cx.vertices[face[0]]
            vb = cx.vertices[face[1]]
            result = self._decompose_binomial(vb, va)
        else:
            g: SyzygyVector = {}
            one = self.field.one
            neg = self.field.neg(one)
            for pos in range(len(face)):
                sub_face = face[:pos] + face[pos + 1:]
                sub = self._psi_face(m, dim - 1, sub_face)
                syz_add_scaled(g, sub, one if pos % 2 == 0 else neg,
                               self.field.modulus)
            result = self._decompose_syzygy(dim - 1, g, m)
        self._psi[key] = result
        return result

    def _check_diagram(self, level, face, m, result) -> None:
        """phi(psi(F)) must equal psi(boundary F); exercised in debug mode."""
        low: SyzygyVector = {}
        one = self.field.one
        neg = self.field.neg(one)
        if level == 1:
            cx = self.nabla(m)
            expected = {cx.vertices[face[1]]: one, cx.vertices[face[0]]: neg}
            expected = {k: v for k, v in expected.items() if v}
            if self._phi_image_level1(result) != expected:
                raise ResolutionError(f"diagram check failed for edge {face} at {m}")
            return
        for pos in range(len(face)):
            sub = self._psi_face(m, level - 1, face[:pos] + face[pos + 1:])
            syz_add_scaled(low, sub, one if pos % 2 == 0 else neg, self.field.modulus)
        if self._phi_image(level, result) != low:
            raise ResolutionError(f"diagram check failed for face {face} at {m}")

    # -- higher levels --------------------------------------------------------

    def _phi_image_level1(self, g: SyzygyVector) -> Polynomial:
        out: Polynomial = {}
        for gid, f in g.items():
            rec = self.registry.get(gid)
            prod = poly_mul(f, rec.value.as_polynomial(self.field), self.field.modulus)
            poly_add_scaled(out, prod, self.field.one, self.field.modulus)
        return out

    def _phi_image(self, level: int, g: SyzygyVector):
        """Image of a level vector under substitution of generator values."""
        if level == 1:
            return self._phi_image_level1(g)
        out: SyzygyVector = {}
        for gid, f in g.items():
            rec = self.registry.get(gid)
            for gid2, p2 in rec.value.items():
                acc = out.setdefault(gid2, {})
                poly_add_scaled(acc, poly_mul(f, p2, self.field.modulus),
                                self.field.one, self.field.modulus)
                if not acc:
                    del out[gid2]
        return out

    def _validate_syzygy(self, level: int, g: SyzygyVector) -> Degree:
        if level < 1:
            raise ResolutionError("syzygy levels start at 1")
        m = None
        for gid, f in g.items():
            rec = self.registry.get(gid)
            if rec.level != level - 1:
                raise ResolutionError(
                    f"{gid} has level {rec.level}, expected {level - 1}"
                )
            if not f:
                raise ResolutionError(f"stored zero polynomial on {gid}")
            for mono in f:
                dm = tuple(
                    a + b for a, b in zip(self.semigroup.degree_of(mono), rec.degree)
                )
                if m is None:
                    m = dm
                elif m != dm:
                    raise NotHomogeneous(
                        f"mixed degrees {m} and {dm} in syzygy vector"
                    )
        image = self._phi_image(level, g)
        if image:
            raise NotASyzygy("vector does not annihilate the previous level")
        return m

    def lift_to_cycle(self, level: int, g: SyzygyVector, m: Degree | None = None) -> dict:
        """Cycle in the fiber complex whose psi image is g; verified."""
        if not g:
            return {}
        found = self._validate_syzygy(level, g)
        m = tuple(m) if m is not None else found
        if found != m:
            raise NotHomogeneous(f"vector has degree {found}, not {m}")
        chain = self._lift(level, g, m)
        recon: SyzygyVector = {}
        for face, coeff in chain.items():
            syz_add_scaled(recon, self._psi_face(m, level, face), coeff,
                           self.field.modulus)
        if recon != g:
            raise LiftFailed("psi of the lifted chain does not reconstruct the input")
        return chain

    def _lift(self, level: int, g: SyzygyVector, m: Degree) -> dict:
        """Cycle c with psi_level(c) = g, deterministic.

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
                    chain_add_scaled(chain, {(iu, iv): field.one},
                                     field.neg(coeff), field.modulus)
            return chain
        faces, key_index, decomp = self._lift_solver(m, level)
        if not faces:
            raise LiftFailed(f"no {level}-faces at {m} to lift onto")
        target = [field.zero] * decomp.nrows
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
        return {faces[k]: v for k, v in enumerate(sol) if v}

    def _lift_solver(self, m: Degree, level: int):
        """Reduced system [psi coordinates; boundary map] over the level-faces."""
        key = (tuple(m), level)
        cached = self._lifts.get(key)
        if cached is not None:
            return cached
        field = self.field
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
        a_down = boundary_matrix(cx, level)
        rows = [[field.zero] * len(faces) for _ in coord_keys]
        for col, val in enumerate(psi_values):
            for gid, poly in val.items():
                for mono, coeff in poly.items():
                    rows[key_index[(gid, mono)]][col] = coeff
        rows.extend(a_down.data)
        decomp = gauss_reduce(rows, len(faces), field)
        cached = (faces, key_index, decomp)
        self._lifts[key] = cached
        return cached

    def minimalize_syzygy(self, level: int, g: SyzygyVector) -> DecompositionResult:
        """Decompose a level-th syzygy over minimal generators of that level."""
        if not g:
            return DecompositionResult(self.semigroup.zero_degree(), [])
        m = self._validate_syzygy(level, g)
        coeffs = self._decompose_syzygy(level, g, m)
        result = self._finish_result(m, coeffs)
        self._check_syzygy_reconstruction(level, g, result)
        return result

    def _decompose_syzygy(self, level: int, g: SyzygyVector, m: Degree) -> SyzygyVector:
        if not g:
            return {}
        field = self.field
        content = syz_content(g)
        if mono_is_unit(content):
            reduced = g
            m_red = tuple(m)
        else:
            reduced = {gid: poly_mono_div(p, content) for gid, p in g.items()}
            m_red = self.semigroup.sub_degree(m, self.semigroup.degree_of(content))
        basis = self.chain_basis(m_red, level)
        chain = self._lift(level, reduced, m_red)
        lam, mu = basis.express(chain)
        out: SyzygyVector = {}
        unit = (0,) * self.semigroup.num_generators
        for idx, lv in enumerate(lam):
            if not lv:
                continue
            rec = self._ensure_generator(level, m_red, idx)
            poly_add_scaled(out.setdefault(rec.gid, {}), {unit: field.one},
                            lv, field.modulus)
            if not out[rec.gid]:
                del out[rec.gid]
        self._push_boundary_part(out, basis, mu, m_red, level + 1)
        if not mono_is_unit(content):
            out = syz_mono_mul(out, content)
        if self.config.debug_checks:
            self._check_decomposition(level, g, out)
        return out

    def _check_decomposition(self, level, g, out) -> None:
        recon: SyzygyVector = {}
        for gid, f in out.items():
            rec = self.registry.get(gid)
            for gid2, p2 in rec.value.items():
                acc = recon.setdefault(gid2, {})
                poly_add_scaled(acc, poly_mul(f, p2, self.field.modulus),
                                self.field.one, self.field.modulus)
                if not acc:
                    del recon[gid2]
        if recon != g:
            raise ResolutionError("decomposition failed to reconstruct its input")

    # -- result assembly ------------------------------------------------------

    def _finish_result(self, m: Degree, coeffs: SyzygyVector) -> DecompositionResult:
        entries = []
        for gid, poly in coeffs.items():
            if poly:
                entries.append((self.registry.get(gid), dict(poly)))
        entries.sort(key=lambda item: item[0].sort_key(self.semigroup))
        return DecompositionResult(tuple(m), entries)

    def _check_binomial_reconstruction(self, lead, trail, result) -> None:
        field = self.field
        total: Polynomial = {}
        gamma = mono_gcd(lead, trail)
        for rec, poly in result.entries:
            prod = poly_mul(poly, rec.value.as_polynomial(field), field.modulus)
            poly_add_scaled(total, prod, field.one, field.modulus)
            for mono in poly:
                if not all(g <= e for g, e in zip(gamma, mono)):
                    raise ResolutionError(
                        f"coefficient of {rec.gid} violates gcd divisibility"
                    )
        expected = {lead: field.one}
        poly_add_scaled(expected, {trail: field.one}, field.neg(field.one),
                        field.modulus)
        if total != expected:
            raise ResolutionError("binomial decomposition does not reconstruct input")

    def _check_syzygy_reconstruction(self, level, g, result) -> None:
        field = self.field
        content = syz_content(g)
        recon: SyzygyVector = {}
        for rec, poly in result.entries:
            for mono in poly:
                if not all(c <= e for c, e in zip(content, mono)):
                    raise ResolutionError(
                        f"coefficient of {rec.gid} violates content divisibility"
                    )
            for gid2, p2 in rec.value.items():
                acc = recon.setdefault(gid2, {})
                poly_add_scaled(acc, poly_mul(poly, p2, field.modulus),
                                field.one, field.modulus)
                if not acc:
                    del recon[gid2]
        if recon != g:
            raise ResolutionError("syzygy decomposition does not reconstruct input")

    # -- harvesting -----------------------------------------------------------

    def harvest(self, m: Degree, max_level: int,
                face_cap: int | None = None) -> ResolutionFragment:
        """Register everything one degree teaches us up to max_level.

        Homology representatives at m itself become generators directly;
        the walk over low-dimensional faces then lets the recursion find
        generators at the strictly smaller degrees it visits.  face_cap,
        when given, truncates the walk to that many faces per dimension
        (the fixed face order makes the truncation deterministic).
        """
        m = tuple(m)
        if not self.semigroup.member(m):
            fragment = ResolutionFragment(m, max_level, {})
            fragment.report = self.verify_fragment(fragment)
            return fragment
        cx = self.nabla(m)
        for j in range(max_level + 1):
            basis = self.chain_basis(m, j)
            for idx in range(len(basis.homology)):
                self._ensure_generator(j, m, idx)
        for dim in range(1, max_level + 2):
            faces = cx.faces_of_dim(dim)
            if face_cap is not None:
                faces = faces[:face_cap]
            for face in faces:
                self._psi_face(m, dim, face)
        levels: dict[int, list] = {}
        for level in sorted(self.registry.by_level):
            if level <= max_level:
                records = self.registry.level_records(level, self.semigroup)
                if records:
                    levels[level] = records
        fragment = ResolutionFragment(m, max_level, levels)
        fragment.report = self.verify_fragment(fragment)
        return fragment

    def verify_fragment(self, fragment: ResolutionFragment) -> dict:
        """Exact checks: compositions vanish, entries are minimal, counts fit.

        The count bound is the rank from the comparison complex, which
        shares nothing with the fixed bases the generators came from.
        """
        violations = []
        unit = (0,) * self.semigroup.num_generators
        for level, records in sorted(fragment.levels.items()):
            for rec in records:
                if level == 0:
                    if self.semigroup.degree_of(rec.value.lead) != rec.degree or \
                            self.semigroup.degree_of(rec.value.trail) != rec.degree:
                        violations.append(f"{rec.gid}: binomial is not homogeneous")
                    if mono_is_unit(rec.value.lead) or mono_is_unit(rec.value.trail):
                        violations.append(f"{rec.gid}: constant term in binomial")
                    continue
                try:
                    self._validate_syzygy(level, rec.value)
                except ResolutionError as exc:
                    violations.append(f"{rec.gid}: {exc}")
                for gid2, poly in rec.value.items():
                    if unit in poly:
                        violations.append(
                            f"{rec.gid}: constant coefficient on {gid2}"
                        )
        seen = {}
        for rec in fragment.all_records():
            seen.setdefault((rec.level, rec.degree), 0)
            seen[(rec.level, rec.degree)] += 1
        for (level, degree), count in sorted(seen.items()):
            bound = self.betti_delta(degree, level)
            if count > bound:
                violations.append(
                    f"{count} generators at level {level}, degree {degree}, "
                    f"but homology rank is {bound}"
                )
        return {
            "passed": not violations,
            "violations": violations,
            "ranks": {str(k): v for k, v in fragment.ranks().items()},
        }

    # -- independent oracle -----------------------------------------------------

    def oracle_v0(self, m: Degree) -> int:
        """Brute-force count of degree-m minimal generators of the toric ideal.

        Computes dim (I)_m - dim (irrelevant * I)_m directly: the degree-m
        part of the ideal is spanned by consecutive fiber differences, and
        the shifted part by variable multiples of lower-degree differences.
        Uses its own small row reduction on purpose.
        """
        m = tuple(m)
        fiber = self.semigroup.fiber(m, self.order)
        t = len(fiber)
        if t <= 1:
            return 0
        index = {mono: i for i, mono in enumerate(fiber)}
        field = self.field
        rows = []
        r = self.semigroup.num_generators
        for i in range(r):
            shift = tuple(1 if k == i else 0 for k in range(r))
            m2 = self.semigroup.sub_degree(m, self.semigroup.generators[i])
            fib2 = self.semigroup.fiber(m2, self.order)
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
