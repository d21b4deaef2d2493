import json
import random

import pytest
from oracles import divisor_degrees, level_records, oracle_v0, registry_to_json

from toricsyz import (
    Binomial,
    Config,
    DEGREVLEX,
    NotAFace,
    NotASyzygy,
    NotHomogeneous,
    NotInIdeal,
    ResolutionEngine,
    ResolutionError,
    ResolutionFragment,
    Semigroup,
    build_delta,
)
from toricsyz.resolution import CheckFailed, UnknownGenerator
from toricsyz.resolution import (
    phi_image,
    poly_mono_mul,
    poly_mul,
    syz_add_scaled,
)

UNIT = (0, 0, 0, 0)

B12 = ((0, 1, 1, 0), (1, 0, 0, 1))  # x2x3 - x1x4
B21 = ((0, 0, 3, 0), (0, 1, 0, 2))  # x3^3 - x2x4^2
B18 = ((1, 0, 2, 0), (0, 2, 0, 1))  # x1x3^2 - x2^2x4
B15 = ((0, 3, 0, 0), (2, 0, 1, 0))  # x2^3 - x1^2x3


def register_generators(engine):
    """Seed the registry with the four minimal binomials of the running example."""
    gens = {}
    for lead, trail in (B12, B21, B18, B15):
        result = engine.minimalize_binomial(lead, trail)
        assert len(result.entries) == 1
        rec, coeff = result.entries[0]
        assert coeff == {UNIT: 1}
        gens[rec.degree] = rec
    return gens


def syzygy_45_7(gens):
    """A first syzygy in degree (45,7), exercised throughout."""
    return {
        gens[(12, 2)].gid: {(0, 1, 4, 0): 1, (1, 1, 0, 3): 1},
        gens[(21, 3)].gid: {(0, 2, 2, 0): -1, (2, 0, 0, 2): -1},
        gens[(18, 3)].gid: {(0, 1, 2, 1): 1, (1, 0, 1, 2): 1},
    }


def reconstruct_binomial(engine, result):
    total = {}
    for rec, poly in result.entries:
        prod = poly_mul(poly, rec.value.as_polynomial(engine.field), engine.field)
        engine.field.axpy(total, prod, 1)
    return total


class TestPsi0:
    def test_definition_on_pairs(self, engine):
        cx = engine.nabla((52, 8))
        poly = engine.psi0({(0,): 1, (7,): -1}, (52, 8))
        assert poly == {cx.vertices[0]: 1, cx.vertices[7]: -1}

    def test_zero_chain(self, engine):
        assert engine.psi0({}, (52, 8)) == {}

    def test_value_of_disconnected_witness(self, engine):
        basis = engine.chain_basis((21, 3), 0)
        poly = engine.psi0(basis.homology[0], (21, 3))
        # psi of the witness is the generator binomial up to sign
        assert poly in (
            {(0, 0, 3, 0): 1, (0, 1, 0, 2): -1},
            {(0, 0, 3, 0): -1, (0, 1, 0, 2): 1},
        )


class TestMinimalizeBinomial:
    def test_degree_52_8_decomposition_exact(self, engine):
        result = engine.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        by_degree = {rec.degree: (rec, poly) for rec, poly in result.entries}
        assert set(by_degree) == {(21, 3), (12, 2)}
        rec21, f1 = by_degree[(21, 3)]
        rec12, f2 = by_degree[(12, 2)]
        assert rec21.value in (Binomial(*B21), Binomial(B21[1], B21[0]))
        assert rec12.value in (Binomial(*B12), Binomial(B12[1], B12[0]))
        assert f1 == {(0, 2, 3, 0): 1}  # x2^2 x3^3
        assert f2 == {
            (0, 2, 2, 2): 1, (1, 1, 1, 3): 1, (2, 0, 0, 4): 1,
        }  # x4^2 (x2^2x3^2 + x1x2x3x4 + x1^2x4^2)
        expected = {(0, 2, 6, 0): 1, (3, 0, 0, 5): -1}
        assert reconstruct_binomial(engine, result) == expected

    def test_minimal_generator_returns_itself(self, engine):
        result = engine.minimalize_binomial(*B21)
        assert len(result.entries) == 1
        rec, poly = result.entries[0]
        assert poly == {UNIT: 1}
        assert rec.value == Binomial(*B21)

    def test_non_minimal_square_pair(self, engine):
        # x1^2x4^2 - x2^2x3^2 factors through the quadric generator
        result = engine.minimalize_binomial((2, 0, 0, 2), (0, 2, 2, 0))
        assert len(result.entries) == 1
        rec, poly = result.entries[0]
        assert rec.value == Binomial(*B12)
        assert poly == {(1, 0, 0, 1): -1, (0, 1, 1, 0): -1}  # -(x1x4 + x2x3)

    def test_divisibility_condition(self, engine):
        # the (52,8) example shifted by x1*x2
        lead, trail = (1, 3, 6, 0), (4, 1, 0, 5)
        assert engine.semigroup.degree_of(lead) == engine.semigroup.degree_of(trail)
        result = engine.minimalize_binomial(lead, trail)
        gamma = (1, 1, 0, 0)
        assert result.entries
        for _rec, poly in result.entries:
            for mono in poly:
                assert all(g <= e for g, e in zip(gamma, mono))

    def test_rejects_inhomogeneous(self, engine):
        with pytest.raises(NotHomogeneous):
            engine.minimalize_binomial((1, 0, 0, 0), (0, 1, 0, 0))

    def test_rejects_zero_binomial(self, engine):
        with pytest.raises(NotInIdeal):
            engine.minimalize_binomial((1, 0, 0, 0), (1, 0, 0, 0))


class TestPsiOnFaces:
    def test_edge_spanning_the_52_8_binomial(self, engine):
        engine.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        cx = engine.nabla((52, 8))
        a = cx.vertex_index[(0, 2, 6, 0)]
        b = cx.vertex_index[(3, 0, 0, 5)]
        vec = engine.psi(1, tuple(sorted((a, b))), (52, 8))
        degrees = sorted(gid[1] for gid in vec)
        assert degrees == [(12, 2), (21, 3)]
        # the edge evaluates to minus the decomposition of the oriented binomial
        result = engine.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        for rec, poly in result.entries:
            assert vec[rec.gid] == {m: -c for m, c in poly.items()}

    def test_edge_reducing_to_minimal_generator(self, engine):
        cx = engine.nabla((24, 4))
        a = cx.vertex_index[(2, 0, 0, 2)]
        b = cx.vertex_index[(1, 1, 1, 1)]
        vec = engine.psi(1, tuple(sorted((a, b))), (24, 4))
        assert len(vec) == 1
        ((gid, poly),) = vec.items()
        assert gid[1] == (12, 2)
        # single entry, coefficient is (plus or minus) the edge gcd x1x4
        assert poly in ({(1, 0, 0, 1): 1}, {(1, 0, 0, 1): -1})

    def test_triangle_at_60_10(self, engine):
        cx = engine.nabla((60, 10))
        tri = tuple(sorted(
            cx.vertex_index[v] for v in [(1, 4, 4, 1), (2, 2, 6, 0), (2, 3, 3, 2)]
        ))
        vec = engine.psi(2, tri, (60, 10))
        assert 1 <= len(vec) <= 3
        # every level-1 generator in the support is itself a syzygy
        for gid in vec:
            rec = engine.registry.get(gid)
            assert phi_image(rec.value, engine.registry.value, engine.field) == {}

    def test_diagram_commutes_in_debug_mode(self, debug_engine):
        cx = debug_engine.nabla((52, 8))
        for face in cx.faces_of_dim(1)[:6]:
            debug_engine.psi(1, face, (52, 8))
        for face in cx.faces_of_dim(2)[:4]:
            debug_engine.psi(2, face, (52, 8))

    def test_rejects_malformed_tuples(self, engine):
        with pytest.raises(NotAFace):
            engine.psi(1, (0, 0), (52, 8))
        with pytest.raises(NotAFace):
            engine.psi(1, (1, 0), (52, 8))
        with pytest.raises(NotAFace):
            engine.psi(2, (0, 1), (52, 8))
        with pytest.raises(NotAFace):
            engine.psi(1, (0, 99), (52, 8))


class TestLift:
    def test_lift_at_45_7(self, engine):
        gens = register_generators(engine)
        g = syzygy_45_7(gens)
        chain = engine.lift_to_cycle(1, g, (45, 7))
        cx = engine.nabla((45, 7))
        # the four displayed edges appear with unit coefficients
        displayed = [
            ((0, 2, 5, 0), (1, 1, 4, 1)),
            ((1, 2, 1, 3), (2, 1, 0, 4)),
            ((0, 3, 2, 2), (0, 2, 5, 0)),
            ((2, 0, 3, 2), (2, 1, 0, 4)),
        ]
        for u, v in displayed:
            face = tuple(sorted((cx.vertex_index[u], cx.vertex_index[v])))
            assert face in chain
            assert chain[face] in (1, -1)
        # and psi reproduces g exactly (checked internally, re-checked here)
        recon = {}
        for face, coeff in chain.items():
            syz_add_scaled(recon, engine._psi_face((45, 7), 1, face), coeff, engine.field)
        assert recon == g

    def test_single_term_edge_construction(self, engine):
        # internal per-term rule: a term x^delta on a binomial generator
        # pulls back to (minus) the edge joining the shifted monomials
        gens = register_generators(engine)
        rec = gens[(12, 2)]
        delta = (0, 0, 1, 1)  # x3x4: lands in degree (27,4)
        m = engine.semigroup.degree_of(delta)
        m = tuple(a + b for a, b in zip(m, rec.degree))
        chain = engine._lift(1, {rec.gid: {delta: 1}}, m)
        assert len(chain) == 1
        ((face, coeff),) = chain.items()
        cx = engine.nabla(m)
        verts = {cx.vertices[i] for i in face}
        assert verts == {(0, 1, 2, 1), (1, 0, 1, 2)}  # shifts of the two monomials
        assert coeff == -1

    def test_level2_lift_is_a_cycle_realizing_the_class(self, engine):
        from toricsyz import chain_boundary

        engine.harvest((60, 10), 2)
        top = engine.registry.get((2, (30, 5), 0))
        chain = engine.lift_to_cycle(2, dict(top.value), (30, 5))
        assert chain_boundary(chain) == {}
        lam, _mu = engine.chain_basis((30, 5), 2).express(chain)
        assert [abs(v) for v in lam] == [1]

    def test_level2_lift_of_shifted_syzygy(self, engine):
        from toricsyz import chain_boundary
        from toricsyz.resolution import poly_mono_mul

        engine.harvest((60, 10), 2)
        top = engine.registry.get((2, (30, 5), 0))
        delta = (1, 0, 0, 0)
        shifted = {gid: poly_mono_mul(p, delta) for gid, p in top.value.items()}
        m = (34, 6)
        chain = engine.lift_to_cycle(2, shifted, m)
        assert chain
        assert chain_boundary(chain) == {}

    def test_zero_vector(self, engine):
        assert engine.lift_to_cycle(1, {}, (45, 7)) == {}

    def test_rejects_non_syzygy(self, engine):
        gens = register_generators(engine)
        rec = gens[(12, 2)]
        with pytest.raises(NotASyzygy):
            engine.lift_to_cycle(1, {rec.gid: {(0, 0, 1, 1): 1}}, None)


class TestMinimalizeSyzygy:
    def test_syzygy_45_7_exact(self, engine):
        gens = register_generators(engine)
        g = syzygy_45_7(gens)
        result = engine.minimalize_syzygy(1, g)
        assert sorted(rec.degree for rec, _ in result.entries) == [(25, 4), (26, 4)]
        coeffs = {rec.degree: poly for rec, poly in result.entries}
        assert coeffs[(25, 4)] in ({(1, 0, 0, 2): 1}, {(1, 0, 0, 2): -1})
        assert coeffs[(26, 4)] in ({(0, 1, 2, 0): 1}, {(0, 1, 2, 0): -1})
        # each returned generator is itself a syzygy
        for rec, _poly in result.entries:
            assert phi_image(rec.value, engine.registry.value, engine.field) == {}

    def test_registered_generator_decomposes_to_itself(self, engine):
        gens = register_generators(engine)
        g = syzygy_45_7(gens)
        engine.minimalize_syzygy(1, g)
        rec = engine.registry.get((1, (25, 4), 0))
        result = engine.minimalize_syzygy(1, dict(rec.value))
        assert len(result.entries) == 1
        assert result.entries[0][0].gid == rec.gid
        assert result.entries[0][1] == {UNIT: 1}

    def test_shifted_generator_factors_out_content(self, engine):
        gens = register_generators(engine)
        g = syzygy_45_7(gens)
        engine.minimalize_syzygy(1, g)
        rec = engine.registry.get((1, (25, 4), 0))
        delta = (1, 0, 1, 0)
        shifted = {gid: poly_mono_mul(p, delta) for gid, p in rec.value.items()}
        result = engine.minimalize_syzygy(1, shifted)
        assert len(result.entries) == 1
        assert result.entries[0][0].gid == rec.gid
        assert result.entries[0][1] == {delta: 1}

    def test_rejects_non_syzygy(self, engine):
        gens = register_generators(engine)
        bad = {gens[(12, 2)].gid: {(0, 0, 1, 1): 1}}
        with pytest.raises(NotASyzygy):
            engine.minimalize_syzygy(1, bad)

    def test_rejects_inhomogeneous(self, engine):
        gens = register_generators(engine)
        bad = {gens[(12, 2)].gid: {(0, 0, 1, 1): 1, (0, 0, 0, 1): 1}}
        with pytest.raises(NotHomogeneous):
            engine.minimalize_syzygy(1, bad)


def _bad_syzygies(gens):
    """(name, level, degree, vector, fault type) of seven faulty syzygy vectors."""
    g12 = gens[(12, 2)].gid
    valid = syzygy_45_7(gens)
    unknown = {**valid, (0, (12, 2), 7): {(0, 1, 4, 0): 1}}
    zero = {**valid, gens[(18, 3)].gid: {}}
    return [
        ("unknown-generator", 1, (45, 7), unknown, UnknownGenerator),
        ("wrong-level", 2, (45, 7), valid, ResolutionError),
        ("zero-polynomial", 1, (45, 7), zero, ResolutionError),
        ("zero-coefficient", 1, (16, 3), {g12: {(1, 0, 0, 0): 0}}, ResolutionError),
        ("constant-coefficient", 1, (12, 2), {g12: {UNIT: 1}}, ResolutionError),
        ("inhomogeneous", 1, (27, 4), {g12: {(0, 0, 1, 1): 1, (0, 0, 0, 1): 1}},
         NotHomogeneous),
        ("not-a-syzygy", 1, (27, 4), {g12: {(0, 0, 1, 1): 1}}, NotASyzygy),
    ]


class TestOneSyzygyCheck:
    """The engine's input check and the fragment checker judge a syzygy alike."""

    @pytest.mark.parametrize("case", range(7), ids=[
        "unknown-generator", "wrong-level", "zero-polynomial", "zero-coefficient",
        "constant-coefficient", "inhomogeneous", "not-a-syzygy"])
    def test_same_fault_same_words(self, engine, case):
        gens = register_generators(engine)
        _name, level, degree, vector, fault = _bad_syzygies(gens)[case]
        entries = {rec.gid: (rec.level, rec.degree, rec.value, rec.witness)
                   for rec in engine.registry.records.values()}
        gid = (level, degree, 0)
        entries[gid] = (level, degree, vector, {})
        violations = engine.check_entries(entries)["violations"]
        calls = [lambda: engine.minimalize_syzygy(level, vector),
                 lambda: engine.lift_to_cycle(level, vector, degree),
                 lambda: engine.lift_to_cycle(level, vector)]
        for call in calls:
            with pytest.raises(ResolutionError) as info:
                call()
            assert info.type is fault
            assert f"{gid}: {info.value}" in violations


class TestHarvest:
    def test_full_resolution_from_60_10(self, engine):
        fragment = engine.harvest((60, 10), 2)
        assert fragment.ranks() == {0: 4, 1: 4, 2: 1}
        assert fragment.report["passed"]
        values = {
            frozenset((rec.value.lead, rec.value.trail))
            for rec in fragment.levels[0]
        }
        assert values == {
            frozenset(B12), frozenset(B21), frozenset(B18), frozenset(B15),
        }
        (top,) = fragment.levels[2]
        assert top.degree == (30, 5)
        assert len(top.value) == 4
        seen_vars = set()
        for _gid, poly in top.value.items():
            ((mono, coeff),) = poly.items()
            assert sum(mono) == 1
            assert coeff in (1, -1)
            seen_vars.add(mono)
        assert len(seen_vars) == 4

    def test_no_fiber_basis_where_the_degree_has_no_homology(self, engine, capsys,
                                                             tmp_path):
        from toricsyz.cli import main
        from toricsyz.serialize import dumps, fragment_to_json

        m = (60, 10)
        fragment = engine.harvest(m, 3)
        assert [engine.betti_delta(m, j) for j in range(4)] == [0, 0, 0, 0]
        assert not [key for key in engine._bases if key[0] == m]
        assert not engine.nabla(m)._reductions
        path = tmp_path / "semigroup.json"
        path.write_text(json.dumps(engine.semigroup.to_dict()), encoding="utf-8")
        assert main(["--format", "json", "harvest", str(path), "-m", "60,10",
                     "--max-level", "3"]) == 0
        assert dumps(fragment_to_json(fragment, engine)) == capsys.readouterr().out

    @pytest.mark.parametrize("earlier, m, max_level, ranks", [
        (lambda e: e.harvest((60, 10), 3), (21, 3), 3, {0: 1}),
        (lambda e: e.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5)), (21, 3), 1, {0: 1}),
    ], ids=["after-harvest", "after-minimalize"])
    def test_fragment_holds_only_the_divisors_generators(self, example_semigroup,
                                                         earlier, m, max_level, ranks):
        from toricsyz.serialize import dumps, fragment_to_json

        fresh = ResolutionEngine(example_semigroup, Config())
        want = fresh.harvest(m, max_level)
        assert want.ranks() == ranks
        used = ResolutionEngine(example_semigroup, Config())
        earlier(used)
        got = used.harvest(m, max_level)
        assert got.ranks() == ranks
        assert dumps(fragment_to_json(got, used)) == dumps(fragment_to_json(want, fresh))

    def test_harvest_nonmember_is_empty(self, engine):
        fragment = engine.harvest((1, 0), 2)
        assert fragment.levels == {}
        assert fragment.report["passed"]

    def test_harvest_singleton_fiber_is_empty(self, engine):
        fragment = engine.harvest((4, 1), 2)
        assert fragment.levels == {}
        assert fragment.report["passed"]

    def test_registry_respects_homology_bound(self, engine):
        engine.harvest((60, 10), 2)
        for (level, degree), count in _count_by(engine).items():
            assert count <= engine.multigraded_betti(degree, level)

    def test_level0_witness_components(self, engine):
        engine.harvest((60, 10), 2)
        for rec in level_records(engine)[0]:
            cx = engine.nabla(rec.degree)
            comps = cx.components()
            spot = {
                next(i for i, c in enumerate(comps)
                     if cx.vertex_index[mono] in c)
                for mono in (rec.value.lead, rec.value.trail)
            }
            assert len(spot) == 2


def _count_by(engine):
    counts = {}
    for rec in engine.registry.records.values():
        counts[(rec.level, rec.degree)] = counts.get((rec.level, rec.degree), 0) + 1
    return counts


class TestVerifyFragment:
    def test_passes_on_harvest(self, engine):
        fragment = engine.harvest((60, 10), 2)
        report = engine.verify_fragment(fragment)
        assert report["passed"]
        assert report["ranks"] == {"0": 4, "1": 4, "2": 1}

    def test_empty_fragment_passes(self, engine):
        fragment = engine.harvest((1, 0), 2)
        assert engine.verify_fragment(fragment)["passed"]

    def test_corrupted_coefficient_detected(self, engine):
        import copy

        fragment = engine.harvest((60, 10), 2)
        broken = copy.deepcopy(fragment)
        rec = broken.levels[1][0]
        gid2 = next(iter(rec.value))
        mono = next(iter(rec.value[gid2]))
        rec.value[gid2][mono] += 1
        report = engine.verify_fragment(broken)
        assert not report["passed"]
        assert any("annihilate" in v or "nonzero" in v for v in report["violations"])

    # the in-memory and the file path share one checker, so each check
    # either path made before now runs on both

    def test_missing_reference_flagged_in_memory(self, engine):
        fragment = engine.harvest((60, 10), 1)
        broken = ResolutionFragment(fragment.degree, 1, {1: fragment.levels[1]})
        report = engine.verify_fragment(broken)
        assert not report["passed"]
        assert all("references missing generator" in v for v in report["violations"])
        assert len(report["violations"]) == sum(len(r.value) for r in fragment.levels[1])

    def test_declared_degree_flagged_in_memory(self, engine):
        import copy

        broken = copy.deepcopy(engine.harvest((60, 10), 1))
        rec = broken.levels[1][0]
        rec.degree = (rec.degree[0] + 1, rec.degree[1])
        report = engine.verify_fragment(broken)
        assert [v for v in report["violations"] if v.startswith(str(rec.gid))] == [
            f"{rec.gid}: inhomogeneous entry on {gid2}" for gid2 in rec.value]

    def test_stored_zero_polynomial_flagged_by_both_paths(self, engine):
        import copy
        import json

        from toricsyz.serialize import (
            dumps, fragment_to_json, gid_to_json, verify_fragment_json)

        fragment = engine.harvest((60, 10), 1)
        doc = json.loads(dumps(fragment_to_json(fragment, engine)))
        broken = copy.deepcopy(fragment)
        rec = broken.levels[1][0]
        gid2 = min(rec.value)
        rec.value[gid2] = {}
        entry = next(g for g in doc["generators"] if g["id"] == gid_to_json(rec.gid))
        term = next(v for v in entry["value"] if v["generator"] == gid_to_json(gid2))
        term["coefficient"] = []
        report = engine.verify_fragment(broken)
        assert f"{rec.gid}: stored zero polynomial on {gid2}" in report["violations"]
        assert report == verify_fragment_json(doc, engine)


class TestDeltaRankMemo:
    def test_neighbouring_dimensions_share_boundary_ranks(self, engine, monkeypatch):
        from toricsyz import homology

        calls = []
        original = homology.gauss_reduce

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(homology, "gauss_reduce", counted)
        # the comparison complex at (60, 10) is the full simplex on 4 vertices
        ranks = [engine.betti_delta((60, 10), j) for j in range(3)]
        # d_0 and d_1 come from the spanning forest: only d_2 and d_3 are
        # eliminated, each once (3-vertex and 4-vertex faces as columns)
        assert calls == [4, 1]
        assert [engine.betti_delta((60, 10), j) for j in range(3)] == ranks
        assert calls == [4, 1]


def _content_free_inputs(monkeypatch):
    """Record the distinct content-free inputs handed to _decompose.

    The content of each nonempty input is factored out here, apart from
    the engine; the set holds (level, reduced degree, reduced input).
    """
    seen = set()
    original = ResolutionEngine._decompose

    def recording(self, level, g, m):
        if g:
            monos = list(g) if level == 0 else [mono for p in g.values() for mono in p]
            c = tuple(map(min, zip(*monos)))

            def divided(p):
                return frozenset((tuple(a - b for a, b in zip(mono, c)), v)
                                 for mono, v in p.items())

            reduced = (divided(g) if level == 0
                       else frozenset((gid, divided(p)) for gid, p in g.items()))
            sg = self.semigroup
            seen.add((level, sg.sub_degree(m, sg.degree_of(c)), reduced))
        return original(self, level, g, m)

    monkeypatch.setattr(ResolutionEngine, "_decompose", recording)
    return seen


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestDecompositionMemo:
    """Each content-free input is decomposed once per engine."""

    def test_harvest_expresses_each_content_free_input_once(self, engine, monkeypatch):
        from toricsyz import ChainBasis

        inputs = _content_free_inputs(monkeypatch)
        express = _count_calls(monkeypatch, ChainBasis, "express")
        engine.harvest((60, 10), 3)
        # an engine without the memo expresses once per nonempty _decompose call
        assert len(express) == len(inputs) == 8

    def test_minimalize_expresses_each_content_free_input_once(self, monkeypatch):
        from toricsyz import ChainBasis

        engine = ResolutionEngine(Semigroup(1, [[3], [5]]), Config())
        inputs = _content_free_inputs(monkeypatch)
        express = _count_calls(monkeypatch, ChainBasis, "express")
        engine.minimalize_binomial((300, 0), (0, 180))
        # an engine without the memo expresses 61 times
        assert len(express) == len(inputs) == 2

    def test_debug_checks_run_on_every_call_hit_or_miss(self, debug_engine, monkeypatch):
        calls = _count_calls(monkeypatch, ResolutionEngine, "_decompose")
        checks = _count_calls(monkeypatch, ResolutionEngine, "_check_reconstruction")
        debug_engine.harvest((60, 10), 3)
        nonempty = [args for args in calls if args[2]]
        assert len(checks) == len(nonempty) > len(debug_engine._decompositions)

    @staticmethod
    def _tamper_and_hit(engine, level):
        """Double one stored level-th decomposition, then hit it with x1 times its input."""
        engine.harvest((60, 10), 2)
        key = next(k for k, v in engine._decompositions.items() if k[0] == level and v)
        engine._decompositions[key] = {gid: {mono: 2 * c for mono, c in p.items()}
                                       for gid, p in engine._decompositions[key].items()}
        _level, m_red, reduced = key
        x1 = (1, 0, 0, 0)
        g = (poly_mono_mul(dict(reduced), x1) if level == 0
             else {gid: poly_mono_mul(dict(p), x1) for gid, p in reduced})
        m = tuple(a + b for a, b in zip(m_red, engine.semigroup.degree_of(x1)))
        return engine._decompose(level, g, m)

    @pytest.mark.parametrize("level", [0, 1])
    def test_tampered_entry_fails_its_next_hit(self, example_semigroup, level):
        with pytest.raises(CheckFailed):
            self._tamper_and_hit(
                ResolutionEngine(example_semigroup, Config(debug_checks=True)), level)
        # without debug checks the hit hands the tampered entry out unchecked
        assert self._tamper_and_hit(ResolutionEngine(example_semigroup, Config()), level)


class TestLevelZeroWithoutElimination:
    def test_minimalize_eliminates_no_one_skeleton(self, monkeypatch):
        from toricsyz import homology

        widths = []
        original = homology.gauss_reduce

        def counted(rows, ncols, field):
            widths.append(ncols)
            return original(rows, ncols, field)

        monkeypatch.setattr(homology, "gauss_reduce", counted)
        engine = ResolutionEngine(Semigroup(1, [[3], [5]]), Config())
        engine.minimalize_binomial((300, 0), (0, 180))
        edges = {len(cx.faces_of_dim(1)) for cx in engine._nabla.values()}
        assert max(edges) == 1829  # the 1-skeleton at degree 900
        # d_1's rank and pivots come from the spanning forest
        assert not edges & set(widths), sorted(edges & set(widths))


def _outside_n_plus_s(sg, degrees) -> set:
    """The degrees m with m - N not in S, N the sum of the generators."""
    big_n = tuple(map(sum, zip(*sg.generators)))
    return {m for m in degrees if not sg.member(sg.sub_degree(m, big_n))}


class TestComparisonComplexOnlyForCounts:
    def test_minimalize_builds_no_comparison_complex(self):
        engine = ResolutionEngine(Semigroup(1, [[3], [5]]), Config())
        engine.minimalize_binomial((100, 0), (0, 60))
        assert engine._delta_faces == {} and engine._delta == {}

    def test_harvest_builds_comparison_complexes_only_where_it_counts(self, engine,
                                                                        monkeypatch):
        m, max_level = (60, 10), 3
        read = set()
        original = ResolutionEngine._decompose_reduced

        def recording(self, level, g, m_red):
            read.add((m_red, level))
            return original(self, level, g, m_red)

        monkeypatch.setattr(ResolutionEngine, "_decompose_reduced", recording)
        fragment = engine.harvest(m, max_level)
        assert fragment.report["passed"]
        # a face set recorded for each degree of D(m) outside N + S and no
        # other, and one shared complex per distinct face set among them
        walked = _outside_n_plus_s(engine.semigroup, divisor_degrees(engine.semigroup, m))
        assert set(engine._delta_faces) == walked
        assert set(engine._delta) == {build_delta(engine.semigroup, mp).masks
                                      for mp in walked}
        assert (len(walked), len(engine._delta)) == (68, 28)
        assert all(engine._delta[faces].masks is faces
                   for faces in engine._delta_faces.values())
        # m has no homology, so its fiber complex is never built
        assert m not in engine._nabla
        # a fiber basis only where a generator sits or the recursion splits a cycle
        registered = {(rec.degree, rec.level) for rec in engine.registry.records.values()}
        assert set(engine._bases) == registered | read
        assert len(engine._bases) == 9

    def test_scan_reduces_each_face_set_once(self, example_semigroup, tmp_path, capsys,
                                             monkeypatch):
        from collections import Counter

        from toricsyz import homology, resolution
        from toricsyz.cli import main

        reductions = Counter()  # (face set, dimension) -> boundary maps reduced
        for name in ("_spanning_forest", "boundary_matrix"):
            def counted(complex_, j, *args, _original=getattr(homology, name)):
                reductions[complex_.masks, j] += 1
                return _original(complex_, j, *args)
            monkeypatch.setattr(homology, name, counted)
        builds = _count_calls(monkeypatch, resolution, "build_delta")
        members = _count_calls(monkeypatch, Semigroup, "member")
        path = tmp_path / "example.json"
        path.write_text(json.dumps(example_semigroup.to_dict()))
        # the bench scan: weight <= 10, j <= 2, over Z/32003
        assert main(["scan", str(path), "--w-bound", "10", "--jmax", "2",
                     "--field", "32003", "--format", "json"]) == 0
        degrees = [tuple(row["degree"]) for row in json.loads(capsys.readouterr().out)["rows"]]
        # walked by weight, each face set is read off those at m - n_i: no
        # degree is built on its own, and none takes a membership test
        assert builds == [] and members == []
        face_sets = {build_delta(example_semigroup, m).masks for m in degrees}
        assert (len(degrees), len(face_sets)) == (230, 29)
        assert max(reductions.values()) == 1
        # the irrelevant complex at degree 0 has no vertex, so nothing to reduce
        assert {faces for faces, _j in reductions} == face_sets - {frozenset({0})}

    def test_mixed_sign_harvest_builds_no_delta(self, monkeypatch):
        from toricsyz import resolution

        # generator (-1, 1) puts m - n_1 after m in sorted(D(M)); walked by
        # weight, m - n_1 comes first, so every face set is read off its
        # neighbours and none is built on its own
        sg = Semigroup(2, [[-1, 1], [0, 1], [2, 1], [3, 1]])
        builds = _count_calls(monkeypatch, resolution, "build_delta")
        engine = ResolutionEngine(sg, Config())
        fragment = engine.harvest((10, 10), 2)
        assert fragment.report["passed"] and fragment.ranks() == {0: 4, 1: 4, 2: 1}
        walked = _outside_n_plus_s(sg, divisor_degrees(sg, (10, 10)))
        assert set(engine._delta_faces) == walked
        assert builds == []
        for m, faces in engine._delta_faces.items():
            assert faces == build_delta(sg, m).masks, m


class TestHugeMaxLevel:
    def test_work_stops_below_the_number_of_generators(self, example_semigroup,
                                                       monkeypatch):
        from toricsyz.complexes import DeltaComplex, NablaComplex

        def traced(max_level):
            engine = ResolutionEngine(example_semigroup, Config())
            faces = (_count_calls(monkeypatch, NablaComplex, "faces_of_dim"),
                     _count_calls(monkeypatch, DeltaComplex, "faces_of_dim"))
            betti = _count_calls(monkeypatch, ResolutionEngine, "betti_delta")
            fragment = engine.harvest((60, 10), max_level)
            monkeypatch.undo()
            return fragment, sum(map(len, faces)), len(betti)

        fragment, faces, betti = traced(10 ** 5)
        r = example_semigroup.num_generators
        assert fragment.report["passed"] and fragment.ranks() == {0: 4, 1: 4, 2: 1}
        # at most r - 1 levels per degree of D(m), plus the report's one per
        # (level, degree)
        divisors = divisor_degrees(example_semigroup, (60, 10))
        assert betti <= len(divisors) * (r - 1) + len(
            {(rec.level, rec.degree) for rec in fragment.all_records()})
        # a level beyond r - 2 changes nothing
        assert traced(r - 2)[1:] == (faces, betti)


class TestNoTransformWithoutAReader:
    def test_q_is_kept_only_where_the_degree_has_homology(self, monkeypatch):
        # a kernel elimination reduces a boundary matrix as it was built;
        # reduce_boundary does that too, but only for d_j with j >= 2
        from toricsyz import homology, resolution

        built = [None]  # (degree, dimension, rows) of the boundary matrix built last
        calls = []  # (degree and dimension of a kernel elimination or None, shape)
        original_matrix = homology.boundary_matrix
        original_reduce = homology.gauss_reduce

        def matrix(complex_, j, *args, **kwargs):
            mat = original_matrix(complex_, j, *args, **kwargs)
            built[0] = (complex_.degree, j, mat.data)
            return mat

        def reduce(rows, ncols, field):
            at = built[0][:2] if built[0] and rows is built[0][2] else None
            calls.append((at, (len(rows), ncols)))
            return original_reduce(rows, ncols, field)

        for module in (homology, resolution):
            monkeypatch.setattr(module, "boundary_matrix", matrix)
            monkeypatch.setattr(module, "gauss_reduce", reduce)
        engine = ResolutionEngine(Semigroup(1, [[3], [5]]), Config())
        result = engine.minimalize_binomial((100, 0), (0, 60))
        assert [rec.degree for rec, _poly in result.entries] == [(15,)]
        # the one kernel elimination is d_0 (1 x 2) at x1^5 - x2^3
        kernels = [(at, shape) for at, shape in calls if at is not None]
        assert kernels == [(((15,), 0), (1, 2))]
        assert [engine.betti_delta(m, j) for (m, j), _shape in kernels] == [1]
        # besides it, the lift solve and the 1 x 1 selection of the one
        # representative there
        assert sorted(shape for at, shape in calls if at is None) == [(1, 1), (20, 40)]


class TestOracle:
    def test_12_2(self, engine):
        assert oracle_v0(engine, (12, 2)) == 1

    def test_52_8(self, engine):
        assert oracle_v0(engine, (52, 8)) == 0
        assert oracle_v0(engine, (52, 8)) == engine.multigraded_betti((52, 8), 0)

    def test_generator_degree(self, engine):
        assert oracle_v0(engine, (4, 1)) == 0

    def test_nonzero_degrees_up_to_weight_4(self, engine):
        hits = [
            m for m in engine.semigroup.degrees_up_to(4)
            if oracle_v0(engine, m) > 0
        ]
        assert hits == [(12, 2), (15, 3), (18, 3), (21, 3)]


class TestDeterminism:
    def test_identical_runs_byte_identical(self, example_semigroup):
        from toricsyz.serialize import dumps, fragment_to_json

        def run():
            eng = ResolutionEngine(example_semigroup, Config())
            frag = eng.harvest((60, 10), 2)
            eng.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
            return dumps(fragment_to_json(frag, eng)) + dumps(registry_to_json(eng))

        assert run() == run()

    def test_query_order_does_not_change_generators(self, example_semigroup):
        eng1 = ResolutionEngine(example_semigroup, Config())
        eng1.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        eng1.harvest((60, 10), 2)
        eng2 = ResolutionEngine(example_semigroup, Config())
        eng2.harvest((60, 10), 2)
        eng2.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        ids1 = sorted(eng1.registry.records)
        ids2 = sorted(eng2.registry.records)
        assert ids1 == ids2
        for gid in ids1:
            r1, r2 = eng1.registry.get(gid), eng2.registry.get(gid)
            assert r1.value == r2.value
            assert r1.witness == r2.witness

    def test_disk_cache_reuse_matches_fresh_run(self, example_semigroup, tmp_path):
        config = Config(cache_dir=str(tmp_path))
        eng1 = ResolutionEngine(example_semigroup, config)
        res1 = eng1.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        eng2 = ResolutionEngine(example_semigroup, config)  # warm cache now
        res2 = eng2.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        assert [(r.gid, p) for r, p in res1.entries] == \
            [(r.gid, p) for r, p in res2.entries]


class TestRandomizedProperties:
    def test_random_binomials_decompose_cleanly(self, example_semigroup):
        rng = random.Random(23)
        engine = ResolutionEngine(example_semigroup, Config())
        sg = example_semigroup
        degrees = [
            m for m in sg.degrees_up_to(8)
            if len(sg.fiber(m, DEGREVLEX)) >= 2
        ]
        for _ in range(40):
            m = rng.choice(degrees)
            fiber = sg.fiber(m, DEGREVLEX)
            lead, trail = rng.sample(list(fiber), 2)
            if DEGREVLEX.key(lead) < DEGREVLEX.key(trail):
                lead, trail = trail, lead
            result = engine.minimalize_binomial(lead, trail)
            assert reconstruct_binomial(engine, result) == {lead: 1, trail: -1}
            gamma = [min(a, b) for a, b in zip(lead, trail)]
            for rec, poly in result.entries:
                assert rec.level == 0
                for mono in poly:
                    assert all(g <= e for g, e in zip(gamma, mono))


class TestNumericalSemigroup:
    def test_end_to_end_on_two_three(self):
        sg = Semigroup(1, [[2], [3]])
        engine = ResolutionEngine(sg, Config())
        # x1^3 - x2^2 generates the ideal of the cusp
        result = engine.minimalize_binomial((3, 0), (0, 2))
        assert len(result.entries) == 1
        rec, poly = result.entries[0]
        assert rec.degree == (6,)
        assert poly == {(0, 0): 1}
        # a multiple decomposes with the shift as coefficient
        shifted = engine.minimalize_binomial((5, 1), (2, 3))
        assert len(shifted.entries) == 1
        assert shifted.entries[0][1] == {(2, 1): 1}
        # the whole resolution: one generator, nothing above it
        fragment = engine.harvest((12,), 1)
        assert fragment.ranks() == {0: 1}
        assert fragment.report["passed"]


class TestAlternateConfigurations:
    @pytest.mark.parametrize("field", [2, 32003])
    def test_prime_field_harvest(self, example_semigroup, field):
        engine = ResolutionEngine(example_semigroup, Config(field=field))
        fragment = engine.harvest((60, 10), 2)
        assert fragment.ranks() == {0: 4, 1: 4, 2: 1}
        assert fragment.report["passed"]
        result = engine.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        assert sorted(r.degree for r, _ in result.entries) == [(12, 2), (21, 3)]

    def test_lex_order_harvest(self, example_semigroup):
        engine = ResolutionEngine(example_semigroup, Config(term_order="lex"))
        fragment = engine.harvest((60, 10), 2)
        assert fragment.ranks() == {0: 4, 1: 4, 2: 1}
        assert fragment.report["passed"]


class TestThreeFourFive:
    """Second instance: the monomial curve of 3, 4, 5 in one dimension."""

    def test_full_resolution_shape(self):
        sg = Semigroup(1, [[3], [4], [5]])
        engine = ResolutionEngine(sg, Config())
        generator_degrees = {
            m: engine.multigraded_betti(m, 0)
            for m in sg.degrees_up_to(8)
            if engine.multigraded_betti(m, 0)
        }
        assert generator_degrees == {(8,): 1, (9,): 1, (10,): 1}
        syzygy_degrees = {
            m: engine.multigraded_betti(m, 1)
            for m in sg.degrees_up_to(8)
            if engine.multigraded_betti(m, 1)
        }
        assert syzygy_degrees == {(13,): 1, (14,): 1}
        for m in sg.degrees_up_to(8):
            assert engine.multigraded_betti(m, 0) == oracle_v0(engine, m)

    def test_harvest_recovers_hilbert_burch_columns(self):
        sg = Semigroup(1, [[3], [4], [5]])
        engine = ResolutionEngine(sg, Config())
        fragment = engine.harvest((22,), 1)
        assert fragment.ranks() == {0: 3, 1: 2}
        assert fragment.report["passed"]
        binomials = {
            frozenset({rec.value.lead, rec.value.trail})
            for rec in fragment.levels[0]
        }
        assert binomials == {
            frozenset({(0, 2, 0), (1, 0, 1)}),   # x2^2 - x1x3
            frozenset({(3, 0, 0), (0, 1, 1)}),   # x1^3 - x2x3
            frozenset({(2, 1, 0), (0, 0, 2)}),   # x1^2x2 - x3^2
        }
        for rec in fragment.levels[1]:
            assert phi_image(rec.value, engine.registry.value, engine.field) == {}
            assert all(len(poly) == 1 for poly in rec.value.values())


class TestNonCohenMacaulayCurve:
    """The curve (t^4, t^3u, tu^3, u^4): homology above the matrix rank exists."""

    def test_obstruction_scan_fires(self):
        sg = Semigroup(2, [[4, 0], [3, 1], [1, 3], [0, 4]])
        engine = ResolutionEngine(sg, Config())
        codim = sg.num_generators - sg.matrix_rank()
        flags = [
            m for m in sg.degrees_up_to(5)
            if engine.multigraded_betti(m, codim)
        ]
        assert flags == [(10, 10)]

    def test_generators_and_consistency(self):
        sg = Semigroup(2, [[4, 0], [3, 1], [1, 3], [0, 4]])
        engine = ResolutionEngine(sg, Config())
        gens = {
            m for m in sg.degrees_up_to(4)
            if engine.multigraded_betti(m, 0)
        }
        assert gens == {(4, 4), (6, 6), (3, 9), (9, 3)}
        for m in sg.degrees_up_to(4):
            assert engine.multigraded_betti(m, 0) == oracle_v0(engine, m)
            for j in range(sg.num_generators):
                assert engine.multigraded_betti(m, j) == engine.betti_delta(m, j)

    def test_harvest_reaches_projective_dimension_three(self):
        sg = Semigroup(2, [[4, 0], [3, 1], [1, 3], [0, 4]])
        engine = ResolutionEngine(sg, Config())
        fragment = engine.harvest((10, 10), 2)
        assert fragment.ranks() == {0: 4, 1: 4, 2: 1}
        assert fragment.report["passed"]
        (top,) = fragment.levels[2]
        assert top.degree == (10, 10)
        for _gid, poly in top.value.items():
            ((mono, coeff),) = poly.items()
            assert sum(mono) == 1 and coeff in (1, -1)


class TestProjectiveDimensionCeiling:
    def test_no_generators_beyond_level_two(self, example_semigroup):
        # codimension-2 Gorenstein: nothing lives above homological level 2
        engine = ResolutionEngine(example_semigroup, Config())
        fragment = engine.harvest((52, 8), 3)
        assert fragment.ranks() == {0: 4, 1: 4, 2: 1}
        assert 3 not in fragment.levels
        assert fragment.report["passed"]
