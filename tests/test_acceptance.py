"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every comparison is exact; the only tolerances
are the wall-clock budgets stated inline.
"""
import random
import time
from contextlib import contextmanager

import pytest
from dense_gauss import check_decomposition
from oracles import (brute_force_fiber, components, oracle_v0, registry_to_json,
                     restrict_nabla)

from toricsyz import (
    Config,
    DEGREVLEX,
    ResolutionEngine,
    Semigroup,
    betti_reduced,
    boundary_matrix,
    build_delta,
    build_nabla,
    chain_boundary,
    gauss_reduce,
    get_field,
)
from toricsyz.resolution import phi_image, poly_mul
from toricsyz.serialize import dumps, fragment_to_json

EXAMPLE = [[4, 1], [5, 1], [7, 1], [8, 1]]
NUMERICAL = [[2], [3]]

B12 = frozenset({(0, 1, 1, 0), (1, 0, 0, 1)})   # x2x3 - x1x4
B21 = frozenset({(0, 0, 3, 0), (0, 1, 0, 2)})   # x3^3 - x2x4^2
B18 = frozenset({(1, 0, 2, 0), (0, 2, 0, 1)})   # x1x3^2 - x2^2x4
B15 = frozenset({(0, 3, 0, 0), (2, 0, 1, 0)})   # x2^3 - x1^2x3

FIBER_52_8 = {
    (0, 2, 6, 0), (0, 3, 3, 2), (0, 4, 0, 4), (1, 1, 5, 1),
    (1, 2, 2, 3), (2, 0, 4, 2), (2, 1, 1, 4), (3, 0, 0, 5),
}


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} ({label}): FAIL "
              f"(took {elapsed:.2f}s, budget {budget_seconds}s)", flush=True)
        pytest.fail(f"criterion {number} exceeded its {budget_seconds}s budget")
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)", flush=True)


def fresh_engine(columns=EXAMPLE, **config_kwargs):
    return ResolutionEngine(Semigroup(len(columns[0]), columns),
                            Config(**config_kwargs))


def reconstruct_level0(engine, result):
    total = {}
    for rec, poly in result.entries:
        prod = poly_mul(poly, rec.value.as_polynomial(engine.field), engine.field)
        engine.field.axpy(total, prod, 1)
    return total


def reconstruct_level1(engine, result):
    total = {}
    for rec, poly in result.entries:
        for gid2, p2 in rec.value.items():
            acc = total.setdefault(gid2, {})
            engine.field.axpy(acc, poly_mul(poly, p2, engine.field), 1)
            if not acc:
                del total[gid2]
    return total


def test_criterion_1_generators_end_to_end():
    with criterion(1, "binomial decomposition at (52,8)", 5.0):
        engine = fresh_engine()
        fiber = engine.semigroup.fiber((52, 8), DEGREVLEX)
        assert set(fiber) == FIBER_52_8 and len(fiber) == 8

        result = engine.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
        assert len(result.entries) == 2
        found = {
            rec.degree: frozenset({rec.value.lead, rec.value.trail})
            for rec, _ in result.entries
        }
        assert found == {(21, 3): B21, (12, 2): B12}
        # exact reconstruction
        assert reconstruct_level0(engine, result) == {
            (0, 2, 6, 0): 1, (3, 0, 0, 5): -1,
        }
        # gcd of the input monomials is 1, so divisibility holds trivially;
        # assert it anyway via the general condition
        for _rec, poly in result.entries:
            assert poly


def test_criterion_2_first_syzygies():
    with criterion(2, "first syzygies at (45,7)", 5.0):
        engine = fresh_engine()
        gens = {}
        for lead, trail in [sorted(B12, reverse=True), sorted(B21, reverse=True),
                            sorted(B18, reverse=True), sorted(B15, reverse=True)]:
            res = engine.minimalize_binomial(lead, trail)
            assert len(res.entries) == 1
            gens[res.entries[0][0].degree] = res.entries[0][0]

        g = {
            gens[(12, 2)].gid: {(0, 1, 4, 0): 1, (1, 1, 0, 3): 1},
            gens[(21, 3)].gid: {(0, 2, 2, 0): -1, (2, 0, 0, 2): -1},
            gens[(18, 3)].gid: {(0, 1, 2, 1): 1, (1, 0, 1, 2): 1},
        }
        result = engine.minimalize_syzygy(1, g)
        assert len(result.entries) == 2
        assert sorted(rec.degree for rec, _ in result.entries) == [(25, 4), (26, 4)]
        coeffs = {rec.degree: poly for rec, poly in result.entries}
        assert set(coeffs[(25, 4)]) == {(1, 0, 0, 2)}      # x1x4^2 up to sign
        assert set(coeffs[(26, 4)]) == {(0, 1, 2, 0)}      # x2x3^2 up to sign
        assert abs(coeffs[(25, 4)][(1, 0, 0, 2)]) == 1
        assert abs(coeffs[(26, 4)][(0, 1, 2, 0)]) == 1
        assert reconstruct_level1(engine, result) == g
        for rec, _poly in result.entries:
            assert phi_image(rec.value, engine.registry.value, engine.field) == {}


def test_criterion_3_final_example_fragment():
    with criterion(3, "resolution fragment at (60,10)", 30.0):
        engine = fresh_engine()
        fragment = engine.harvest((60, 10), 2)
        ranks = fragment.ranks()
        assert ranks[0] == 4
        assert ranks[1] >= 4
        assert ranks[2] >= 1
        values = {
            frozenset({rec.value.lead, rec.value.trail})
            for rec in fragment.levels[0]
        }
        assert values == {B12, B21, B18, B15}
        assert fragment.report["passed"], fragment.report["violations"]
        # the discovered shape is R <- R^4 <- R^4 <- R
        assert (ranks[0], ranks[1], ranks[2]) == (4, 4, 1)


def test_criterion_4_iso_theorem_property():
    with criterion(4, "fiber/index complex homology equality", 120.0):
        for columns, bound in [(EXAMPLE, 6), (NUMERICAL, 6)]:
            sg = Semigroup(len(columns[0]), columns)
            field = get_field("rational")
            r = sg.num_generators
            for m in sg.degrees_up_to(bound):
                nabla = build_nabla(sg, m, DEGREVLEX)
                delta = build_delta(sg, m)
                for j in range(r):
                    assert betti_reduced(nabla, j, field) == \
                        betti_reduced(delta, j, field), (columns, m, j)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "independent rank oracle", 120.0):
        engine = fresh_engine()
        for m in engine.semigroup.degrees_up_to(5):
            assert engine.multigraded_betti(m, 0) == oracle_v0(engine, m), m


def test_criterion_6_structural_invariants(tmp_path):
    with criterion(6, "structural invariants and determinism", 60.0):
        sg = Semigroup(2, EXAMPLE)
        field = get_field("rational")

        # boundary of boundary vanishes on every generated complex
        for m in sg.degrees_up_to(5):
            cx = build_nabla(sg, m, DEGREVLEX)
            for j in range(1, cx.dimension + 1):
                for face in cx.faces_of_dim(j):
                    assert chain_boundary(chain_boundary({face: 1})) == {}

        # echelon rows and solutions of every elimination
        for m in [(24, 4), (36, 6), (45, 7)]:
            cx = build_nabla(sg, m, DEGREVLEX)
            for j in range(0, 2):
                mat = boundary_matrix(cx, j)
                if not mat.col_faces:
                    continue
                g = gauss_reduce(mat.data, len(mat.col_faces), field)
                check_decomposition(g, mat.data, len(mat.col_faces), field)

        # fiber enumeration agrees with the boxed brute force
        for m in sg.degrees_up_to(5):
            assert set(sg.fiber(m, DEGREVLEX)) == brute_force_fiber(sg, m)

        # restriction agrees with direct construction on 50 random pairs
        rng = random.Random(5)
        degrees = [m for m in sg.degrees_up_to(8) if sg.fiber(m, DEGREVLEX)]
        for _ in range(50):
            m = rng.choice(degrees)
            alpha = rng.choice(sg.fiber(m, DEGREVLEX))
            beta = tuple(rng.randint(0, e) for e in alpha)
            restricted = restrict_nabla(build_nabla(sg, m, DEGREVLEX), beta)
            direct = build_nabla(sg, restricted.degree, DEGREVLEX)
            assert restricted.vertices == direct.vertices
            top = max(restricted.dimension, direct.dimension)
            for j in range(top + 1):
                assert restricted.faces_of_dim(j) == direct.faces_of_dim(j)

        # two full pipeline runs produce byte-identical JSON artifacts
        def pipeline(cache_dir):
            engine = ResolutionEngine(sg, Config(cache_dir=cache_dir))
            fragment = engine.harvest((60, 10), 2)
            engine.minimalize_binomial((0, 2, 6, 0), (3, 0, 0, 5))
            return (dumps(fragment_to_json(fragment, engine))
                    + dumps(registry_to_json(engine)))

        run_a = pipeline(str(tmp_path / "cache_a"))
        run_b = pipeline(str(tmp_path / "cache_b"))
        assert run_a.encode() == run_b.encode()


def test_criterion_7_divisibility_and_minimality():
    with criterion(7, "divisibility and minimality properties", 120.0):
        engine = fresh_engine()
        sg = engine.semigroup
        rng = random.Random(97)
        degrees = [
            m for m in sg.degrees_up_to(8)
            if len(sg.fiber(m, DEGREVLEX)) >= 2
        ]
        for _ in range(100):
            m = rng.choice(degrees)
            fiber = sg.fiber(m, DEGREVLEX)
            lead, trail = rng.sample(list(fiber), 2)
            if DEGREVLEX.key(lead) < DEGREVLEX.key(trail):
                lead, trail = trail, lead
            result = engine.minimalize_binomial(lead, trail)
            # exact reconstruction
            assert reconstruct_level0(engine, result) == {lead: 1, trail: -1}
            # condition (b): the input gcd divides every coefficient
            gamma = tuple(min(a, b) for a, b in zip(lead, trail))
            for rec, poly in result.entries:
                for mono in poly:
                    assert all(g <= e for g, e in zip(gamma, mono))
                # minimality witness: the generator's monomials lie in
                # distinct connected components of its own fiber complex
                cx = engine.nabla(rec.degree)
                comps = components(cx)
                where = {
                    next(i for i, comp in enumerate(comps)
                         if cx.vertex_index[mono] in comp)
                    for mono in (rec.value.lead, rec.value.trail)
                }
                assert len(where) == 2
