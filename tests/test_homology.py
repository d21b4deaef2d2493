import json
import os
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from dense_gauss import check_decomposition, dense_gauss_reduce, to_dense, to_pairs
from oracles import kernel_by_solve

from toricsyz import (
    DEGREVLEX,
    FieldError,
    NotACycle,
    PrimeField,
    RationalField,
    betti_reduced,
    boundary_matrix,
    build_delta,
    build_nabla,
    chain_boundary,
    fixed_cycle_basis,
    gauss_reduce,
    get_field,
)
from toricsyz.homology import (
    GaussDecomposition,
    basis_cache_key,
    face_boundary,
    load_cached_basis,
    reduce_boundary,
    store_cached_basis,
)

Q = RationalField()


def echelon_rank(rows):
    """Independent rank oracle: plain row echelon over Fractions, no column ops."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


class TestBoundaryMatrix:
    def test_a0_is_all_ones_row(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        a0 = boundary_matrix(cx, 0)
        assert to_dense(a0.data, 8) == [[1] * 8]

    def test_single_edge_column(self, example_semigroup):
        cx = build_nabla(example_semigroup, (24, 4), DEGREVLEX)
        a1 = boundary_matrix(cx, 1)
        dense = to_dense(a1.data, len(a1.col_faces))
        for k, (a, b) in enumerate(a1.col_faces):
            col = [dense[i][k] for i in range(len(dense))]
            expected = [0] * len(a1.row_faces)
            expected[a1.row_faces.index((b,))] = 1
            expected[a1.row_faces.index((a,))] = -1
            assert col == expected

    def test_boundary_squared_is_zero(self, example_semigroup):
        for m in [(52, 8), (36, 6), (60, 10)]:
            cx = build_nabla(example_semigroup, m, DEGREVLEX)
            checked = 0
            for j in range(1, cx.dimension + 1):
                for face in cx.faces_of_dim(j):
                    assert chain_boundary(chain_boundary({face: 1})) == {}
                    checked += 1
            assert checked

    def test_boundary_matrices_compose_to_zero(self, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        for j in range(1, cx.dimension + 1):
            low = boundary_matrix(cx, j - 1)
            high = boundary_matrix(cx, j)
            if not high.col_faces:
                continue
            prod = matmul(to_dense(low.data, len(low.col_faces)),
                          to_dense(high.data, len(high.col_faces)))
            assert all(all(v == 0 for v in row) for row in prod)

    def test_column_support_sizes(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        for j in range(1, cx.dimension + 1):
            mat = boundary_matrix(cx, j)
            dense = to_dense(mat.data, len(mat.col_faces))
            for k in range(len(mat.col_faces)):
                col = [dense[i][k] for i in range(len(dense))]
                assert sum(1 for v in col if v) == j + 1
                assert all(v in (-1, 0, 1) for v in col)

    @pytest.mark.parametrize("m", [(52, 8), (36, 6), (60, 10)])
    def test_rows_hold_the_pairs_of_face_boundary(self, example_semigroup, m):
        # each column k sits in exactly j + 1 rows, one per facet, with the
        # sign face_boundary gives it; no row holds a zero or repeats a column
        cx = build_nabla(example_semigroup, m, DEGREVLEX)
        for j in range(cx.dimension + 1):
            mat = boundary_matrix(cx, j)
            pairs = Counter(k for row in mat.data for k, _ in row)
            signs = {k: {} for k in range(len(mat.col_faces))}
            for face, row in zip(mat.row_faces, mat.data):
                assert all(v for _, v in row)
                assert len({k for k, _ in row}) == len(row)
                for k, v in row:
                    signs[k][face] = v
            for k, face in enumerate(mat.col_faces):
                assert pairs[k] == j + 1
                assert signs[k] == dict(face_boundary(face))


class TestGaussReduce:
    def test_all_ones_row(self):
        rows = to_pairs([[1, 1, 1, 1]])
        g = gauss_reduce(rows, 4, Q)
        assert g.rank == 1
        kernel = kernel_by_solve(g, rows, 4, Q)
        assert kernel == [{1: 1, 0: -1}, {2: 1, 0: -1}, {3: 1, 0: -1}]
        check_decomposition(g, rows, 4, Q)

    def test_zero_matrix(self):
        rows = to_pairs([[0, 0], [0, 0]])
        g = gauss_reduce(rows, 2, Q)
        assert (g.rank, g.pivots, g.rows, g.steps) == (0, [], [], [])
        assert kernel_by_solve(g, rows, 2, Q) == [{0: 1}, {1: 1}]
        assert g.solve({}) == {}
        assert g.solve({1: 3}) is None

    def test_path_complex_rank(self, example_semigroup):
        # two edges on three vertices: rank 2, trivial kernel
        cx = build_nabla(example_semigroup, (24, 4), DEGREVLEX)
        a1 = boundary_matrix(cx, 1)
        g = gauss_reduce(a1.data, 2, Q)
        assert g.rank == echelon_rank(to_dense(a1.data, 2)) == 2
        assert kernel_by_solve(g, a1.data, 2, Q) == []

    @pytest.mark.parametrize("m", [(52, 8), (36, 6), (45, 7)])
    def test_block_form_and_invertibility(self, example_semigroup, m):
        # echelon rows and solutions, checked on the matrix, and the
        # kernel vectors read through solve, against the dense reference
        cx = build_nabla(example_semigroup, m, DEGREVLEX)
        for j in range(0, 3):
            mat = boundary_matrix(cx, j)
            n = len(mat.col_faces)
            if not n:
                continue
            g = gauss_reduce(mat.data, n, Q)
            assert g.rank == echelon_rank(to_dense(mat.data, n))
            check_decomposition(g, mat.data, n, Q)
            ref = dense_gauss_reduce(to_dense(mat.data, n), n, Q)
            assert kernel_by_solve(g, mat.data, n, Q) == \
                [dict(*to_pairs([col])) for col in ref.kernel_columns()]

    def test_solve_consistency(self):
        g = gauss_reduce(to_pairs([[1, 2], [2, 4]]), 2, Q)
        assert g.rank == 1
        sol = g.solve({0: 3, 1: 6})
        assert sol is not None
        x = to_dense([sol.items()], 2)[0]
        assert [x[0] + 2 * x[1], 2 * x[0] + 4 * x[1]] == [3, 6]
        assert g.solve({0: 1}) is None


class TestFixedCycleBasis:
    def test_disconnected_pair(self, example_semigroup):
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        assert len(basis.boundary) == 0
        assert len(basis.homology) == 1
        # largest vertex carries the -1, the other one the +1
        assert basis.homology[0] == {(1,): 1, (0,): -1}
        assert cx.vertices[0] == (0, 0, 3, 0)  # x3^3 beats x2*x4^2

    def test_connected_complex_has_trivial_h0(self, example_semigroup):
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        assert len(basis.homology) == 0
        assert len(basis.boundary) == len(cx.vertices) - 1

    def test_zero_dim_homology_reps_have_pair_shape(self, example_semigroup):
        for m in [(21, 3), (12, 2), (18, 3), (15, 3)]:
            cx = build_nabla(example_semigroup, m, DEGREVLEX)
            basis = fixed_cycle_basis(cx, 0, Q)
            for rep in basis.homology:
                assert sorted(rep.values()) == [-1, 1]
                assert rep[(0,)] == -1  # anchored at the largest vertex

    def test_cone_is_acyclic(self, example_semigroup):
        # hunt for a complex where one variable divides every fiber monomial
        sg = example_semigroup
        found = 0
        for m in sg.degrees_up_to(8):
            cx = build_nabla(sg, m, DEGREVLEX)
            n = len(cx.vertices)
            if n >= 3 and any(len(d) == n for d in cx.cover):
                found += 1
                for j in range(cx.dimension + 1):
                    assert betti_reduced(cx, j, Q) == 0
        assert found > 0

    def test_boundary_preimages_reproduce_cycles(self, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        assert len(basis.pivots) == len(basis.boundary)
        for k, cycle in zip(basis.pivots, basis.boundary):
            assert chain_boundary({basis.up_faces[k]: 1}) == cycle

    def test_count_matches_rank_arithmetic(self, example_semigroup):
        cx = build_nabla(example_semigroup, (60, 10), DEGREVLEX)
        for j in range(3):
            basis = fixed_cycle_basis(cx, j, Q)
            d_j = len(cx.faces_of_dim(j))
            rank_down = len(reduce_boundary(cx, j, Q))
            rank_up = len(reduce_boundary(cx, j + 1, Q))
            assert len(basis.boundary) + len(basis.homology) == d_j - rank_down
            assert len(basis.boundary) == rank_up
            assert len(basis.homology) == betti_reduced(cx, j, Q)

    def test_scaled_solve_is_rejected(self, example_semigroup, monkeypatch):
        # the representatives are solved for only where there is homology:
        # the two vertices of the fiber of (21,3) in dimension 0; a solve
        # that doubles its answer gives 1 at the free face plus twice the
        # rest, which is no cycle, and the basis check refuses it
        original = GaussDecomposition.solve

        def doubled(self, vec):
            x = original(self, vec)
            return {k: 2 * v for k, v in x.items()}

        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        assert len(fixed_cycle_basis(cx, 0, Q).homology) == 1
        monkeypatch.setattr(GaussDecomposition, "solve", doubled)
        with pytest.raises(ArithmeticError, match="homology representative is not a cycle"):
            fixed_cycle_basis(cx, 0, Q)


class TestBoundaryReductionMemo:
    def test_betti_and_basis_share_one_reduction_per_dimension(self, example_semigroup,
                                                                monkeypatch):
        from toricsyz import homology

        calls = []
        original = homology.gauss_reduce

        def reduce(rows, ncols, field):
            calls.append((field.name, len(rows), ncols))
            return original(rows, ncols, field)

        monkeypatch.setattr(homology, "gauss_reduce", reduce)
        # two vertices and no edge: d_0 and d_1 take rank and pivots from
        # the spanning forest, so nothing is eliminated
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        assert betti_reduced(cx, 0, Q) == 1
        assert calls == []
        assert homology.reduce_boundary(cx, 0, Q) == [0]
        assert homology.reduce_boundary(cx, 1, Q) == []
        basis = fixed_cycle_basis(cx, 0, Q)
        assert len(basis.homology) == 1
        # d_0 (1 x 2) only for its kernel, then the selection on the
        # projected boundaries and units (1 x 1); d_0 and d_1 come from the
        # memo
        assert calls == [("rational", 1, 2), ("rational", 1, 1)]
        # the selection is also the solver
        assert basis.express({(0,): 1, (1,): -1}) == ([-1], [])
        assert basis.express({(0,): 2, (1,): -2}) == ([-2], [])
        assert calls == [("rational", 1, 2), ("rational", 1, 1)]
        del calls[:]
        f5 = PrimeField(5)
        assert betti_reduced(cx, 0, f5) == 1
        assert calls == []
        assert sorted(cx._reductions) == [(0, "prime:5"), (0, "rational"),
                                          (1, "prime:5"), (1, "rational")]


class TestBetti:
    def test_known_betti_values(self, engine):
        assert engine.multigraded_betti((21, 3), 0) == 1
        assert engine.multigraded_betti((52, 8), 0) == 0
        assert engine.multigraded_betti((12, 2), 0) == 1

    def test_nabla_delta_agree_at_12_2(self, example_semigroup):
        nabla = build_nabla(example_semigroup, (12, 2), DEGREVLEX)
        delta = build_delta(example_semigroup, (12, 2))
        for j in range(4):
            assert betti_reduced(nabla, j, Q) == betti_reduced(delta, j, Q)

    def test_empty_and_irrelevant_corner_cases(self, example_semigroup):
        void = build_nabla(example_semigroup, (1, 0), DEGREVLEX)
        assert betti_reduced(void, 0, Q) == 0
        assert betti_reduced(void, -1, Q) == 0
        point = build_nabla(example_semigroup, (0, 0), DEGREVLEX)
        assert betti_reduced(point, 0, Q) == 0
        assert betti_reduced(point, -1, Q) == 1
        delta0 = build_delta(example_semigroup, (0, 0))
        assert betti_reduced(delta0, -1, Q) == 1

    def test_euler_characteristic(self, example_semigroup):
        for m in [(52, 8), (36, 6), (24, 4), (30, 5)]:
            cx = build_nabla(example_semigroup, m, DEGREVLEX)
            chi_faces = sum(
                (-1) ** j * len(cx.faces_of_dim(j))
                for j in range(cx.dimension + 1)
            )
            chi_homology = sum(
                (-1) ** j * betti_reduced(cx, j, Q)
                for j in range(cx.dimension + 1)
            )
            assert chi_faces - 1 == chi_homology


class TestExpress:
    def test_homology_vector_has_unit_coordinates(self, example_semigroup):
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        lam, mu = basis.express(basis.homology[0])
        assert lam == [1]
        assert mu == []

    def test_boundary_has_zero_homology_part(self, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        edge = cx.faces_of_dim(1)[0]
        cycle = chain_boundary({edge: 1})
        lam, mu = basis.express(cycle)
        assert not any(lam)
        rebuilt = {}
        for coeff, bcycle in zip(mu, basis.boundary):
            for face, v in bcycle.items():
                rebuilt[face] = rebuilt.get(face, 0) + coeff * v
        assert {f: v for f, v in rebuilt.items() if v} == cycle

    def test_connected_pair_chain_at_36_6(self, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        a = cx.vertex_index[(0, 3, 3, 0)]
        b = cx.vertex_index[(3, 0, 0, 3)]
        z = {(a,): 1, (b,): -1}
        lam, mu = basis.express(z)
        assert not any(lam)  # connected: the class vanishes
        rebuilt = {}
        for coeff, bcycle in zip(mu, basis.boundary):
            for face, v in bcycle.items():
                rebuilt[face] = rebuilt.get(face, 0) + coeff * v
        assert {f: v for f, v in rebuilt.items() if v} == z

    def test_not_a_cycle(self, example_semigroup):
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        with pytest.raises(NotACycle):
            basis.express({(0,): 1})


class TestDeterminismAndCache:
    def test_basis_serialization_is_reproducible(self, example_semigroup):
        def payload():
            cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
            basis = fixed_cycle_basis(cx, 0, Q)
            return json.dumps(basis.to_dict(), sort_keys=True)

        assert payload() == payload()

    def test_disk_cache_roundtrip(self, tmp_path, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        key = basis_cache_key(example_semigroup, (36, 6), 0, "degrevlex", Q.name)
        store_cached_basis(str(tmp_path), key, basis)
        loaded = load_cached_basis(str(tmp_path), key, Q, cx, 0)
        assert loaded is not None
        assert json.dumps(loaded.to_dict(), sort_keys=True) == \
            json.dumps(basis.to_dict(), sort_keys=True)

    def test_cache_miss_returns_none(self, tmp_path, example_semigroup):
        cx = build_nabla(example_semigroup, (36, 6), DEGREVLEX)
        assert load_cached_basis(str(tmp_path), "deadbeef", Q, cx, 0) is None

    @pytest.mark.parametrize("corrupt", [
        lambda text, data, old: text[: len(text) // 2],
        lambda text, data, old: b"\xff\xfe",
        lambda text, data, old: json.dumps({k: v for k, v in data.items() if k != "homology"}),
        lambda text, data, old: json.dumps([data]),
        lambda text, data, old: json.dumps({"homology": [[[old["faces"][0], "1/0"]]]}),
        lambda text, data, old: json.dumps({"homology": [[[old["faces"][0], "one"]]]}),
        lambda text, data, old: json.dumps({"homology": [[[old["faces"][0], float("inf")]]]}),
        lambda text, data, old: '{"homology":' + "[" * 100000 + "]" * 100000 + "}",
        lambda text, data, old: json.dumps({"homology": [[[old["faces"][0], "1e10000000"]]]}),
        lambda text, data, old: json.dumps({**data, "note": ""}),
        lambda text, data, old: json.dumps({"homology": [[[old["faces"][0], "1/1"]]]}),
        # entries in the earlier pivot format, corrupted in each field that
        # format stored besides the homology; the loader reads none of
        # those fields, so every entry that has one is a miss
        lambda text, data, old: json.dumps({**old, "faces": old["faces"][1:]}),
        lambda text, data, old: json.dumps({**old, "up_faces": old["up_faces"][::-1]}),
        lambda text, data, old: json.dumps({**old, "dim": 0}),
        lambda text, data, old: json.dumps({**old, "degree": [0, 0]}),
        lambda text, data, old: json.dumps({
            **old, "pivots": old["pivots"][:-1] + [len(old["up_faces"])]}),
        lambda text, data, old: json.dumps({**old, "pivots": [-1] + old["pivots"][1:]}),
        lambda text, data, old: json.dumps({**old, "pivots": ["0"] + old["pivots"][1:]}),
        lambda text, data, old: json.dumps({**old, "pivots": old["pivots"][::-1]}),
        lambda text, data, old: json.dumps({**old, "pivots": old["pivots"][:-1]}),
        lambda text, data, old: json.dumps({**old, "rank_up": old["rank_up"] + 1}),
        lambda text, data, old: json.dumps({**old, "rank_down": old["rank_down"] - 1}),
        lambda text, data, old: json.dumps({
            **old, "pivots": old["pivots"] + old["pivots"][-1:],
            "rank_up": old["rank_up"] + 1, "rank_down": old["rank_down"] - 1}),
        # pivots ascending, but the last one swapped for the first free
        # up-face, which depends on the pivots below it
        lambda text, data, old: json.dumps({
            **old, "pivots": sorted(old["pivots"][:-1] + [min(
                set(range(len(old["up_faces"]))) - set(old["pivots"]))])}),
    ], ids=["truncated", "not-utf8", "missing-key", "not-an-object", "zero-denominator",
            "bad-scalar", "infinite-scalar", "deeply-nested", "exponent-scalar", "extra-key",
            "homology-not-a-cycle",
            "faces", "up-faces", "dim", "degree",
            "preimage-index-too-large", "preimage-index-negative", "pivot-not-an-int",
            "pivots-descending", "pivot-dropped", "rank-up", "rank-down", "pivot-repeated",
            "dependent-chains"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, example_semigroup, corrupt):
        cx = build_nabla(example_semigroup, (45, 7), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 1, Q)
        key = basis_cache_key(example_semigroup, (45, 7), 1, "degrevlex", Q.name)
        store_cached_basis(str(tmp_path), key, basis)
        path = tmp_path / f"basis-{key}.json"
        assert load_cached_basis(str(tmp_path), key, Q, cx, 1) is not None
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        old = {"degree": [45, 7], "dim": 1, "order": "degrevlex", "field": Q.name,
               "faces": [list(f) for f in basis.faces],
               "up_faces": [list(f) for f in basis.up_faces],
               "rank_down": len(reduce_boundary(cx, 1, Q)), "rank_up": len(basis.pivots),
               "pivots": basis.pivots, **data}
        bad = corrupt(text, data, old)
        path.write_bytes(bad if isinstance(bad, bytes) else bad.encode("utf-8"))
        assert load_cached_basis(str(tmp_path), key, Q, cx, 1) is None
        # the next store replaces the entry
        store_cached_basis(str(tmp_path), key, basis)
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("spell, hit", [(lambda c: c.replace("/1", "e0"), False),
                                            (lambda c: c.removesuffix("/1"), True)],
                             ids=["exponent", "integer"])
    def test_only_digit_scalars_read_back(self, tmp_path, example_semigroup, spell, hit):
        # the representative at (21, 3) with its coefficients -1/1 and 1/1
        # respelled: "-1e0" names the same rational as "-1", but only
        # [-]digits[/digits] is scalar text
        cx = build_nabla(example_semigroup, (21, 3), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 0, Q)
        key = basis_cache_key(example_semigroup, (21, 3), 0, "degrevlex", Q.name)
        store_cached_basis(str(tmp_path), key, basis)
        path = tmp_path / f"basis-{key}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({"homology": [[[face, spell(c)] for face, c in chain]
                                                 for chain in data["homology"]]}),
                        encoding="utf-8")
        assert (load_cached_basis(str(tmp_path), key, Q, cx, 0) is not None) == hit

    def test_concurrent_stores_of_one_key(self, tmp_path, example_semigroup):
        # the barrier lines the writers up, so they replace the entry at
        # about the same time; none may fail or leave a temp file behind
        cx = build_nabla(example_semigroup, (60, 10), DEGREVLEX)
        basis = fixed_cycle_basis(cx, 1, Q)
        key = basis_cache_key(example_semigroup, (60, 10), 1, "degrevlex", Q.name)
        expected = json.dumps(basis.to_dict(), sort_keys=True, separators=(",", ":"))
        errors = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for attempt in range(10):
                cache = tmp_path / str(attempt)
                barrier = threading.Barrier(6)

                def store(cache=cache, barrier=barrier):
                    try:
                        barrier.wait(timeout=10)
                        store_cached_basis(str(cache), key, basis)
                    except Exception as exc:  # collected and asserted on below
                        errors.append(exc)

                threads = [threading.Thread(target=store) for _ in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                assert not any(th.is_alive() for th in threads)
                assert os.listdir(cache) == [f"basis-{key}.json"]
                assert (cache / f"basis-{key}.json").read_text(encoding="utf-8") == expected
        finally:
            sys.setswitchinterval(switch)
        assert errors == []


class TestFieldModes:
    def test_field_parsing(self):
        assert isinstance(get_field("rational"), RationalField)
        assert get_field(32003).modulus == 32003
        assert get_field("prime:2").modulus == 2
        with pytest.raises(ValueError):
            get_field("prime:6")

    @pytest.mark.parametrize("spec", ["six", "prime:", "", 2.5, [5]])
    def test_unparsable_spec_raises_field_error_naming_it(self, spec):
        with pytest.raises(FieldError, match="unrecognized field spec") as info:
            get_field(spec)
        assert repr(spec) in str(info.value)

    def test_miller_rabin_primality(self):
        assert PrimeField(2 ** 61 - 1).modulus == 2 ** 61 - 1
        assert PrimeField(2).one == 1
        assert PrimeField(41).modulus == 41
        # 561 = 3 * 11 * 17 is a Carmichael number; 1373653 = 829 * 1657 is
        # a strong pseudoprime to the bases 2 and 3
        for n in (561, 1373653, 0, 1, 4, 9, 15, 91, 41 * 43, -7):
            with pytest.raises(FieldError, match="not prime"):
                PrimeField(n)

    def test_modulus_beyond_certified_range_rejected(self):
        with pytest.raises(FieldError, match="too large"):
            PrimeField(2 ** 89 - 1)  # prime, but above the deterministic range

    def test_prime_field_arithmetic(self):
        f = PrimeField(7)
        assert f.div(3, 5) == 3 * 3 % 7  # 5^-1 = 3 mod 7
        assert f.neg(2) == 5
        assert f.from_str(f.to_str(6)) == 6

    def test_scalars_read_back(self):
        assert Q.from_str("-3/6") == Fraction(-1, 2)
        assert type(Q.from_str("4/2")) is int and Q.from_str("4/2") == 2
        assert Q.from_str("007") == 7
        assert PrimeField(7).from_str("-1") == 6
        with pytest.raises(ZeroDivisionError):
            Q.from_str("1/0")

    @pytest.mark.parametrize("text", [
        "1e5", "1E5", "1.5", ".5", " 1", "1 ", "1\n", "1_000", "+1", "", "-", "1/", "/2",
        "1/-2", "1/2/3", "0x10", "inf", "nan", "\u0661", "\uff11", 5, 1.0, None, ["1"]])
    def test_malformed_scalar_raises_value_error(self, text):
        for field in (Q, PrimeField(7)):
            with pytest.raises(ValueError):
                field.from_str(text)

    def test_prime_field_reads_no_fraction(self):
        with pytest.raises(ValueError):
            PrimeField(7).from_str("1/2")

    def test_betti_ranks_across_fields(self, example_semigroup):
        # characteristic comparisons are diagnostics: report, do not fail
        fields = [Q, PrimeField(2), PrimeField(32003)]
        mismatches = []
        for m in [(52, 8), (36, 6), (24, 4), (30, 5), (21, 3)]:
            cx = build_nabla(example_semigroup, m, DEGREVLEX)
            for j in range(3):
                ranks = [betti_reduced(cx, j, f) for f in fields]
                if len(set(ranks)) != 1:
                    mismatches.append((m, j, ranks))
        if mismatches:
            warnings.warn(f"field-dependent Betti ranks (torsion?): {mismatches}")

    def test_gauss_over_prime_field(self, example_semigroup):
        f = PrimeField(2)
        cx = build_nabla(example_semigroup, (52, 8), DEGREVLEX)
        mat = boundary_matrix(cx, 1)
        n = len(mat.col_faces)
        g = gauss_reduce(mat.data, n, f)
        assert g.rank == len(cx.vertices) - 1  # connected
        check_decomposition(g, mat.data, n, f)
        ref = dense_gauss_reduce(to_dense(mat.data, n), n, f)
        assert kernel_by_solve(g, mat.data, n, f) == \
            [dict(*to_pairs([col])) for col in ref.kernel_columns()]


class TestBasisVectorsAreCycles:
    def test_all_basis_vectors_have_zero_boundary(self, example_semigroup):
        for m in [(36, 6), (45, 7), (30, 5)]:
            cx = build_nabla(example_semigroup, m, DEGREVLEX)
            for j in range(2):
                basis = fixed_cycle_basis(cx, j, Q)
                for cycle in basis.boundary:
                    assert chain_boundary(cycle) == {}
                for rep in basis.homology:
                    assert chain_boundary(rep) == {}
