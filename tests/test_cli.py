import importlib.util
import json
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import test_golden

from toricsyz import (DEGREVLEX, ChainBasis, Config, ResolutionEngine, Semigroup, build_nabla,
                      cli, homology)
from toricsyz.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

EXAMPLE = {"dim": 2, "generators": [[4, 1], [5, 1], [7, 1], [8, 1]]}


@pytest.fixture()
def semigroup_file(tmp_path):
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps(EXAMPLE), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_accepts_example(self, capsys, semigroup_file):
        code, out = run(capsys, "validate", semigroup_file)
        assert code == 0
        assert "combinatorially finite" in out
        assert "w = (0, 1)" in out

    def test_rejects_bad_semigroup(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1, "generators": [[1], [-1]]}', encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nonsense", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: invalid JSON in ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_rejects_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("text, entry", [
        ('{"dim": 2, "generators": [[1.5, 1], [2, 1]]}', "generators[0][0] is 1.5"),
        ('{"dim": 2, "generators": [[1, 1], [true, 1]]}', "generators[1][0] is true"),
        ('{"dim": 2, "generators": [[1, "3"], [2, 1]]}', 'generators[0][1] is "3"'),
        ('{"dim": 2, "generators": [[1, 1], [2, null]]}', "generators[1][1] is null"),
        ('{"dim": 2, "generators": [[1, 1], null]}', "generators[1] is null"),
        ('{"dim": 2, "generators": 5}', "generators is 5"),
        ('{"dim": "2", "generators": [[1, 1], [2, 1]]}', 'dim is "2"'),
        ('{"dim": true, "generators": [[1], [2]]}', "dim is true"),
    ], ids=["float", "bool", "string", "null-entry", "null-column", "scalar-generators",
            "string-dim", "bool-dim"])
    def test_non_integer_input_exits_two(self, capsys, tmp_path, text, entry):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and entry in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_two(capsys, semigroup_file, tmp_path, where):
    target = tmp_path / "absent" / "x.json" if where == "missing-directory" else tmp_path
    code = main(["validate", semigroup_file, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "combinatorially finite, w = (0, 1)\n"
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


class TestFiber:
    def test_degree_21_3(self, capsys, semigroup_file):
        code, out = run(capsys, "fiber", semigroup_file, "-m", "21,3")
        assert code == 0
        assert "x3^3" in out and "x2*x4^2" in out

    def test_json_format(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "fiber", semigroup_file,
                        "-m", "21,3")
        assert code == 0
        data = json.loads(out)
        assert data["config"] == {"order": "degrevlex", "field": "rational"}
        assert sorted(map(tuple, data["monomials"])) == [
            (0, 0, 3, 0), (0, 1, 0, 2),
        ]

    def test_bad_degree_length(self, semigroup_file):
        assert main(["fiber", semigroup_file, "-m", "1,2,3"]) == 2

    def test_negative_degree_attached_to_its_flag(self, capsys, tmp_path):
        # after a space, "-1,2" would be read as an option; "-m=-1,2" is not
        path = tmp_path / "mixed.json"
        path.write_text('{"dim": 2, "generators": [[-1, 1], [1, 0], [0, 1]]}', encoding="utf-8")
        code, out = run(capsys, "fiber", str(path), "-m=-1,2")
        assert code == 0
        assert out.startswith("fiber of (-1, 2): 2 monomial(s)\n")


class TestComplexExports:
    def test_nabla_export(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "nabla", semigroup_file,
                        "-m", "24,4")
        data = json.loads(out)
        assert code == 0
        assert data["degree"] == [24, 4]
        assert len(data["vertices"]) == 3
        assert all(isinstance(f, list) for f in data["facets"])

    def test_delta_export(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "delta", semigroup_file,
                        "-m", "12,2")
        data = json.loads(out)
        assert code == 0
        assert [0, 3] in data["facets"] and [1, 2] in data["facets"]


class TestBetti:
    @pytest.mark.parametrize("degree,expected", [
        ("21,3", 1), ("52,8", 0), ("12,2", 1),
    ])
    def test_rank_values(self, capsys, semigroup_file, degree, expected):
        code, out = run(capsys, "--format", "json", "betti", semigroup_file,
                        "-m", degree, "--jmax", "1", "--delta-crosscheck")
        data = json.loads(out)
        assert code == 0
        assert data["ranks"]["0"] == expected
        assert data["crosscheck_ok"]


class TestMinimalize:
    def test_binomial_52_8(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "minimalize", semigroup_file,
                        "--lead", "0,2,6,0", "--trail", "3,0,0,5")
        assert code == 0
        data = json.loads(out)
        degrees = sorted(tuple(e["generator"]["degree"]) for e in data["entries"])
        assert degrees == [(12, 2), (21, 3)]

    def test_rejects_inhomogeneous(self, semigroup_file):
        assert main(["minimalize", semigroup_file,
                     "--lead", "1,0,0,0", "--trail", "0,1,0,0"]) == 2

    def test_rejects_negative_exponents(self, semigroup_file):
        assert main(["minimalize", semigroup_file,
                     "--lead=-1,0,0,1", "--trail", "0,1,0,0"]) == 2


class TestHarvestAndVerify:
    def test_roundtrip(self, capsys, semigroup_file, tmp_path):
        frag_path = str(tmp_path / "fragment.json")
        code, out = run(capsys, "--format", "json", "harvest", semigroup_file,
                        "-m", "60,10", "--max-level", "2",
                        "--output", frag_path)
        assert code == 0
        data = json.loads(out)
        assert data["ranks"] == {"0": 4, "1": 4, "2": 1}
        assert data["verification"]["passed"]

        code2, out2 = run(capsys, "verify", semigroup_file, frag_path)
        assert code2 == 0
        assert "passed" in out2

    def test_verify_detects_corruption(self, capsys, semigroup_file, tmp_path):
        frag_path = tmp_path / "fragment.json"
        run(capsys, "--format", "json", "harvest", semigroup_file,
            "-m", "60,10", "--max-level", "1", "--output", str(frag_path))
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        for gen in data["generators"]:
            if gen["level"] == 1:
                gen["value"][0]["coefficient"][0]["coeff"] = "7/1"
                break
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "verify", semigroup_file, str(frag_path))
        assert code == 1
        assert "FAILED" in out

    def test_verify_rejects_a_stored_zero_coefficient(self, capsys, tmp_path):
        # the example's syzygy coefficients each have a one-monomial fiber,
        # so the zero term goes on a level-1 value of <4,5,6,7>: 0 * x4 on
        # the generator of degree 10 is homogeneous at degree 17
        sg_path = tmp_path / "s4567.json"
        sg_path.write_text('{"dim": 1, "generators": [[4], [5], [6], [7]]}',
                           encoding="utf-8")
        frag_path = tmp_path / "fragment.json"
        assert run(capsys, "--format", "json", "harvest", str(sg_path), "-m", "17",
                   "--max-level", "1", "--output", str(frag_path))[0] == 0
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        gen = next(g for g in data["generators"] if g["id"] == [1, [17], 0])
        assert all(v["generator"] != [0, [10], 0] for v in gen["value"])
        gen["value"].append({"generator": [0, [10], 0],
                             "coefficient": [{"coeff": "0/1", "monomial": [0, 0, 0, 1]}]})
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "verify", str(sg_path), str(frag_path))
        assert code == 1
        assert out == ("verification: FAILED\n"
                       "  violation: (1, (17,), 0): zero coefficient on (0, (10,), 0)\n")

    def test_verify_rejects_a_zero_witness_coefficient(self, capsys, tmp_path):
        # a zero term keeps the witness a cycle with 1 at its last face, and
        # its "0/1" would be printed; no fixed representative holds a zero
        sg_path = tmp_path / "s4567.json"
        sg_path.write_text('{"dim": 1, "generators": [[4], [5], [6], [7]]}',
                           encoding="utf-8")
        frag_path = tmp_path / "fragment.json"
        assert run(capsys, "--format", "json", "harvest", str(sg_path), "-m", "17",
                   "--max-level", "1", "--output", str(frag_path))[0] == 0
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        gen = next(g for g in data["generators"] if g["id"] == [1, [17], 0])
        assert [[0, 2], "1/1"] not in gen["witness"]
        gen["witness"].append([[0, 2], "0/1"])
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "verify", str(sg_path), str(frag_path))
        assert code == 1
        assert out == ("verification: FAILED\n"
                       "  violation: (1, (17,), 0): witness has a zero coefficient\n")

    def test_verify_rejects_an_exponent_scalar_at_once(self, capsys, semigroup_file,
                                                       tmp_path):
        # read as a Fraction, "1e10000000" is a ten-million-digit integer
        # that takes seconds to build; scalars are [-]digits[/digits] only
        frag_path = tmp_path / "fragment.json"
        assert run(capsys, "--format", "json", "harvest", semigroup_file, "-m", "21,3",
                   "--max-level", "1", "--output", str(frag_path))[0] == 0
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        data["generators"][0]["witness"][0][1] = "1e10000000"
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        start = time.perf_counter()
        code = main(["verify", semigroup_file, str(frag_path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: malformed fragment: ")
        assert captured.out == ""
        assert elapsed < 1.0

    @pytest.mark.parametrize("duplicate", [
        lambda value: [{"generator": value[0]["generator"],
                        "coefficient": [{"coeff": "7/1", "monomial": [9, 9, 9, 9]}]},
                       *value],
        lambda value: [{"generator": value[0]["generator"],
                        "coefficient": [{"coeff": "5/1",
                                         "monomial": value[0]["coefficient"][0]["monomial"]},
                                        *value[0]["coefficient"]]},
                       *value[1:]],
    ], ids=["generator-block", "monomial"])
    def test_verify_rejects_a_bogus_first_copy(self, capsys, semigroup_file, tmp_path,
                                               duplicate):
        # reading kept the last copy only, so the bogus first one passed
        frag_path = tmp_path / "fragment.json"
        assert run(capsys, "--format", "json", "harvest", semigroup_file, "-m", "60,10",
                   "--max-level", "2", "--output", str(frag_path))[0] == 0
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        gen = next(g for g in data["generators"] if g["level"] == 1)
        gen["value"] = duplicate(gen["value"])
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["verify", semigroup_file, str(frag_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: malformed fragment: ")
        assert "listed twice" in captured.err and captured.out == ""

    @pytest.mark.parametrize("corrupt, message", [
        (lambda w: [[[0, 1], "7/1"]], "witness is not a cycle"),
        (lambda w: [], "witness is empty"),
        (lambda w: w + [[[0, 999], "1/1"]], "witness has a face that is not a 1-face"),
        (lambda w: [[face, str(2 * Fraction(c))] for face, c in w],
         "witness coefficient at its last face is not 1"),
    ], ids=["not-a-cycle", "empty", "off-the-faces", "doubled"])
    def test_verify_reads_witnesses(self, capsys, semigroup_file, tmp_path,
                                    corrupt, message):
        frag_path = tmp_path / "fragment.json"
        run(capsys, "--format", "json", "harvest", semigroup_file,
            "-m", "60,10", "--max-level", "1", "--output", str(frag_path))
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        level_one = [gen for gen in data["generators"] if gen["level"] == 1]
        assert level_one
        for gen in level_one:
            gen["witness"] = corrupt(gen["witness"])
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "verify", semigroup_file, str(frag_path))
        assert code == 1
        assert out.startswith("verification: FAILED\n")
        assert out.count(message) == len(level_one), out

    @pytest.mark.parametrize("new_id, code, message", [
        ([2, [30, 5], 7], 1, "(2, (30, 5), 7): index 7 is out of range for homology rank 1"),
        ([2, [61, 10], 7], 2, "does not have the entry's level 2 and degree [30, 5]"),
        ([5, [30, 5], 0], 2, "does not have the entry's level 2 and degree [30, 5]"),
    ], ids=["index", "degree-and-index", "level"])
    def test_verify_ties_ids_to_their_entries(self, capsys, semigroup_file, tmp_path,
                                              new_id, code, message):
        frag_path = tmp_path / "fragment.json"
        assert run(capsys, "--format", "json", "harvest", semigroup_file, "-m", "60,10",
                   "--max-level", "2", "--output", str(frag_path))[0] == 0
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        (gen,) = [g for g in data["generators"] if g["level"] == 2]
        assert gen["id"] == [2, [30, 5], 0]
        gen["id"] = new_id
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", semigroup_file, str(frag_path)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error: malformed fragment: generator id ")
            assert message in captured.err and captured.out == ""
        else:
            assert captured.out == f"verification: FAILED\n  violation: {message}\n"

    @pytest.mark.parametrize("edit", [
        lambda value: {"lead": value["lead"], "trail": value["lead"]},
        lambda value: {"lead": value["trail"], "trail": value["lead"]},
    ], ids=["zero-binomial", "swapped"])
    def test_verify_ties_binomials_to_their_witness(self, capsys, semigroup_file,
                                                    tmp_path, edit):
        # psi0 maps the witness v1 - v0 to its two fiber monomials, and the
        # binomial is those two, the larger in the term order first
        frag_path = tmp_path / "fragment.json"
        assert run(capsys, "--format", "json", "harvest", semigroup_file, "-m", "21,3",
                   "--max-level", "0", "--output", str(frag_path))[0] == 0
        data = json.loads(frag_path.read_text(encoding="utf-8"))
        (gen,) = data["generators"]
        gen["value"] = edit(gen["value"])
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "verify", semigroup_file, str(frag_path))
        assert code == 1
        assert out == ("verification: FAILED\n  violation: (0, (21, 3), 0): "
                       "binomial is not the image of its witness\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda value: {**value, "lead": [value["lead"][0] + 1, *value["lead"][1:]]},
         "binomial is not homogeneous"),
        (lambda value: {**value, "trail": [0, 0, 0, 0]}, "constant term in binomial"),
    ], ids=["raised-lead", "zero-trail"])
    def test_verify_checks_the_binomial_itself(self, capsys, tmp_path, edit, message):
        with open(Path(test_golden.GOLDEN) / "harvest_60_10_l2_rational.json",
                  encoding="utf-8") as fh:
            data = json.load(fh)
        gen = next(g for g in data["generators"] if g["id"] == [0, [12, 2], 0])
        gen["value"] = edit(gen["value"])
        frag_path = tmp_path / "fragment.json"
        frag_path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "verify", test_golden.EXAMPLE, str(frag_path))
        assert code == 1
        assert f"  violation: (0, (12, 2), 0): {message}\n" in out


class TestScan:
    def test_weight_zero(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "scan", semigroup_file,
                        "--w-bound", "0", "--jmax", "1")
        data = json.loads(out)
        assert code == 0
        assert data["rows"] == [
            {"degree": [0, 0], "ranks": [0, 0], "cm_obstruction": False}
        ]

    def test_weight_one_all_trivial(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "scan", semigroup_file,
                        "--w-bound", "1", "--jmax", "3")
        data = json.loads(out)
        assert code == 0
        assert len(data["rows"]) == 5
        assert all(not any(row["ranks"]) for row in data["rows"])

    def test_crosscheck_clean(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "scan", semigroup_file,
                        "--w-bound", "4", "--jmax", "3", "--delta-crosscheck")
        data = json.loads(out)
        assert code == 0
        assert data["crosscheck_disagreements"] == []
        nonzero = {
            tuple(r["degree"]) for r in data["rows"] if r["ranks"][0]
        }
        assert nonzero == {(12, 2), (15, 3), (18, 3), (21, 3)}


class TestParserReuse:
    """main() reuses one parser per process; no call may leak into the next."""

    def test_options_do_not_carry_over(self, capsys, semigroup_file, tmp_path):
        output = tmp_path / "out.json"
        code, out = run(capsys, "--field", "32003", "--format", "json",
                        "--output", str(output), "validate", semigroup_file)
        assert code == 0 and json.loads(out)["config"]["field"] == "prime:32003"
        first = out
        code, out = run(capsys, "validate", semigroup_file)
        assert code == 0 and out == "combinatorially finite, w = (0, 1)\n"
        code, out = run(capsys, "validate", semigroup_file, "--format", "json")
        assert code == 0 and json.loads(out)["config"] == {
            "order": "degrevlex", "field": "rational"}
        assert output.read_text(encoding="utf-8") == first

    def test_parse_error_then_good_call(self, capsys, semigroup_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate"])
        assert exit_info.value.code == 2
        with pytest.raises(SystemExit) as exit_info:
            main(["--order", "revlex", "validate", semigroup_file])
        assert exit_info.value.code == 2
        capsys.readouterr()
        code, out = run(capsys, "--order", "lex", "validate", semigroup_file)
        assert code == 0 and out == "combinatorially finite, w = (0, 1)\n"

    def test_bench_and_golden_command_lines_never_build_the_parser(
            self, capsys, monkeypatch, tmp_path):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        argvs = [command["argv"] for name in workloads.WORKLOADS
                 for command in workloads.write_inputs(name, 1, str(tmp_path))]
        argvs += [*test_golden.OUTPUTS.values(), *test_golden.TEXT_COMMANDS,
                  test_golden.CACHE_ARGV]
        # main() parses and writes as usual; only the engine's work is left out
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_engine", lambda args: SimpleNamespace(config=Config()))
        monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(
            cli._HANDLERS, lambda args, engine: (0, [], {"kind": args.command})))
        parser = cli.build_parser()
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        for argv in argvs:
            assert vars(cli._plain_parse(argv)) == vars(parser.parse_args(argv)), argv
            assert main(argv) == 0, argv
        assert builds == []
        capsys.readouterr()


class TestDeterminism:
    def test_shared_cache_byte_identical_outputs(self, capsys, semigroup_file,
                                                 tmp_path):
        cache = str(tmp_path / "cache")
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        args = ["--format", "json", "--cache", cache, "harvest", semigroup_file,
                "-m", "60,10", "--max-level", "2"]
        assert main(args + ["--output", out_a]) == 0
        assert main(args + ["--output", out_b]) == 0
        capsys.readouterr()
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_prime_field_flag(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "--field", "32003",
                        "betti", semigroup_file, "-m", "21,3", "--jmax", "0")
        data = json.loads(out)
        assert code == 0
        assert data["config"]["field"] == "prime:32003"
        assert data["ranks"]["0"] == 1

    def test_bad_field_rejected(self, semigroup_file):
        assert main(["--field", "six", "betti", semigroup_file, "-m", "21,3"]) == 2

    @pytest.mark.parametrize("spec", ["six", "prime:", "prime:x7", "3.5"])
    def test_bad_field_error_names_the_spec(self, capsys, semigroup_file, spec):
        assert main(["--field", spec, "betti", semigroup_file, "-m", "21,3"]) == 2
        assert capsys.readouterr().err == f"error: unrecognized field spec {spec!r}\n"

    @pytest.mark.parametrize("spec, name", [
        ("rational", "rational"), ("32003", "prime:32003"),
        ("prime:32003", "prime:32003"), ("prime:0032003", "prime:32003"),
    ])
    def test_config_header_names_the_field(self, capsys, semigroup_file, spec, name):
        code, out = run(capsys, "--format", "json", "--field", spec,
                        "fiber", semigroup_file, "-m", "21,3")
        assert code == 0
        assert json.loads(out)["config"] == {"order": "degrevlex", "field": name}


def _cache_entry(cache, semigroup, m, j):
    """The path of the rational degrevlex basis entry at (m, j) in cache."""
    key = homology.basis_cache_key(semigroup, m, j, "degrevlex", "rational")
    return cache / f"basis-{key}.json"


class TestCorruptCacheEntry:
    def test_dependent_homology_chain_is_recomputed(self, capsys, semigroup_file,
                                                    tmp_path):
        cache = tmp_path / "cache"
        argv = ["harvest", semigroup_file, "-m", "21,3", "--max-level", "1",
                "--cache", str(cache)]
        code, out = run(capsys, *argv)
        assert code == 0
        path = _cache_entry(cache, Semigroup.from_file(semigroup_file), (21, 3), 0)
        original = path.read_bytes()
        data = json.loads(original)
        data["homology"].append(data["homology"][0])
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, *argv) == (0, out)
        assert path.read_bytes() == original

    def test_empty_homology_where_there_is_homology_is_recomputed(
            self, capsys, semigroup_file, tmp_path):
        # the solver's unit block spans every free face, so it selects as
        # many representatives as there is homology
        cache = tmp_path / "cache"
        argv = ["harvest", semigroup_file, "-m", "21,3", "--max-level", "1",
                "--cache", str(cache)]
        code, out = run(capsys, *argv)
        assert code == 0 and "level 0: 1 generator(s)" in out
        path = _cache_entry(cache, Semigroup.from_file(semigroup_file), (21, 3), 0)
        original = path.read_bytes()
        data = json.loads(original)
        assert data["homology"]
        data["homology"] = []
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, *argv) == (0, out)
        assert path.read_bytes() == original

    def test_representative_plus_a_boundary_is_recomputed(self, capsys, tmp_path):
        # h + d(first pivot up-face) is a cycle in the class of h with the
        # same last face and coefficient 1 there, and the chains stay
        # independent; only its second free face shows it is not the fixed
        # representative, whose one free face is its last face
        semigroup = tmp_path / "s234.json"
        semigroup.write_text('{"dim": 1, "generators": [[2], [3], [4]]}', encoding="utf-8")
        cache = tmp_path / "cache"
        argv = ["harvest", str(semigroup), "-m", "10", "--max-level", "1",
                "--format", "json", "--cache", str(cache)]
        code, out = run(capsys, *argv)
        assert code == 0
        sg = Semigroup.from_file(str(semigroup))
        path = _cache_entry(cache, sg, (10,), 1)
        original = path.read_bytes()
        data = json.loads(original)
        [chain] = data["homology"]
        field = homology.RationalField()
        basis = homology.fixed_cycle_basis(build_nabla(sg, (10,), DEGREVLEX), 1, field)
        h = {tuple(face): field.from_str(c) for face, c in chain}
        position = basis.face_index
        last = max(h, key=position.__getitem__)
        up_face = basis.up_faces[basis.pivots[0]]
        field.axpy(h, homology.chain_boundary({up_face: 1}, field), 1)
        assert max(h, key=position.__getitem__) == last and h[last] == 1
        data["homology"] = [[[list(face), field.to_str(c)] for face, c in sorted(h.items())]]
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, *argv) == (0, out)
        assert path.read_bytes() == original

    @pytest.mark.parametrize("edit", [
        lambda chain: chain.append([[0, 2], "0/1"]),
        lambda chain: chain.__setitem__(0, [[False, True], chain[0][1]]),
        lambda chain: chain.insert(0, [[0, 1], "7/1"]),
    ], ids=["zero-coefficient", "boolean-face", "face-listed-twice"])
    def test_crafted_representative_is_recomputed(self, capsys, tmp_path, edit):
        # <4,5,6,7> at 17 in dimension 1: an explicit zero term, the face
        # [0, 1] written [false, true], or [0, 1] listed twice keeps the
        # chain equal to the fixed representative as a dict, but would
        # change the printed witness or leave the entry off canonical form
        semigroup = tmp_path / "s4567.json"
        semigroup.write_text('{"dim": 1, "generators": [[4], [5], [6], [7]]}',
                             encoding="utf-8")
        cache = tmp_path / "cache"
        argv = ["harvest", str(semigroup), "-m", "17", "--max-level", "1",
                "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--cache", str(cache)) == (0, out)
        path = _cache_entry(cache, Semigroup.from_file(str(semigroup)), (17,), 1)
        original = path.read_bytes()
        data = json.loads(original)
        assert data["homology"][0][0][0] == [0, 1]
        edit(data["homology"][0])
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run(capsys, *argv, "--cache", str(cache)) == (0, out)
        assert path.read_bytes() == original


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["harvest", "-m", "60,10", "--max-level", "-1"], "--max-level"),
        (["betti", "-m", "21,3", "--jmax", "-1"], "--jmax"),
        (["scan", "--w-bound", "8", "--jmax", "-1"], "--jmax"),
    ], ids=["harvest-max-level", "betti-jmax", "scan-jmax"])
    def test_negative_value_exits_two_naming_the_flag(self, capsys, semigroup_file,
                                                      argv, flag):
        code = main([argv[0], semigroup_file, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    @pytest.mark.parametrize("argv", [
        ["harvest", "-m", "60,10", "--max-level", "0"],
        ["betti", "-m", "21,3", "--jmax", "0"],
        ["scan", "--w-bound", "8", "--jmax", "0"],
    ], ids=["harvest", "betti", "scan"])
    def test_zero_is_accepted(self, capsys, semigroup_file, argv):
        assert main([argv[0], semigroup_file, *argv[1:]]) == 0


def test_negative_weight_bound_scans_no_degree(capsys, semigroup_file):
    code, out = run(capsys, "--format", "json", "scan", semigroup_file,
                    "--w-bound", "-1")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_bad_weight_bound_exits_two(tmp_path):
    path = tmp_path / "sg.json"
    path.write_text(json.dumps(EXAMPLE), encoding="utf-8")
    assert main(["scan", str(path), "--w-bound", "not-a-number"]) == 2


class TestRanksWithoutBases:
    @pytest.mark.parametrize("argv", [
        ["scan", "--w-bound", "8", "--jmax", "2"],
        ["betti", "-m", "60,10", "--jmax", "2"],
    ])
    def test_rank_commands_leave_cache_empty(self, capsys, semigroup_file,
                                             tmp_path, argv):
        cache = tmp_path / "cache"
        cache.mkdir()
        code, _ = run(capsys, argv[0], semigroup_file, *argv[1:],
                      "--cache", str(cache))
        assert code == 0
        assert list(cache.iterdir()) == []


class TestHarvestStoresOnlyBasesWithHomology:
    def test_no_basis_file_where_the_degree_has_no_homology(self, capsys, semigroup_file,
                                                           tmp_path):
        # every reduced Betti number at (60, 10) is 0, so harvest builds no
        # basis there; the degrees the face walk visits still store theirs
        argv = ["--format", "json", "harvest", semigroup_file, "-m", "60,10",
                "--max-level", "3"]
        code, out = run(capsys, *argv)
        assert code == 0
        cache = tmp_path / "cache"
        assert run(capsys, *argv, "--cache", str(cache)) == (0, out)
        names = {p.name for p in cache.iterdir()}
        assert names
        engine = ResolutionEngine(Semigroup(EXAMPLE["dim"], EXAMPLE["generators"]))
        for j in range(4):
            key = homology.basis_cache_key(engine.semigroup, (60, 10), j,
                                           engine.order.kind, engine.field.name)
            assert f"basis-{key}.json" not in names


class TestCrosscheckDisagreement:
    @pytest.fixture()
    def wrong_nabla(self, monkeypatch):
        # the fiber-complex path reports one rank too many at j = 0
        original = ResolutionEngine.multigraded_betti

        def wrong(self, m, j):
            return original(self, m, j) + (j == 0)

        monkeypatch.setattr(ResolutionEngine, "multigraded_betti", wrong)

    def test_scan_reports_both_paths(self, capsys, semigroup_file, wrong_nabla):
        code, out = run(capsys, "--format", "json", "scan", semigroup_file,
                        "--w-bound", "2", "--jmax", "1", "--delta-crosscheck")
        data = json.loads(out)
        assert code == 1
        rows = {tuple(r["degree"]): r["ranks"] for r in data["rows"]}
        disagreements = data["crosscheck_disagreements"]
        assert len(disagreements) == len(rows)
        for entry in disagreements:
            delta = rows[tuple(entry["degree"])]
            assert entry["delta"] == delta
            assert entry["nabla"] == [delta[0] + 1] + delta[1:]

    def test_betti_reports_both_paths(self, capsys, semigroup_file, wrong_nabla):
        code, out = run(capsys, "--format", "json", "betti", semigroup_file,
                        "-m", "21,3", "--jmax", "1", "--delta-crosscheck")
        data = json.loads(out)
        assert code == 1
        assert not data["crosscheck_ok"]
        assert data["ranks"] == data["delta_ranks"] == {"0": 1, "1": 0}
        assert data["nabla_ranks"] == {"0": 2, "1": 0}

    def test_betti_text_names_both_paths(self, capsys, semigroup_file, wrong_nabla):
        code, out = run(capsys, "betti", semigroup_file, "-m", "21,3",
                        "--jmax", "1", "--delta-crosscheck")
        assert code == 1
        assert "MISMATCH" in out
        assert "nabla: [2, 0], delta: [1, 0]" in out


class TestFieldModulus:
    def test_mersenne_61_accepted(self, capsys, semigroup_file):
        code, out = run(capsys, "--format", "json", "--field", str(2 ** 61 - 1),
                        "betti", semigroup_file, "-m", "21,3", "--jmax", "0")
        assert code == 0
        assert json.loads(out)["ranks"] == {"0": 1}

    @pytest.mark.parametrize("modulus", ["561", "1", "0", "-7", "91", str(2 ** 89 - 1)])
    def test_rejected_with_exit_two(self, capsys, semigroup_file, modulus):
        code = main(["--field", modulus, "betti", semigroup_file, "-m", "21,3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")


# a one-generator fragment, as harvest writes it at degree (12, 2)
GOOD_FRAGMENT = {"generators": [{
    "id": [0, [12, 2], 0], "level": 0, "degree": [12, 2],
    "value": {"lead": [0, 1, 1, 0], "trail": [1, 0, 0, 1]},
    "witness": [[[0], "-1/1"], [[1], "1/1"]],
}]}


def _with_first_generator(**changes):
    return {"generators": [{**GOOD_FRAGMENT["generators"][0], **changes}]}


class TestMalformedFragment:
    def test_well_formed_control_passes(self, capsys, semigroup_file, tmp_path):
        path = tmp_path / "fragment.json"
        path.write_text(json.dumps(GOOD_FRAGMENT), encoding="utf-8")
        assert run(capsys, "verify", semigroup_file, str(path))[0] == 0

    @pytest.mark.parametrize("doc", [
        {"generators": [{"level": 0}]},
        [1, 2],
        {"generators": [5]},
        {},
        _with_first_generator(degree=[12]),
        _with_first_generator(id=[0, [12, 2, 0], 0]),
        _with_first_generator(level="0"),
        _with_first_generator(value={"lead": [0, 1, 1], "trail": [1, 0, 0, 1]}),
        _with_first_generator(level=1, value=[{"generator": [0, [12, 2], 0],
                                               "coefficient": [{"monomial": [0, 0, 0, 0],
                                                                "coeff": "1/0"}]}]),
        {"generators": GOOD_FRAGMENT["generators"] * 2},
        _with_first_generator(witness=[[["0"], "-1/1"], [[1], "1/1"]]),
        _with_first_generator(witness=[[[1], "-1/1"], [[1], "1/1"]]),
    ], ids=["missing-key", "not-an-object", "entry-not-an-object", "no-generators",
            "degree-length", "id-degree-length", "level-not-int", "monomial-length",
            "zero-denominator", "duplicate-id", "witness-face-not-ints",
            "duplicate-witness-face"])
    def test_exits_two_without_traceback(self, capsys, semigroup_file, tmp_path, doc):
        path = tmp_path / "fragment.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["verify", semigroup_file, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: malformed fragment: ")
        assert captured.out == ""


    def test_deeply_nested_document_exits_two(self, capsys, semigroup_file, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code = main(["verify", semigroup_file, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot read fragment: ")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestInternalCheckFailures:
    """A failed consistency check exits 1 and names itself; bad input stays 2."""

    def _minimalize(self, capsys, semigroup_file):
        code = main(["minimalize", semigroup_file, "--lead", "0,2,6,0", "--trail", "3,0,0,5"])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_wrong_coordinates_exit_one(self, capsys, semigroup_file, monkeypatch):
        original = ChainBasis.express

        def doubled(self, chain):
            lam, mu = original(self, chain)
            return [2 * v for v in lam], mu

        monkeypatch.setattr(ChainBasis, "express", doubled)
        code, err = self._minimalize(capsys, semigroup_file)
        assert code == 1
        assert err.startswith("error: internal check failed: ")

    def test_dependent_basis_exits_one(self, capsys, tmp_path, monkeypatch):
        original = homology.ChainBasis.solver

        def first_column_dependent(self):
            decomp = original(self)
            decomp.pivots = [c for c in decomp.pivots if c != 0]
            return decomp

        # A fixed basis runs the representative selection, its solver, at
        # once only where the fiber complex has homology.  Column 0 of its
        # matrix is the first boundary: the fiber x1^3, x1*x3, x2^2 of 6 in
        # <2,3,4> has one edge and two components, so the selection there
        # has a boundary column.
        semigroup = tmp_path / "s234.json"
        semigroup.write_text('{"dim": 1, "generators": [[2], [3], [4]]}', encoding="utf-8")
        monkeypatch.setattr(homology.ChainBasis, "solver", first_column_dependent)
        code = main(["minimalize", str(semigroup), "--lead", "3,0,0", "--trail", "0,2,0"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert code == 1
        assert captured.err == ("error: internal check failed: "
                                "boundary basis vectors are dependent\n")

    def test_zero_denominator_weight_bound_exits_two(self, semigroup_file):
        assert main(["scan", semigroup_file, "--w-bound", "1/0"]) == 2


class TestMembershipBySetLookup:
    """No command makes a membership search to build a comparison complex: each
    walks a set of S closed under divisors in S by weight, scan the degrees
    it reports, harvest the Apéry degrees of D(M), and betti, delta and
    verify those of their degrees, and reads every comparison complex off
    those of its neighbours."""

    def test_scan_searches_for_no_member_after_enumerating(self, capsys, semigroup_file,
                                                           monkeypatch):
        searches, enumerated = [], []
        degrees_up_to, search = Semigroup.degrees_up_to, Semigroup._search

        def enumerate_degrees(self, w_bound):
            result = degrees_up_to(self, w_bound)
            enumerated.append(w_bound)
            return result

        def logged_search(self, m, find_all):
            if enumerated and not find_all:
                searches.append(m)
            return search(self, m, find_all)

        monkeypatch.setattr(Semigroup, "degrees_up_to", enumerate_degrees)
        monkeypatch.setattr(Semigroup, "_search", logged_search)
        code, out = run(capsys, "scan", semigroup_file, "--w-bound", "10", "--jmax", "2")
        assert code == 0
        assert enumerated == ["10"]
        assert len(out.splitlines()) > 100  # a row for each degree of weight <= 10
        assert searches == []

    @pytest.mark.parametrize("columns, argv, sizes", [
        # 109 degrees in D(M), 68 of them outside N + S
        ([[4, 1], [5, 1], [7, 1], [8, 1]], ["-m", "60,10", "--max-level", "3"], (68, 68)),
        # degrees on an edge of the cone: one monomial in the fiber and about
        # 4.6 million elements of weight at most 300, but the walk and D(M)
        # are the 301 multiples of e1 (of e3) up to M, none of them in N + S
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ["-m", "300,0,0", "--max-level", "3"],
         (301, 301)),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]],
         ["-m", "0,0,300", "--max-level", "3"], (301, 301)),
    ], ids=["example-60-10", "e1-e2-e3-at-300e1", "path-e1-e2-e3-at-300e3"])
    def test_harvest_enumerates_only_below_its_degree(self, capsys, tmp_path, monkeypatch,
                                                      columns, argv, sizes):
        path = tmp_path / "sg.json"
        path.write_text(json.dumps({"dim": len(columns[0]), "generators": columns}))
        searches, walked, divisor_lists = [], [], []
        walk, apery_divisors, search = (
            Semigroup._walk, Semigroup.apery_divisors, Semigroup._search)

        def logged_walk(self, rows, apery=None):
            found = walk(self, rows, apery)
            walked.append(len(found))
            return found

        def logged_divisors(self, m):
            found = apery_divisors(self, m)
            divisor_lists.append(found)
            return found

        def logged_search(self, m, find_all):
            if not find_all:
                searches.append(m)
            return search(self, m, find_all)

        monkeypatch.setattr(Semigroup, "_walk", logged_walk)
        monkeypatch.setattr(Semigroup, "apery_divisors", logged_divisors)
        monkeypatch.setattr(Semigroup, "_search", logged_search)
        code, out = run(capsys, "harvest", str(path), *argv)
        assert code == 0 and "verification: passed" in out
        # one walk, and no membership search at all, the degree's own and
        # verify's included; of the Apéry elements it lists below the
        # degree, those of D(M) are kept
        (divisor_list,) = divisor_lists
        assert (walked, len(divisor_list)) == ([sizes[0]], sizes[1])
        assert searches == []

    @pytest.mark.parametrize("argv", [
        ["betti", "-m", "90,15"],
        ["delta", "-m", "60,10"],
        ["verify", "fragment.json"],
    ], ids=["betti", "delta", "verify"])
    def test_single_degree_commands_search_for_no_member(self, capsys, semigroup_file,
                                                         tmp_path, monkeypatch, argv):
        if argv[0] == "verify":
            fragment = tmp_path / argv[1]
            assert main(["harvest", semigroup_file, "-m", "60,10", "--max-level", "3",
                         "--format", "json", "--output", str(fragment)]) == 0
            argv = ["verify", str(fragment)]
        searches = []
        search = Semigroup._search

        def logged_search(self, m, find_all):
            if not find_all:
                searches.append(m)
            return search(self, m, find_all)

        monkeypatch.setattr(Semigroup, "_search", logged_search)
        code, out = run(capsys, argv[0], semigroup_file, *argv[1:])
        assert code == 0
        assert searches == []
