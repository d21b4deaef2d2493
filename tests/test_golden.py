"""Byte-exact goldens: CLI artifacts, text output, one basis file and the help.

Each case runs one command through ``toricsyz.cli.main`` and compares what
it writes with a file under ``tests/golden/`` byte for byte. Tests that only
compare two runs of the same code cannot see a changed pivot rule or basis
order; these can, because every generator id, fixed basis and cache entry
is pinned. A golden is regenerated only by a change that means to alter
that output, and the change says why.

Regenerate every golden from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from unittest import mock

import pytest

from toricsyz import Semigroup
from toricsyz.cli import _HANDLERS, main
from toricsyz.homology import basis_cache_key

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXAMPLE = os.path.join(GOLDEN, "example.json")
S35 = os.path.join(GOLDEN, "s35.json")
S4567 = os.path.join(GOLDEN, "s4567.json")
# <e1, e2, e3, e1+e2, e2+e3>, whose degrees near an edge of the cone have
# tiny fibers but weight-ball search trees
ORTHANT5 = os.path.join(GOLDEN, "orthant5.json")
# the paper's example under the shear (a, b) -> (a - 5b, b): generator
# (-1, 1) puts some m before m - n_i in sorted(D(M)), though not by weight
SHEARED = os.path.join(GOLDEN, "example_sheared.json")

# golden file -> command line; each writes its JSON document via --output
OUTPUTS = {
    "harvest_60_10_l2_rational.json":
        ["harvest", EXAMPLE, "-m", "60,10", "--max-level", "2", "--format", "json"],
    "harvest_60_10_l2_p32003.json":
        ["harvest", EXAMPLE, "-m", "60,10", "--max-level", "2", "--field", "32003",
         "--format", "json"],
    # two degrees far above their generators: the semigroup holds many
    # more degrees below them than the fiber has monomials
    "harvest_240_40_l3_rational.json":
        ["harvest", EXAMPLE, "-m", "240,40", "--max-level", "3", "--format", "json"],
    "harvest_s4567_120_l3_rational.json":
        ["harvest", S4567, "-m", "120", "--max-level", "3", "--format", "json"],
    # the paper's binomial x2^2 x3^6 - x1^3 x4^5 of degree (52, 8)
    "minimalize_52_8.json":
        ["minimalize", EXAMPLE, "--lead", "0,2,6,0", "--trail", "3,0,0,5", "--format", "json"],
    # x1^100 - x2^60 in <3,5>: a large sparse 1-skeleton
    "minimalize_s35_k100.json":
        ["minimalize", S35, "--lead", "100,0", "--trail", "0,60", "--format", "json"],
    # the lex face order: the same commands under --order lex
    "harvest_60_10_l2_lex.json":
        ["harvest", EXAMPLE, "-m", "60,10", "--max-level", "2", "--order", "lex",
         "--format", "json"],
    "minimalize_52_8_lex.json":
        ["minimalize", EXAMPLE, "--lead", "0,2,6,0", "--trail", "3,0,0,5", "--order", "lex",
         "--format", "json"],
    "minimalize_s35_k100_lex.json":
        ["minimalize", S35, "--lead", "100,0", "--trail", "0,60", "--order", "lex",
         "--format", "json"],
    "scan_w6_j2.json":
        ["scan", EXAMPLE, "--w-bound", "6", "--jmax", "2", "--format", "json"],
    # mixed signs: in degree order some m comes before its neighbours
    # m - n_i; harvest and scan walk by weight, which never does
    "scan_sheared_w5_j2.json":
        ["scan", SHEARED, "--w-bound", "5", "--jmax", "2", "--format", "json"],
    "harvest_sheared_10_10_l2_rational.json":
        ["harvest", SHEARED, "-m", "10,10", "--max-level", "2", "--format", "json"],
    "validate_example.json":
        ["validate", EXAMPLE, "--format", "json"],
    "fiber_52_8.json":
        ["fiber", EXAMPLE, "-m", "52,8", "--format", "json"],
    # one degree on an edge of the cone and one inside it
    "fiber_orthant5_0_0_30.json":
        ["fiber", ORTHANT5, "-m", "0,0,30", "--format", "json"],
    "fiber_orthant5_4_6_5.json":
        ["fiber", ORTHANT5, "-m", "4,6,5", "--format", "json"],
    "nabla_24_4.json":
        ["nabla", EXAMPLE, "-m", "24,4", "--format", "json"],
    "delta_12_2.json":
        ["delta", EXAMPLE, "-m", "12,2", "--format", "json"],
    "betti_21_3_j1_crosscheck.json":
        ["betti", EXAMPLE, "-m", "21,3", "--jmax", "1", "--delta-crosscheck",
         "--format", "json"],
    "verify_harvest_60_10_l2_rational.json":
        ["verify", EXAMPLE, os.path.join(GOLDEN, "harvest_60_10_l2_rational.json"),
         "--format", "json"],
}

# The text output of every command, one after another, each under the
# command line that printed it; a file name stands for the file in GOLDEN
TEXT_GOLDEN = "text_all_commands.txt"
TEXT_COMMANDS = [
    ["validate", "example.json"],
    ["fiber", "example.json", "-m", "52,8"],
    ["nabla", "example.json", "-m", "24,4"],
    ["delta", "example.json", "-m", "12,2"],
    ["betti", "example.json", "-m", "21,3", "--jmax", "1", "--delta-crosscheck"],
    ["minimalize", "example.json", "--lead", "0,2,6,0", "--trail", "3,0,0,5"],
    ["harvest", "example.json", "-m", "60,10", "--max-level", "2"],
    ["scan", "example.json", "--w-bound", "4", "--jmax", "2", "--delta-crosscheck"],
    ["verify", "example.json", "harvest_60_10_l2_rational.json"],
]

# The (60,10) basis in dimension 2 over Q: 154 pivot up-faces (the rank of
# d_3), which a load rebuilds, and no homology, so the entry holds an empty
# chain list. Its file name pins the cache key as well. Plain betti
# reads its ranks off the comparison complex and builds no basis; the
# cross-check computes the fiber-complex ranks for j = 0..2, which writes
# the bases.
CACHE_ARGV = ["betti", EXAMPLE, "-m", "60,10", "--jmax", "2", "--delta-crosscheck"]
CACHE_FILE = "basis-c17308e3c3a72635a2b4fd0001168cec53fc77e4146adbf3ea0a258556cdbe45.json"
CACHE_GOLDEN = "basis_60_10_dim2_rational.json"
# The same entry in the two earlier formats, kept as they were written and
# never regenerated: the first stored every boundary cycle with a preimage
# read off Q, the second the face lists, both ranks and the pivot up-faces.
CACHE_OLD_FORMAT = "basis_60_10_dim2_rational_old_format.json"
CACHE_PIVOT_FORMAT = "basis_60_10_dim2_rational_pivot_format.json"

# argparse lays help out differently across Python minor versions, so the
# help golden is per version; it is taken at a fixed 80-column width
HELP_GOLDEN = "help_py{}{}.txt".format(*sys.version_info[:2])


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{argv} exited with {code}")
    return out.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_cli_output_matches_golden(tmp_path, name):
    out = tmp_path / name
    _run(OUTPUTS[name] + ["--output", str(out)])
    assert _read(out) == _read(os.path.join(GOLDEN, name))


def _text_outputs():
    pages = []
    for words in TEXT_COMMANDS:
        argv = [os.path.join(GOLDEN, w) if w.endswith(".json") else w for w in words]
        pages.append(f"$ toricsyz {' '.join(words)}\n{_run(argv)}")
    return "".join(pages).encode("utf-8")


def test_text_output_matches_golden():
    assert _text_outputs() == _read(os.path.join(GOLDEN, TEXT_GOLDEN))


def test_every_command_has_goldens():
    assert {argv[0] for argv in OUTPUTS.values()} == set(_HANDLERS)
    assert [words[0] for words in TEXT_COMMANDS] == list(_HANDLERS)


def test_cache_file_matches_golden(tmp_path):
    cache = tmp_path / "cache"
    _run(CACHE_ARGV + ["--cache", str(cache)])
    assert _read(cache / CACHE_FILE) == _read(os.path.join(GOLDEN, CACHE_GOLDEN))


@pytest.mark.parametrize("argv", [
    CACHE_ARGV,
    ["harvest", EXAMPLE, "-m", "21,3"],
], ids=["betti-crosscheck", "harvest"])
def test_truncated_cache_entries_are_rewritten(tmp_path, argv):
    cache = tmp_path / "cache"
    first = _run(argv + ["--cache", str(cache)])
    entries = {p: p.read_bytes() for p in cache.iterdir()}
    assert entries
    for path, data in entries.items():
        path.write_bytes(data[: len(data) // 2])
    assert _run(argv + ["--cache", str(cache)]) == first
    assert {p: p.read_bytes() for p in cache.iterdir()} == entries
    if argv is CACHE_ARGV:
        assert entries[cache / CACHE_FILE] == _read(os.path.join(GOLDEN, CACHE_GOLDEN))


def test_old_format_entry_is_a_miss_and_is_rewritten(tmp_path):
    first = _run(CACHE_ARGV)
    for name in (CACHE_OLD_FORMAT, CACHE_PIVOT_FORMAT):
        cache = tmp_path / name
        cache.mkdir()
        (cache / CACHE_FILE).write_bytes(_read(os.path.join(GOLDEN, name)))
        assert _run(CACHE_ARGV + ["--cache", str(cache)]) == first
        assert _read(cache / CACHE_FILE) == _read(os.path.join(GOLDEN, CACHE_GOLDEN))


def test_pivot_format_entry_with_a_swapped_pivot_is_a_miss(tmp_path):
    # up-face 31 in place of pivot 0 leaves the pivots ascending and their
    # boundaries independent, but they are not the greedy pivots of d_3
    cache = tmp_path / "cache"
    first = _run(CACHE_ARGV)
    cache.mkdir()
    data = json.loads(_read(os.path.join(GOLDEN, CACHE_PIVOT_FORMAT)))
    assert data["pivots"][0] == 0 and 31 not in data["pivots"]
    data["pivots"] = sorted(data["pivots"][1:] + [31])
    (cache / CACHE_FILE).write_text(json.dumps(data), encoding="utf-8")
    assert _run(CACHE_ARGV + ["--cache", str(cache)]) == first
    assert _read(cache / CACHE_FILE) == _read(os.path.join(GOLDEN, CACHE_GOLDEN))


def _entry_21_3(cache):
    """The entry of the (21,3) basis in dimension 0, over Q in degrevlex."""
    key = basis_cache_key(Semigroup.from_file(EXAMPLE), (21, 3), 0, "degrevlex", "rational")
    return cache / f"basis-{key}.json"


def test_wrong_cached_coefficient_is_a_miss(tmp_path):
    # a well-formed entry whose homology chain is no longer a cycle
    argv = ["harvest", EXAMPLE, "-m", "21,3"]
    cache = tmp_path / "cache"
    first = _run(argv + ["--cache", str(cache)])
    path = _entry_21_3(cache)
    original = path.read_bytes()
    data = json.loads(original)
    chain = data["homology"][0]
    chain[[c for _face, c in chain].index("-1/1")][1] = "5/1"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _run(argv + ["--cache", str(cache)]) == first
    assert path.read_bytes() == original


def test_scaled_cached_homology_chain_is_a_miss(tmp_path):
    # still a cycle on the right faces, but not the fixed representative,
    # whose coefficient at its last face is 1
    argv = ["harvest", EXAMPLE, "-m", "21,3"]
    cache = tmp_path / "cache"
    first = _run(argv + ["--cache", str(cache)])
    path = _entry_21_3(cache)
    original = path.read_bytes()
    data = json.loads(original)
    (chain,) = data["homology"]
    assert sorted(c for _face, c in chain) == ["-1/1", "1/1"]
    for term in chain:
        term[1] = {"-1/1": "-2/1", "1/1": "2/1"}[term[1]]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _run(argv + ["--cache", str(cache)]) == first
    assert path.read_bytes() == original


def test_cached_homology_chains_sharing_a_last_face_are_a_miss(tmp_path):
    # x1^5, x2^3, x3^2 are the whole fiber of 30 in <6,10,15>: three points,
    # two homology chains v1 - v0 and v2 - v0.  Their sum in place of the
    # first is independent of the second and a cycle, but both chains then
    # end at v2, which no pair of fixed representatives does.
    semigroup = tmp_path / "s61015.json"
    semigroup.write_text('{"dim": 1, "generators": [[6], [10], [15]]}', encoding="utf-8")
    argv = ["harvest", str(semigroup), "-m", "30"]
    cache = tmp_path / "cache"
    first = _run(argv + ["--cache", str(cache)])
    (path,) = [p for p in cache.iterdir() if json.loads(p.read_bytes())["homology"]]
    original = path.read_bytes()
    data = json.loads(original)
    assert data["homology"] == [[[[0], "-1/1"], [[1], "1/1"]],
                                [[[0], "-1/1"], [[2], "1/1"]]]
    data["homology"][0] = [[[0], "-2/1"], [[1], "1/1"], [[2], "1/1"]]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _run(argv + ["--cache", str(cache)]) == first
    assert path.read_bytes() == original


def _help_text():
    """The --help output of the main parser and of every subcommand."""
    pages = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in [[]] + [[name] for name in _HANDLERS]:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                with pytest.raises(SystemExit) as exit_info:
                    main(argv + ["--help"])
            assert exit_info.value.code == 0, argv
            pages.append(f"$ toricsyz {' '.join(argv + ['--help'])}\n{out.getvalue()}")
    return "".join(pages).encode("utf-8")


def test_help_matches_golden():
    path = os.path.join(GOLDEN, HELP_GOLDEN)
    if not os.path.exists(path):
        pytest.skip(f"no help golden for this Python version ({HELP_GOLDEN})")
    assert _help_text() == _read(path)


def test_help_matches_golden_after_a_narrow_first_call():
    # help must be laid out at the width in force when it is printed
    with mock.patch.dict(os.environ, {"COLUMNS": "40"}):
        _run(["validate", EXAMPLE])
    test_help_matches_golden()


def regenerate():
    for name, argv in OUTPUTS.items():
        _run(argv + ["--output", os.path.join(GOLDEN, name)])
    cache = os.path.join(GOLDEN, "cache.tmp")
    _run(CACHE_ARGV + ["--cache", cache])
    os.replace(os.path.join(cache, CACHE_FILE), os.path.join(GOLDEN, CACHE_GOLDEN))
    for leftover in os.listdir(cache):
        os.remove(os.path.join(cache, leftover))
    os.rmdir(cache)
    with open(os.path.join(GOLDEN, TEXT_GOLDEN), "wb") as fh:
        fh.write(_text_outputs())
    with open(os.path.join(GOLDEN, HELP_GOLDEN), "wb") as fh:
        fh.write(_help_text())


if __name__ == "__main__":
    sys.exit(regenerate())
