"""Command-line interface.

Commands: validate | fiber | nabla | delta | betti | minimalize | harvest
| scan | verify.  main() runs every command: it builds the engine from the
global options, calls the command's handler and writes what that returns,
as text or, with --format json, as one JSON document carrying a "config"
header.  Exit codes: 0 success, 1 verification failure or failed internal
check, 2 invalid input or an --output that cannot be written.  Identical
invocations with a shared --cache directory produce byte-identical output.

betti and scan read their ranks off the comparison complex of each degree;
--delta-crosscheck recomputes them on the fiber complex and exits 1 where
the two disagree.  The --cache directory holds fixed bases, which only the
generator-making commands (minimalize, harvest) and the cross-check read
or write.

main() reads a plain command line straight off the grammar table; the
argparse parser is built only for help and errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serialize
from .complexes import build_delta
from .config import Config
from .orders import mono_str
from .resolution import CheckFailed, ResolutionEngine
from .semigroup import Semigroup, SemigroupError


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SemigroupError(f"bad {what} {text!r}: {exc}") from exc


def _parse_degree(text: str, dim: int):
    parts = _parse_ints(text, "degree")
    if len(parts) != dim:
        raise SemigroupError(f"degree {text!r} should have {dim} coordinates")
    return parts


def _parse_exponents(text: str, r: int):
    parts = _parse_ints(text, "exponent vector")
    if len(parts) != r or any(e < 0 for e in parts):
        raise SemigroupError(
            f"exponent vector {text!r} should have {r} nonnegative entries"
        )
    return parts


def _jmax(args, sg: Semigroup) -> int:
    if args.jmax is None:
        return sg.num_generators - 1
    if args.jmax < 0:
        raise SemigroupError(f"--jmax must be nonnegative, got {args.jmax}")
    return args.jmax


# The grammar that build_parser and _plain_parse read: each argument is its
# names (the last one names its attribute) and add_argument keywords, and
# each command has its help, positionals and own options, in help order.
_GLOBAL_OPTIONS = (
    (("--order",), {"default": "degrevlex", "choices": ["degrevlex", "lex"]}),
    (("--field",), {"default": "rational", "help": "'rational' (default) or a prime, e.g. 32003"}),
    (("--cache",), {"default": None, "help": "directory for the fixed-basis cache, read and "
                    "written by minimalize, harvest and --delta-crosscheck"}),
    (("--format",), {"default": "text", "choices": ["text", "json"]}),
    (("--output",), {"default": None, "help": "also write the result here"}),
)
_SEMIGROUP = ((("semigroup",), {"help": "semigroup JSON file"}),)
_DEGREE = (("-m", "--degree"), {"required": True})
_JMAX = (("--jmax",), {"type": int, "default": None})
_CROSSCHECK = (("--delta-crosscheck",), {"action": "store_true", "default": False})
_EXPONENTS = {"required": True, "help": "comma separated exponents"}
_COMMANDS = {
    "validate": ("check combinatorial finiteness and print the grading", _SEMIGROUP, ()),
    "fiber": ("list the monomials of one degree", _SEMIGROUP, (_DEGREE,)),
    "nabla": ("export the fiber complex of one degree", _SEMIGROUP, (_DEGREE,)),
    "delta": ("export the index-set comparison complex of one degree", _SEMIGROUP, (_DEGREE,)),
    "betti": ("multigraded Betti ranks at one degree", _SEMIGROUP,
              (_DEGREE, _JMAX, _CROSSCHECK)),
    "minimalize": ("decompose a homogeneous binomial over minimal generators", _SEMIGROUP,
                   ((("--lead",), _EXPONENTS), (("--trail",), _EXPONENTS))),
    "harvest": ("extract the resolution fragment one degree teaches", _SEMIGROUP,
                (_DEGREE, (("--max-level",), {"type": int, "default": 1}))),
    "scan": ("Betti table over all degrees up to a weight bound", _SEMIGROUP,
             ((("--w-bound",), {"required": True}), _JMAX, _CROSSCHECK)),
    "verify": ("re-check a fragment JSON produced by harvest",
               _SEMIGROUP + ((("fragment",), {"help": "fragment JSON file"}),), ()),
}


def _dest(flags) -> str:
    return flags[-1].lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricsyz",
        description="Exact minimal generators and syzygies of semigroup algebras",
    )
    # every subcommand takes the global options from one parent, whose
    # SUPPRESS defaults leave the main parser's values in place when a
    # flag is not repeated after the command word
    common = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in _GLOBAL_OPTIONS:
        parser.add_argument(*flags, **kwargs)
        common.add_argument(*flags, **{**kwargs, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        for flags, kwargs in positionals + options:
            p.add_argument(*flags, **kwargs)
    return parser


def _plain_parse(argv):
    """parse_args's namespace for a plain argv, else None (help, errors and the rest).

    Plain: exact option strings, a command's own after its word (the first
    bare token, the rest its positionals), each value the next token, not
    starting with "-", of its type and in its choices; no required one missing.
    """
    values = {_dest(flags): kwargs["default"] for flags, kwargs in _GLOBAL_OPTIONS}
    options, positionals, tokens = _GLOBAL_OPTIONS, [], iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if "command" in values:
                positionals.append(token)
            elif token in _COMMANDS:
                values["command"] = token
                options += _COMMANDS[token][2]
            else:
                return None
            continue
        flags, kwargs = next((spec for spec in options if token in spec[0]), ((), None))
        if kwargs is None:
            return None
        if "action" in kwargs:
            values[_dest(flags)] = True
            continue
        value = next(tokens, "-")
        try:
            value = None if value.startswith("-") else kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value is None or value not in kwargs.get("choices", [value]):
            return None
        values[_dest(flags)] = value
    command = _COMMANDS.get(values.get("command"))
    if command is None or len(positionals) != len(command[1]):
        return None
    values.update(zip((_dest(flags) for flags, _ in command[1]), positionals))
    for flags, kwargs in command[2]:
        if kwargs.get("required") and _dest(flags) not in values:
            return None
        values.setdefault(_dest(flags), kwargs.get("default"))
    return argparse.Namespace(**values)


def _engine(args) -> ResolutionEngine:
    config = Config(term_order=args.order, field=args.field, cache_dir=args.cache)
    return ResolutionEngine(Semigroup.from_file(args.semigroup), config)


# each handler takes the parsed arguments and the engine main() built from
# them, and returns (exit code, text lines, JSON body without the header);
# where a form costs a walk over the whole result, only the one --format
# asks for is built and the other is left empty

def _cmd_validate(args, engine):
    w = [str(x) for x in engine.semigroup.grading]
    body = {"kind": "validate", "combinatorially_finite": True, "grading": w}
    return 0, [f"combinatorially finite, w = ({', '.join(w)})"], body


def _cmd_fiber(args, engine):
    m = _parse_degree(args.degree, engine.semigroup.dim)
    fiber = engine.semigroup.fiber(m, engine.order)
    body = {"kind": "fiber", "degree": list(m), "monomials": [list(v) for v in fiber]}
    lines = [f"fiber of {m}: {len(fiber)} monomial(s)"]
    lines += [f"  {mono_str(v)}" for v in fiber]
    return 0, lines, body


def _cmd_nabla(args, engine):
    m = _parse_degree(args.degree, engine.semigroup.dim)
    cx = engine.nabla(m)
    lines = [
        f"fiber complex at {m}: {len(cx.vertices)} vertices, "
        f"{len(cx.components()) if cx.vertices else 0} component(s)"
    ]
    if cx.is_void:
        lines.append("  (empty complex: degree not in the semigroup)")
    lines += [f"  facet {list(f)}" for f in cx.facets()]
    return 0, lines, {"kind": "nabla", **cx.to_dict()}


def _cmd_delta(args, engine):
    m = _parse_degree(args.degree, engine.semigroup.dim)
    cx = build_delta(engine.semigroup, m)
    lines = [f"comparison complex at {m}: {len(cx.masks)} face(s) including the empty one"]
    lines += [f"  facet {list(f)}" for f in cx.facets()]
    return 0, lines, {"kind": "delta", **cx.to_dict()}


def _cmd_betti(args, engine):
    m = _parse_degree(args.degree, engine.semigroup.dim)
    jmax = _jmax(args, engine.semigroup)
    ranks = {j: engine.betti_delta(m, j) for j in range(jmax + 1)}
    body = {
        "kind": "betti",
        "degree": list(m),
        "ranks": {str(j): v for j, v in ranks.items()},
    }
    lines = [f"degree {m}"]
    lines += [f"  j={j}: {v}" for j, v in ranks.items()]
    if args.delta_crosscheck:
        nabla_ranks = {j: engine.multigraded_betti(m, j) for j in range(jmax + 1)}
        agree = nabla_ranks == ranks
        # "delta_ranks" repeats "ranks" (both are the Δ ranks); it is part
        # of the cross-check's output format
        body["delta_ranks"] = {str(j): v for j, v in ranks.items()}
        body["crosscheck_ok"] = agree
        lines.append(f"  delta crosscheck: {'OK' if agree else 'MISMATCH'}")
        if not agree:
            body["nabla_ranks"] = {str(j): v for j, v in nabla_ranks.items()}
            lines.append(f"  nabla: {list(nabla_ranks.values())}, "
                         f"delta: {list(ranks.values())}")
            return 1, lines, body
    return 0, lines, body


def _cmd_minimalize(args, engine):
    r = engine.semigroup.num_generators
    lead = _parse_exponents(args.lead, r)
    trail = _parse_exponents(args.trail, r)
    result = engine.minimalize_binomial(lead, trail)
    if args.format == "json":
        return 0, [], serialize.decomposition_to_json(
            result, engine, {"lead": list(lead), "trail": list(trail)})
    return 0, [serialize.decomposition_text(result, engine)], {}


def _report_lines(report) -> list:
    """The text of a fragment report, as harvest and verify print it."""
    lines = [f"verification: {'passed' if report['passed'] else 'FAILED'}"]
    return lines + [f"  violation: {v}" for v in report["violations"]]


def _cmd_harvest(args, engine):
    m = _parse_degree(args.degree, engine.semigroup.dim)
    fragment = engine.harvest(m, args.max_level)
    lines = [f"harvest at {m}, levels 0..{args.max_level}"]
    lines += [f"  level {level}: {count} generator(s)"
              for level, count in sorted(fragment.ranks().items())]
    lines += _report_lines(fragment.report)
    body = serialize.fragment_to_json(fragment, engine) if args.format == "json" else {}
    return (0 if fragment.report["passed"] else 1), lines, body


def _cmd_scan(args, engine):
    sg = engine.semigroup
    try:
        Fraction(args.w_bound)
    except (ValueError, ZeroDivisionError) as exc:
        raise SemigroupError(f"bad weight bound {args.w_bound!r}") from exc
    jmax = _jmax(args, sg)
    obstruction_dim = sg.num_generators - sg.matrix_rank()
    rows = []
    disagreements = []
    for m in engine.walk_face_sets(sg.degrees_up_to(args.w_bound)):
        ranks = [engine.betti_delta(m, j) for j in range(jmax + 1)]
        cm_rank = (engine.betti_delta(m, obstruction_dim)
                   if obstruction_dim > jmax else ranks[obstruction_dim])
        rows.append({"degree": list(m), "ranks": ranks, "cm_obstruction": bool(cm_rank)})
        if args.delta_crosscheck:
            nabla = [engine.multigraded_betti(m, j) for j in range(jmax + 1)]
            if nabla != ranks:
                disagreements.append({"degree": list(m), "nabla": nabla, "delta": ranks})
    code = 1 if disagreements else 0
    if args.format == "json":
        body = {"kind": "scan", "w_bound": str(args.w_bound), "jmax": jmax, "rows": rows,
                "obstruction_dim": obstruction_dim}
        if args.delta_crosscheck:
            body["crosscheck_disagreements"] = disagreements
        return code, [], body
    lines = [f"scan up to weight {args.w_bound}, j <= {jmax}"]
    for row in rows:
        flag = "  CM-obstruction!" if row["cm_obstruction"] else ""
        lines.append(f"  {tuple(row['degree'])}: {row['ranks']}{flag}")
    if args.delta_crosscheck:
        lines.append(f"delta crosscheck disagreements: {len(disagreements)}")
        lines += [f"  {tuple(d['degree'])}: nabla {d['nabla']}, delta {d['delta']}"
                  for d in disagreements]
    return code, lines, {}


def _cmd_verify(args, engine):
    try:
        with open(args.fragment, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SemigroupError(f"cannot read fragment: {exc}") from exc
    report = serialize.verify_fragment_json(data, engine)
    return ((0 if report["passed"] else 1), _report_lines(report),
            {"kind": "verify", "report": report})


_HANDLERS = {
    "validate": _cmd_validate,
    "fiber": _cmd_fiber,
    "nabla": _cmd_nabla,
    "delta": _cmd_delta,
    "betti": _cmd_betti,
    "minimalize": _cmd_minimalize,
    "harvest": _cmd_harvest,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_parse(argv) or build_parser().parse_args(argv)
    try:
        engine = _engine(args)
        code, lines, body = _HANDLERS[args.command](args, engine)
        output = (serialize.dumps({"config": engine.config.describe(), **body})
                  if args.format == "json" else "\n".join(lines) + "\n")
        sys.stdout.write(output)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(output)
    except (CheckFailed, ArithmeticError) as exc:
        # a failed consistency check is the engine's fault, not the input's
        sys.stderr.write(f"error: internal check failed: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        # SemigroupError and ResolutionError are ValueErrors too; an
        # --output that cannot be written is an OSError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
