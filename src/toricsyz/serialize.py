"""Deterministic JSON forms for registry records, fragments and results.

Scalars are written as "p/q" strings in rational mode and as plain
integers mod p otherwise; every list is emitted in a canonical sort
order, so identical configurations produce byte-identical documents.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

from .orders import mono_str
from .resolution import (
    Binomial,
    DecompositionResult,
    GeneratorRecord,
    ResolutionEngine,
    ResolutionFragment,
)


def poly_to_json(poly, field):
    return [
        {"monomial": list(mono), "coeff": field.to_str(poly[mono])}
        for mono in sorted(poly)
    ]


def gid_to_json(gid):
    level, degree, idx = gid
    return [level, list(degree), idx]


def chain_to_json(chain, field):
    return [[list(face), field.to_str(coeff)] for face, coeff in sorted(chain.items())]


def value_to_json(record: GeneratorRecord, field):
    if record.level == 0:
        return {"lead": list(record.value.lead), "trail": list(record.value.trail)}
    return [
        {"generator": gid_to_json(gid), "coefficient": poly_to_json(poly, field)}
        for gid, poly in sorted(record.value.items())
    ]


def record_to_json(record: GeneratorRecord, field):
    return {
        "id": gid_to_json(record.gid),
        "level": record.level,
        "degree": list(record.degree),
        "value": value_to_json(record, field),
        "witness": chain_to_json(record.witness, field),
    }


def fragment_to_json(fragment: ResolutionFragment, engine: ResolutionEngine):
    field = engine.field
    generators = [
        record_to_json(rec, field)
        for rec in fragment.all_records()
    ]
    return {
        "config": engine.config.describe(),
        "kind": "fragment",
        "degree": list(fragment.degree),
        "max_level": fragment.max_level,
        "ranks": {str(k): v for k, v in fragment.ranks().items()},
        "generators": generators,
        "verification": fragment.report,
    }


def decomposition_to_json(result: DecompositionResult, engine: ResolutionEngine,
                          input_desc):
    field = engine.field
    return {
        "config": engine.config.describe(),
        "kind": "decomposition",
        "input": input_desc,
        "degree": list(result.input_degree),
        "entries": [
            {
                "generator": record_to_json(rec, field),
                "coefficient": poly_to_json(poly, field),
            }
            for rec, poly in result.entries
        ],
    }


def _write(x, pad, out):
    """Append x's JSON to out, nested at pad (a newline and its indent)."""
    t = type(x)
    if t is str:
        out.append(_string(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is bool or x is None:
        out.append("true" if x else "false" if x is False else "null")
    elif (t is list or t is tuple) and all(type(v) is int for v in x):
        inner = pad + "  "
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + pad + "]"
                   if x else "[]")
    elif t is list or t is tuple:
        inner = pad + "  "
        for i, v in enumerate(x):
            out.append(("," if i else "[") + inner)
            _write(v, inner, out)
        out.append(pad + "]")
    elif t is dict and all(type(k) is str for k in x):
        inner = pad + "  "
        for i, key in enumerate(sorted(x)):
            out.append(("," if i else "{") + inner + _string(key) + ": ")
            _write(x[key], inner, out)
        out.append(pad + "}" if x else "{}")
    else:
        raise TypeError(f"cannot write this {t.__name__} as JSON")


def dumps(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) + "\\n", byte for byte.

    One walk, as json's indented form never uses its C encoder.  Payloads hold
    dicts with str keys, lists or tuples, str, int, bool and None; else TypeError.
    """
    out: list = []
    _write(payload, "\n", out)
    return "".join(out) + "\n"


class MalformedFragment(ValueError):
    """A fragment document that does not have the shape harvest writes."""


def _malformed(what) -> MalformedFragment:
    return MalformedFragment(f"malformed fragment: {what}")


def _int(item, what) -> int:
    if type(item) is not int:
        raise _malformed(f"{what} {item!r} is not an integer")
    return item


def _ints(item, length, what) -> tuple:
    if (not isinstance(item, list) or len(item) != length
            or not all(type(x) is int for x in item)):
        raise _malformed(f"{what} {item!r} is not a list of {length} integers")
    return tuple(item)


def _monomial(item, r) -> tuple:
    mono = _ints(item, r, "monomial")
    if min(mono) < 0:
        raise _malformed(f"monomial {item!r} has a negative exponent")
    return mono


def _gid(item, dim) -> tuple:
    if not isinstance(item, list) or len(item) != 3:
        raise _malformed(f"generator id {item!r} is not [level, degree, index]")
    return (_int(item[0], "level"), _ints(item[1], dim, "degree"),
            _int(item[2], "generator index"))


def _face(item) -> tuple:
    if not isinstance(item, list) or not all(type(x) is int for x in item):
        raise _malformed(f"witness face {item!r} is not a list of integers")
    return tuple(item)


def _unique(pairs, what) -> dict:
    """The dict of (key, value) pairs; a key listed twice is malformed."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise _malformed(f"{what} {key} is listed twice")
        out[key] = value
    return out


def _entry(gen, sg, field):
    """(gid, (level, degree, value, witness)) of one generator object."""
    if not isinstance(gen, dict):
        raise _malformed(f"generator entry {gen!r} is not an object")
    gid = _gid(gen["id"], sg.dim)
    level = _int(gen["level"], "level")
    if level < 0:
        raise _malformed(f"negative level {level}")
    degree = _ints(gen["degree"], sg.dim, "degree")
    if gid[:2] != (level, degree):
        raise _malformed(f"generator id {gen['id']!r} does not have the entry's "
                         f"level {level} and degree {list(degree)}")
    r = sg.num_generators
    if level == 0:
        value = Binomial(_monomial(gen["value"]["lead"], r),
                         _monomial(gen["value"]["trail"], r))
    else:
        value = _unique(((_gid(item["generator"], sg.dim),
                          _unique(((_monomial(t["monomial"], r), field.from_str(t["coeff"]))
                                   for t in item["coefficient"]), "monomial"))
                         for item in gen["value"]), "generator")
    witness = _unique(((_face(face), field.from_str(coeff))
                       for face, coeff in gen["witness"]), "witness face")
    return gid, (level, degree, value, witness)


def fragment_entries(data, engine: ResolutionEngine) -> dict:
    """The {gid: (level, degree, value, witness)} map of a parsed fragment document.

    Raises MalformedFragment where the document does not have the shape
    harvest writes: a missing key, a non-object document or entry, a
    degree, id or monomial of the wrong length, an id whose level or degree
    is not the entry's, a witness face that is not a list of integers, a
    generator, generator block, witness face or coefficient monomial listed
    twice, or an unreadable scalar.
    """
    if not isinstance(data, dict):
        raise _malformed("the document is not an object")
    try:
        entries = _unique((_entry(gen, engine.semigroup, engine.field)
                           for gen in data["generators"]), "generator")
    except MalformedFragment:
        raise
    except KeyError as exc:
        raise _malformed(f"missing key {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise _malformed(exc) from exc
    return entries


def verify_fragment_json(data, engine: ResolutionEngine) -> dict:
    """Re-run the fragment checks on a parsed document, self-contained.

    Values are read back from the file, so this validates the artifact
    rather than the in-memory registry that produced it; the checks are
    those of ResolutionEngine.verify_fragment, through the same checker.
    """
    return engine.check_entries(fragment_entries(data, engine))


def decomposition_text(result: DecompositionResult, engine: ResolutionEngine) -> str:
    lines = [f"degree: {tuple(result.input_degree)}"]
    if not result.entries:
        lines.append("decomposition: 0")
    for rec, poly in result.entries:
        value = str(rec.value) if rec.level == 0 else f"level-{rec.level} generator"
        terms = " + ".join(
            f"({engine.field.to_str(poly[mono])})*{mono_str(mono)}"
            for mono in sorted(poly, key=lambda m: (sum(m), m), reverse=True)
        )
        lines.append(f"  {rec.gid}  [{value}]  coefficient: {terms}")
    return "\n".join(lines)
