"""Deterministic JSON forms for registry records, fragments and results.

Scalars are written as "p/q" strings in rational mode and as plain
integers mod p otherwise; every list is emitted in a canonical sort
order, so identical configurations produce byte-identical documents.
"""
from __future__ import annotations

import json

from .orders import mono_str
from .resolution import (
    Binomial,
    DecompositionResult,
    GeneratorRecord,
    ResolutionEngine,
    ResolutionFragment,
    poly_mul,
    poly_add_scaled,
)


def poly_to_json(poly, field):
    return [
        {"monomial": list(mono), "coeff": field.to_str(poly[mono])}
        for mono in sorted(poly)
    ]


def poly_from_json(items, field):
    return {tuple(t["monomial"]): field.from_str(t["coeff"]) for t in items}


def gid_to_json(gid):
    level, degree, idx = gid
    return [level, list(degree), idx]


def gid_from_json(item):
    return (item[0], tuple(item[1]), item[2])


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


def registry_to_json(engine: ResolutionEngine):
    records = []
    for level in sorted(engine.registry.by_level):
        records.extend(
            record_to_json(rec, engine.field)
            for rec in engine.registry.level_records(level, engine.semigroup)
        )
    return {
        "config": engine.config.describe(),
        "kind": "registry",
        "generators": records,
    }


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def verify_fragment_json(data, engine: ResolutionEngine) -> dict:
    """Re-run the fragment checks on a parsed document, self-contained.

    Values are read back from the file, so this validates the artifact
    rather than the in-memory registry that produced it.
    """
    field = engine.field
    sg = engine.semigroup
    unit = (0,) * sg.num_generators
    violations = []
    parsed = {}
    for gen in data.get("generators", []):
        gid = gid_from_json(gen["id"])
        level = gen["level"]
        degree = tuple(gen["degree"])
        if level == 0:
            value = Binomial(tuple(gen["value"]["lead"]), tuple(gen["value"]["trail"]))
        else:
            value = {
                gid_from_json(entry["generator"]): poly_from_json(entry["coefficient"], field)
                for entry in gen["value"]
            }
        parsed[gid] = (level, degree, value)

    for gid, (level, degree, value) in sorted(parsed.items()):
        if level == 0:
            for mono in (value.lead, value.trail):
                if sg.degree_of(mono) != degree:
                    violations.append(f"{gid}: binomial is not homogeneous")
                if not any(mono):
                    violations.append(f"{gid}: constant term in binomial")
            continue
        image = {}
        for gid2, poly in value.items():
            if gid2 not in parsed:
                violations.append(f"{gid}: references missing generator {gid2}")
                continue
            if unit in poly:
                violations.append(f"{gid}: constant coefficient on {gid2}")
            lvl2, deg2, val2 = parsed[gid2]
            if lvl2 != level - 1:
                violations.append(f"{gid}: level mismatch against {gid2}")
                continue
            for mono in poly:
                found = tuple(a + b for a, b in zip(sg.degree_of(mono), deg2))
                if found != degree:
                    violations.append(f"{gid}: inhomogeneous entry on {gid2}")
                    break
            if lvl2 == 0:
                prod = poly_mul(poly, val2.as_polynomial(field), field.modulus)
                poly_add_scaled(image.setdefault("_", {}), prod, field.one,
                                field.modulus)
                if not image["_"]:
                    del image["_"]
            else:
                for gid3, p3 in val2.items():
                    acc = image.setdefault(gid3, {})
                    poly_add_scaled(acc, poly_mul(poly, p3, field.modulus),
                                    field.one, field.modulus)
                    if not acc:
                        del image[gid3]
        if image:
            violations.append(f"{gid}: composition with previous level is nonzero")

    counts = {}
    for gid, (level, degree, _value) in parsed.items():
        counts[(level, degree)] = counts.get((level, degree), 0) + 1
    for (level, degree), count in sorted(counts.items()):
        bound = engine.betti_delta(degree, level)
        if count > bound:
            violations.append(
                f"{count} generators at level {level}, degree {degree}, "
                f"but homology rank is {bound}"
            )
    return {
        "passed": not violations,
        "violations": violations,
        "ranks": _rank_table(parsed),
    }


def _rank_table(parsed):
    ranks: dict[str, int] = {}
    for _gid, (level, _degree, _value) in parsed.items():
        key = str(level)
        ranks[key] = ranks.get(key, 0) + 1
    return ranks


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
