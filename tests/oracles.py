"""Independent test oracles, kept apart from the engine they check."""
from __future__ import annotations

from toricsyz.orders import mono_mul


def oracle_v0(engine, m) -> int:
    """Brute-force count of degree-m minimal generators of the toric ideal.

    Computes dim (I)_m - dim (irrelevant * I)_m directly: the degree-m
    part of the ideal is spanned by consecutive fiber differences, and
    the shifted part by variable multiples of lower-degree differences.
    Uses its own small row reduction on purpose, so it shares no
    elimination code with the engine.
    """
    m = tuple(m)
    sg = engine.semigroup
    fiber = sg.fiber(m, engine.order)
    t = len(fiber)
    if t <= 1:
        return 0
    index = {mono: i for i, mono in enumerate(fiber)}
    field = engine.field
    rows = []
    r = sg.num_generators
    for i in range(r):
        shift = tuple(1 if k == i else 0 for k in range(r))
        m2 = sg.sub_degree(m, sg.generators[i])
        fib2 = sg.fiber(m2, engine.order)
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
