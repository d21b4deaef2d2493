"""Monomial term orders.

A term order here is a total order on exponent vectors that is
multiplicative (u > v implies u+w > v+w), which is all the downstream
machinery needs: it fixes vertex orders of fiber complexes and thereby
every basis choice made later.
"""
from __future__ import annotations

Monomial = tuple[int, ...]


class TermOrder:
    """Total multiplicative order on monomials, fixed variable precedence x1 > ... > xr.

    ``key(m)`` returns a tuple that sorts ascending in the order, so the
    largest monomial has the largest key.
    """

    KINDS = ("degrevlex", "lex")

    def __init__(self, kind: str = "degrevlex"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown term order {kind!r}")
        self.kind = kind

    def key(self, mono: Monomial):
        if self.kind == "degrevlex":
            # Larger total degree wins; ties broken so that the monomial
            # with the *smaller* exponent in the last differing variable
            # (scanning from x_r down) is larger.
            return (sum(mono), tuple(-e for e in reversed(mono)))
        return tuple(mono)

    def sort_decreasing(self, monos) -> list[Monomial]:
        return sorted(monos, key=self.key, reverse=True)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and other.kind == self.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"TermOrder({self.kind!r})"

    def __str__(self):
        return self.kind


DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b; caller guarantees divisibility."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"{b} does not divide {a}")
    return out


def mono_gcd(*monos: Monomial) -> Monomial:
    return tuple(min(es) for es in zip(*monos))


def mono_is_unit(a: Monomial) -> bool:
    return not any(a)


def mono_str(mono: Monomial) -> str:
    """Human readable form, e.g. (0,2,6,0) -> 'x2^2*x3^6'."""
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"
