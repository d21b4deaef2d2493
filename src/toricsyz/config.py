"""Run configuration shared by the library engine and the CLI."""
from __future__ import annotations

from dataclasses import dataclass

from .homology import get_field


@dataclass(frozen=True)
class Config:
    """Term order, coefficient field, cache location and debug checks.

    ``field`` is either the string "rational" or a prime given as an int,
    as "p" or as "prime:p"; ``homology.get_field`` reads it.  Identical
    configs yield byte-identical artifacts.
    """

    term_order: str = "degrevlex"
    field: object = "rational"
    cache_dir: str | None = None
    debug_checks: bool = False

    def describe(self) -> dict:
        return {"order": self.term_order, "field": get_field(self.field).name}
