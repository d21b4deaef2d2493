"""Run configuration shared by the library engine and the CLI."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """Term order, coefficient field, cache location and debug checks.

    ``field`` is either the string "rational" or a prime given as an int
    or as "prime:p".  Identical configs yield byte-identical artifacts.
    """

    term_order: str = "degrevlex"
    field: object = "rational"
    cache_dir: str | None = None
    debug_checks: bool = False

    def field_name(self) -> str:
        if self.field in (None, "rational"):
            return "rational"
        if isinstance(self.field, int):
            return f"prime:{self.field}"
        return str(self.field)

    def describe(self) -> dict:
        return {"order": self.term_order, "field": self.field_name()}
