"""One reader for declarative spec files: campaigns and serve scenarios.

Both grammars — :mod:`repro.campaign.spec` and :mod:`repro.serve.scenario`
— are trees of tables written as TOML or JSON.  :class:`SpecReader`
owns everything they share: turning a path or a dict into the raw tree,
and the typed checks every field goes through.  Each check raises the
grammar's own error (``CampaignError`` / ``ScenarioError``, carrying its
message prefix) naming the offending field.  Types are checked before a
value is hashed or used, so a malformed spec cannot escape as a
``TypeError`` or ``AttributeError`` from deep inside a loader.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Collection

from repro.core.suite import SUITE_NETWORKS


class SpecReader:
    """Reader and field checks of one spec grammar.

    *fail* turns a message into the grammar's exception; every method
    raises what it returns.  Methods named after a type take a raw
    value plus *what*, the field's name in messages (e.g.
    ``"[serving].max_batch"``), and return the value once it checks.
    """

    def __init__(self, fail: Callable[[str], Exception]) -> None:
        self.fail = fail

    def read(self, source) -> tuple[dict, Path]:
        """The raw tree of *source* and the directory its relative paths
        resolve against.

        A dict passes straight through (paths resolve against the
        working directory).  A file is parsed by suffix — ``.toml``,
        ``.json``, anything else TOML then JSON — and read or parse
        failures raise the grammar's error.
        """
        if isinstance(source, dict):
            return source, Path(".")
        path = Path(source)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise self.fail(f"cannot read {path}: {exc}") from exc
        formats = {".toml": ("TOML",), ".json": ("JSON",)}.get(
            path.suffix.lower(), ("TOML", "JSON")
        )
        errors = []
        for fmt in formats:
            try:
                return _parse(fmt, text), path.parent
            except ValueError as exc:  # TOMLDecodeError, JSONDecodeError
                errors.append(f"{fmt}: {exc}")
        raise self.fail(f"cannot parse {path}: {'; '.join(errors)}")

    def keys(self, table: dict, known: Collection[str], where: str) -> None:
        """Reject the first key of *table* not in *known*."""
        for key in table:
            if key not in known:
                raise self.fail(
                    f"unknown key {key!r} in {where}; "
                    f"known keys: {', '.join(known)}"
                )

    def table(self, value, where: str, known: Collection[str] | None = None) -> dict:
        """A table, whose keys must all be in *known* when given."""
        if not isinstance(value, dict):
            raise self.fail(f"{where} must be a table, got {type(value).__name__}")
        if known is not None:
            self.keys(value, known, where)
        return value

    def number(self, value, what: str) -> int | float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.fail(f"{what} must be a number, got {value!r}")
        return value

    def integer(self, value, what: str, minimum: int | None = None) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.fail(f"{what} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise self.fail(f"{what} must be >= {minimum}, got {value!r}")
        return value

    def string(self, value, what: str, optional: bool = False) -> str:
        """A string; unless *optional*, a missing or empty one is an error."""
        if not optional and (value is None or value == ""):
            raise self.fail(f"missing {what}")
        if not isinstance(value, str):
            raise self.fail(f"{what} must be a string, got {value!r}")
        return value

    def choice(self, value, what: str, choices: Collection[str]) -> str:
        """One of *choices* (a tuple, or a registry dict's keys)."""
        if not isinstance(value, str) or value not in choices:
            raise self.fail(
                f"unknown {what} {value!r}; available: {', '.join(choices)}"
            )
        return value

    def networks(self, value, what: str) -> tuple[str, ...]:
        """A non-empty list of suite network names."""
        if not isinstance(value, (list, tuple)) or not value:
            raise self.fail(f"{what} must be a non-empty list of networks")
        for name in value:
            if not isinstance(name, str) or name not in SUITE_NETWORKS:
                raise self.fail(
                    f"{what}: unknown network {name!r}; "
                    f"available: {', '.join(SUITE_NETWORKS)}"
                )
        return tuple(value)

    def fields(self, table: dict, defaults: dict, where: str) -> dict:
        """*defaults* overlaid with *table*'s values for the same keys.

        Each value must have its default's type: an ``int`` default
        makes the key an integer field, a ``float`` one a number field.
        """
        out = {}
        for key, default in defaults.items():
            check = self.integer if isinstance(default, int) else self.number
            out[key] = check(table.get(key, default), f"{where}.{key}")
        return out


def _parse(fmt: str, text: str):
    if fmt == "JSON":
        return json.loads(text)
    import tomllib  # Python >= 3.11; only TOML specs need it

    return tomllib.loads(text)

