"""The tables of the JSON objects of a config or a network file, and the
walker that checks an object against its table: a misspelled key is an
error that names its path, not a key dropped without a word."""

from __future__ import annotations

from typing import Callable, NamedTuple


class Kind(NamedTuple):
    """What a value must be, and its test."""

    what: str
    test: Callable


class Table(NamedTuple):
    """The keys of one JSON object, each with its Kind or with the Table of
    the object it holds.  A rule "key>a|b" of ``needs`` asks for a or b
    where key is given, and "a|b" asks for one of them always.
    ``excludes`` holds the pairs of keys that may not both be given, and
    ``literal`` a string that may stand in place of the object."""

    keys: dict
    needs: tuple = ()
    excludes: tuple = ()
    literal: str | None = None


def walk(obj, table: Table, path: str, error: type) -> None:
    """Check obj, found at path ("" at the top), against table.  A fault
    raises error with one line that names the full path."""

    def fail(where, what):
        raise error(f"{where}: {what}" if where else what)

    at = f"{path}." if path else ""
    if table.literal and obj == table.literal:
        return
    if not isinstance(obj, dict):
        fail(path, "must be " + (f'"{table.literal}" or ' if table.literal else "") + "an object")
    for key in obj:
        if key not in table.keys:
            from difflib import get_close_matches  # slow to import: only here

            (near,) = get_close_matches(key, table.keys, 1, 0)
            fail(at + key, f"unknown key; did you mean '{near}'?")
    for key, value in obj.items():
        check = table.keys[key]
        if isinstance(check, Table):
            walk(value, check, at + key, error)
        elif not check.test(value):
            fail(at + key, f"must be {check.what}")
    for a, b in table.excludes:
        if a in obj and b in obj:
            fail(at + b, f"cannot be given with '{a}'")
    for rule in table.needs:
        key, _, options = rule.rpartition(">")
        options = options.split("|")
        if (not key or key in obj) and obj.keys().isdisjoint(options):
            fail(at + key if key else path, "needs " + " or ".join(map(repr, options)))
