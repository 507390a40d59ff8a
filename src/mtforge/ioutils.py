"""Small IO helpers: atomic file writes, JSON files and typed JSON Lines records."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from .errors import MtforgeError, SchemaError, ValidationError, at


@contextmanager
def atomic_write(path: str | Path) -> Iterator[Any]:
    """Write to a temp file in the target directory, rename on success.

    On any exception the temp file is removed and the destination is left
    untouched (it may not exist).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dumps(path: str | Path, obj: Any, indent: int | None = None) -> str:
    """`obj` as JSON text. A NaN or infinity, which JSON has no number for,
    raises MtforgeError naming the output `path`."""
    try:
        return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:  # allow_nan=False; outputs hold no circular references
        raise MtforgeError(f"{path}: NaN and infinity cannot be written as JSON") from None


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write one compact JSON object per line; returns the number written."""
    count = 0
    with atomic_write(path) as handle:
        for record in records:
            handle.write(_dumps(path, record))
            handle.write("\n")
            count += 1
    return count


# A JSON \u escape of a UTF-16 surrogate. json.loads joins an escaped pair
# into one code point, so a surrogate left in a parsed string is unpaired,
# and no UTF-8 writer can encode it.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _lone_surrogate(text: str, obj: Any) -> str | None:
    """What is wrong when `obj`, parsed from `text`, holds a string with an
    unpaired surrogate; None otherwise. Text without a surrogate escape, as
    nearly all is, costs one regex scan."""
    if _SURROGATE_ESCAPE.search(text) is None:
        return None
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"unpaired surrogate \\u{ord(exc.object[exc.start]):04x} in a string"
    return None


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object) pairs, skipping blank lines.

    Lines are split at LF only (a CR before it is JSON whitespace). A line
    that is not UTF-8, not JSON, or holds a string with an unpaired surrogate
    raises SchemaError `line <n>: <what>`.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"line {lineno}: invalid UTF-8 at byte {exc.start + 1}") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {lineno}: invalid JSON: {exc.msg} (column {exc.colno})") from None
            except ValueError as exc:  # an integer longer than int()'s digit limit
                raise SchemaError(f"line {lineno}: invalid JSON: {exc}") from None
            problem = _lone_surrogate(line, obj)
            if problem:
                raise SchemaError(f"line {lineno}: {problem}")
            yield lineno, obj


# JSON type name -> the Python types json.loads gives for it. Field types are
# compared with type(), not isinstance(), so a bool is not a number, and an
# integer is a number written without a fraction or exponent.
_JSON_TYPES = {"string": (str,), "integer": (int,), "number": (int, float), "array": (list,),
               "object": (dict,), "null": (type(None),)}
_TYPE_NAMES = {bool: "boolean", **{t: name for name, types in _JSON_TYPES.items() for t in types}}


@functools.cache  # the specs are the few written in the field tables
def _types_of(spec: str) -> tuple[type, ...]:
    """The Python types of a field type spec such as "number|null"."""
    return tuple(t for kind in spec.split("|") for t in _JSON_TYPES[kind])


def is_number(value: Any) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value: Any) -> bool:
    """True for a number that is not a bool, NaN or infinite, and fits a float."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def check_fields(obj: Any, fields: Mapping[str, str | tuple[str, ...]], required: Collection[str] = (),
                 closed: bool = False, where: object = None) -> dict:
    """Return `obj` if it is a JSON object of the declared shape, else raise
    SchemaError.

    `fields` maps a field name to its JSON type ("string", "integer",
    "number", "array", "object", "null", or several joined by "|" as in
    "number|null"), or to the tuple of strings it may be. The object must
    hold every `required` field and, for each declared field it holds, a
    value of that type; with `closed` it may hold no other field. `where`
    names the object and starts each message; without it the object is a
    record, and the caller adds the place."""
    prefix = f"{where}: " if where is not None else ""
    if type(obj) is not dict:
        raise SchemaError(f"{prefix or 'record is '}a JSON {_TYPE_NAMES[type(obj)]}, not an object")
    for name in required:
        if name not in obj:
            raise SchemaError(f"{prefix}missing fields {sorted(set(required) - obj.keys())}")
    for name, value in obj.items():  # only the fields present: absent ones cost nothing
        spec = fields.get(name)
        if spec is None:
            if closed:
                raise SchemaError(f"{prefix}unknown fields {sorted(obj.keys() - fields.keys())}")
        elif type(spec) is str:
            if type(value) not in _types_of(spec):
                raise SchemaError(f"{prefix}field {name!r} must be {spec.replace('|', ' or ')}, "
                                  f"not {_TYPE_NAMES[type(value)]}")
        elif value not in spec:
            got = repr(value) if type(value) is str else _TYPE_NAMES[type(value)]
            raise SchemaError(f"{prefix}field {name!r} must be {' or '.join(map(repr, spec))}, not {got}")
    return obj


def _as_is(obj: dict) -> dict:
    return obj


def read_records(path: str | Path, fields: Mapping[str, str], required: Collection[str] = (),
                 closed: bool = False, build: Callable[[dict], Any] = _as_is) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, `build(obj)`) for each object of a JSON
    Lines file, checked by `check_fields` before it is built. A
    ValidationError, from the line's syntax, the check or `build`, raises
    SchemaError as `<path>: line <n>: <what>`."""
    with at(path):
        for lineno, obj in read_jsonl(path):
            # a plain try, not a context entered per line: this runs on
            # every line of every input
            try:
                record = build(check_fields(obj, fields, required, closed))
            except ValidationError as exc:
                raise SchemaError(f"line {lineno}: {exc}") from None
            yield lineno, record


def dataclass_from_obj(cls: type, obj: Any, where: object) -> Any:
    """Dataclass `cls` built from a JSON object checked against `cls.FIELDS`
    (its field table for `check_fields`), with only the fields the object
    sets, so the defaults live in `cls` alone. A field without a default is
    required and an unknown field is an error. Any ValidationError, the
    dataclass's own range checks included, names `where`."""
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    check_fields(obj, cls.FIELDS, required, closed=True, where=where)
    with at(where):
        return cls(**obj)


def load_json(path: str | Path) -> Any:
    """Parse a whole JSON file; content that is not UTF-8 JSON, or holds a
    string with an unpaired surrogate, raises SchemaError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        obj = json.loads(text)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: invalid UTF-8 at byte {exc.start + 1}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from None
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    problem = _lone_surrogate(text, obj)
    if problem:
        raise SchemaError(f"{path}: {problem}")
    return obj


def dump_json(path: str | Path, payload: dict) -> None:
    """Atomically write a deterministic, human-readable JSON document."""
    text = _dumps(path, payload, indent=2)
    with atomic_write(path) as handle:
        handle.write(text)
        handle.write("\n")
