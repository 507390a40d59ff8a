"""Small IO helpers: atomic file writes, JSON files and typed JSON Lines records."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Collection, Iterable, Iterator, Mapping

from .errors import SchemaError


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


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write one compact JSON object per line; returns the number written."""
    count = 0
    with atomic_write(path) as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object) pairs, skipping blank lines.

    Lines are split at LF only (a CR before it is JSON whitespace). A line
    that is not UTF-8 or not JSON raises SchemaError naming it.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"invalid UTF-8 at byte {exc.start + 1}", lineno) from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg} (column {exc.colno})", lineno) from None
            yield lineno, obj


# JSON type name -> the Python types json.loads gives for it. Field types are
# compared with type(), not isinstance(), so a bool is not a number.
_JSON_TYPES = {"string": (str,), "number": (int, float), "array": (list,), "object": (dict,),
               "null": (type(None),)}
_TYPE_NAMES = {bool: "boolean", **{t: name for name, types in _JSON_TYPES.items() for t in types}}


def is_number(value: Any) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_records(path: str | Path, fields: Mapping[str, str], required: Collection[str] = (),
                 closed: bool = False) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for each record of a JSON Lines file.

    `fields` maps a field name to its JSON type, or types joined by "|" as in
    "number|null". A record must be an object holding every `required` field
    and, for each declared field it holds, a value of that type; with `closed`
    it may hold no other field. A violation raises SchemaError as
    `<path>: line <n>: <what>`."""
    types = {name: tuple(t for kind in spec.split("|") for t in _JSON_TYPES[kind])
             for name, spec in fields.items()}
    required = frozenset(required)
    for lineno, obj in read_jsonl(path):
        if type(obj) is not dict:
            raise SchemaError(f"record is a JSON {_TYPE_NAMES[type(obj)]}, not an object", lineno, path)
        if not required <= obj.keys():
            raise SchemaError(f"missing fields {sorted(required - obj.keys())}", lineno, path)
        for name, value in obj.items():  # only the fields present: absent ones cost nothing
            allowed = types.get(name)
            if allowed is None:
                if closed:
                    raise SchemaError(f"unknown fields {sorted(obj.keys() - types.keys())}", lineno, path)
            elif type(value) not in allowed:
                raise SchemaError(f"field {name!r} must be {fields[name].replace('|', ' or ')}, "
                                  f"not {_TYPE_NAMES[type(value)]}", lineno, path)
        yield lineno, obj


def dataclass_from_obj(cls: type, obj: Any, what: str) -> Any:
    """Dataclass `cls` built from only the fields a JSON object sets, so its
    defaults live in `cls` alone. A non-object, an unknown field or a missing
    required field raises SchemaError naming `what`."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = obj.keys() - {f.name for f in fields}
    if unknown:
        raise SchemaError(f"{what}: unknown fields {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in obj
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise SchemaError(f"{what}: missing fields {missing}")
    return cls(**obj)


def load_json(path: str | Path) -> Any:
    """Parse a whole JSON file; content that is not UTF-8 JSON raises
    SchemaError naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: invalid UTF-8 at byte {exc.start + 1}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})") from None


def dump_json(path: str | Path, payload: dict) -> None:
    """Atomically write a deterministic, human-readable JSON document."""
    with atomic_write(path) as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")
