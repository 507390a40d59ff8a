"""Small IO helpers: atomic file writes, output transactions, the one UTF-8
and JSON decoder of outside bytes, JSON files and typed JSON Lines records."""

from __future__ import annotations

import contextvars
import dataclasses
import errno
import functools
import json
import math
import os
import re
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping

from .errors import MtforgeError, ValidationError, at


# The open output transaction of this context: destination -> temp file, in
# write order. A thread starts with an empty context, so its writes commit on
# their own.
_STAGED: contextvars.ContextVar[dict[Path, str] | None] = contextvars.ContextVar("staged", default=None)


@contextmanager
def output_transaction() -> Iterator[None]:
    """Commit every file written by `atomic_write` in the block together.

    When the block returns, each temp file is renamed into place in write
    order; on an exception, or when a rename fails, every temp file not yet
    renamed is removed. A rename failing part-way leaves the renames before
    it. Entered inside an open transaction, it joins that one.
    """
    if _STAGED.get() is not None:
        yield
        return
    staged: dict[Path, str] = {}
    token = _STAGED.set(staged)
    try:
        yield
        for path, tmp in list(staged.items()):
            try:
                os.replace(tmp, path)
            except OSError as exc:  # name the destination, not the temp file the cleanup removes
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            del staged[path]
    finally:
        _STAGED.reset(token)
        for tmp in staged.values():
            with suppress(OSError):
                os.unlink(tmp)


@contextmanager
def atomic_write(path: str | Path) -> Iterator[Any]:
    """Write to a temp file in the target directory, renamed into place when
    the output transaction commits (a transaction of this file alone when
    none is open). On any exception the destination is left untouched (it
    may not exist). A second write to one path in a transaction raises
    ValidationError, and a destination that is a directory IsADirectoryError,
    both before the file is staged. The file gets mode 0o666 less the umask,
    as open() gives a new file, also when it replaces an existing one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with output_transaction():
        staged = _STAGED.get()
        dest = path.parent.resolve() / path.name  # the directory entry os.replace replaces
        if dest in staged:
            raise ValidationError(f"{path}: written twice by one command")
        if dest.is_dir() and not dest.is_symlink():  # os.replace would fail at commit, after earlier renames
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        tmp = str(path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        staged[dest] = tmp
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


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


def decode_utf8(data: bytes) -> str:
    """`data` as UTF-8 text; an invalid byte raises ValidationError naming
    its 1-based offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"invalid UTF-8 at byte {exc.start + 1}") from None


# A JSON \u escape of a UTF-16 surrogate. json.loads joins an escaped pair
# into one code point, so a surrogate left in a parsed string is unpaired,
# and no UTF-8 writer can encode it.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str) -> Any:
    """The JSON value of `text`. A syntax fault raises ValidationError
    `invalid JSON: <what> (column <c>)`, as `(line <l>, column <c>)` when the
    text holds an LF; an integer beyond int()'s digit limit or nesting too
    deep `invalid JSON: <what>`; a string holding an unpaired surrogate
    `unpaired surrogate \\u<code> in a string`. Text without a surrogate
    escape, as nearly all is, costs one regex scan for the last check."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}" if "\n" in text else f"column {exc.colno}"
        raise ValidationError(f"invalid JSON: {exc.msg} ({where})") from None
    except (ValueError, RecursionError) as exc:  # an integer beyond int()'s digit limit, deep nesting
        raise ValidationError(f"invalid JSON: {exc}") from None
    if _SURROGATE_ESCAPE.search(text) is not None:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"unpaired surrogate \\u{ord(exc.object[exc.start]):04x} in a string") from None
    return obj


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object) pairs, skipping blank lines.

    Lines are split at LF only (a CR before it is JSON whitespace). A line
    that is not UTF-8, not JSON, or holds a string with an unpaired surrogate
    raises ValidationError `line <n>: <what>`.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = decode_utf8(raw)
                if not line.strip():
                    continue
                obj = parse_json(line.rstrip("\n"))
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
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
    ValidationError.

    `fields` maps a field name to its JSON type ("string", "integer",
    "number", "array", "object", "null", or several joined by "|" as in
    "number|null"), or to the tuple of strings it may be. The object must
    hold every `required` field and, for each declared field it holds, a
    value of that type; with `closed` it may hold no other field. `where`
    names the object and starts each message; without it the object is a
    record, and the caller adds the place."""
    prefix = f"{where}: " if where is not None else ""
    if type(obj) is not dict:
        raise ValidationError(f"{prefix or 'record is '}a JSON {_TYPE_NAMES[type(obj)]}, not an object")
    for name in required:
        if name not in obj:
            raise ValidationError(f"{prefix}missing fields {sorted(set(required) - obj.keys())}")
    for name, value in obj.items():  # only the fields present: absent ones cost nothing
        spec = fields.get(name)
        if spec is None:
            if closed:
                raise ValidationError(f"{prefix}unknown fields {sorted(obj.keys() - fields.keys())}")
        elif type(spec) is str:
            if type(value) not in _types_of(spec):
                raise ValidationError(f"{prefix}field {name!r} must be {spec.replace('|', ' or ')}, "
                                      f"not {_TYPE_NAMES[type(value)]}")
        elif value not in spec:
            got = repr(value) if type(value) is str else _TYPE_NAMES[type(value)]
            raise ValidationError(f"{prefix}field {name!r} must be {' or '.join(map(repr, spec))}, not {got}")
    return obj


def _as_is(obj: dict) -> dict:
    return obj


def read_records(path: str | Path, fields: Mapping[str, str], required: Collection[str] = (),
                 closed: bool = False, build: Callable[[dict], Any] = _as_is,
                 key: str | None = None) -> Iterator[tuple[int, Any]]:
    """Yield (1-based line number, `build(obj)`) for each object of a JSON
    Lines file, checked by `check_fields` before it is built. A
    ValidationError, from the line's syntax, the check or `build`, is raised
    as `<path>: line <n>: <what>`. With `key`, an object without
    that field gets its line number as a string there, before it is built,
    and a value of it seen on an earlier line raises `... duplicate <key>
    <value> (first on line <m>)`."""
    first_line: dict[str, int] = {}
    with at(path):
        for lineno, obj in read_jsonl(path):
            # a plain try, not a context entered per line: this runs on
            # every line of every input
            try:
                check_fields(obj, fields, required, closed)
                if key is not None and key not in obj:
                    obj[key] = str(lineno)
                record = build(obj)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            if key is not None and (first := first_line.setdefault(obj[key], lineno)) != lineno:
                raise ValidationError(f"line {lineno}: duplicate {key} {obj[key]!r} (first on line {first})")
            yield lineno, record


def required_fields(cls: type) -> list[str]:
    """The fields of dataclass `cls` without a default: a JSON object it is
    built from must set them."""
    return [f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]


def dataclass_from_obj(cls: type, obj: Any, where: object) -> Any:
    """Dataclass `cls` built from a JSON object checked against `cls.FIELDS`
    (its field table for `check_fields`), with only the fields the object
    sets, so the defaults live in `cls` alone. A field without a default is
    required and an unknown field is an error. Any ValidationError, the
    dataclass's own range checks included, names `where`."""
    check_fields(obj, cls.FIELDS, required_fields(cls), closed=True, where=where)
    with at(where):
        return cls(**obj)


def load_json(path: str | Path) -> Any:
    """Parse a whole JSON file; content that is not UTF-8 JSON, or holds a
    string with an unpaired surrogate, raises ValidationError naming the path."""
    with at(path):
        return parse_json(decode_utf8(Path(path).read_bytes()))


def dump_json(path: str | Path, payload: dict) -> None:
    """Atomically write a deterministic, human-readable JSON document."""
    text = _dumps(path, payload, indent=2)
    with atomic_write(path) as handle:
        handle.write(text)
        handle.write("\n")
