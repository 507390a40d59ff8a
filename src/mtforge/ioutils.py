"""Small IO helpers: atomic file writes, JSON files and JSON Lines primitives."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

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
