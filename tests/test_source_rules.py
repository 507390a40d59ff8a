"""Rules on the package source, checked on its syntax tree.

A handler for `Exception`, for `BaseException` or a bare `except` must end in
a bare `raise`: it may clean up, but it may not decide what a failure means.
Which failures are retried or reported lives with the narrow handlers, such
as `backends.post_json` for endpoint requests.
"""

import ast
from pathlib import Path

import pytest

import mtforge

PACKAGE = Path(mtforge.__file__).resolve().parent
_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in _BROAD for t in types)


def swallowing_handlers(source: str, filename: str) -> list[str]:
    """`<filename>:<line>` of each broad handler whose body does not end in a bare raise."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.ExceptHandler) and _is_broad(node)
            and not (isinstance(node.body[-1], ast.Raise) and node.body[-1].exc is None)]


def test_no_broad_handler_swallows_a_failure():
    found = [place for path in sorted(PACKAGE.rglob("*.py"))
             for place in swallowing_handlers(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


@pytest.mark.parametrize("handler, swallows", [
    ("except Exception:\n    return None", True),
    ("except Exception as exc:\n    raise Wrapped(exc)", True),
    ("except (ValueError, BaseException):\n    pass", True),
    ("except:\n    log()", True),
    ("except BaseException:\n    cleanup()\n    raise", False),
    ("except Exception:\n    raise", False),
    ("except ValueError:\n    return None", False),
    ("except (OSError, KeyError) as exc:\n    cause = exc", False),
])
def test_rule(handler, swallows):
    source = "def f():\n    try:\n        g()\n" + "".join(f"    {line}\n" for line in handler.splitlines())
    assert swallowing_handlers(source, "m.py") == (["m.py:4"] if swallows else [])
