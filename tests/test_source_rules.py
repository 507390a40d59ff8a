"""Rules on the package source, checked on its syntax tree.

A handler for `Exception`, for `BaseException` or a bare `except` must end in
a bare `raise`: it may clean up, but it may not decide what a failure means.
Which failures are retried or reported lives with the narrow handlers, such
as `backends.post_json` for endpoint requests.

Only `ioutils` creates, renames or opens files for writing: every output goes
through `atomic_write`, so `output_transaction` is the one place that decides
when a written file appears.

Only `ioutils.decode_utf8` decodes bytes (a `.decode(` call) and only
`ioutils.parse_json` calls `json.load` or `json.loads`: every file and
endpoint reply goes through these two, so one place decides what is bad
UTF-8 or bad JSON and how the fault is worded.

Only `corpus.segment_tokens` calls `.split()` or `.rsplit()` without a
separator: one place decides what a word is, so dedup shingles, repetition
scoring, the n-gram LM and chrF cut a text into the same units, and a
script written without spaces gets codepoints everywhere or nowhere.

In `cli.py`, no function both calls `_run_stages` and reads a corpus with
`read_corpus`: `_run_stages` reads its input itself, so a filter command
builds its stages, loading their model files and scorers, before any input
is read, and a bad stage is reported before a bad input.

Only `corpus` makes a call with a `scores=` keyword: `corpus.attach_scores`
is the one code that puts a score on a record, so every scored record holds
a float under its scorer's name and every unscored one is left as it was.

No function calls itself, by its bare name or, for a method, through its
first parameter (`self.f()`, `cls.f()`): how deep a call goes may never
depend on the input, such as the order in a model file, so no input can
reach the interpreter's recursion limit.

Only `langid`, `minlsh`, `_minhash_py` and `mixopt` import NumPy when they
are imported, and no module imports the HTTP stack (`http.client`,
`urllib.request`, `urllib.error`, `ssl`), `concurrent.futures` or
`multiprocessing` then: a command loads each only when it runs code that
uses it, as `test_startup.py` checks in fresh interpreters.
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


# (module, function) pairs that write or rename a file; any tempfile function
_FILE_WRITERS = {("os", "replace"), ("os", "rename"), ("os", "fdopen"), ("os", "open")}


def _mode(call: ast.Call, position: int) -> ast.expr | None:
    """The mode argument of an open call, at `position` or given by name."""
    modes = [*call.args[position:position + 1], *(k.value for k in call.keywords if k.arg == "mode")]
    return modes[0] if modes else None


def _writes(mode: ast.expr | None) -> bool:
    """Whether an open mode may write; a mode that is not a literal may."""
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return mode is not None


def _is_file_write(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "tempfile" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "tempfile" or any((node.module, alias.name) in _FILE_WRITERS for alias in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open" and _writes(_mode(node, 1))
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if owner == "tempfile" or (owner, func.attr) in _FILE_WRITERS or func.attr in ("write_text", "write_bytes"):
        return True
    # Path.open takes the mode first; other objects' open methods (an
    # urllib opener's) take no literal there
    return func.attr == "open" and isinstance(_mode(node, 0), ast.Constant) and _writes(_mode(node, 0))


def file_writes(source: str, filename: str) -> list[str]:
    """`<filename>:<line>` of each call or import that writes or renames a
    file: os.replace, os.rename, os.fdopen, os.open, tempfile,
    Path.write_text and write_bytes, and open or Path.open with a mode that
    writes."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename)) if _is_file_write(node)]


def test_only_ioutils_writes_files():
    found = [place for path in sorted(PACKAGE.rglob("*.py")) if path.name != "ioutils.py"
             for place in file_writes(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


@pytest.mark.parametrize("line, writes", [
    ("os.replace(tmp, path)", True),
    ("os.rename(tmp, path)", True),
    ("handle = os.fdopen(fd, 'w')", True),
    ("fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)", True),
    ("fd, tmp = tempfile.mkstemp()", True),
    ("import tempfile", True),
    ("from tempfile import mkstemp", True),
    ("from os import replace", True),
    ("handle = open(path, 'w')", True),
    ("handle = open(path, mode='a', encoding='utf-8')", True),
    ("handle = open(path, 'r+b')", True),
    ("handle = open(path, mode)", True),
    ("handle = path.open('x')", True),
    ("path.write_text(text)", True),
    ("handle = open(path)", False),
    ("handle = open(path, 'rb')", False),
    ("handle = open(path, encoding='utf-8')", False),
    ("handle = path.open()", False),
    ("reply = opener.open(request, timeout=5)", False),
    ("from os import path", False),
    ("os.unlink(tmp)", False),
])
def test_file_write_rule(line, writes):
    assert file_writes(f"def f():\n    {line}\n", "m.py") == (["m.py:2"] if writes else [])


def score_writes(source: str, filename: str) -> list[str]:
    """`<filename>:<line>` of each call that passes a `scores=` keyword."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and any(k.arg == "scores" for k in node.keywords)]


def test_only_corpus_puts_a_score_on_a_record():
    found = [place for path in sorted(PACKAGE.rglob("*.py")) if path.name != "corpus.py"
             for place in score_writes(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


@pytest.mark.parametrize("line, writes", [
    ("scored = replace(pair, scores={**pair.scores, 'chrf': 1.0})", True),
    ("scored = dataclasses.replace(doc, scores=scores)", True),
    ("doc = Document(id='d', lang='en', text='t', scores={'ppl': 3.5})", True),
    ("scored, unscored = attach_scores(pairs, scorer.name, scorer.score_many(items))", False),
])
def test_score_write_rule(line, writes):
    assert score_writes(f"def f():\n    {line}\n", "m.py") == (["m.py:2"] if writes else [])


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_calls(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
    """The calls in `function`'s body, outside the functions and classes defined in it."""
    calls, stack = [], list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, _SCOPES))
    return calls


def _calls_itself(call: ast.Call, function: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool) -> bool:
    func = call.func
    if not is_method:  # in a method, a bare name is a module-level function
        return isinstance(func, ast.Name) and func.id == function.name
    first = function.args.posonlyargs + function.args.args
    return (bool(first) and isinstance(func, ast.Attribute) and func.attr == function.name
            and isinstance(func.value, ast.Name) and func.value.id == first[0].arg)


def self_calls(source: str, filename: str) -> list[str]:
    """`<filename>:<line>` of each call by which a function calls itself."""
    tree = ast.parse(source, filename)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    return [f"{filename}:{call.lineno}" for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for call in _own_calls(function) if _calls_itself(call, function, id(function) in methods)]


def test_no_function_calls_itself():
    found = [place for path in sorted(PACKAGE.rglob("*.py"))
             for place in self_calls(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


@pytest.mark.parametrize("source, recurses", [
    ("def f(n):\n    return f(n - 1)", True),
    ("async def f(n):\n    return await f(n - 1)", True),
    ("class A:\n    def f(self, k):\n        return self.f(k - 1)", True),
    ("class A:\n    @classmethod\n    def f(cls):\n        return cls.f()", True),
    ("def f():\n    def g(n):\n        return g(n - 1)\n    return g(3)", True),
    ("def f(xs):\n    return [f(x) for x in xs]", True),
    ("def main(argv):\n    return cli.main(args=argv)", False),
    ("class A:\n    def main(self, cli):\n        return cli.main()", False),
    ("class A:\n    def f(self):\n        return f()", False),
    ("class A:\n    def f(self):\n        return self.g()", False),
    ("def f():\n    return g()", False),
    ("def f():\n    def g():\n        return f\n    return g", False),
])
def test_recursion_rule(source, recurses):
    found = self_calls(source + "\n", "m.py")
    assert len(found) == (1 if recurses else 0), found


def _decoding(node: ast.AST) -> str | None:
    """"json" for a json.load or json.loads call or import, "decode" for a
    .decode( call, None for anything else."""
    if isinstance(node, ast.ImportFrom):
        return "json" if node.module == "json" and any(a.name in ("load", "loads") for a in node.names) else None
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    func = node.func
    if func.attr == "decode":
        return "decode"
    if func.attr in ("load", "loads") and isinstance(func.value, ast.Name) and func.value.id == "json":
        return "json"
    return None


def scoped_places(source: str, filename: str, kind_of) -> list[str]:
    """`<filename>:<function>:<kind>` of each node that `kind_of` gives a
    kind, in source order; code outside any function is in `<module>`."""
    found, stack = [], [(ast.parse(source, filename), "<module>")]
    while stack:
        node, scope = stack.pop()
        kind = kind_of(node)
        if kind:
            found.append((node.lineno, f"{filename}:{scope}:{kind}"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return [place for _, place in sorted(found)]


def decoding_calls(source: str, filename: str) -> list[str]:
    """The places that decode bytes or JSON text, as `_decoding` names their kind."""
    return scoped_places(source, filename, _decoding)


def _runs_or_reads(node: ast.AST) -> str | None:
    """"runs" for a call of `_run_stages`, "reads" for a call of
    `read_corpus`, bare or as an attribute; None for anything else."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return {"_run_stages": "runs", "read_corpus": "reads"}.get(name)


def stage_runners_that_read(source: str, filename: str) -> list[str]:
    """`<filename>:<function>` of each function that calls `_run_stages` and
    also `read_corpus`, in source order."""
    places = scoped_places(source, filename, _runs_or_reads)
    scopes = dict.fromkeys(place.rsplit(":", 1)[0] for place in places)
    return [scope for scope in scopes if f"{scope}:runs" in places and f"{scope}:reads" in places]


def test_only_run_stages_reads_a_filter_commands_input():
    assert stage_runners_that_read((PACKAGE / "cli.py").read_text(encoding="utf-8"), "cli.py") == []


@pytest.mark.parametrize("source, found", [
    ("def f(p):\n    docs = corpus_mod.read_corpus(p, 'mono')\n    return _run_stages(docs, 'mono', [], 'o')",
     ["m.py:f"]),
    ("def f(p):\n    return _run_stages(read_corpus(p, 'mono'), 'mono', [], 'o')", ["m.py:f"]),
    ("class A:\n    def f(self, p):\n        return self._run_stages(mtforge.corpus.read_corpus(p, 'mono'))",
     ["m.py:f"]),
    ("def f(p):\n    return _run_stages(p, 'mono', [], 'o', dropped_row=lambda *row: read_corpus(p, 'mono'))",
     ["m.py:f"]),
    ("def f(p):\n    return _run_stages(p, 'mono', [], 'o')", []),
    ("def _run_stages(p, kind, stages):\n    return run_pipeline(corpus_mod.read_corpus(p, kind), stages, kind)", []),
    ("def f(p):\n    return read_corpus(p, 'mono')\n\n\ndef g(p):\n    return _run_stages(p, 'mono', [], 'o')", []),
    ("def f(p):\n    reader = corpus_mod.read_corpus\n    return _run_stages(p, 'mono', [], 'o')", []),
])
def test_stage_reading_rule(source, found):
    assert stage_runners_that_read(source + "\n", "m.py") == found


def test_only_ioutils_decodes_outside_input():
    found = [place for path in sorted(PACKAGE.rglob("*.py"))
             for place in decoding_calls(path.read_text(encoding="utf-8"), path.name)]
    assert found == ["ioutils.py:decode_utf8:decode", "ioutils.py:parse_json:json"]


@pytest.mark.parametrize("source, found", [
    ("def f(raw):\n    return raw.decode('utf-8')", ["m.py:f:decode"]),
    ("def f(resp):\n    return resp.read().decode()", ["m.py:f:decode"]),
    ("def f(text):\n    return json.loads(text)", ["m.py:f:json"]),
    ("def f(handle):\n    return json.load(handle)", ["m.py:f:json"]),
    ("from json import loads", ["m.py:<module>:json"]),
    ("CONFIG = json.loads('{}')", ["m.py:<module>:json"]),
    ("class A:\n    def f(self, raw):\n        return raw.decode()", ["m.py:f:decode"]),
    ("def f(raw):\n    def g():\n        return json.loads(raw)\n    return raw.decode()",
     ["m.py:g:json", "m.py:f:decode"]),
    ("def f(obj):\n    return json.dumps(obj).encode('utf-8')", []),
    ("def f(text):\n    return parse_json(decode_utf8(text))", []),
    ("from json import dumps, JSONDecodeError", []),
    ("def f(loader, text):\n    return loader.loads(text)", []),
])
def test_decoding_rule(source, found):
    assert decoding_calls(source + "\n", "m.py") == found


def _whitespace_split(node: ast.AST) -> str | None:
    """"split" for a .split( or .rsplit( call that splits on whitespace,
    since it gives no separator or None; None for anything else."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("split", "rsplit")):
        return None
    separators = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "sep")]
    if not separators or (isinstance(separators[0], ast.Constant) and separators[0].value is None):
        return "split"
    return None


def whitespace_splits(source: str, filename: str) -> list[str]:
    """The places that cut text into whitespace tokens."""
    return scoped_places(source, filename, _whitespace_split)


def test_only_segment_tokens_splits_on_whitespace():
    found = [place for path in sorted(PACKAGE.rglob("*.py"))
             for place in whitespace_splits(path.read_text(encoding="utf-8"), path.name)]
    assert found == ["corpus.py:segment_tokens:split"]


@pytest.mark.parametrize("source, found", [
    ("def f(text):\n    return text.split()", ["m.py:f:split"]),
    ("def f(text):\n    return text.rsplit()", ["m.py:f:split"]),
    ("def f(text):\n    return text.split(maxsplit=1)", ["m.py:f:split"]),
    ("def f(text):\n    return text.split(None, 1)", ["m.py:f:split"]),
    ("def f(text):\n    return text.split(sep=None)", ["m.py:f:split"]),
    ("WORDS = 'a b'.split()", ["m.py:<module>:split"]),
    ("class A:\n    def f(self, text):\n        return ''.join(text.split())", ["m.py:f:split"]),
    ("def f(text):\n    return text.split('=', 1)", []),
    ("def f(text):\n    return text.split(' ')", []),
    ("def f(text):\n    return text.rsplit(sep=',')", []),
    ("def f(text):\n    return text.splitlines()", []),
    ("def f(text, lang):\n    return segment_tokens(text, lang)", []),
])
def test_whitespace_split_rule(source, found):
    assert whitespace_splits(source + "\n", "m.py") == found


# Modules that cost a command's start-up, and the package modules that may
# import them at module level: NumPy only where the work needs it, hashlib
# only in minlsh, and the HTTP stack, the thread pool and multiprocessing
# nowhere, so only the commands that use them load them.
_STARTUP_IMPORTS = {"numpy": {"langid", "minlsh", "_minhash_py", "mixopt"}, "multiprocessing": set(),
                    "http.client": set(), "urllib.request": set(), "urllib.error": set(), "ssl": set(),
                    "concurrent.futures": set(), "hashlib": {"minlsh"}}


def _imported(node: ast.AST) -> list[str]:
    """The absolute module names an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"


def startup_imports(source: str, filename: str) -> list[str]:
    """`<filename>:<line>:<module>` of each module of `_STARTUP_IMPORTS` that
    importing the file loads and may not: every import outside a function
    body and an `if TYPE_CHECKING:` block."""
    found, stack = [], [ast.parse(source, filename)]
    while stack:
        node = stack.pop()
        for name in _imported(node):
            for module, allowed in _STARTUP_IMPORTS.items():
                if (name == module or name.startswith(module + ".")) and filename[:-3] not in allowed:
                    found.append((node.lineno, f"{filename}:{node.lineno}:{module}"))
        if _is_type_checking(node):
            stack.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):  # a class body runs
            stack.extend(ast.iter_child_nodes(node))
    return [place for _, place in sorted(set(found))]


def test_startup_modules_load_only_where_used():
    found = [place for path in sorted(PACKAGE.rglob("*.py"))
             for place in startup_imports(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


@pytest.mark.parametrize("filename, source, found", [
    ("m.py", "import numpy as np", ["m.py:1:numpy"]),
    ("m.py", "from numpy.linalg import lstsq", ["m.py:1:numpy"]),
    ("minlsh.py", "import numpy as np", []),
    ("langid.py", "import multiprocessing", ["langid.py:1:multiprocessing"]),
    ("m.py", "import http.client", ["m.py:1:http.client"]),
    ("m.py", "from http import client", ["m.py:1:http.client"]),
    ("m.py", "import urllib.error, urllib.parse", ["m.py:1:urllib.error"]),
    ("m.py", "from urllib import request", ["m.py:1:urllib.request"]),
    ("m.py", "from concurrent.futures import ThreadPoolExecutor", ["m.py:1:concurrent.futures"]),
    ("m.py", "import multiprocessing.pool", ["m.py:1:multiprocessing"]),
    ("m.py", "try:\n    import ssl\nexcept ImportError:\n    ssl = None", ["m.py:2:ssl"]),
    ("m.py", "class A:\n    import ssl", ["m.py:2:ssl"]),
    ("m.py", "if TYPE_CHECKING:\n    pass\nelse:\n    import ssl", ["m.py:4:ssl"]),
    ("m.py", "if TYPE_CHECKING:\n    from concurrent.futures import Executor", []),
    ("m.py", "def f():\n    import http.client", []),
    ("m.py", "class A:\n    def f(self):\n        from concurrent.futures import wait", []),
    ("m.py", "import urllib.parse", []),
    ("m.py", "from urllib import parse", []),
    ("m.py", "from . import minlsh", []),
    ("m.py", "from .parallel import map_chunks", []),
])
def test_startup_import_rule(filename, source, found):
    assert startup_imports(source + "\n", filename) == found
