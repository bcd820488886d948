"""Every name a module of the package imports is used in that module, and so
is every private (``_name``) function, class or variable and every upper-case
constant it defines at top level.

``__init__.py`` is exempt from the import check because it re-exports what it
imports: the names it imports are exactly ``nre.__all__``, and each resolves.
``from __future__`` imports are directives, so they are exempt too.

No module but ``data.py`` opens a file to read text: the others read through
``nre.data.read_text``. No module but ``cli.py`` prints or names the standard
streams: the library reports through exceptions and ``warnings`` alone.
"""
import ast
import os

import pytest

import nre

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "nre")
SOURCES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
MODULES = [f for f in SOURCES if f != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The line of every name the module's import statements bind."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\nd()\n") == ["line 2: b"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unread_top_level_names(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, assigned) of each top-level function, class or variable that
    nothing in the module reads; ``assigned`` is False for functions and classes."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[name.id] = node.lineno, True
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [(name, line, kind) for name, (line, kind) in defined.items() if name not in read]


def unused_private_names(source: str) -> list[str]:
    """Top-level ``_name`` definitions that nothing in the module reads."""
    return [
        f"line {line}: {name}"
        for name, line, _ in unread_top_level_names(source)
        if name.startswith("_") and not name.startswith("__")
    ]


def unused_constants(source: str) -> list[str]:
    """Top-level upper-case variables (``NAME = ...``) that their own module never reads.

    A constant that only other modules or the tests read is a setting kept
    alive for them: it belongs where it is read.
    """
    return [
        f"line {line}: {name}"
        for name, line, assigned in unread_top_level_names(source)
        if assigned and name.isupper()
    ]


def test_unused_private_name_is_found():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f(): return _A\ndef _g(): pass\nclass _C: pass\n_f()\n"
    )
    assert unused_private_names(source) == ["line 2: _B", "line 5: _g", "line 6: _C"]


@pytest.mark.parametrize("module", SOURCES)
def test_no_unused_private_names(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_private_names(fh.read()) == []


def test_unused_constant_is_found():
    source = (
        "A = 1\nB: int = 2\nC, D = 3, 4\nlower = 5\n_E = 6\n__all__ = []\n"
        "def F(): return A + D\nclass G: pass\n"
    )
    assert unused_constants(source) == ["line 2: B", "line 3: C", "line 5: _E"]


@pytest.mark.parametrize("module", SOURCES)
def test_no_unused_constants(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_constants(fh.read()) == []


def text_reads(source: str) -> list[str]:
    """Calls of ``open`` or ``gzip.open`` whose mode reads text.

    The mode is the second positional argument or ``mode=``, by default ``"r"``
    for ``open`` and ``"rb"`` for ``gzip.open``. It reads text when it holds no
    ``b`` and an ``r`` or a ``+``; a mode that is not a string literal counts too.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name not in ("open", "gzip.open"):
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r" if name == "open" else "rb")
        if not isinstance(mode, ast.Constant) or "b" not in mode.value and (
            "r" in mode.value or "+" in mode.value
        ):
            found.append((node.lineno, f"line {node.lineno}: {name}"))
    return [text for _, text in sorted(found)]


def test_text_read_is_found():
    source = (
        'open(p)\nopen(p, "w")\nopen(p, "rb")\nopen(p, mode="rt")\ngzip.open(p)\n'
        'gzip.open(p, "rt")\nopen(p, "w+")\nopen(p, m)\nfh.open()\nos.open(p, 0)\n'
    )
    assert text_reads(source) == [
        "line 1: open", "line 4: open", "line 6: gzip.open", "line 7: open", "line 8: open"
    ]


@pytest.mark.parametrize("module", [m for m in SOURCES if m != "data.py"])
def test_text_is_read_only_in_data(module):
    """Text input is read through ``nre.data.read_text``, which maps its faults to DataError."""
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert text_reads(fh.read()) == []


def stream_writes(source: str) -> list[str]:
    """Calls of ``print`` and every use of ``sys.stdout`` or ``sys.stderr``, imported or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
            found.append((node.lineno, f"line {node.lineno}: print"))
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.stdout", "sys.stderr"):
            found.append((node.lineno, f"line {node.lineno}: {ast.unparse(node)}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found.extend((node.lineno, f"line {node.lineno}: sys.{alias.name}")
                         for alias in node.names if alias.name in ("stdout", "stderr"))
    return [text for _, text in sorted(found)]


def test_stream_write_is_found():
    source = (
        "print(x)\nsys.stdout.write(x)\nf(file=sys.stderr)\nfrom sys import stderr, argv\n"
        "log.print(x)\nsys.argv\nprinter(x)\n"
    )
    assert stream_writes(source) == [
        "line 1: print", "line 2: sys.stdout", "line 3: sys.stderr", "line 4: sys.stderr"
    ]


@pytest.mark.parametrize("module", [m for m in SOURCES if m != "cli.py"])
def test_only_the_cli_writes_to_the_streams(module):
    """The library reports through exceptions and ``warnings``; ``nre.cli`` prints them."""
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert stream_writes(fh.read()) == []


def test_package_exports_exactly_what_it_imports():
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        imported = imported_names(ast.parse(fh.read()))
    assert sorted(imported) == sorted(nre.__all__)
    assert len(set(nre.__all__)) == len(nre.__all__)
    for name in nre.__all__:
        assert getattr(nre, name, None) is not None, name
