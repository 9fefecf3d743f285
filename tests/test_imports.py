"""No module of the package imports a name it never uses, and every name a
module defines is named somewhere else. Standard library only: the import
statements and definitions come from each module's syntax tree. ``__init__``
is left out, since its imports are the package's public names, and so a
re-export there does not count as a use. Importing the package loads no
process pool machinery: a run in one process never needs it."""

import ast
import graphlib
import os
import re
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heraldsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
WORD = re.compile(r"\w+")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom x import a, b as c\nc(os)\n"
    assert unused_imports(source) == ["line 2: numpy", "line 3: a"]


def module_level_names(tree: ast.Module) -> list[tuple[str, int, int]]:
    """Each function, class and constant defined at the top of a module,
    with the first and last line of its definition."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                (t.id, node.lineno, node.end_lineno)
                for t in targets
                if isinstance(t, ast.Name) and not t.id.startswith("__")
            ]
    return names


def unused_names(source: str, words: Counter) -> list[str]:
    """The names ``source`` defines that no text counted in ``words`` (which
    includes ``source``) names outside the name's own definition."""
    lines = source.splitlines()
    unused = []
    for name, first, last in module_level_names(ast.parse(source)):
        inside = WORD.findall("\n".join(lines[first - 1 : last])).count(name)
        if words[name] == inside:
            unused.append(f"line {first}: {name}")
    return unused


@cache
def searched_words() -> Counter:
    """Every word of the README and of the Python files under src, tests,
    perfbench and scripts, except the package's ``__init__``."""
    texts = [(ROOT / "README.md").read_text()]
    for tree in ("src", "tests", "perfbench", "scripts"):
        texts += [
            p.read_text()
            for p in sorted((ROOT / tree).rglob("*.py"))
            if p != PACKAGE / "__init__.py"
        ]
    return Counter(word for text in texts for word in WORD.findall(text))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_defined_name_is_used(path):
    assert unused_names(path.read_text(), searched_words()) == []


def test_the_check_finds_an_unused_name():
    source = (
        "LIMIT = 2\n\ndef kept():\n    return LIMIT\n\n"
        "def dropped(n):\n    return dropped(n - 1)\n"
    )
    words = Counter(WORD.findall(source + "kept()"))
    assert unused_names(source, words) == ["line 6: dropped"]


def relative_imports(source: str) -> set[str]:
    """The package modules ``source`` imports relatively, at any depth of
    its syntax tree, so function-level imports count too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def import_cycle(sources: dict[str, str]) -> list[str]:
    """A cycle of the import graph of the named module sources, as the
    modules along it with the first repeated at the end; [] if none."""
    graph = {name: relative_imports(src) & sources.keys() for name, src in sources.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as err:
        return err.args[1]
    return []


def test_the_package_has_no_import_cycle():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert import_cycle(sources) == []


def test_the_check_finds_a_cycle_through_a_function_level_import():
    sources = {
        "a": "from .b import f\n",
        "b": "import os\n\ndef g():\n    from .a import h\n    return h\n",
        "c": "from . import a\n",
    }
    cycle = import_cycle(sources)
    assert sorted(cycle) == ["a", "a", "b"] and cycle[0] == cycle[-1]
    sources["b"] = "import os\n"
    assert import_cycle(sources) == []


def test_importing_the_package_loads_no_multiprocessing():
    code = "import sys, heraldsim\nprint('multiprocessing' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
