"""Every import is read, and every function, method and module-level name has a reader.

The package is read with stdlib `ast`, never imported for this.  A function
counts as read when its name appears in `src/weylnet` outside its own `def`
(as a name or an attribute), or in `perfbench/spans.py` or
`perfbench/workloads.py`, which bind their targets by name; those two are
read as text, as test_bench_bindings.py does, never imported or run.  A
module-level name counts as read the same way, outside the statement that
assigns it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weylnet"
SOURCES = sorted(SRC.glob("*.py"))
BENCH = "\n".join((ROOT / "perfbench" / name).read_text() for name in ("spans.py", "workloads.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reads(node: ast.AST):
    """Each identifier read at or below node: Name ids and Attribute attrs."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _defs():
    """(qualified name, def node) for each module-level function and method."""
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _assigned():
    """(qualified name, statement) for each name a module-level assignment binds."""
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in ast.walk(ast.Tuple(elts=targets)):
                    if isinstance(n, ast.Name):
                        yield f"{path.stem}.{n.id}", node


def _unread(named) -> list:
    """The qualified names of (qualified name, node) pairs whose name is read
    nowhere in src/weylnet outside node, nor in perfbench's bindings."""
    reads = Counter(name for path in SOURCES for name in _reads(_tree(path)))
    dead = []
    for qualname, node in named:
        name = qualname.rsplit(".", 1)[1]
        if name.startswith("__") and name.endswith("__"):
            continue
        outside = reads[name] - sum(1 for n in _reads(node) if n == name)
        if outside == 0 and not re.search(rf"\b{name}\b", BENCH):
            dead.append(qualname)
    return dead


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = _tree(path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    unread = sorted(bound - set(_reads(tree)))
    assert not unread, f"{path.name} imports {unread} and never reads them"


def test_every_function_and_method_has_a_reader():
    dead = _unread(_defs())
    assert not dead, f"no reader in src/weylnet or perfbench: {dead}"


def test_every_module_level_name_has_a_reader():
    dead = _unread(_assigned())
    assert not dead, f"no reader in src/weylnet or perfbench: {dead}"
