"""Source hygiene of the package, read with ast alone: every imported name
is used, every __all__ entry names something the module defines, every
private module-level helper is referenced somewhere in the package, and
every public name has a caller outside the tests. The tests' oracle module
is held to the same import and private-helper checks, its helpers
referenced within it."""

import ast
import glob
import os
import re

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src", "holofield")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
ORACLES = os.path.join(TESTS, "oracles.py")
# where a public name of the package may be called from
CALLERS = MODULES + sorted(
    glob.glob(os.path.join(ROOT, "bench", "*.py"))
    + glob.glob(os.path.join(ROOT, "tools", "*.py")))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _imported(tree):
    """Names bound by the module's imports, __future__ aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def _used(tree):
    """Names read anywhere, and the __all__ entries."""
    return set(_exported(tree)) | {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _defined(tree):
    """Names the module binds at top level."""
    out = _imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return out


def _per_module(check, paths=MODULES):
    """check(tree) for every module, keeping the non-empty results."""
    out = {}
    for path in paths:
        found = sorted(check(_parse(path)))
        if found:
            out[os.path.basename(path)] = found
    return out


def test_every_import_is_used():
    assert MODULES
    assert _per_module(lambda tree: _imported(tree) - _used(tree),
                       MODULES + [ORACLES]) == {}


def test_all_names_are_defined():
    assert _per_module(
        lambda tree: set(_exported(tree)) - _defined(tree)) == {}


def _private_definitions(tree):
    """The module-level functions and classes named with a leading _."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")}


def _references(tree):
    """Names read, attributes taken and names imported anywhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_every_private_definition_is_referenced():
    """A private helper nothing in the package calls is dead code."""
    used = set().union(*(_references(_parse(p)) for p in MODULES))
    assert _per_module(lambda tree: _private_definitions(tree) - used) == {}


def test_every_oracle_private_definition_is_referenced():
    """The oracles serve the tests alone, so their private helpers must be
    called from within the oracle module."""
    assert _per_module(lambda tree: _private_definitions(tree)
                       - _references(tree), [ORACLES]) == {}


def _public_definitions(tree):
    """The module-level public functions and classes, and the __all__
    entries."""
    return set(_exported(tree)) | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")}


def _readme_names():
    """Every identifier inside backticks in README.md, fenced code
    included."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        spans = re.findall(r"`+([^`]+)`+", fh.read())
    return {n for s in spans for n in re.findall(r"[A-Za-z_]\w*", s)}


def test_every_public_name_has_a_caller():
    """A public name that only the tests reach belongs in the oracles: each
    must be referenced, outside its own definition, in src/, bench/*.py,
    tools/*.py or a README name in backticks."""
    trees = {path: _parse(path) for path in CALLERS}
    where = {}  # name -> the top-level statements referencing it
    for path, tree in trees.items():
        for node in tree.body:
            for name in _references(node):
                where.setdefault(name, set()).add((path, node.lineno))
    readme = _readme_names()
    unused = {}
    for path in MODULES:
        tree = trees[path]
        own = {node.name: {(path, node.lineno)} for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        found = sorted(
            name for name in _public_definitions(tree) - readme
            if not where.get(name, set()) - own.get(name, set()))
        if found:
            unused[os.path.basename(path)] = found
    assert unused == {}
