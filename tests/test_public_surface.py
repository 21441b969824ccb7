"""Every name that the package exports or defines has a caller in the package.

A name that only the tests call belongs in the tests (``tests/reference.py``
holds such references).  The scan covers the names that ``sftlab/__init__.py``
exports and every function, class and method that a package module defines,
apart from dunder methods, which Python itself calls.  It reads the syntax
trees of every package module but ``__init__``, so a name in a docstring,
comment or string counts for nothing, and neither does a use inside the name's
own definition.  Names match by spelling alone: a method counts as called
where any attribute of its name is used.  A name listed in UNCALLED must have
no caller, so the list cannot go stale.

A second scan fails when a package module but ``__init__``, or a test
module, imports a name that it never uses, the debris that a deletion or a
rename tends to leave behind.  A third fails when a top-level assignment
in a package module but ``__init__`` binds a name, dunders aside, that no
such module loads, as a name or an attribute: a constant that outlived
its last reader.  A fourth fails when the README names, in backticks, a
dotted name under a package module or class that the package no longer
has.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sftlab"

# names with no caller in the package, and why each stays public
UNCALLED = {
    "sft_backward": "the gradient of sft_transform: the transform and its gradient "
                    "are the package's subject, and finite differences check it",
}


def exports():
    """The names that the package's __init__ imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def module_paths():
    """Every package module but __init__."""
    return sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def module_trees():
    """The syntax tree of every package module but __init__."""
    return [ast.parse(path.read_text(encoding="utf-8")) for path in module_paths()]


def definitions(trees):
    """Every function, class and method name that the trees define, dunders aside."""
    return sorted({node.name for tree in trees for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__"))})


def used_names(tree, skip):
    """Names and attributes that the tree uses, outside the definition of `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def uncalled(names, trees):
    return sorted(name for name in names if not any(name in used_names(tree, name) for tree in trees))


def test_every_export_has_a_caller_in_the_package():
    assert uncalled(exports(), module_trees()) == sorted(UNCALLED)


def test_every_definition_has_a_caller_in_the_package():
    trees = module_trees()
    assert uncalled(definitions(trees), trees) == sorted(UNCALLED)


def unused_imports(tree):
    """The names that the tree's imports bind and that no name in it loads,
    ``from __future__`` imports aside."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - loaded)


def test_unused_import_scan_finds_debris():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from dataclasses import dataclass, field\n"
                     "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(tree) == ["field", "os"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: names for path in module_paths() + sorted(TESTS.glob("*.py"))
              if (names := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}


def unread_constants(trees):
    """The names, dunders aside, that a top-level assignment of the trees
    binds and that no tree loads as a name or reads as an attribute."""
    bound = {name.id for tree in trees for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             for name in ast.walk(target) if isinstance(name, ast.Name)}
    loaded = {node.id for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded.update(node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return sorted(name for name in bound - loaded if not (name.startswith("__") and name.endswith("__")))


def test_unread_constant_scan_finds_debris():
    tree = ast.parse("__all__ = ['f']\n_CHUNK_ROWS = 256\nLIMIT: int = 3\nA, (B, C) = 1, (2, 3)\n"
                     "SCALE = 2.0\ndef f(x):\n    return x * SCALE + A + C + np.B\n")
    assert unread_constants([tree]) == ["LIMIT", "_CHUNK_ROWS"]


def test_no_module_keeps_an_unread_constant():
    assert unread_constants(module_trees()) == []


def readme_names():
    """(line, name) of every backticked dotted name in the README, such as
    `training.METHODS` or `EmbedModel.parameters()`, call parentheses aside."""
    text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    return [(text.count("\n", 0, match.start()) + 1, match.group(1))
            for match in re.finditer(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", text)]


def test_readme_dotted_names_resolve():
    """A dotted name whose head is a package module or a class that one
    defines resolves attribute by attribute; other heads (`report.json`,
    `json.dumps`) are not the package's."""
    modules = {path.stem: importlib.import_module(f"sftlab.{path.stem}")
               for path in module_paths() if path.stem != "__main__"}
    heads = dict(modules)
    heads.update((name, obj) for module in modules.values() for name, obj in vars(module).items()
                 if isinstance(obj, type) and obj.__module__.startswith("sftlab."))
    named = [(line, name) for line, name in readme_names() if name.partition(".")[0] in heads]
    unresolved = []
    for line, name in named:
        head, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, heads[head])
        except AttributeError:
            unresolved.append(f"line {line}: {name}")
    assert len(named) > 10 and unresolved == []
