"""Every name that ``sftlab/__init__.py`` exports has a caller in the package.

A name that only the tests call belongs in the tests (``tests/reference.py``
holds such references).  The scan reads the syntax trees of every package
module but ``__init__``, so a name in a docstring, comment or string counts for
nothing, and neither does a use inside the name's own definition.  An
export listed in UNCALLED must have no caller, so the list cannot go stale.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sftlab"

# exports with no caller in the package, and why each stays public
UNCALLED = {
    "sft_backward": "the gradient of sft_transform: the transform and its gradient "
                    "are the package's subject, and finite differences check it",
    "forward_backward": "the trainer's step kernel on one run, the form whose "
                        "gradients the finite-difference suites check end to end",
}


def exports():
    """The names that the package's __init__ imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


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


def test_every_export_has_a_caller_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    uncalled = sorted(name for name in exports()
                      if not any(name in used_names(tree, name) for tree in trees))
    assert uncalled == sorted(UNCALLED)
