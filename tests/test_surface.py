"""The package's public surface is what its runs use.

Every top-level public function or class of `src/nhsense`, and every public
method or property of such a class, must be named by code outside its own
definition: in the package, the demos or the benchmark scripts.  Only
identifiers count (names, attribute names and imported names), not
docstrings, comments, strings or the README.  A name that only tests or
prose name is surface that no run exercises, and fails here.  Dataclass
fields are left out: the CLI reads a row's fields through `vars()`, by no
name.  The test reads those files and nothing else.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nhsense").glob("*.py"))
USERS = [*PACKAGE, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(tree, skip=None) -> set[str]:
    """The names, attribute names and imported names that occur in tree, outside the node skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public(nodes):
    """The public functions and classes among nodes."""
    return [node for node in nodes if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def _surface(module: ast.Module):
    """(qualified name, node) of each public top-level function or class of a module, and of each
    public method or property of its public classes."""
    for node in _public(module.body):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in _public(node.body):
                if not isinstance(member, ast.ClassDef):
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_is_used_outside_its_definition():
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    unused = []
    for path in PACKAGE:
        elsewhere = set().union(*(_identifiers(module) for user, module in modules.items() if user != path))
        for name, node in _surface(modules[path]):
            if node.name not in elsewhere | _identifiers(modules[path], skip=node):
                unused.append(f"{path.stem}.{name}")
    assert not unused, (f"named by no code in src/, demos/ or perfbench/*.py outside their own "
                        f"definitions (delete them or give them a caller): {', '.join(unused)}")
