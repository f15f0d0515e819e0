"""The package's public surface is what its runs use.

Every top-level public function or class of `src/nhsense` must be named by
code outside its own definition: in the package, the demos or the benchmark
scripts.  Only identifiers count (names, attribute names and imported
names), not docstrings, comments, strings or the README.  A name that only
tests or prose name is surface that no run exercises, and fails here.  The
test reads those files and nothing else.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nhsense").glob("*.py"))
USERS = [*PACKAGE, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def _identifiers(nodes) -> set[str]:
    """The names, attribute names and imported names that occur in nodes."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name.rpartition(".")[2])
    return found


def test_every_public_name_is_used_outside_its_definition():
    bodies = {path: ast.parse(path.read_text(encoding="utf-8")).body for path in USERS}
    unused = []
    for path in PACKAGE:
        elsewhere = set().union(*(_identifiers(body) for user, body in bodies.items() if user != path))
        for node in bodies[path]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere | _identifiers(n for n in bodies[path] if n is not node):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, (f"named by no code in src/, demos/ or perfbench/*.py outside their own "
                        f"definitions (delete them or give them a caller): {', '.join(unused)}")
