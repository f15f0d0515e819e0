"""The package's public surface is what its runs use.

Every top-level public function or class of `src/nhsense` must be named
somewhere outside its own definition: in the package, the demos, the README
or the benchmark scripts.  A name that only tests call is surface that no run
exercises, and fails here.  The test reads those files and nothing else.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nhsense").glob("*.py"))
USERS = [*PACKAGE, *sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md",
         *sorted((ROOT / "perfbench").glob("*.py"))]


def _outside(lines: list[str], node: ast.AST) -> str:
    """The lines of a file without those of node's definition, decorators included."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return "\n".join(lines[:first - 1] + lines[node.end_lineno:])


def test_every_public_name_is_used_outside_its_definition():
    texts = {path: path.read_text(encoding="utf-8") for path in USERS}
    unused = []
    for path in PACKAGE:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(name.search(_outside(lines, node) if user == path else text)
                       for user, text in texts.items()):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, (f"named nowhere in src/, demos/, README.md or perfbench/*.py outside their own "
                        f"definitions (delete them or give them a caller): {', '.join(unused)}")
