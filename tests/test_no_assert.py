"""`python -O` strips `assert`, so the library guards its invariants with typed errors."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "planeschemes"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
