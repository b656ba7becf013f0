"""`python -O` strips `assert`, so the library guards its invariants with typed errors,
and every error type it declares is raised somewhere.  The library also calls
np.unique only in forms that do not import numpy.ma, decides whether an
array is writable in scheme.py alone, and enumerates PGL(2,p) in
subgroups.pgl_table alone."""

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


def _raised_names(tree) -> set[str]:
    """Names of the classes each `raise` statement instantiates or raises."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def test_every_error_type_is_raised():
    # an error type nothing raises is dead API: delete it with its last raise
    errors = ast.parse((SRC / "errors.py").read_text())
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised |= _raised_names(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(declared - raised - {"PlaneSchemesError"}) == []


def test_no_np_unique_without_a_return_flag():
    # under numpy 2, np.unique(x) with no return_index/inverse/counts calls
    # np.ma.is_masked, which imports numpy.ma (also with axis=...): 12-30 ms
    # in every fresh interpreter and pool worker.  Count distinct values with
    # np.bincount instead; this holds on numpy versions that load numpy.ma
    # anyway, where the sweep test cannot see a regression
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and not any((kw.arg or "").startswith("return_") for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_scheme_py_decides_writability():
    # Scheme.__post_init__ freezes through scheme.frozen_copy, which no caller
    # can undo; a soft read-only flag set anywhere else can be turned back on
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scheme.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            if ((isinstance(node, ast.Attribute) and node.attr == "setflags")
                    or any(isinstance(t, ast.Attribute) and t.attr == "writeable"
                           and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
                           for t in targets)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_pgl_table_enumerates_the_group():
    # every reader of PGL(2,p) on the slopes goes through the one table per
    # prime, so no module derives the elements, permutations or orders again
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(call) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "pgl_table"
                  and path.name == "subgroups.py"
                  for call in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in inside
                    and (getattr(node.func, "id", None) == "pgl_elements"
                         or getattr(node.func, "attr", None) == "pgl_elements")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
