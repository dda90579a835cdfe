"""Library checks must survive `python -O`, which strips every `assert`,
and must fail as `SlopelabError`s, which the CLI maps to exit codes."""

import ast
from pathlib import Path

import slopelab


def _library_nodes():
    root = Path(slopelab.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.relative_to(root.parent)}:{getattr(node, 'lineno', 0)}", node


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    found = [where for where, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, "assert in library code (use an explicit raise): " + \
        ", ".join(found)


def test_library_raises_no_assertion_error():
    found = [where for where, node in _library_nodes()
             if isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert not found, "AssertionError raised in library code (raise a " \
        "SlopelabError): " + ", ".join(found)
