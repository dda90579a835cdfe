"""Library checks must survive `python -O`, which strips every `assert`."""

import ast
from pathlib import Path

import slopelab


def test_library_has_no_assert_statements():
    root = Path(slopelab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(root.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert in library code (use an explicit raise): " + \
        ", ".join(found)
