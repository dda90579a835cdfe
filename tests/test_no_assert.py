"""Library checks must survive `python -O`, which strips every `assert`,
and must fail as `SlopelabError`s, which the CLI maps to exit codes.
The library's records are `typing.NamedTuple`s, not dataclasses, and a
refusal gets its own `PreconditionError` subclass only when library code
catches that subclass by name."""

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


def _imports_dataclasses(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"


def test_library_does_not_import_dataclasses():
    # `import dataclasses` loads `inspect`, and each frozen dataclass execs
    # its generated methods when its module is imported, a start-up cost
    # that every run of a command paid
    found = [where for where, node in _library_nodes()
             if _imports_dataclasses(node)]
    assert not found, "dataclasses imported in library code (use a " \
        "typing.NamedTuple): " + ", ".join(found)


def _handler_names(node) -> set:
    kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return {k.attr if isinstance(k, ast.Attribute) else getattr(k, "id", None)
            for k in kinds}


def test_every_precondition_subclass_is_caught_by_name():
    # the CLI maps every PreconditionError to exit 2 and prints its message,
    # so a subclass that no library code catches tells nothing apart
    nodes = [node for _, node in _library_nodes()]
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None))
                         for b in node.bases}
             for node in nodes if isinstance(node, ast.ClassDef)}
    family, grown = set(), {"PreconditionError"}
    while grown != family:
        family = grown
        grown = family | {name for name, up in bases.items() if up & family}
    caught = set().union(*(_handler_names(node) for node in nodes
                           if isinstance(node, ast.ExceptHandler) and node.type))
    uncaught = sorted(family - {"PreconditionError"} - caught)
    assert not uncaught, "PreconditionError subclasses that no library " \
        "code catches (raise PreconditionError): " + ", ".join(uncaught)
