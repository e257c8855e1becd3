"""Every module-level definition in the package has a caller in the package."""

import ast
import pathlib

import skewprod

PACKAGE = pathlib.Path(skewprod.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# a test helper kept in the package: it reads a written record back as the
# canonical bytes that the determinism tests compare
ALLOWED = {"record_bytes_from_file"}


def test_every_definition_is_reached_or_exported():
    """A definition counts as reached by a bare name in its own module, outside
    its own body, or by a `from .module import name` anywhere in the package
    (`__init__` included); a method or attribute of the same name does not."""
    defined, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if own:
                defined.add((path.stem, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    reached.add((path.stem, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    reached.update((node.module, alias.name) for alias in node.names)
    orphans = sorted(f"{mod}.{name}" for mod, name in defined - reached if name not in ALLOWED)
    assert not orphans, f"defined but reached by no package code: {orphans}"
