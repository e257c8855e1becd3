"""Every module-level definition and every method in the package has a caller in the package."""

import ast
import pathlib
from collections import Counter

import skewprod

PACKAGE = pathlib.Path(skewprod.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# definitions that no package code reaches, each with its reason
ALLOWED = {
    # the one-call wrappers kept for library users (ROADMAP, Settled)
    "exact_Sn_distribution": "the exact law of S_n on one window",
    "char_function_spectral": "the spectral characteristic function on one window",
    "sample_Sn": "Monte Carlo samples of S_n on one window",
    "record_bytes_from_file": "a test helper: a written record read back as the canonical "
                              "bytes that the determinism tests compare",
}


def test_every_definition_is_reached():
    """A definition counts as reached by a bare name in its own module, outside
    its own body, or by a `from .module import name` in another package module;
    a method or attribute of the same name does not, and neither does a
    re-export from `__init__`."""
    defined, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if own:
                defined.add((path.stem, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    reached.add((path.stem, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module \
                        and path.stem != "__init__":
                    reached.update((node.module, alias.name) for alias in node.names)
    orphans = sorted(f"{mod}.{name}" for mod, name in defined - reached if name not in ALLOWED)
    assert not orphans, f"defined but reached by no package code: {orphans}"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# public methods that only tests and library users call, each with its reason
ALLOWED_METHODS = {
    "OmegaWindow.symbol",         # one base symbol; the package reads spans (`symbols`)
    "PeriodicBasePoint.symbol",   # the same for a periodic point, as its windows read it
    "OmegaWindow.shifted",        # the base shift theta^j on a window, for the cocycle identity
    "CylinderFunction.constant",  # the constant function, a test function of the RPF probes
    "LatticeDistribution.variance",  # the exact law's variance, the oracle of `moments`
}


def test_every_method_is_read_by_the_package():
    """A method of a package class counts as reached when package code reads
    its name as an attribute outside the method's own body; dunder methods
    are called by Python itself."""
    methods, reads = [], Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.ClassDef):
                methods += [(node.name, stmt) for stmt in node.body
                            if isinstance(stmt, FUNCTIONS) and not stmt.name.startswith("__")]
    orphans = []
    for cls, method in methods:
        own = sum(isinstance(n, ast.Attribute) and n.attr == method.name
                  for n in ast.walk(method))
        name = f"{cls}.{method.name}"
        if reads[method.name] == own and name not in ALLOWED_METHODS:
            orphans.append(name)
    assert not orphans, f"methods read by no package code: {sorted(orphans)}"


def _package_imports(module: str) -> set:
    """The package modules that `module` imports from, by relative import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def test_engine_and_runners_hold_no_model_code():
    """The step-table engine sees only arrays, the runners reach a model only
    through the system interface, and each fiber model has one module."""
    assert _package_imports("gibbs") <= {"errors", "transfer"}
    assert not _package_imports("limits") & {"rpf", "transfer", "symbolic"}
    systems = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(stmt, FUNCTIONS) and stmt.name == "cycle_table"
                    for stmt in node.body):
                systems.add((path.stem, node.name))
    assert systems == {("symbolic", "SymbolicSystem"), ("doeblin", "DoeblinSystem")}
