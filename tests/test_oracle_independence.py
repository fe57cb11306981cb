"""The FD oracle stays independent of the chain it checks: it imports
nothing of the package but its errors, and only the verification report
(and the package's re-exports) reach it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sl2qes"


def _package_imports(path: Path) -> set[str]:
    """The sl2qes modules that the source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("sl2qes"):
                continue
            if node.level == 0:
                module = module.removeprefix("sl2qes").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:   # from . import catalog, pipeline
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sl2qes."))
    return found


IMPORTS = {path.stem: _package_imports(path)
           for path in sorted(PACKAGE.glob("*.py"))}


def test_fdsolve_imports_only_errors():
    assert IMPORTS["fdsolve"] == {"errors"}


def test_only_pipeline_and_init_import_fdsolve():
    assert {name for name, found in IMPORTS.items()
            if "fdsolve" in found} == {"pipeline", "__init__"}
