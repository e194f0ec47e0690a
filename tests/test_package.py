"""Package hygiene: the export list matches `kedge/__init__.py`, and every
module and test uses each name it imports."""

import ast
import types
from pathlib import Path

import kedge

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_exactly_the_public_bindings():
    assert all(hasattr(kedge, name) for name in kedge.__all__)
    assert len(set(kedge.__all__)) == len(kedge.__all__)
    public = {
        name
        for name, value in vars(kedge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(kedge.__all__) == public


def unused_imports(path: Path) -> list[str]:
    """Names an import in the file binds that no expression ever loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - loaded)


def test_every_imported_name_is_used():
    # kedge/__init__.py imports names only to re-export them
    modules = sorted((ROOT / "src" / "kedge").glob("*.py"))
    files = [p for p in modules if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        for name in unused_imports(path)
    ]
    assert unused == []
