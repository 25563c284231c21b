"""Every module of the package uses each name it imports (`__init__` re-exports), and
imports another module's underscore names only where PRIVATE_IMPORTS allows it."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treerecon"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_roots(source: str) -> set[str]:
    """Top-level names of the modules the source imports, absolute imports only."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_losses_is_the_only_module_that_imports_scipy():
    """Every KD-tree is built through `losses.cKDTree`, so turning it into an import on first
    use keeps scipy out of a process that builds no tree."""
    importers = {path.stem for path in MODULES if "scipy" in imported_roots(path.read_text(encoding="utf-8"))}
    assert importers == {"losses"}


def test_the_check_sees_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .core import Grid, Rng\n\nx = np.zeros(Grid)\n"
    assert unused_imports(source) == ["math (line 1)", "Rng (line 3)"]


# (importer, module, name): losses scores diffrender's two cores, and its stack scorer builds
# the one slot list the stacked silhouette and soft DSM share; metrics' eval_chamfer reads
# Chamfer's size rule and its value formula, so that it and fscore read one search of a pair
PRIVATE_IMPORTS = {("losses", "diffrender", name) for name in ("_soft_or", "_soft_max_height", "_Slots")} | {
    ("metrics", "losses", name) for name in ("_TABLE_MAX", "_chamfer_from")}


def private_imports(importer: str, source: str) -> set[tuple[str, str, str]]:
    """(importer, module, name) of each underscore name the module imports from the package."""
    return {
        (importer, (node.module or "").removeprefix("treerecon."), alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("treerecon"))
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_the_allow_list_does_not_name(path):
    assert private_imports(path.stem, path.read_text(encoding="utf-8")) <= PRIVATE_IMPORTS


def test_the_layering_check_sees_a_private_import():
    source = "from .reconstruct import _recolor, init_cloud\nfrom treerecon.diffrender import _Slots\n"
    assert private_imports("metrics", source) == {
        ("metrics", "reconstruct", "_recolor"), ("metrics", "diffrender", "_Slots")
    }
