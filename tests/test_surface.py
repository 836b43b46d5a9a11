"""The public surface: every name the package exports has a use outside the
tests."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jpotile"

# the parity audit and the penalty check get their first caller from the
# `--stats` run record (ROADMAP item 1)
AWAITING_A_CALLER = {"lhz_parity_valid", "penalty_negative_in_ground", "penalty_too_weak"}


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports():
    """Exported name -> the module of the package that defines it."""
    return {
        alias.asname or alias.name: node.module
        for node in _parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _own_module_uses(module, name):
    """Whether the defining module reads name outside its definition."""
    for stmt in _parse(PACKAGE / f"{module}.py").body:
        if getattr(stmt, "name", None) == name:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name:
                if isinstance(node.ctx, ast.Load):
                    return True
    return False


def _imported(path):
    """Names the file imports from the package."""
    return {
        alias.name
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "jpotile")
        for alias in node.names
    }


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_attributes(paths):
    """Attributes read off the package's modules (`lhz.build_layout`,
    `jpotile.cli.main`) in any of the files."""
    names = set()
    for path in paths:
        tree = _parse(path)
        aliases = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.split(".")[0] == "jpotile"
        }
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _root(node) in aliases
        )
    return names


def test_every_export_has_a_use_outside_the_tests():
    exports = _exports()
    importers = set(PACKAGE.glob("*.py")) | set((ROOT / "demos").glob("*.py"))
    importers.remove(PACKAGE / "__init__.py")
    imports = {path: _imported(path) for path in importers}
    used = _module_attributes((ROOT / "perfbench").glob("*.py"))
    for name, module in exports.items():
        own = PACKAGE / f"{module}.py"
        if _own_module_uses(module, name) or any(
            name in names for path, names in imports.items() if path != own
        ):
            used.add(name)
    assert sorted(set(exports) - used - AWAITING_A_CALLER) == []
    # a name leaves the exemption once it has a caller
    assert AWAITING_A_CALLER <= set(exports) - used
