"""The public surface: every name the package exports has a use outside the
tests, and so does every optional parameter of what it exports."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jpotile"

# the parity audit and the penalty check get their first caller from the
# `--stats` run record (ROADMAP item 1)
AWAITING_A_CALLER = {"lhz_parity_valid", "penalty_negative_in_ground", "penalty_too_weak"}

# (callable, parameter) pairs that keep a default no call outside the tests sets
UNSET_ON_PURPOSE = {
    # six-bit readout backs test_canonical_readout_reaches_tile_ground_energy,
    # the paper's check of noisy runs against the analytic tile ground set
    ("run_trials", "n_bits"),
    # both mirror run_trials, whose eta and beta the CLI sets, and eta=0.0
    # drives the first-order convergence test
    ("simulate_trial", "eta"),
    ("simulate_trial", "beta"),
}
SOURCES = ("src/jpotile", "demos", "perfbench")


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


def _parameters(args, skip=0):
    """Parameter names in positional order, and the ones with a default."""
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    keyword_only = [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    return positional, positional[len(positional) - len(args.defaults):] + keyword_only


def _signatures():
    """Callable name -> _parameters, for each exported function and
    dataclass, and each method of an exported class that has a default."""
    exports = _exports()
    signatures = {}
    for module in set(exports.values()):
        for node in _parse(PACKAGE / f"{module}.py").body:
            if isinstance(node, ast.FunctionDef) and node.name in exports:
                signatures[node.name] = _parameters(node.args)
            elif isinstance(node, ast.ClassDef) and node.name in exports:
                fields = [
                    stmt for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
                signatures[node.name] = (
                    [f.target.id for f in fields],
                    [f.target.id for f in fields if f.value is not None],
                )
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        params = _parameters(method.args, skip=1)
                        if params[1]:
                            signatures[method.name] = params
    return signatures


def test_every_optional_parameter_is_set_outside_the_tests():
    signatures = _signatures()
    passed, forwards = set(), set()
    for path in (p for source in SOURCES for p in (ROOT / source).glob("*.py")):
        for top in _parse(path).body:
            # an exported function that hands one of its own optional
            # parameters on sets the callee's only when a call sets its own
            own = ()
            if isinstance(top, ast.FunctionDef) and path.parent == PACKAGE:
                own = signatures.get(top.name, ((), ()))[1]
            for call in ast.walk(top):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if name == "model" and call.args:  # <reader>.model(Cls): every field
                    cls = getattr(call.args[0], "id", None)
                    passed.update((cls, p) for p in signatures.get(cls, ((), ()))[0])
                if name not in signatures:
                    continue
                given = list(zip(signatures[name][0], call.args))
                given += [(k.arg, k.value) for k in call.keywords]
                for param, value in given:
                    if isinstance(value, ast.Name) and value.id in own:
                        forwards.add(((name, param), (top.name, value.id)))
                    else:
                        passed.add((name, param))
    # what a parameter kept on purpose hands on is kept with it
    while more := {
        callee for callee, caller in forwards if caller in passed | UNSET_ON_PURPOSE
    } - passed:
        passed |= more
    unset = {
        (name, p) for name, (_, defaulted) in signatures.items() for p in defaulted
    } - passed
    assert sorted(unset - UNSET_ON_PURPOSE) == []
    # a parameter leaves the exemption once a call sets it
    assert UNSET_ON_PURPOSE <= unset
