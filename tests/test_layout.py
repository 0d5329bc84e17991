"""Layout guards.

No module under ``src/repro`` is an orphan: every module must be
imported by another ``src/`` module, by ``examples/`` or by
``benchmarks/``; a module that only its own tests import is dead code.
An import through a package ``__init__`` counts for the module that
defines the imported name, and the package ``__init__``'s own re-export
counts for nothing.

The serving layers read one result type: nothing in ``repro.serving``,
``repro.server``, ``repro.obs`` or ``repro.cli`` tests a result's class
or sniffs for a wrapper's attributes.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXEMPT = {
    "repro.cli": "the console-script entry point (pyproject.toml)",
    "repro.faults": "the fault-injection seam: tests hand a FaultPlan in",
    "repro.core.workload_hubs": "parked hub re-selection foothold (ROADMAP item 13)",
}
"""Modules nothing imports on purpose, with the reason.  ``__main__``
modules are run with ``python -m`` and are exempt as a kind."""


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_modules() -> dict[str, Path]:
    return {_module_name(path): path for path in SRC.rglob("*.py")}


MODULES = _source_modules()


def _from_base(node: ast.ImportFrom, importer: str, is_package: bool) -> str:
    """The absolute module a ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    package = importer.split(".")
    if not is_package:
        package.pop()
    package = package[: len(package) - (node.level - 1)]
    return ".".join(package + ([node.module] if node.module else []))


def _defining_module(module: str, name: str, seen=()) -> str:
    """Where ``from module import name`` really comes from: a submodule
    named ``name``, else the module a package ``__init__`` re-exports
    ``name`` from, else ``module`` itself."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    path = MODULES.get(module)
    if path is None or path.name != "__init__.py" or module in seen:
        return module
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    base = _from_base(node, module, is_package=True)
                    return _defining_module(base, alias.name, seen + (module,))
    return module


def _imported_modules(path: Path, importer: str) -> set[str]:
    """The ``repro`` modules the file at ``path`` uses."""
    used = set()
    is_package = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, importer, is_package)
            for alias in node.names:
                if alias.name == "*":
                    used.add(base)
                else:
                    used.add(_defining_module(base, alias.name))
    return {name for name in used if name in MODULES and name != importer}


def _users() -> dict[str, set[str]]:
    users: dict[str, set[str]] = {}
    for name, path in MODULES.items():
        if path.name == "__init__.py":
            continue  # a re-export is not a use
        for used in _imported_modules(path, name):
            users.setdefault(used, set()).add(name)
    for tree in ("examples", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            label = str(path.relative_to(ROOT))
            for used in _imported_modules(path, label):
                users.setdefault(used, set()).add(label)
    return users


def test_every_module_has_a_caller():
    users = _users()
    orphans = sorted(
        name
        for name, path in MODULES.items()
        if path.name not in ("__init__.py", "__main__.py")
        and name not in EXEMPT
        and not users.get(name)
    )
    assert orphans == [], (
        f"modules under src/ that no src/, examples/ or benchmarks/ file "
        f"imports: {orphans}"
    )


def test_exemptions_are_still_modules():
    assert set(EXEMPT) <= set(MODULES)


SERVED_RESULTS = {"QueryResult", "HittingEstimate", "ReachabilityResult"}
"""The classes the service serves results as."""

SNIFFED_NAMES = {"topk", "result", "cluster_faults"}
"""Attribute names whose ``hasattr`` / ``getattr`` probe would tell one
result shape from another."""

READERS = ("repro/serving", "repro/server", "repro/obs", "repro/cli.py")
"""The layers that read served results and must not branch on their
shape."""


def _class_names(node: ast.expr) -> set[str]:
    """The class names an ``isinstance`` second argument spells."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for item in items:
        if isinstance(item, ast.Name):
            names.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return names


def _shape_tests(path: Path) -> list[str]:
    """Each ``isinstance`` on a served result class and each
    ``hasattr`` / ``getattr`` on a sniffed name in the file, as
    ``file:line code``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        args = node.args
        if node.func.id == "isinstance" and len(args) == 2:
            hit = _class_names(args[1]) & SERVED_RESULTS
        elif node.func.id in ("hasattr", "getattr") and len(args) >= 2:
            hit = (
                isinstance(args[1], ast.Constant)
                and args[1].value in SNIFFED_NAMES
            )
        else:
            continue
        if hit:
            found.append((node.lineno, ast.unparse(node)))
    return [f"{path.name}:{line} {code}" for line, code in sorted(found)]


def test_serving_layers_do_not_branch_on_the_result_shape():
    paths = []
    for reader in READERS:
        root = SRC / reader
        paths.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    assert len(paths) > len(READERS)
    found = [line for path in paths for line in _shape_tests(path)]
    assert found == [], (
        "serving layers must read the one result type's flat fields, "
        f"not test its shape: {found}"
    )


def test_shape_guard_sees_a_wrapper_sniff(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(result, QueryResult, module):\n"
        "    if isinstance(result, (int, module.QueryResult)):\n"
        "        return getattr(result, 'topk', result)\n"
        "    if isinstance(result, dict):\n"
        "        return getattr(result, 'scores', None)\n"
        "    return hasattr(result, 'cluster_faults')\n"
    )
    assert [line.split()[0] for line in _shape_tests(path)] == [
        "sample.py:2", "sample.py:3", "sample.py:6",
    ]


def test_served_result_classes_exist():
    defined = {
        node.name
        for path in MODULES.values()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert SERVED_RESULTS <= defined
