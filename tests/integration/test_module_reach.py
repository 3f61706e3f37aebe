"""Every module under ``src/repro`` is reached by something that runs.

The roots are ``repro.cli`` plus every ``repro`` import in
``benchmarks/``, ``examples/`` and ``perfbench/``. The closure follows
every import statement, module-level or local, read with ``ast``; a
reached module also reaches its parent packages. A module outside the
closure is code that no command, endpoint, bench, example or perfbench
runs, only its own tests: wire it in or delete it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ROOT_MODULE = "repro.cli"
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")


def package_modules() -> dict[str, Path]:
    """Dotted name -> source file for every module under src/repro."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, package: str = "") -> set[str]:
    """Every dotted name an import statement in *path* can load.

    ``from a import b`` names both ``a`` and ``a.b``, since ``b`` may
    be a submodule; relative imports resolve against *package*.
    """
    names: set[str] = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package:
                    continue
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1])
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def reached_modules(modules: dict[str, Path]) -> set[str]:
    pending = {ROOT_MODULE}
    for directory in ENTRY_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            pending |= imported_names(path)
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        if name not in modules or name in reached:
            continue
        reached.add(name)
        path = modules[name]
        package = name if path.name == "__init__.py" \
            else name.rpartition(".")[0]
        pending |= imported_names(path, package)
        pending.add(name.rpartition(".")[0])
    return reached


def test_every_module_is_reached():
    modules = package_modules()
    unreached = sorted(set(modules) - reached_modules(modules))
    assert unreached == [], (
        "modules no command, bench, example or perfbench imports: "
        + ", ".join(unreached))

