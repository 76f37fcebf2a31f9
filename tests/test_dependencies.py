"""The runtime dependencies pyproject.toml declares are exactly the packages src/ imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """The top-level name of every absolute import in src/, lazy ones included,
    less the standard library and the package itself."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"corpus_eta"}


def declared_packages() -> set[str]:
    """The names in [project].dependencies; each must also be its import name."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_declared_runtime_dependencies_are_the_imported_ones():
    assert imported_packages() == declared_packages()
