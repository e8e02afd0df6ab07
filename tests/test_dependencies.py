"""Every declared install dependency has a reader in the package."""

import ast
import json
import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` (a TOML array of strings,
    which reads as JSON)."""
    array = re.search(
        r"^dependencies = (\[.*?\])", PYPROJECT.read_text(), re.MULTILINE | re.DOTALL
    )
    assert array, f"no [project] dependencies in {PYPROJECT}"
    return {
        re.split(r"[\s\[<>=!~;]", spec, maxsplit=1)[0].replace("-", "_").lower()
        for spec in json.loads(array.group(1))
    }


def imported_top_level_modules() -> set[str]:
    modules = set()
    for source in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_every_declared_dependency_is_imported_by_the_package():
    declared = declared_dependencies()
    assert declared, "pyproject.toml declares no dependencies"
    assert declared - imported_top_level_modules() == set()
