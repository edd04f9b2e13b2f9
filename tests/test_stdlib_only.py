"""The runtime needs nothing beyond the standard library: every absolute
import in the package names a standard-library module or the package, and
every module parses as Python 3.10."""

import ast
import pathlib
import sys

import graphtables

PACKAGE = pathlib.Path(graphtables.__file__).parent


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    foreign = []
    for path in modules:
        # parsed as Python 3.10, the oldest version pyproject supports
        tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "graphtables":
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []
