"""Every function, class, method and module-level name in the package is
named somewhere outside its own definition: in the package, the tests or the
bench harness.  Code that nothing calls is deleted, not kept in step."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphtables"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]

# called by the standard library's HTTP server, never by name in this repo
STDLIB_HOOKS = {"do_GET", "log_message"}


def _definitions(tree):
    """(name, node) of each definition and each module-level assigned name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def test_every_definition_is_used_outside_its_own_body():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for base in SEARCHED for path in sorted(base.rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(ast.parse("\n".join(sources[path]))):
            if name in STDLIB_HOOKS or (name.startswith("__") and name.endswith("__")):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(word.search(line)
                       for src, lines in sources.items()
                       for i, line in enumerate(lines)
                       if not (src == path and i in own)):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
