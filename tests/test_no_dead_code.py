"""Every function, class, method and module-level name in the package is
named somewhere outside its own definition: in the package, the tests or the
bench harness; every parameter is read by its function, and every imported
name by its module.  Code that nothing calls or reads is deleted, not kept
in step."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphtables"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]

# called by the standard library's HTTP server, never by name in this repo
STDLIB_HOOKS = {"do_GET", "log_message", "process_request"}
# functions whose own or whose lambdas' signatures a caller fixes: the HTTP
# server's logging hook, and the line reader `split_statements` hands to
# `_statements`
FIXED_SIGNATURES = {"log_message", "split_statements"}


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


def _unread_parameters(node, owner: str):
    """(owner, parameter) of each parameter under `node` that its function
    or lambda never reads, `owner` naming the enclosing def."""
    for child in ast.iter_child_nodes(node):
        name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                and name not in FIXED_SIGNATURES:
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a is not None]]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for param in params:
                if param not in read and param not in ("self", "cls"):
                    yield name, param
        yield from _unread_parameters(child, name)


def test_every_parameter_is_read():
    unread = [f"{path.name} {owner}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for owner, param in _unread_parameters(
                  ast.parse(path.read_text(encoding="utf-8")), "<module>")]
    assert unread == []


def _imported(tree):
    """(line, name) of each name an import statement binds, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)


def test_every_import_is_read():
    """A name a module imports is read in it.  `__init__.py` re-exports.  The
    names `perfbench/tracer.py` replaces by module attribute, such as
    `matcher.eval_expr`, get no exemption: the code the tracer wraps reads them."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}"
                   for line, name in _imported(tree) if name not in read]
    assert unread == []
