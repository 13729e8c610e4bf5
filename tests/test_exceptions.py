"""The fault rule: one helper, ``exceptions.unexpected_as``, turns a fault
the toolkit did not expect into its stage's error, and no other code
catches every exception. And no src module imports a name it never uses
or names its own package, nor has a module-level function a parameter its
body never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nbtree_ids"
# the helper; the process map, which raises a worker's exception in this
# process; and its worker, which sends every exception back to it
CATCH_ALL_ALLOWED = {("exceptions", "unexpected_as"), ("dataset", "fork_map"),
                     ("dataset", "_worker")}


def catch_all_handlers(tree: ast.Module):
    """(function name, line) of each handler that catches every exception:
    a bare ``except``, or one naming ``Exception`` or ``BaseException``."""
    def catches_all(kind) -> bool:
        kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return kind is None or any(isinstance(k, ast.Name) and k.id in (
            "Exception", "BaseException") for k in kinds)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and catches_all(node.type):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_only_the_fault_rule_catches_every_exception():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.stem, function, line) for function, line in catch_all_handlers(tree)
                  if (path.stem, function) not in CATCH_ALL_ALLOWED]
    assert found == []
    # the check itself sees a handler in a method, a tuple and a bare except
    probe = ast.parse("class A:\n def f(self):\n  try: pass\n"
                      "  except (KeyError, Exception): pass\ntry: pass\nexcept: pass\n")
    assert catch_all_handlers(probe) == [("f", 4), (None, 6)]


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name the module imports and never uses, in
    code or in a string annotation. ``from __future__`` imports are
    exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(a.value, mode="eval") for a in annotations
              if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for root in [tree, *quoted] for n in ast.walk(root) if isinstance(n, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":  # its imports are the package's exports
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found += [(path.stem, *unused) for unused in unused_imports(tree)]
    assert found == []
    # the check itself sees a dotted import, an alias and a name used only
    # in a quoted annotation, and passes over __future__
    probe = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                      "from .dataset import A, B, C\ndef f(x: 'B') -> C:\n    return np\n")
    assert unused_imports(probe) == [("A", 4), ("os", 2)]


def unread_parameters(tree: ast.Module) -> list[tuple[str, str]]:
    """(function name, parameter) of each parameter of a module-level
    function that its body never reads, in its own code or in a function
    or lambda nested in it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            read = {n.id for statement in node.body for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.name, p.arg) for p in params if p and p.arg not in read]
    return found


def test_no_function_has_a_parameter_it_never_reads():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.stem, *unread) for unread in unread_parameters(tree)]
    assert found == []
    # the check itself sees an unread positional, keyword-only and starred
    # parameter, one only written, and one read only in a nested lambda;
    # and passes over methods
    probe = ast.parse("def f(a, b, /, c, *d, e, **g):\n    c = 1\n    return lambda: b\n"
                      "class A:\n    def m(self, x):\n        pass\n")
    assert unread_parameters(probe) == [("f", "a"), ("f", "c"), ("f", "d"), ("f", "e"),
                                        ("f", "g")]


def own_package_names(tree: ast.Module, package: str) -> list[int]:
    """Lines where a module names its package ``package``: an absolute
    import of it or of a module under it, or a string constant that is
    its name or a dotted name under it."""
    def names_it(name) -> bool:
        return isinstance(name, str) and (name == package or name.startswith(package + "."))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(names_it(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and names_it(node.module)
        else:
            hit = isinstance(node, ast.Constant) and names_it(node.value)
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_no_module_names_its_own_package():
    # so that a copy of the package under another name runs as itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [(path.stem, line) for line in own_package_names(tree, SRC.name)]
    assert found == []
    # the check itself sees a dotted and a from import and both kinds of
    # string, and passes over relative imports and other names
    probe = ast.parse("import nbtree_ids.cli\nfrom nbtree_ids import a\nfrom . import b\n"
                      "from .nbtree_ids import c\nimport nbtree_idsx\nd = 'nbtree_ids.data'\n"
                      "e = 'nbtree_ids_b'\nf = 'nbtree_ids'\n")
    assert own_package_names(probe, "nbtree_ids") == [1, 2, 6, 8]
