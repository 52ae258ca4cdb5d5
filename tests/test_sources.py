"""Every source file parses as Python 3.10, the oldest version that
``pyproject.toml`` supports."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(path for part in ("src", "tests", "demos")
                 for path in glob.glob(os.path.join(ROOT, part, "**", "*.py"),
                                       recursive=True))


def test_sources_parse_as_python_3_10():
    assert len(SOURCES) >= 30
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))


def _public_names(path):
    """The names in a module's ``__all__``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references(path):
    """``(name, module, enclosing definitions)`` for every use of a name in
    a source file: a loaded name, an imported one, or an attribute, with
    ``module`` the last identifier of the attribute's owner (None for the
    others).  Strings, docstrings included, are not uses."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    out = []

    def walk(node, defs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs = defs | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, None, defs))
        elif isinstance(node, ast.alias):
            out.append((node.name, None, defs))
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner = owner.attr if isinstance(owner, ast.Attribute) else \
                getattr(owner, "id", None)
            out.append((node.attr, owner, defs))
        for child in ast.iter_child_nodes(node):
            walk(child, defs)

    walk(tree, frozenset())
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name in a ``lingrow`` module's ``__all__`` is used by the
    package outside its own definition, by a demo or by the benchmark:
    the public API holds nothing that only tests call."""
    users = sorted(path for part in ("src", "demos", "perfbench")
                   for path in glob.glob(os.path.join(ROOT, part, "**",
                                                      "*.py"),
                                         recursive=True))
    refs = {path: _references(path) for path in users}
    modules = sorted(glob.glob(os.path.join(ROOT, "src", "lingrow", "*.py")))
    unused = []
    for module in modules:
        short = os.path.splitext(os.path.basename(module))[0]
        for name in _public_names(module):
            if not any(ref == name and owner in (None, short)
                       and not (path == module and name in defs)
                       for path in users
                       for ref, owner, defs in refs[path]):
                unused.append(f"{short}.{name}")
    assert sum(len(_public_names(m)) for m in modules) >= 40
    assert unused == []
