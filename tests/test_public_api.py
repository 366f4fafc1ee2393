"""Every public top-level function and class of the package has a caller
outside the tests: code that only tests reach belongs in ``tests/``.
References are matched by name, in the package, the demos and the
benchmark harness."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(pattern):
    paths = sorted(glob.glob(os.path.join(ROOT, pattern)))
    assert paths, pattern
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), path)
    return trees


def _referenced(tree, skip):
    """Every name ``tree`` uses, as a name, an attribute or an import,
    outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    package = _parse("src/phase_surrogate/*.py")
    trees = {**package, **_parse("demos/*.py"), **_parse("perfbench/*.py")}
    unused = []
    for path, tree in package.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in _referenced(other, node)
                                for other in trees.values())):
                unused.append(f"{os.path.basename(path)[:-3]}.{node.name}")
    assert unused == [], f"public, but only tests call them: {unused}"
