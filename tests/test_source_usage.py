"""Every top-level function, class and constant of the package is used.

A name is used if package code names it outside its own definition (an AST
name, an attribute or an imported name; docstrings and comments do not
count) or if ``isingchaos.__all__`` exports it.  Dunder names are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import isingchaos

SRC = Path(isingchaos.__file__).resolve().parent


def defined_names(tree: ast.Module):
    """(name, defining statement) of each top-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def references(node: ast.AST) -> Counter:
    """The names that code inside ``node`` reads, attributes and imported names included."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def unused_names(src: Path, exported: set[str]) -> list[str]:
    """``module.name`` of each top-level definition under ``src`` that nothing uses."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.glob("*.py"))}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in defined_names(tree):
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if everywhere[name] - references(node)[name] <= 0:
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_is_used():
    assert unused_names(SRC, set(isingchaos.__all__)) == []


def test_an_unused_helper_is_found(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "moments.py", "a") as fh:
        fh.write("\n\ndef _orphan(x):\n    return _orphan(x - 1) if x else 0\n")
    assert unused_names(tmp_path, set(isingchaos.__all__)) == ["moments._orphan"]
