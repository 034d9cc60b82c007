"""Every public name in the package is referenced by the package itself.

Code that only tests reach is either wired into the engine or deleted, so
a public module-level function or class, or a public method, must be
referenced somewhere in `src/fpres`: as a name, an attribute or an
imported name. A mention in a docstring or comment is no reference, and
neither a `def` or `class` line nor the body below it references what it
defines, so a recursive call does not keep a function alive.
"""
import ast
from collections import Counter
from pathlib import Path

import fpres

PACKAGE = Path(fpres.__file__).parent

# match_fields, the relabeling search that matches two theories' S
# matrices, is kept for a planned `fpres compare` command. check_modular
# calls itself on the factors of a product; `perfbench/workloads.py` and
# `bench/ladder.py` call it from outside the package, and
# `perfbench/gate.py` calls `Theory.apply`.
EXEMPT = {"match_fields", "check_modular", "apply"}


def public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    classes, and of the public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def references(tree) -> Counter:
    """How often each identifier is referenced in `tree`: names,
    attribute names and the names that imports bind from a module."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
    return refs


def unreferenced(trees):
    """module:qualified name of every public definition in `trees` (module
    name -> parsed source) that no node of any of them references outside
    the definition's own body."""
    refs = Counter()
    for tree in trees.values():
        refs += references(tree)
    return [f"{module}:{qualified}"
            for module, tree in trees.items()
            for qualified, node in public_definitions(tree)
            if refs[node.name] == references(node)[node.name]
            and node.name not in EXEMPT]


def test_every_public_name_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(trees) == []


def test_mentions_in_docstrings_do_not_count():
    trees = {"a.py": ast.parse('''
"""`unused` and `Box.get` are named in this docstring."""

def used():
    """As is `unused` here."""

def unused():
    return 1  # unused

class Box:
    def get(self):
        pass

    def put(self):
        return used()

def caller(box):
    return box.put()

def countdown(n):
    return n and countdown(n - 1)
'''), "b.py": ast.parse("from a import caller, Box\n")}
    assert unreferenced(trees) == ["a.py:unused", "a.py:Box.get",
                                   "a.py:countdown"]
