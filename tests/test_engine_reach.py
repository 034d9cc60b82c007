"""Every public name in the package is named by the package itself.

Code that only tests reach is either wired into the engine or deleted, so
a public module-level function or class, or a public method, must be named
somewhere in `src/fpres` besides its own `def` or `class` line.
"""
import ast
import re
from pathlib import Path

import fpres

PACKAGE = Path(fpres.__file__).parent

# match_fields, the relabeling search that matches two theories' S
# matrices, is kept for a planned `fpres compare` command
EXEMPT = {"match_fields"}


def public_definitions(tree):
    """(qualified name, name, line) of the public module-level functions
    and classes, and of the public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def test_every_public_name_is_named_in_the_package():
    sources = {path.name: path.read_text().splitlines()
               for path in sorted(PACKAGE.glob("*.py"))}
    unnamed = []
    for module, lines in sources.items():
        tree = ast.parse("\n".join(lines))
        for qualified, name, lineno in public_definitions(tree):
            word = re.compile(rf"\b{name}\b")
            named = any(word.search(line)
                        for other, text in sources.items()
                        for k, line in enumerate(text, 1)
                        if (other, k) != (module, lineno))
            if not named and name not in EXEMPT:
                unnamed.append(f"{module}:{qualified}")
    assert unnamed == []
