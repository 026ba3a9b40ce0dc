"""Every module-level import in the package is used by the module that makes
it (``__init__.py``, which re-exports, is exempt), no function of the package
imports, and every function, class and method of the package is used by the
package or the benchmark.

Read with the standard library's ``ast`` only.  An import counts as used when
its name appears as a ``Name`` anywhere in the module, annotations included.
A definition counts as used when its name appears, as a variable, an attribute
or an identifier string, outside its own body and outside every unused
definition; re-exports from ``__init__.py`` and the tests do not count.  The
few definitions that only the tests reach are listed with their reason.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wqsym"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the code a definition may be reached from: the package and the benchmark
REACHING = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: definitions that only tests reach, and why each stays
TEST_ONLY = {
    "embed_sym_hat_closed": "the oracle of embed_sym_hat",
    "elements_act_equally": "the check that the action is faithful",
    "commutative_image": "the check that the commutative image is a morphism",
    "evaluation": "the check that the commutative image is a morphism",
    "ParamPoly.const": "the coefficient ring's API",
    "ParamPoly.substitute": "the coefficient ring's API",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """The imports made inside a function, so that every module states its
    dependencies at its top."""
    functions = (n for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    found = {
        (node.lineno, alias.name)
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_function_imports_are_found():
    source = "import os\ndef f():\n    import sys\n    def g():\n        from a import b as c\n    return os\n"
    source += "class C:\n    async def m(self):\n        from d import e\n"
    assert function_imports(source) == ["line 3: sys", "line 5: b", "line 9: e"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_functions_do_not_import(path):
    assert function_imports(path.read_text()) == []


def definitions(tree):
    """(qualified name, node) of every module-level function or class and
    every method of a module-level class, dunders aside (Python calls those)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def references(node, skip) -> Counter:
    """Names used under ``node`` outside the subtrees in ``skip``: variables,
    attributes, and strings that are identifiers (attributes patched or looked
    up by name)."""
    found = Counter()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            found[n.value] += 1
        stack.extend(ast.iter_child_nodes(n))
    return found


def unreached(sources) -> list[str]:
    """Definitions whose name is used only in their own body or in other
    unreached definitions (a method of an unreached class is unreached)."""
    trees = [ast.parse(source) for source in sources]
    defs = [d for tree in trees for d in definitions(tree)]
    dead = set()
    while True:
        total = sum((references(tree, dead) for tree in trees), Counter())
        newly = {
            node for _, node in defs if node not in dead and total[node.name] == references(node, dead)[node.name]
        }
        if not newly:
            return [qualified for qualified, node in defs if node in dead]
        dead |= newly
        dead |= {item for cls in newly if isinstance(cls, ast.ClassDef) for item in cls.body}


def test_unreached_definitions_are_found():
    library = "def used(): return helper()\ndef helper(): pass\ndef recursive(n): return recursive(n - 1)\n"
    library += "def only_from_dead(): pass\ndef dead(): return only_from_dead()\n"
    library += "class C:\n    def m(self): return C()\n    def __len__(self): return 0\n"
    library += "class D:\n    def attr(self): pass\n    def patched(self): pass\n    def unused(self): pass\n"
    caller = "used()\nD.attr()\npatch(D, 'patched')\n"
    assert unreached([library, caller]) == ["recursive", "only_from_dead", "dead", "C", "C.m", "D.unused"]


def test_every_definition_is_reached_outside_the_tests():
    found = unreached(path.read_text() for path in REACHING)
    assert sorted(found) == sorted(TEST_ONLY)
