"""Every module-level import in the package is used by the module that makes
it (``__init__.py``, which re-exports, is exempt), no function of the package
imports, and every function, class and method of the package is used by the
package or the benchmark.

Read with the standard library's ``ast``; nothing of the package is imported.
An import counts as used when its name appears as a ``Name`` anywhere in the
module, annotations included.  A definition counts as used when its name
appears outside its own body and outside every unused definition: as a
variable, an identifier string or an attribute of a package or benchmark
module (``words.pack``), and, for a method, as any attribute; re-exports from
``__init__.py`` and the tests do not count.  A method of a used class also
counts as used when it overrides an attribute of a base class from outside
the package, which that library calls by name (an argparse hook such as
``_parse_optional``); the base is found by importing the module it is spelled
from (``argparse.ArgumentParser``).  The few definitions that only the tests
reach are listed with their reason.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wqsym"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the code a definition may be reached from: the package and the benchmark
REACHING = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
#: the modules, as spelled in code, whose attributes reach module-level definitions
MODULE_NAMES = {"wqsym"} | {path.stem for path in REACHING} | {f"wqsym.{path.stem}" for path in MODULES}

#: definitions that only tests reach, and why each stays
TEST_ONLY = {
    "embed_sym_hat_closed": "the oracle of embed_sym_hat",
    "elements_act_equally": "the check that the action is faithful",
    "commutative_image": "the check that the commutative image is a morphism",
    "evaluation": "the check that the commutative image is a morphism",
    "ParamPoly.const": "public API of the exported value type",
    "ParamPoly.substitute": "public API of the exported value type",
    "sigma_hat_series": "public API: the deformed diagonal series at an exact t",
    "pack": "public API, and the oracle of WQSymElement.coproduct",
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


def dotted(node) -> str:
    """The dotted name that ``node`` spells, such as ``wqsym.words``, or ""."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = dotted(node.value)
        return prefix and f"{prefix}.{node.attr}"
    return ""


def references(node, skip) -> Counter:
    """Names used under ``node`` outside the subtrees in ``skip``, keyed by
    name: variables, strings that are identifiers (attributes patched or
    looked up by name) and attributes of the modules of ``MODULE_NAMES``;
    every other attribute is keyed by its name after a dot, as it may reach
    only a method."""
    found = Counter()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in skip:
            continue
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr if dotted(n.value) in MODULE_NAMES else "." + n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            found[n.value] += 1
        stack.extend(ast.iter_child_nodes(n))
    return found


def uses(found: Counter, qualified: str) -> int:
    """The uses in ``found`` that may reach the definition ``qualified``."""
    name = qualified.rpartition(".")[2]
    return found[name] + found["." + name] if "." in qualified else found[name]


def foreign_overrides(tree):
    """The methods of the module-level classes of ``tree`` named as an
    attribute of one of their bases from outside the package, a base spelled
    as an attribute of a module (``argparse.ArgumentParser``) and found by
    importing that module."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = []
        for base in cls.bases:
            module, _, name = dotted(base).rpartition(".")
            if module and module not in MODULE_NAMES:
                bases.append(getattr(importlib.import_module(module), name))
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and any(hasattr(base, item.name) for base in bases):
                yield item


def unreached(sources) -> list[str]:
    """Definitions whose name is used only in their own body or in other
    unreached definitions (a method of an unreached class is unreached, and
    one that overrides a foreign base's attribute is reached with its
    class)."""
    trees = [ast.parse(source) for source in sources]
    defs = [d for tree in trees for d in definitions(tree)]
    overrides = {node for tree in trees for node in foreign_overrides(tree)}
    dead = set()
    while True:
        total = sum((references(tree, dead) for tree in trees), Counter())
        newly = {
            node
            for qualified, node in defs
            if node not in dead
            and node not in overrides
            and uses(total, qualified) == uses(references(node, dead), qualified)
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
    library += "def by_module(): pass\ndef helper_of_obj(): pass\n"
    # argparse calls _parse_optional by name; nothing calls other
    library += "class P(argparse.ArgumentParser):\n"
    library += "    def _parse_optional(self, arg): return super()._parse_optional(arg)\n"
    library += "    def other(self): pass\n"
    caller = "used()\nD.attr()\npatch(D, 'patched')\nwords.by_module()\nobj.helper_of_obj()\nP()\n"
    expected = ["recursive", "only_from_dead", "dead", "C", "C.m", "D.unused", "helper_of_obj", "P.other"]
    assert unreached([library, caller]) == expected


def test_every_definition_is_reached_outside_the_tests():
    found = unreached(path.read_text() for path in REACHING)
    assert sorted(found) == sorted(TEST_ONLY)
