"""Every private module-level name and private method defined in src/,
every public module-level function and class, and every public method of a
class with no explicit base class, is mentioned again somewhere in src/ (an
export from ``cgadyn/__init__.py`` is a mention), so a refactor leaves no
orphaned helper.

A name is private if it starts with one underscore and is not a dunder. A
method of a class with a base class may override one that the base's own
code calls (as ``cli._Parser.error`` does), so it is not checked. Names are
matched, not bindings: a method that shares its name with a mentioned
variable, such as a ``rows`` property beside the many local ``rows``, is
never reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").glob("**/*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module defines at module level or as methods."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [m.name for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in defined if _is_private(name)]


def public_definitions(tree: ast.Module) -> list[str]:
    """The public functions and classes a module defines at module level."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_methods(tree: ast.Module) -> list[str]:
    """The public methods of the module-level classes with no base class."""
    return [method.name for node in tree.body if isinstance(node, ast.ClassDef) and not node.bases
            for method in node.body
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not method.name.startswith("_")]


def mentions(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def orphans(sources: list[str], definitions=private_definitions) -> list[str]:
    """The names ``definitions`` finds in ``sources`` that none of them mentions."""
    trees = [ast.parse(source) for source in sources]
    used = set().union(*map(mentions, trees))
    return [name for tree in trees for name in definitions(tree) if name not in used]


def test_orphans_finds_each_form():
    defining = ("_A, B = 1, 2\n_C: int = 3\n_D = 4\n"
                "def _f():\n    return _A\n"
                "def _g():\n    pass\n"
                "class _K:\n    def _m(self):\n        return self._n()\n"
                "    def _n(self):\n        pass\n    def __len__(self):\n        return 0\n")
    using = "from defining import _g\nprint(_C)\n"
    assert orphans([defining, using]) == ["_D", "_f", "_K", "_m"]


def test_public_orphans_finds_functions_and_classes():
    defining = ("A = 1\ndef f():\n    return g()\ndef g():\n    pass\n"
                "def h():\n    pass\nclass K:\n    def m(self):\n        pass\n"
                "class L:\n    pass\ndef _p():\n    pass\n")
    exporting = "from .defining import L\n"
    assert orphans([defining, exporting], public_definitions) == ["f", "h", "K"]


def test_public_method_orphans_skip_classes_with_a_base():
    defining = ("class K:\n    def m(self):\n        return self.n()\n"
                "    def n(self):\n        pass\n    def _p(self):\n        pass\n"
                "    @property\n    def q(self):\n        return 1\n"
                "    @classmethod\n    def r(cls):\n        return cls()\n"
                "class Parser(Base):\n    def error(self):\n        pass\n"
                "def f():\n    pass\n")
    using = "from .defining import K\nK.r().q\n"
    assert orphans([defining, using], public_methods) == ["m"]


def test_no_orphaned_private_names_in_src():
    assert SOURCES
    assert orphans([path.read_text() for path in SOURCES]) == []


def test_no_orphaned_public_functions_or_classes_in_src():
    assert orphans([path.read_text() for path in SOURCES], public_definitions) == []


def test_no_orphaned_public_methods_in_src():
    assert orphans([path.read_text() for path in SOURCES], public_methods) == []
