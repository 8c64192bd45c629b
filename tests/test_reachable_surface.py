"""Only what runs stays in ``src/``: the reachable-surface gate.

Every function, method and class that ``src/`` defines must be reached from
outside ``tests/``: from ``src/`` itself, ``benchmarks/``, ``perfbench/`` or
``examples/``.  A definition that only tests call (or that nothing calls) is
library surface no run uses; delete it together with its tests instead of
keeping it alive for them.

What counts as a use of a name:

* a module-level function or class: a ``Name`` or ``Attribute`` node of its
  name anywhere outside ``tests/``;
* a method, property or nested class: an ``Attribute`` node of its name
  anywhere outside ``tests/`` (a same-named local variable is not a use);
* either kind: a string constant equal to the name in ``benchmarks/``,
  ``perfbench/`` or ``examples/`` (perfbench's tracer names the methods it
  wraps by string).

String constants in ``src/``, ``__all__`` entries among them, do not count.
Dunder methods are skipped, because the interpreter calls them.  Names are
matched without their owner, so collisions between owners are still not
caught: a method only tests call stays hidden while another class's method
of the same name is reached.  Each directory is parsed once with the stdlib
:mod:`ast`; ``tests/`` is parsed only to word a failure.

The same parse checks imports: every module-level import in ``src/`` must be
used by a ``Name`` node, used inside a quoted annotation, or listed in the
module's ``__all__`` (the package ``__init__`` re-exports).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The definitions allowed to stay without a caller outside ``tests/``.
ALLOWED = {
    # The public way back from a checkpoint object or file.
    "restore": "RecommendationService.restore",
    # Public read of a node's residents, which the simulator audits compare
    # against its own co-residency record.
    "resident_pods": "Node.resident_pods",
    # Goes with the shards (ROADMAP item 2).
    "assignments": "ShardMap.assignments",
    # Part of the pandas-like Series surface the DataFrame stand-in keeps.
    "to_list": "Series.to_list",
}


def _sources(directory: str) -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(), str(path))


def _definitions(body, owner: str, path: str, out: Dict[str, List[str]]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.setdefault(node.name, []).append(f"{path}:{owner}{node.name}")
            if isinstance(node, ast.ClassDef):
                _definitions(node.body, f"{owner}{node.name}.", path, out)


def _uses(tree: ast.Module, strings: bool) -> Tuple[Set[str], Set[str]]:
    """``(names, attributes)`` a tree uses; string constants join both."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
            attributes.add(node.value)
    return names, attributes


def unreached_definitions() -> Dict[str, List[str]]:
    """``{name: [where defined]}`` for ``src/`` definitions no non-test code uses."""
    defined: Dict[str, List[str]] = {}
    names: Set[str] = set()
    attributes: Set[str] = set()
    for directory in ("src", "benchmarks", "perfbench", "examples"):
        for path, tree in _sources(directory):
            if directory == "src":
                _definitions(tree.body, "", path, defined)
            used_names, used_attributes = _uses(tree, strings=directory != "src")
            names |= used_names
            attributes |= used_attributes
    unreached: Dict[str, List[str]] = {}
    for name, where in defined.items():
        if name.startswith("__") and name.endswith("__"):
            continue
        for place in where:
            owned = "." in place.split(":", 1)[1]
            if name not in attributes and (owned or name not in names):
                unreached.setdefault(name, []).append(place)
    return unreached


def test_every_src_definition_is_reached_outside_tests():
    unreached = unreached_definitions()
    if set(unreached) != set(ALLOWED):
        in_tests: Set[str] = set()
        for _, tree in _sources("tests"):
            in_tests = in_tests.union(*_uses(tree, strings=False))
        new = {
            name: ("only tests use it" if name in in_tests else "nothing uses it", where)
            for name, where in unreached.items()
            if name not in ALLOWED
        }
        stale = sorted(set(ALLOWED) - set(unreached))
        raise AssertionError(
            f"src/ definitions not reached outside tests/: {new}; "
            f"allowlisted names that are now reached (drop them from ALLOWED): {stale}"
        )


def _module_imports(body) -> Iterator[ast.stmt]:
    """Import statements at module level, inside top-level ``if``/``try`` too."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _module_imports(node.body + handlers + node.orelse + node.finalbody)


def _bound_names(node) -> Iterator[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _annotation_names(tree: ast.Module) -> Set[str]:
    """Names used inside quoted (string) annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [arg.annotation for arg in every if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {sub.id for sub in ast.walk(quoted) if isinstance(sub, ast.Name)}
    return names


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports() -> Dict[str, List[str]]:
    """``{module: [imported names]}`` for ``src/`` imports the module never uses."""
    unused: Dict[str, List[str]] = {}
    for path, tree in _sources("src"):
        used = _uses(tree, strings=False)[0] | _annotation_names(tree) | _exported(tree)
        names = [
            name
            for node in _module_imports(tree.body)
            for name in _bound_names(node)
            if name not in used
        ]
        if names:
            unused[path] = names
    return unused


def test_every_src_import_is_used():
    assert unused_imports() == {}


def _synthetic_tree(root: Path, source: str) -> None:
    for directory in ("src", "benchmarks", "perfbench", "examples"):
        (root / directory).mkdir()
    (root / "src" / "mod.py").write_text(source)


def test_a_same_named_local_does_not_reach_a_method(tmp_path, monkeypatch):
    _synthetic_tree(
        tmp_path,
        "class Store:\n"
        "    def pods(self):\n"
        "        return 1\n"
        "\n"
        "def run():\n"
        "    pods = Store()\n"
        "    return pods\n"
        "\n"
        "run()\n",
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert unreached_definitions() == {"pods": ["src/mod.py:Store.pods"]}


def test_import_gate_counts_names_quoted_annotations_and_reexports(tmp_path, monkeypatch):
    _synthetic_tree(
        tmp_path,
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from pathlib import Path\n"
        "from typing import TYPE_CHECKING, List\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['Path']\n"
        "def f(x: 'Decimal') -> List[str]:\n"
        "    return [os.path.sep]\n",
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert unused_imports() == {"src/mod.py": ["json"]}
