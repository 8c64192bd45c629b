"""Only what runs stays in ``src/``: the reachable-surface gate.

Every function, method and class that ``src/`` defines must be reached from
outside ``tests/``: from ``src/`` itself, ``benchmarks/``, ``perfbench/`` or
``examples/``.  A definition that only tests call (or that nothing calls) is
library surface no run uses; delete it together with its tests instead of
keeping it alive for them.

What counts as a use of a name:

* a ``Name`` or ``Attribute`` node anywhere outside ``tests/``;
* a string constant equal to the name in ``benchmarks/``, ``perfbench/`` or
  ``examples/`` (perfbench's tracer names the methods it wraps by string).

String constants in ``src/``, ``__all__`` entries among them, do not count.
Names are matched without their owner, so a method is reached when any
attribute of that name is; dunder methods are skipped, because the
interpreter calls them.  Each directory is parsed once with the stdlib
:mod:`ast`; ``tests/`` is parsed only to word a failure.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent

#: The definitions allowed to stay without a caller outside ``tests/``.
ALLOWED = {
    # The write half of the checkpoint round trip; RecommendationService.restore
    # reads the file back.
    "save": "ServiceCheckpoint.save",
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


def _trees(directory: str) -> Iterator[ast.Module]:
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield ast.parse(path.read_text(), str(path))


def _definitions(body, owner: str, path: str, out: Dict[str, List[str]]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.setdefault(node.name, []).append(f"{path}:{owner}{node.name}")
            if isinstance(node, ast.ClassDef):
                _definitions(node.body, f"{owner}{node.name}.", path, out)


def _names(tree: ast.Module, strings: bool) -> Set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unreached_definitions() -> Dict[str, List[str]]:
    """``{name: [where defined]}`` for ``src/`` definitions no non-test code uses."""
    defined: Dict[str, List[str]] = {}
    used: Set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        _definitions(tree.body, "", path.relative_to(ROOT).as_posix(), defined)
        used |= _names(tree, strings=False)
    for directory in ("benchmarks", "perfbench", "examples"):
        for tree in _trees(directory):
            used |= _names(tree, strings=True)
    return {
        name: where
        for name, where in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_src_definition_is_reached_outside_tests():
    unreached = unreached_definitions()
    if set(unreached) != set(ALLOWED):
        in_tests = set().union(*(_names(tree, strings=False) for tree in _trees("tests")))
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
