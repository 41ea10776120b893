"""The package ships only what its commands and the benchmark use: every
function, class and method defined in src/calibkit is named again in
src/calibkit or bench/. Code that only the tests call goes in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# pts_ece_loss, the full fit-set PTS objective, is for the fit trace of ROADMAP item 1
ALLOWED = {"pts_ece_loss"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# where a name is used: identifiers, attributes, imports, and strings, as
# bench/tracing.py names the functions it wraps
NAMES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}


def test_every_definition_in_src_is_used_outside_the_tests():
    modules = sorted(p for p in (ROOT / "src" / "calibkit").glob("*.py") if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text()) for p in [*modules, *(ROOT / "bench").glob("*.py")]}
    used = {getattr(node, NAMES[type(node)]) for tree in trees.values() for node in ast.walk(tree) if type(node) in NAMES}
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in modules
        for node in ast.walk(trees[path])
        if isinstance(node, DEFINITIONS) and not node.name.endswith("__") and node.name not in used | ALLOWED
    ]
    assert unused == []
