"""The package ships only what its commands and the benchmark use: every
function, class and method defined in src/calibkit is named again in
src/calibkit or bench/, and every defaulted dataclass field is set there. Code
that only the tests call goes in tests/oracles.py, and src/calibkit imports
nothing outside the standard library but numpy, and at start-up no module
that only some commands need."""

import ast
import os
import subprocess
import sys
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


def test_src_imports_only_the_standard_library_and_numpy():
    """numpy is the one runtime dependency (scipy is for the tests only).
    Every import counts, function-local ones too; relative ones are the package's own."""
    allowed = {*sys.stdlib_module_names, "numpy"}
    foreign = []
    for path in sorted((ROOT / "src" / "calibkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_cli_start_up_imports_no_process_module_or_scipy():
    """A fresh `import calibkit.cli` loads none of these: each would add to
    every command's start-up, and the forked workers import signal only to
    kill a worker."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, calibkit.cli; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.split()
    banned = {"signal", "mmap", "subprocess", "multiprocessing", "concurrent", "scipy"}
    assert "calibkit.cli" in loaded
    assert sorted(name for name in loaded if name.split(".")[0] in banned) == []


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) of each __init__ field of a @dataclass class."""
    if not any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
        return []
    return [
        (stmt.target.id, stmt.value is not None)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and not any(k.arg == "init" and k.value.value is False for k in getattr(stmt.value, "keywords", []))
    ]


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_every_defaulted_dataclass_field_is_set_outside_the_tests():
    """A field default that no constructor or replace() call in src/ or bench/
    overrides is a constant; make it one. A ** argument sets every field, and
    init=False fields are exempt."""
    paths = [*(ROOT / "src" / "calibkit").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    trees = [ast.parse(p.read_text()) for p in paths]
    classes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    fields = {node.name: f for node in classes if (f := _dataclass_fields(node))}
    # (the class built, or "*" for replace(), call); cls(...) in a classmethod builds its class
    calls = [(node.name, c) for node in classes for c in ast.walk(node) if isinstance(c, ast.Call) and _callee(c) == "cls"]
    calls += [
        ("*" if _callee(c) == "replace" else _callee(c), c)
        for tree in trees
        for c in ast.walk(tree)
        if isinstance(c, ast.Call) and _callee(c) in {*fields, "replace"}
    ]
    set_fields = set()  # (class, field), "*" standing for every class or field
    for cls, call in calls:
        positional = [name for name, _ in fields.get(cls, [])[: len(call.args)]]
        if any(isinstance(a, ast.Starred) for a in call.args):
            positional = ["*"]
        set_fields |= {(cls, k.arg or "*") for k in call.keywords} | {(cls, name) for name in positional}
    unset = [
        f"{cls}.{name}"
        for cls, members in fields.items()
        for name, has_default in members
        if has_default and not {(cls, name), (cls, "*"), ("*", name)} & set_fields
    ]
    assert unset == []
