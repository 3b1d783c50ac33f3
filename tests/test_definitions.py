"""Every function, class and method in ``src/braidkit`` is used somewhere.

The check is by name only, over ``src``, ``tests`` and ``perfbench``: a
definition counts as used when its name appears as a variable, an
attribute, an import alias or an identifier string anywhere.  So it is
coarse: an unrelated local variable of the same name hides a dead
definition.  A second check installs the benchmark's tracer, which fails
when a name it patches is gone.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(root: Path, *dirs: str):
    for d in dirs:
        for path in sorted((root / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def unreferenced(root: Path = ROOT) -> list[str]:
    """``path:line name`` of each non-dunder definition in src/braidkit never referenced."""
    used = set()
    for _, tree in _trees(root, "src", "tests", "perfbench"):
        used |= _referenced(tree)
    out = []
    for path, tree in _trees(root, "src/braidkit"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in used:
                out.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    return out


def test_every_definition_is_referenced():
    assert unreferenced() == []


def test_tracer_patches_resolve():
    # perfbench/tracing.py patches braidkit names and perfbench/worker.py
    # reads BRACKET_BACKEND; deleting one of them breaks the benchmark.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import braidkit, tracing\n"
        "tracing.install(tracing.Tracer())\n"
        "print(braidkit.BRACKET_BACKEND)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
