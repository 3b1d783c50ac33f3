"""Every function, class and method in ``src/braidkit`` is used somewhere.

The check is by name only, over ``src``, ``tests`` and ``perfbench``: a
definition counts as used when its name appears as a variable, an
attribute, an import alias or an identifier string anywhere.  So it is
coarse: an unrelated local variable of the same name hides a dead
definition.  A second check installs the benchmark's tracer, which fails
when a name it patches is gone, and a third runs it to see that the
search's move finders are the ones it times.  Every name a library module
imports is used in that module, but for the re-exports of ``__init__.py``
and the one name the tracer looks up where it is imported.  Importing the
library and its command line loads neither ``dataclasses`` nor ``inspect``.
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


def test_tracer_times_the_search_move_finders():
    # perfbench/tracing.py times the move finders where search looks them up;
    # one search and one scramble record a span of each finder they run.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import tracing\n"
        "from braidkit import moves, search\n"
        "from braidkit.words import parse_braid_word\n"
        "tracer = tracing.Tracer(); tracing.install(tracer); tracer.enabled = True\n"
        "source = parse_braid_word('s1 s2 s1 s2^-1', 3)\n"
        "assert moves.find_exchange_decompositions(source)\n"
        "target = parse_braid_word('s1^5', 2)\n"
        "tracer.op = 0\n"
        "result = search.connect(source, target, search.SearchBounds(4, 8, 20))\n"
        "assert result.stats.nodes_expanded >= 2, result\n"
        "tracer.op = 1\n"
        "search.scramble(source, 1, 0)\n"
        "for op in (0, 1):\n"
        "    print(*sorted({name for name, *_, o in tracer.spans if o == op}))\n"
        "print(tracer.counts['moves.destab_hits'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    *ops, hits = out.stdout.split("\n")[:-1]
    for op, names in enumerate(ops):
        assert {"moves.destab", "moves.exchange"} <= set(names.split()), (op, names)
    assert int(hits) > 0  # a destabilization of source's stabilization


# (module, name): imported but not called there, because perfbench/tracing.py
# patches the name on that module
_TRACER_ONLY_IMPORTS = {("search", "apply_move")}


def test_every_import_is_used():
    unused = []
    for path, tree in _trees(ROOT, "src/braidkit"):
        if path.name == "__init__.py":  # re-exports
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items()
            if name not in used and (path.stem, name) not in _TRACER_ONLY_IMPORTS
        ]
    assert unused == []


def test_import_loads_no_dataclasses():
    # Every value record is a named tuple: dataclasses, with the inspect it
    # imports, took about 19 ms of a 44 ms import without bytecode (Python
    # 3.11 on a 2-CPU Xeon), paid by every command.  -S keeps site hooks out.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import braidkit, braidkit.cli\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""
