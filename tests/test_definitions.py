"""Every function, class and method in ``src/braidkit`` is used somewhere.

The check is by name only, over ``src``, ``tests`` and ``perfbench``: a
function or class counts as used when its name appears as a variable, an
attribute, an import alias or an identifier string anywhere; a method
defined in a class body only when some file reads it as an attribute or
names it in an identifier string, so a local variable of the same name does
not hide a dead method.  It is still coarse: an unrelated attribute or
variable of the same name hides a dead definition.  A second check
installs the benchmark's tracer, which fails when a name it patches is
gone, and a third runs it to see that the search's move finders are the
ones it times.  Every name a library module imports is used in that
module, but for the re-exports of ``__init__.py`` and the one name the
tracer looks up where it is imported.  Importing the library and its
command line loads neither ``dataclasses`` nor ``inspect``.
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


def _referenced(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Every name a tree references, and those among them it reads as an
    attribute or writes as an identifier string."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                attributes.add(node.value)
    return names | attributes, attributes


def unreferenced(root: Path = ROOT) -> list[str]:
    """``path:line name`` of each non-dunder definition in src/braidkit never referenced."""
    used, attributes = set(), set()
    for _, tree in _trees(root, "src", "tests", "perfbench"):
        tree_used, tree_attributes = _referenced(tree)
        used |= tree_used
        attributes |= tree_attributes
    out = []
    for path, tree in _trees(root, "src/braidkit"):
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in (attributes if id(node) in methods else used):
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
    # perfbench/tracing.py times the move finders where search looks them up.
    # One search records a span of each finder it runs.  A scramble step
    # builds only the site it draws: it records the finder of that site, and
    # on these words, whose σₙ₋₁ letters size every group, no destabilization
    # or exchange span when it draws a conjugation or a stabilization.
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
        "print(*sorted({name for name, *_, o in tracer.spans if o == 0}))\n"
        "print(tracer.counts['moves.destab_hits'])\n"
        "stabilized = parse_braid_word('s1 s2 s1 s2^-1 s3', 4)\n"
        "for op, (w, seed) in enumerate(((w, seed) for w in (source, stabilized)\n"
        "                                for seed in range(12)), start=1):\n"
        "    tracer.op = op\n"
        "    kind = search.scramble(w, 1, seed, search.TRANSVERSE)[1].steps[0].kind\n"
        "    print(kind, *sorted({name for name, *_, o in tracer.spans if o == op}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    names, hits, *steps = out.stdout.split("\n")[:-1]
    assert {"moves.destab", "moves.exchange"} <= set(names.split()), names
    assert int(hits) > 0  # a destabilization of source's stabilization
    finders = {"destab+": "moves.destab", "exchange": "moves.exchange"}
    for step in steps:
        kind, *names = step.split()
        if kind in finders:
            assert finders[kind] in names, step
        else:
            assert kind in ("conjugation", "stab+"), step
            assert not {"moves.destab", "moves.exchange"} & set(names), step
    assert {step.split()[0] for step in steps} == {"conjugation", "destab+", "exchange", "stab+"}


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
