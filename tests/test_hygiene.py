"""Static checks on the package source: every imported name is used, every
``__all__`` entry names something its module defines, and every top-level
definition is used by the package or the benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "m2fcn").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all_entries(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _imported(tree):
    """(bound name, line) of every import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree) -> set[str]:
    used = set(_all_entries(tree))
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    # Quoted annotations are names too.
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_resolve(path):
    name = "m2fcn" if path.stem == "__init__" else f"m2fcn.{path.stem}"
    module = importlib.import_module(name)
    missing = [entry for entry in _all_entries(_tree(path)) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, replace\n@dataclass\nclass A: pass\n")
    assert [n for n, _ in _imported(tree) if n not in _used(tree)] == ["replace"]


def _imports_package(tree) -> list[int]:
    """Lines of ``tree`` that import m2fcn or one of its modules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "m2fcn" or n.startswith("m2fcn.") for n in names):
            lines.append(node.lineno)
    return lines


def test_oracles_import_nothing_from_the_package():
    # An oracle that calls the package cannot catch the package's errors.
    path = Path(__file__).resolve().parent / "oracles.py"
    assert not _imports_package(_tree(path)), "oracles.py imports m2fcn"


def test_package_import_check_flags_every_form():
    src = "import m2fcn\nfrom m2fcn.ops import conv2d\nimport m2fcn.data as d\nimport numpy\n"
    assert _imports_package(ast.parse(src)) == [1, 2, 3]


PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# Top-level names that no module calls but that stay public: the acceptance
# criteria call them, as the library API a user would.
UNCALLED_API = {
    "rand_scores": "the Rand-arithmetic criterion scores the published rows with it",
    "receptive_field": "the architecture-geometry criterion checks the paper's table with it",
}


def _definitions(tree) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(tree) -> set[str]:
    """Names read anywhere in ``tree``, as a name or an attribute, except a
    top-level definition's mentions of itself inside its own body.
    ``__all__`` strings and import statements are not references."""
    refs = set()
    for stmt in tree.body:
        names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        refs |= names
    return refs


def _unreferenced(defining: list[Path], reading: list[Path]) -> list[str]:
    refs = set().union(*(_references(_tree(p)) for p in reading))
    return [f"{p.stem}.{name}" for p in defining for name in _definitions(_tree(p))
            if name not in refs]


def test_every_top_level_definition_is_used():
    # The package and the benchmark are the only readers; a name that only
    # its own definition, ``__all__`` and the package re-export mention is
    # dead surface, whatever a test does with it.
    unused = _unreferenced(MODULES, MODULES + PERFBENCH)
    dead = [d for d in unused if d.split(".")[1] not in UNCALLED_API]
    assert not dead, f"defined but never used in src/m2fcn or perfbench: {dead}"
    stale = set(UNCALLED_API) - {d.split(".")[1] for d in unused}
    assert not stale, f"allowed as uncalled but now used: {sorted(stale)}"


def test_unused_definition_check_flags_dead_code(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "__all__ = ['dead', 'used', 'recursive']\n"
        "def dead(): pass\n"
        "def used(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Box:\n    def get(self): return used()\n"
        "x = Box\n"
    )
    assert _unreferenced([src], [src]) == ["mod.dead", "mod.recursive"]


# Modules whose arrays follow their inputs' dtype. An allocation that names
# no dtype is float64, and a float32 network's maps and gradients would be
# promoted through it.
DTYPE_FOLLOWING = ("ops", "autodiff", "loss", "training")
ALLOCATORS = {"zeros", "empty", "ones", "full"}


def _untyped_allocations(tree) -> list[int]:
    """Lines of ``np.zeros``/``empty``/``ones``/``full`` calls without a
    ``dtype=`` keyword; the ``*_like`` calls take their argument's dtype."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and node.func.attr in ALLOCATORS
        and not any(k.arg == "dtype" for k in node.keywords)
    ]


@pytest.mark.parametrize("stem", DTYPE_FOLLOWING)
def test_allocations_name_their_dtype(stem):
    path = next(p for p in MODULES if p.stem == stem)
    lines = _untyped_allocations(_tree(path))
    assert not lines, f"{path.name} allocates float64 by default on lines {lines}"


def test_allocation_check_flags_untyped_calls():
    src = ("np.zeros(3)\nnp.zeros(3, dtype=x.dtype)\nnp.zeros_like(x)\n"
           "np.full(2, 1.0)\nnp.empty((2,), np.float32)\nnp.ones(n, dtype=np.float64)\n")
    assert _untyped_allocations(ast.parse(src)) == [1, 4, 5]
