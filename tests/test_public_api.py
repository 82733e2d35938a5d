"""The public surface: package exports, the names the benchmark traces, the
README's library examples, the rule that every public function has a user,
and the oldest Python the code must parse under."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import liouqsl
from liouqsl import exceptions

ROOT = pathlib.Path(__file__).resolve().parents[1]
# Every module whose names the package re-exports; cli and exceptions have
# their own entry points.
MODULES = (
    "liouville",
    "lindblad",
    "serialize",
    "evolve",
    "qsl",
    "optimal",
    "spectral",
    "applications",
)
# Public functions that only unit tests reach for now: ROADMAP item 9 gives
# the mode route a CLI caller, and what it leaves unreached moves to the tests.
PENDING = ("classical_part", "mode_elimination_search")


def test_package_exports_the_union_of_the_module_lists():
    listed = set()
    for name in MODULES:
        module = importlib.import_module(f"liouqsl.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"liouqsl.{name}.__all__ lists undefined {missing}"
        listed.update(module.__all__)
    errors = {
        n
        for n, v in vars(exceptions).items()
        if inspect.isclass(v) and v.__module__ == exceptions.__name__
    }
    exported = {
        n
        for n, v in vars(liouqsl).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert exported == listed | errors


def test_every_traced_name_resolves():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.FUNCTIONS:
        mod, fn = name.split(".")
        module = importlib.import_module(f"liouqsl.{mod}")
        assert callable(getattr(module, fn, None)), name


def test_readme_python_examples_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def _top_level_reads(path):
    """(def name or None, names and attributes read) per top-level statement."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        reads = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
        yield getattr(stmt, "name", None), reads


def test_every_public_function_is_reached_outside_the_unit_tests():
    """The keep rule: a public function stays in src/ only while other package
    code, a README example, an acceptance check or the benchmark uses it.
    Classes are exempt."""
    readers = [
        (path.stem, owner, reads)
        for path in sorted((ROOT / "src" / "liouqsl").glob("*.py"))
        for owner, reads in _top_level_reads(path)
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    paths = [ROOT / "tests" / "test_acceptance.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    texts += [path.read_text(encoding="utf-8") for path in paths]
    words = set(re.findall(r"\w+", "\n".join(texts)))
    unreached = set()
    for name in MODULES:
        module = importlib.import_module(f"liouqsl.{name}")
        for n in module.__all__:
            if inspect.isclass(getattr(module, n)) or n in words:
                continue
            if not any(n in reads and (m, o) != (name, n) for m, o, reads in readers):
                unreached.add(n)
    assert set(PENDING) <= unreached, "a pending name is reached now: drop it"
    assert not unreached - set(PENDING), sorted(unreached - set(PENDING))


def test_every_source_and_test_file_parses_as_python_3_10():
    """The package supports Python 3.10: parsing with feature_version=(3, 10)
    refuses syntax that is newer, such as except* and PEP 695 generics. It
    cannot catch a call to a library function that is new in 3.11."""
    paths = [p for top in ("src/liouqsl", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_every_imported_name_is_used():
    """A name an import binds in a src/liouqsl module (the package's __init__
    aside) is read in that module or listed in its __all__, so code that a
    change deletes leaves no import behind."""
    for path in sorted((ROOT / "src" / "liouqsl").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, read, listed = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(t, "id", None) for t in node.targets
            }:
                listed.update(ast.literal_eval(node.value))
        assert not bound - read - listed, f"{path.name}: {sorted(bound - read - listed)}"
