"""The public surface: package exports, the names the benchmark traces, and
the README's library examples."""

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
