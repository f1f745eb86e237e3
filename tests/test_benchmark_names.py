"""The benchmark under perfbench/ reaches into the package by name: its
tracer patches attributes listed in ``tracer.TARGETS``, and its scripts
import functions and classes.  A name removed from the package would
crash ``perfbench/run.py --trace`` only when the benchmark runs; these
tests fail on it in the ordinary suite instead.  The benchmark's files
are read as they are, never edited."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for owner, attr, span, _counter in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr}"


def package_names(tree):
    """(module, name) of each package name a script uses: those it
    imports from a tropical_ca module, and the attributes it reads from
    a tropical_ca module it imported under a name."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "tropical_ca"
        ):
            for alias in node.names:
                yield node.module, alias.name
                try:
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    continue
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield modules[node.value.id], node.attr


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_benchmark_imports_resolve(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    for module, name in package_names(tree):
        assert hasattr(importlib.import_module(module), name), (
            f"{script.name} uses {module}.{name}, which the package no longer has"
        )


def test_package_names_sees_module_attributes():
    # The scan must see through "from tropical_ca import network as net".
    tree = ast.parse(
        "from tropical_ca import network as net\n"
        "from tropical_ca.semiring import EPS\n"
        "net.build_p(spec, params)\n"
    )
    assert set(package_names(tree)) == {
        ("tropical_ca", "network"),
        ("tropical_ca.semiring", "EPS"),
        ("tropical_ca.network", "build_p"),
    }
