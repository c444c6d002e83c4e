"""The package exports each public name once, from the module that defines it."""

import ast
import pathlib
import types

import pytest

import dcpse

MODULES = (
    dcpse.cloud,
    dcpse.operators,
    dcpse.elasticity,
    dcpse.benchmarks,
    dcpse.io_formats,
)


def test_all_has_no_duplicates():
    assert len(dcpse.__all__) == len(set(dcpse.__all__))


def test_all_is_every_public_name_but_the_modules():
    public = {
        name
        for name, value in vars(dcpse).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(dcpse.__all__) == public


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_exports_only_its_own_names(module):
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__, name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from dcpse import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(dcpse.__all__)


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind that it neither reads nor lists in
    __all__; __future__ and star imports bind none."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                strings = (c for c in ast.walk(node) if isinstance(c, ast.Constant))
                used.update(c.value for c in strings)
    return sorted(bound - used)


def test_each_module_uses_every_name_it_imports():
    package = pathlib.Path(dcpse.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
