"""The package exports each public name once, from the module that defines it."""

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
