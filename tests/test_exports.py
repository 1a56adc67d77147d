"""Every exported name resolves to an attribute of its module."""

import importlib
import pkgutil

import pytest

import prbm

_MODULES = [prbm] + [
    importlib.import_module(f"prbm.{m.name}") for m in pkgutil.iter_modules(prbm.__path__)
]


@pytest.mark.parametrize(
    "mod", [m for m in _MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(mod):
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [x for x in mod.__all__ if not hasattr(mod, x)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"
