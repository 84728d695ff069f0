"""Every name a module exports through ``__all__`` exists.

A name deleted from a module but left in its ``__all__`` would only fail at
``from module import *``; this catches it at once. ``procex.errors`` declares
no ``__all__`` and exports every class it defines."""

import importlib
import pkgutil

import pytest

import procex

MODULES = ["procex"] + [
    f"procex.{info.name}" for info in pkgutil.iter_modules(procex.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names what the module lacks: {missing}"
