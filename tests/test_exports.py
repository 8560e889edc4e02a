import importlib
import pkgutil

import pytest

import cosetlab

MODULES = ["cosetlab"] + [f"cosetlab.{info.name}"
                          for info in pkgutil.iter_modules(cosetlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition moved or was deleted
    # breaks `from module import *` and every caller that looks it up
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
