import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    # no linter runs on the package: an import left behind when its last
    # use moves elsewhere is caught here instead
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", []))) == []


def test_every_traced_bench_layer_resolves():
    # only `bench/run.py --trace 1` looks these up, and Tier-1 runs the bench
    # untraced: a target deleted or renamed in cosetlab would pass unnoticed
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [name for name, (owner, attr, _) in layers.TARGETS.items()
               if not callable(getattr(owner, attr, None))]
    assert layers.TARGETS and missing == []
