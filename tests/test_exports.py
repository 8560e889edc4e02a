import ast
import importlib
import importlib.util
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import cosetlab
from cosetlab.codes import rs_code
from cosetlab.decode import BerlekampWelchDecoder
from cosetlab.noise import ConstraintSet, interval_profile

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


def _namespaces():
    """Every cosetlab module, and every class defined in one, by dotted name."""
    for name in MODULES:
        module = importlib.import_module(name)
        yield name, module
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == name:
                yield f"{name}.{value.__qualname__}", value


def test_test_oracles_are_not_kept_in_the_package():
    # tests/oracles.py holds the code only tests read; a copy left in a
    # cosetlab module, or as a method of a cosetlab class, is code the
    # package does not need. What moved under another name is looked up by
    # its old dotted name; an owner that was itself deleted keeps nothing
    import oracles
    names = {name for name, value in vars(oracles).items()
             if inspect.isfunction(value) and value.__module__ == "oracles"}
    owners = dict(_namespaces())
    kept = [f"{owner}.{name}" for owner, namespace in owners.items()
            for name in sorted(names) if hasattr(namespace, name)]
    kept += [path for path in oracles.MOVED_FROM_PACKAGE
             if hasattr(owners.get(path.rpartition(".")[0]), path.rpartition(".")[2])]
    assert names and kept == []


def test_reference_engine_has_no_map_switch():
    # both engines run the plain decoder map; the symmetrized one lives only
    # in tests/oracles.py, where the tests check that it changes no number
    assert "force_symmetrize" not in inspect.signature(cosetlab.qsim.run_reduction).parameters
    assert "symmetrized" not in inspect.signature(cosetlab.qsim.require_peak).parameters


def _bench_layers():
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_bench_layer_resolves():
    # only `bench/run.py --trace 1` looks these up, and Tier-1 runs the bench
    # untraced: a target deleted or renamed in cosetlab would pass unnoticed
    layers = _bench_layers()
    missing = [name for name, (owner, attr, _) in layers.TARGETS.items()
               if not callable(getattr(owner, attr, None))]
    assert layers.TARGETS and missing == []


class _Recorder:
    """The one method of the bench's span recorder that a hook calls."""

    def __init__(self):
        self.counters = {}

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0.0) + value


def test_every_bench_trace_hook_reads_a_real_return_value():
    # `--trace 1` hands each hook the traced call's arguments and its return
    # value; a changed return type (say, of run_reduction_sweep) would break
    # the traced bench run alone, so each hook reads one tiny real call here
    code = rs_code(3, 1)
    constraint = ConstraintSet(interval_profile(3, 3, 0, 0.7), 0.5)
    calls = {  # fresh decoders: the table hook counts only a first build
        "decode.table": (BerlekampWelchDecoder(code),),
        "decode.berlekamp_welch": (code, np.array([1, 1, 2])),
        "qsim.run_reduction_sweep": (BerlekampWelchDecoder(code), [constraint]),
        "qsim.run_reduction": (BerlekampWelchDecoder(code), np.array([1]), constraint),
    }
    hooked = {name: (getattr(owner, attr), hook)
              for name, (owner, attr, hook) in _bench_layers().TARGETS.items() if hook}
    assert sorted(hooked) == sorted(calls)
    for name, (function, hook) in hooked.items():
        recorder = _Recorder()
        finish = hook(recorder, calls[name])
        assert finish is not None, name
        finish(function(*calls[name]))
        assert recorder.counters, name
        assert all(math.isfinite(v) for v in recorder.counters.values()), name
