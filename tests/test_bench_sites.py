"""The benchmark's tracer patches rotorcalc functions by (module, attribute)
name; each of those names must still resolve, or the traced run fails."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
_PATCHED = [(site[0], site[1]) for site in _TRACER.SITES + _TRACER.COUNTED]


def _owner(module: str):
    """The module, or the class inside a module, the tracer patches on."""
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError:
        module, cls = module.rsplit(".", 1)
        return getattr(importlib.import_module(module), cls)


@pytest.mark.parametrize("module, attr", _PATCHED, ids=[f"{m}.{a}" for m, a in _PATCHED])
def test_patched_name_resolves(module, attr):
    assert callable(getattr(_owner(module), attr))
