"""The traced benchmark's span targets must keep resolving.

``benchmarks/e2e`` wraps program entry points by ``(module, qualified name)``
from outside ``src/``; it is not collected by the tier-1 run, so a rename in
``src/`` would silently break the per-layer numbers.  This resolves every
target the way ``benchmarks/e2e/spans.py`` does at install time.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS + layers.SERVER_TARGETS


@pytest.mark.parametrize(
    "module_name, qualname",
    sorted({(module, qualname) for _span, module, qualname, _m in _targets()}),
)
def test_span_target_resolves(module_name, qualname):
    owner = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, (staticmethod, classmethod)):
        raw = raw.__func__
    assert callable(raw), f"{module_name}:{qualname} is not callable"
