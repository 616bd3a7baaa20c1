"""Every perfbench trace site still names a real function or method.

``perfbench/tracing.py`` binds its spans by name from outside the
program, patching a class's own ``__dict__`` entry or a module global.
A rename in ``src/`` that drops one of those names would only surface
as a failed ``--trace 1`` run; this test catches it in tier-1.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_tracing().SPANS


@pytest.mark.parametrize(
    "module_name, owner_name, attribute",
    [site[:3] for site in SPANS],
    ids=[".".join(filter(None, site[:3])) for site in SPANS],
)
def test_trace_site_resolves(module_name, owner_name, attribute):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    if owner_name is not None:
        assert inspect.isclass(owner)
    # The tracer patches ``owner.__dict__[attribute]``: an inherited
    # method is not there.
    assert attribute in vars(owner)
