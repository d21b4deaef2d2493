"""The benchmark tracer's targets must name attributes that exist in src/.

perfbench/tracer.py wraps each TARGETS entry by looking it up in its
owner's __dict__; a renamed or deleted method would only show up when a
traced benchmark pass runs.  This test reads the table and changes nothing.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(),
                         ids=lambda t: ".".join(filter(None, t[:3])))
def test_target_resolves(target):
    module_name, class_name, attr = target[:3]
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__
