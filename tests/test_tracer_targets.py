"""The benchmark tracer's targets and counters must fit what src/ provides.

perfbench/tracer.py wraps each TARGETS entry by looking it up in its
owner's __dict__; a renamed or deleted method would only show up when a
traced benchmark pass runs.  Its counters read the arguments of the calls
they wrap, so a change of gauss_reduce's row format that they miscount
would show up there too.  These tests read the tracer and change nothing.
"""
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from toricsyz import RationalField, gauss_reduce

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@functools.cache
def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", _tracer().TARGETS,
                         ids=lambda t: ".".join(filter(None, t[:3])))
def test_target_resolves(target):
    module_name, class_name, attr = target[:3]
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__


def test_gauss_counters_read_pair_rows():
    # nonzeros in are the pairs, cells are m x ncols, whatever the entries
    tracer_module = _tracer()
    tracer = tracer_module.Tracer()
    rows = [[(0, 1), (2, -1)], [], [(1, 3), (2, 2), (4, 1)]]
    args = (rows, 5, RationalField())
    result = gauss_reduce(*args)
    tracer_module._count_gauss(tracer, args, {}, result)
    counts = tracer.counts
    assert counts["homology.gauss_calls"] == 1
    assert counts["homology.gauss_nnz_in"] == 5
    assert counts["homology.gauss_cells"] == 3 * 5
    assert counts["homology.gauss_rank"] == 2
