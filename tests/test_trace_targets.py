"""Every callable the benchmark's tracer wraps exists in normlds.

perfbench/tracer.py names each traced function by (module, attribute path). A
name deleted or renamed in the library would make `perfbench/run.py --trace 1`
fail; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [place for places in tracer.TARGETS.values() for place in places]


@pytest.mark.parametrize("module, path", load_targets(), ids=lambda x: x)
def test_trace_target_resolves(module, path):
    owner = importlib.import_module(f"normlds.{module}")
    *outer, last = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    # the tracer patches a method where its class defines it, not where it inherits it
    assert callable(vars(owner)[last])
