"""Every layer the benchmark traces still exists under the name it wraps.

``perfbench/spans.py`` wraps each (module, attribute) of ``WRAPPED`` where
its callers look it up; a name that no longer resolves would only show up
as ``trace.missing_names`` in a traced benchmark run.  Here it fails the
unit tests instead.  Nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, _ in spans.WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _ in spans.WRAPPED])
def test_wrapped_name_resolves(module_name, attr):
    owner = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
