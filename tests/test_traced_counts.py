"""The counts the benchmark derives from return values still come out.

``perfbench/spans._info`` reads ``newton.solve(...)[1].iterations`` and
``continue_branch(...).points`` and ``.failures``.  A changed return shape
would only show up as a "(return value)" missing name in a traced benchmark
run; here it fails the unit tests instead.  No module attribute is wrapped:
the tracer's wrappers are called directly.
"""

import importlib.util
from pathlib import Path

from quenchfront import bvp, continuation, newton
from quenchfront.bvp import FrontProfile

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_traced_solve_and_branch_give_their_counts(hm_profile):
    tracer = spans.Tracer()
    solve = tracer.wrap(newton.solve, "newton.solve")
    continue_branch = tracer.wrap(continuation.continue_branch,
                                  "continuation.continue_branch")
    g = hm_profile.grid
    _, report = solve(FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0)))
    branch = continue_branch(hm_profile, -1.0, 0.5)
    assert tracer.missing == []
    assert report.iterations > 0 and len(branch.points) > 1 and not branch.failures
    assert [s.info for s in tracer.spans] == [
        {"iterations": report.iterations},
        {"points": len(branch.points) - 1, "rejected": 0, "regrids": 0}]
    summary = spans.summarize(tracer.spans)
    assert summary["newton.iterations"] == report.iterations
    assert summary["continuation.points"] == len(branch.points) - 1
