"""The counts the benchmark derives from return values still come out.

``perfbench/spans._info`` reads ``newton.solve(...)[1].iterations`` and
``continue_branch(...).points`` and ``.failures``.  A changed return shape
would only show up as a "(return value)" missing name in a traced benchmark
run; here it fails the unit tests instead.  The first test calls the
tracer's wrappers directly; the second wraps ``newton``'s own bindings, as
the benchmark does, so that Newton's linear solves stay one traced layer.
"""

from conftest import load_perfbench

from quenchfront import bvp, continuation, newton
from quenchfront.bvp import FrontProfile

spans = load_perfbench("spans")


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


def test_traced_newton_solve_has_one_linear_solve_per_iteration(monkeypatch):
    tracer = spans.Tracer()
    for attr in ("solve", "banded_lu_solve"):
        monkeypatch.setattr(newton, attr, tracer.wrap(getattr(newton, attr), f"newton.{attr}"))
    g = bvp.default_grid(0.0, 0.04)
    _, report = newton.solve(FrontProfile(c=0.0, grid=g, u=bvp.initial_guess(g, 0.0)))
    assert tracer.missing == []
    outer, *linear = tracer.spans
    assert outer.name == "newton.solve" and outer.parent is None
    assert len(linear) == report.iterations > 0
    assert all(s.name == "newton.banded_lu_solve" and s.parent is outer for s in linear)
