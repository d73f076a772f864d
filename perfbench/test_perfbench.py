"""Tests of the benchmark's own logic; none of them runs a workload.

    python3 -m pytest perfbench
"""

import sys
import types

import pytest

import run
import spans
from spans import Span


def outcome(label, op_s, failed=False, wrong=False):
    return run.Outcome(label, setup_s=0.5, op_s=op_s, failed=failed, wrong=wrong)


def test_medians_and_round_wall_include_failed_operations():
    rounds = [[outcome("a", 1.0), outcome("b", 2.0, failed=True)],
              [outcome("a", 1.5), outcome("b", 2.5, failed=True)],
              [outcome("a", 4.0), outcome("b", 3.0, failed=True)]]
    # round sums 3.0, 4.0, 7.0: the failed operation's time is in each
    assert run.round_wall(rounds) == 4.0
    e2e = run.end_to_end(rounds, setups=[0.7, 0.9, 0.8], rss_kb=[2048, 4096])
    assert e2e["op_p50_s"] == (2.25, "s")
    assert e2e["wall_s"] == (4.0, "s")
    assert e2e["setup_s"] == (0.8, "s")
    assert e2e["peak_rss_mb"] == (4.0, "MB")


def test_counts_separate_expected_failures_from_wrong_answers():
    ok, expected = outcome("ok", 1.0), outcome("known", 1.0, failed=True)
    assert run.counts([ok, expected, ok]) == (3, 1, True)
    wrong = outcome("bad", 1.0, failed=True, wrong=True)
    assert run.counts([ok, expected, wrong]) == (3, 2, False)


def test_self_time_with_nested_and_overlapping_children():
    root = Span("cli.main", 0.0, 10.0)
    a = Span("newton.solve", 1.0, 4.0, root)
    b = Span("spectrum.leading_eigenvalues", 3.0, 6.0, root)   # overlaps a
    c = Span("grid.matvec", 9.0, 12.0, root)                   # runs past root
    a1 = Span("bvp.stationary_residual", 1.5, 2.0, a)
    a2 = Span("bvp.stationary_residual", 1.8, 2.5, a)          # overlaps a1
    selfs = spans.self_times([root, a, b, c, a1, a2])
    # root: children cover [1, 6] and [9, 10] -> 6 of 10
    assert selfs[id(root)] == pytest.approx(4.0)
    assert selfs[id(a)] == pytest.approx(3.0 - 1.0)            # [1.5, 2.5]
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(a1)] == pytest.approx(0.5)
    assert spans.covered([(5.0, 6.0), (0.0, 1.0)], 2.0, 4.0) == 0.0


def test_summary_counts_backtracks_and_fallbacks():
    root = Span("cli.main", 0.0, 10.0)
    front = Span("continuation.solve_front", 0.0, 9.0, root)
    solve = Span("newton.solve", 0.0, 4.0, front, {"iterations": 2})
    children = [Span("bvp.stationary_residual", t, t + 0.1, solve) for t in (0, 1, 2, 3)]
    children += [Span("bvp.stationary_jacobian", t, t + 0.1, solve) for t in (0.5, 1.5)]
    branch = Span("continuation.continue_branch", 5.0, 8.0, front,
                  {"points": 3, "rejected": 1, "regrids": 2})
    failed = Span("newton.solve", 9.0, 9.5, root, {"raised": True})
    out = spans.summarize([root, front, solve, *children, branch, failed])
    assert out["newton.solve.calls"] == 2
    assert out["newton.iterations"] == 2
    assert out["newton.backtracks"] == 4 - 1 - 2
    assert out["newton.failures"] == 1
    assert out["continuation.fallbacks"] == 1
    layers = spans.per_round(out, 1)
    assert layers["continuation.accept_ratio"] == 0.75
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(10.0)   # self times add up to the root


def test_missing_names_are_reported_not_raised(monkeypatch):
    pkg, mod = types.ModuleType("fakepkg"), types.ModuleType("fakepkg.mod")
    exec("def double(x):\n    return 2 * x\n\n"
         "class Box:\n    def get(self):\n        return double(3)\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    table = (("mod", "double", "mod.double"), ("mod", "Box.get", "mod.get"),
             ("mod", "vanished", "mod.vanished"), ("mod", "Box.gone", "mod.gone"),
             ("nomodule", "f", "nomodule.f"))
    tracer = spans.install(spans.Tracer(), table, package="fakepkg")
    assert tracer.missing == ["mod.vanished", "mod.Box.gone", "nomodule.f"]
    assert mod.Box().get() == 6
    out = spans.summarize(tracer.spans)
    assert out["mod.get.calls"] == 1 and out["mod.double.calls"] == 1
    assert [s.parent.name for s in tracer.spans if s.parent] == ["mod.get"]
