"""Tests of the benchmark's own machinery: span arithmetic, the tracer's
patching, and how the gate counts failed operations.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from gate import Gate, Op  # noqa: E402
from reinsure_dp import cli, dp, sim, treaties  # noqa: E402
from tracing import Span, Tracer, count_children, covered, summarize  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]) == 5.0
    assert covered(5.0, 6.0, [(0.0, 1.0)]) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, 0, 0, "b", 1.0, 3.0),
        Span(5, 1, 0, "f", 1.5, 2.5),
        Span(2, 0, 0, "c", 2.0, 4.0),
        Span(3, 0, 0, "d", 6.0, 7.0),
        Span(4, 0, 0, "d", 9.0, 12.0),
        Span(0, -1, 0, "a", 0.0, 10.0),
    ]
    stats = summarize(spans)
    # a: 10 long; children cover [1, 4], [6, 7] and [9, 10]
    assert stats["a"] == (1, 10.0, 5.0)
    # b loses its child f; a loses b whole and f is not subtracted again
    assert stats["b"] == (1, 2.0, 1.0)
    assert stats["f"] == (1, 1.0, 1.0)
    assert stats["d"] == (2, 4.0, 4.0)
    assert count_children(spans, "a", "d") == 2
    assert count_children(spans, "b", "d") == 0


def test_tracer_records_parents_roots_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("m.outer", body)
    with tracer.span("op"):
        outer()
    spans = {sp.name: sp for sp in tracer.spans}
    assert spans["m.outer"].parent == spans["op"].id
    assert spans["m.inner"].parent == spans["m.outer"].id
    assert {sp.root for sp in tracer.spans} == {spans["op"].id}
    stats = summarize(tracer.spans)
    # clock: op 0..7, outer 1..6, inners 2..3 and 4..5
    assert stats["m.outer"] == (1, 5.0, 3.0)
    assert stats["m.inner"] == (2, 2.0, 2.0)
    assert stats["op"] == (1, 7.0, 2.0)


def test_install_patches_import_sites_and_methods_then_restores():
    solve = dp.solve_finite
    evaluate = sim.evaluate_policy
    call = dp.ValueFunction.__call__
    retained = treaties.Treaty.retained
    tracer = Tracer()
    with tracer.installed():
        # cli and sim imported these by name; both sites see the wrapper
        assert cli.solve_finite is dp.solve_finite is not solve
        assert sim.evaluate_policy is not evaluate
        vf = dp.ValueFunction(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert vf(0.5) == 0.5
        treaties.make_treaty("stop-loss", {"a": 0.5}).retained(np.array([1.0]))
    names = [sp.name for sp in tracer.spans]
    assert "dp.value_interp" in names
    assert "treaties.retained" in names
    assert "treaties.make_treaty" in names
    assert cli.solve_finite is dp.solve_finite is solve
    assert sim.evaluate_policy is evaluate
    assert dp.ValueFunction.__call__ is call
    assert treaties.Treaty.retained is retained


# --- the gate ----------------------------------------------------------------

GRID = np.linspace(-0.5, 1.5, 16)


@pytest.fixture
def small_config(tmp_path):
    doc = {
        "horizon": 1,
        "grid": {"lo": -0.5, "hi": 1.5, "count": 16},
        "search": {"family": "stop-loss"},
        "stages": [
            {
                "claims": {"family": "uniform", "params": [0.0, 1.0], "atoms": 11},
                "income": {"family": "point-mass", "params": [0.3]},
                "risk": {"kind": "expected-shortfall", "alpha": 0.95},
                "premium": {"kind": "expected", "theta": 0.2},
                "beta": 1.0,
            }
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return cli.parse_config(str(path))


def policy_writer(retentions):
    def call(out_dir):
        lines = ["stage,x,family,p1,p2"]
        lines += [f"0,{float(x)!r},stop-loss,{a!r}," for x, a in zip(GRID, retentions)]
        with open(os.path.join(out_dir, "policy.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return 0

    return call


def test_over_budget_row_and_nonzero_exit_each_fail_one_operation(tmp_path, small_config):
    check = workloads.affordable(small_config)
    full = [1.0] * GRID.size  # retain everything: zero premium, always affordable
    one_over = list(full)
    one_over[0] = 0.0  # cede everything at x = -0.5, where the budget is 0
    ops = [
        Op("affordable", policy_writer(full), (check,)),
        Op("over_budget", policy_writer(one_over), (check,)),
        Op("refuses", lambda out_dir: 1, (check,)),
        Op("raises", lambda out_dir: 1 / 0),
    ]
    gate = Gate(ops, str(tmp_path / "work"))
    outcomes = {o.op: o for o in gate.run_pass()}
    assert [o.op for o in gate.outcomes() if o.failed] == ["over_budget", "refuses", "raises"]
    assert "1 treaties over budget" in outcomes["over_budget"].problems[0]
    # a refusal is a failed operation, not a wrong answer
    assert outcomes["refuses"].status == 1 and outcomes["refuses"].problems == []
    assert outcomes["raises"].status == -1


def test_artifact_that_changes_between_passes_fails(tmp_path):
    counter = iter(range(10))

    def call(out_dir):
        with open(os.path.join(out_dir, "values.csv"), "w") as fh:
            fh.write(f"{next(counter) // 2}\n")  # same bytes in passes 0 and 1
        return 0

    gate = Gate([Op("drifts", call)], str(tmp_path / "work"))
    fails = [gate.run_pass()[0].failed for _ in range(3)]
    assert fails == [False, False, True]


def test_manifest_counters_enter_the_fingerprint(tmp_path):
    runs = iter([3, 3, 4])

    def call(out_dir):
        manifest = {
            "stats": {"per_stage": [{"argmin_evaluations": 5}, {"argmin_evaluations": None}]},
            "certificates": {"iterations": next(runs)},
        }
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        return 0

    gate = Gate([Op("solve", call)], str(tmp_path / "work"))
    outcomes = [gate.run_pass()[0] for _ in range(3)]
    assert outcomes[0].counters == {"argmin_evaluations": 5, "iterations": 3}
    assert [o.failed for o in outcomes] == [False, False, True]


def test_benchmark_json_names_what_the_runs_print():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
