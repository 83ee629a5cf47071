"""Benchmark of reinsure_dp: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (nothing needs building; the package is
imported from ``src/``):

    python3 bench/run.py --workload tail_fastpath --seed 1 --seconds 36 --trace 0

Workloads: tail_fastpath, general_risk, policy_replay (see workloads.py for
their operations and why each was chosen). One process runs one workload and
drives its operations serially, one at a time, with BLAS limited to one
thread.

A run sets the workload up several times and times the package import in
several child interpreters; setup_s is the median import plus the median
set-up. It then runs passes over the operations for as long as the next
pass is expected to end within --seconds. Every operation's artifacts are
digested and checked after its pass; see gate.py for what counts as failed.

--trace 0 prints the end-to-end metrics setup_s, pass_s (median pass wall
time) and peak_rss_mb (ru_maxrss of this process), and before the result
line the workload-specific failed_share, max_oracle_gap and paths_per_s.

--trace 1 alternates untraced passes with passes traced by tracing.py, so
that drift in machine speed falls on both alike. It prints the per-layer
metrics (medians over traced passes), runs the artifact checks of the last
pass again under the tracer to time the oracle layer, and exits 1 if a span
or counter the workload must exercise never fired.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A record of the run, and with --trace 1 every span, is
written under bench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import CheckFailed, Gate, check
from tracing import MODULES, PACKAGE, Tracer, count_children, summarize

BLAS_THREADS = "1"
SETUP_REPS = 3
IMPORT_REPS = 5
# keep a run well under three minutes even when passes are slow
HARD_LIMIT_S = 150.0

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# function spans reported by name: (span name, fields)
FUNCTION_METRICS = (
    ("treaties.feasible_retention_range", ("calls", "s")),
    ("treaties.premium_breakpoints", ("calls", "s")),
    ("dp.bellman_step", ("calls", "self_s")),
    ("dp.value_interp", ("calls", "self_s")),
    ("risk.atom_weights", ("calls", "s")),
    ("dp.apply_L", ("calls", "self_s")),
    ("distributions.independent_product", ("calls", "s")),
    ("distributions.push_forward", ("calls", "s")),
    ("premiums.treaty_premium", ("calls", "self_s")),
    ("risk.evaluate", ("calls", "s")),
    ("dp.evaluate_policy", ("s",)),
    ("sim.ruin_bound_check", ("self_s",)),
    ("sim.simulate_paths", ("self_s",)),
    ("treaties.retained", ("calls", "s")),
    ("distributions.quantile", ("s",)),
    ("cli.run", ("self_s",)),
    ("distributions.discretize", ("s",)),
)
# the program's operations never call the oracles; the gap check does
PROGRAM_MODULES = tuple(m for m in MODULES if m != "oracles")
# per-layer metric, manifest counter it sums
COUNTERS = (
    ("dp.argmin_evaluations", "argmin_evaluations"),
    ("dp.solve_infinite.iterations", "iterations"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for mod in PROGRAM_MODULES:
        units[f"{mod}.calls"] = "count"
        units[f"{mod}.self_s"] = "s"
    for name, fields in FUNCTION_METRICS:
        for f in fields:
            units[f"{name}.{f}"] = "count" if f == "calls" else "s"
    units["dp.pw_budget_pass_ratio"] = "ratio"
    for metric, _ in COUNTERS:
        units[metric] = "count"
    units["oracles.check_calls"] = "count"
    units["oracles.check_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def limit_blas_threads() -> None:
    # read by OpenBLAS when numpy loads it, so this must run before the import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """Identifies the measured code where the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def import_seconds(reps: int) -> list[float]:
    """Import time of the package, each in a fresh interpreter.

    A process imports only once, so the median for setup_s comes from short
    child interpreters run one after another.
    """
    mods = ", ".join(f"{PACKAGE}.{m}" for m in MODULES)
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        f" import {mods}; print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(reps):
        res = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(res.stdout))
    return out


def run_for(seconds, hard_deadline, clock, step) -> None:
    """Call ``step`` while the next call is expected to end within ``seconds``.

    Calls it at least once.
    """
    start = clock()
    took = []
    while True:
        t0 = clock()
        step()
        now = clock()
        took.append(now - t0)
        ahead = statistics.median(took)
        if now - start + ahead > seconds or now + ahead > hard_deadline:
            return


def _metric(value, unit, final=True, **extra) -> dict:
    # final: printed in the result line; the others only on report lines
    return {"value": value, "unit": unit, "final": final, **extra}


def untraced_run(gate, clock, seconds, hard_deadline, setup_s) -> dict:
    run_for(seconds, hard_deadline, clock, gate.run_pass)
    times = gate.pass_seconds
    values = {
        "setup_s": setup_s,
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    metrics["pass_s"]["passes"] = len(times)
    for pct in (99, 95, 90):
        # a tail percentile needs at least ten passes beyond it
        if len(times) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(times, n=100)[pct - 1]
            metrics[f"pass_s_p{pct}"] = _metric(cut, "s", final=False)
            break
    outcomes = gate.outcomes()
    metrics["failed_share"] = _metric(
        sum(o.failed for o in outcomes) / len(outcomes), "ratio", final=False
    )
    gaps = [o.measures["oracle_gap"] for o in outcomes if "oracle_gap" in o.measures]
    if gaps:
        metrics["max_oracle_gap"] = _metric(max(gaps), "param", final=False)
    sims = [o for o in outcomes if "paths" in o.measures]
    if sims:
        per_s = sims[0].measures["paths"] / statistics.median(o.seconds for o in sims)
        metrics["paths_per_s"] = _metric(per_s, "paths/s", final=False)
    return metrics


def layer_metrics(spans, outcomes) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats = summarize(spans)
    out = {}
    for mod in PROGRAM_MODULES:
        mine = [st for name, st in stats.items() if name.startswith(mod + ".")]
        out[f"{mod}.calls"] = sum(st.calls for st in mine)
        out[f"{mod}.self_s"] = sum(st.self_s for st in mine)
    for name, fields in FUNCTION_METRICS:
        st = stats.get(name)
        for f in fields:
            out[f"{name}.{f}"] = getattr(st, f) if st else 0
    # budget checks are the treaty_premium calls the search makes itself;
    # the ones apply_L makes are part of an evaluation
    checks = count_children(spans, "dp.bellman_step", "premiums.treaty_premium")
    evals = count_children(spans, "dp.bellman_step", "dp.apply_L")
    out["dp.pw_budget_pass_ratio"] = evals / checks if checks else 0.0
    for metric, key in COUNTERS:
        out[metric] = sum(o.counters.get(key, 0) for o in outcomes)
    return out


def traced_run(args, workload, gate, clock, hard_deadline, record):
    """Per-layer metrics and the coverage errors of a traced run."""
    tracer = Tracer(clock)
    traced = []  # (pass index, spans)

    def untraced_then_traced():
        gate.run_pass()
        with tracer.installed():
            gate.run_pass(lambda name: tracer.span(f"op.{name}"))
        traced.append((len(gate.passes) - 1, tracer.take()))

    run_for(args.seconds, hard_deadline, clock, untraced_then_traced)
    with tracer.installed():
        # checks never run inside a timed pass; rerun the last pass's checks
        # under the tracer to time the oracle layer
        for op, outcome in zip(gate.ops, gate.passes[-1]):
            if outcome.status == 0:
                with tracer.span(f"check.{op.name}"):
                    check(op, os.path.join(gate.last_dir, op.name))
    check_spans = tracer.take()

    per_pass = [layer_metrics(spans, gate.passes[k]) for k, spans in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    check_stats = summarize(check_spans)
    oracle = [st for name, st in check_stats.items() if name.startswith("oracles.")]
    values["oracles.check_calls"] = sum(st.calls for st in oracle)
    values["oracles.check_s"] = sum(st.s for st in oracle)
    plain_s = statistics.median(gate.pass_seconds[0::2])
    traced_s = statistics.median(gate.pass_seconds[1::2])
    values["trace.overhead_s"] = traced_s - plain_s
    metrics = {name: _metric(values[name], unit) for name, unit in per_layer_units().items()}
    metrics["pass_s_untraced"] = _metric(plain_s, "s", final=False, passes=len(traced))
    metrics["pass_s_traced"] = _metric(traced_s, "s", final=False, passes=len(traced))

    fired = set()
    for _, spans in traced:
        fired.update(sp.name for sp in spans)
    errors = [f"span {name} never fired on {workload.name}"
              for name in workload.coverage if name not in fired]
    errors += [f"span {name} never fired in the gap check"
               for name in workload.check_coverage if name not in check_stats]
    errors += [f"manifest counter {key} is zero on {workload.name}"
               for key in workload.counters
               if not sum(o.counters.get(key, 0) for o in gate.passes[-1])]

    spans_path = OUT / f"spans-{workload.name}.csv"
    with open(spans_path, "w") as fh:
        fh.write("pass,id,parent,root,name,start,end\n")
        for k, spans in traced + [(-1, check_spans)]:
            for sp in spans:
                fh.write(f"{k},{sp.id},{sp.parent},{sp.root},{sp.name},{sp.start!r},{sp.end!r}\n")
    record["spans_file"] = spans_path.name
    return metrics, errors


def report(gate, metrics, attempted, failed) -> None:
    for k, outs in enumerate(gate.passes):
        for o in outs:
            for msg in o.problems:
                print(f"problem pass {k} {o.op}: {msg}")
    for i, op in enumerate(gate.ops):
        runs = [outs[i] for outs in gate.passes]
        med = statistics.median(o.seconds for o in runs)
        bad = sum(o.failed for o in runs)
        print(f"op {op.name}: median {med:.6f} s, exit {runs[0].status},"
              f" failed {bad}/{len(runs)} passes")
        for name, digest in runs[0].digests.items():
            repeated = all(o.digests.get(name) == digest for o in runs)
            print(f"  sha256 {name} {digest} {'repeats' if repeated else 'CHANGED'}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        extra = f" ({m['passes']} passes)" if "passes" in m else ""
        print(f"metric {name} = {m['value']!r} {m['unit']}{extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    clock = time.perf_counter
    t_import = clock()
    sys.path.insert(0, str(SRC))
    for short in MODULES:
        importlib.import_module(f"{PACKAGE}.{short}")
    import_s = clock() - t_import
    pkg = sys.modules[PACKAGE]
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {PACKAGE} from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads  # imports numpy and the package

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    hard_deadline = clock() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        try:
            setup_times, ops = workloads.timed_setup(
                workload, workdir, args.seed, SETUP_REPS, clock
            )
        except (workloads.SetupFailed, CheckFailed) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        imports = import_seconds(IMPORT_REPS)
        gate = Gate(ops, workdir, clock)
        record = {"environment": environment(args), "import_s": import_s,
                  "import_reps_s": imports, "setup_reps_s": setup_times}
        if args.trace:
            metrics, coverage_errors = traced_run(
                args, workload, gate, clock, hard_deadline, record
            )
        else:
            setup_s = statistics.median(imports) + statistics.median(setup_times)
            metrics = untraced_run(gate, clock, args.seconds, hard_deadline, setup_s)
            coverage_errors = []
        outcomes = gate.outcomes()
        attempted = len(outcomes)
        failed = sum(o.failed for o in outcomes)
        print("environment " + json.dumps(record["environment"]))
        report(gate, metrics, attempted, failed)
        record.update(
            metrics=metrics,
            pass_seconds=gate.pass_seconds,
            op_seconds={op.name: [outs[i].seconds for outs in gate.passes]
                        for i, op in enumerate(gate.ops)},
            ops={o.op: {"digests": o.digests, "counters": o.counters} for o in gate.passes[0]},
            problems=[(k, o.op, o.problems) for k, outs in enumerate(gate.passes)
                      for o in outs if o.problems],
        )
        with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        if coverage_errors:
            for msg in coverage_errors:
                print(f"coverage: {msg}", file=sys.stderr)
            return 1
        final = {name: {"value": m["value"], "unit": m["unit"]}
                 for name, m in metrics.items() if m["final"]}
        wrong = any(o.problems for o in outcomes)
        print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                          "metrics": final}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
