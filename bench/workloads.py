"""The benchmark's three workloads: their inputs, set-up and checks.

Claims are uniform(0, 1), premium income is a point mass at 0.3 and
reinsurance is priced by the expected-value principle with loading 0.2,
unless an operation says otherwise. Every solve goes through
``reinsure_dp.cli.run`` in-process, so config parsing, the CSV writers and
the manifest are part of each measured operation. The seed goes to every
call; only ``simulate`` draws from it, the solves record it.

Why these workloads:

- tail_fastpath: the shipped acceptance traffic. Tail measures with
  deterministic income take the batched single-sort evaluator, and the
  budget makes every one of 512 states compute its own feasible interval.
- general_risk: each search path the fast path does not cover: stochastic
  income, the entropic measure, a full-support distortion (the memory case)
  and the piecewise-linear coordinate descent.
- policy_replay: the dp module read instead of searched: policy
  evaluation, Monte Carlo and the ruin bound replay stored policies and
  bypass the zoom search and the feasible interval.

Checks use routes the solver's batched path does not share: the reference
treaty pricing ``treaty_premium`` and the closed-form oracles.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gate import CheckFailed, Op
from reinsure_dp import cli, oracles, premiums, sim
from reinsure_dp.distributions import FamilySpec, discretize
from reinsure_dp.risk import distortion_preset, var

ORACLE_TOL = 5e-3  # acceptance tolerance on policy parameters
BUDGET_SLACK = 1e-9
REPLAY_TOL = 1e-9
UNION_BOUND = 0.15  # sum over three value-at-risk 0.95 stages of 1 - alpha
X0 = 1.2
SIM_PATHS = 1_000_000

GRID_TAIL = {"lo": -0.5, "hi": 1.5, "count": 512}


def _claims(atoms: int) -> dict:
    return {"family": "uniform", "params": [0.0, 1.0], "atoms": atoms}


def _stage(risk, *, atoms=2001, income=None, premium=None, beta=1.0, constrained=True):
    return {
        "claims": _claims(atoms),
        "income": income or {"family": "point-mass", "params": [0.3]},
        "risk": risk,
        "premium": premium or {"kind": "expected", "theta": 0.2},
        "beta": beta,
        "budget_constrained": constrained,
    }


def _doc(horizon, grid, search, stage) -> dict:
    return {"horizon": horizon, "grid": grid, "search": search, "stages": [stage]}


def _grid(lo, hi, count) -> dict:
    return {"lo": lo, "hi": hi, "count": count}


def _es(alpha):
    return {"kind": "expected-shortfall", "alpha": alpha}


def claim_var(atoms: int = 2001, alpha: float = 0.95) -> float:
    """Upper edge of the layer family: the claim value-at-risk."""
    return var(discretize(FamilySpec("uniform", (0.0, 1.0), atoms=atoms)), alpha)


def es_doc() -> dict:
    return _doc(2, GRID_TAIL, {"family": "stop-loss"}, _stage(_es(0.95)))


def var_doc(layer_upper: float) -> dict:
    return _doc(
        3,
        GRID_TAIL,
        {"family": "layer", "layer_upper": layer_upper},
        _stage({"kind": "value-at-risk", "alpha": 0.95}),
    )


def _write_config(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


# ---------------------------------------------------------------------------
# reading artifacts back


def _stage_values(out_dir: str, stage: str) -> np.ndarray:
    with open(os.path.join(out_dir, "values.csv"), newline="") as fh:
        return np.array([float(r["value"]) for r in csv.DictReader(fh) if r["stage"] == stage])


# ---------------------------------------------------------------------------
# checks; each raises CheckFailed on a wrong artifact and returns measures


def affordable(config) -> Callable[[str], dict]:
    """Every treaty in policy.csv costs at most the surplus of its state."""

    def affordable(out_dir):
        table = cli.read_policy_csv(os.path.join(out_dir, "policy.csv"))
        prices: dict = {}
        over = 0
        worst = 0.0
        for n, row in enumerate(table.rows):
            s = config.stage(n)
            if not s.budget_constrained:
                continue
            for x, f in zip(table.grid, row):
                key = (n if len(config.stages) > 1 else 0, repr(f))
                if key not in prices:
                    prices[key] = premiums.treaty_premium(s.premium, s.dY, f)
                excess = prices[key] - max(float(x), 0.0)
                if excess > BUDGET_SLACK:
                    over += 1
                    worst = max(worst, excess)
        if over:
            raise CheckFailed(f"{over} treaties over budget, worst by {worst:.3g}")
        return {}

    return affordable


def certified(config) -> Callable[[str], dict]:
    """The solve-infinite certificate meets the config tolerance."""

    def certified(out_dir):
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            cert = float(json.load(fh)["certificates"]["certificate"])
        if not cert <= config.tol:
            raise CheckFailed(f"certificate {cert:.3g} above tol {config.tol:.3g}")
        return {}

    return certified


def _gap_check(stages, oracle_params, what):
    # shared by both oracle checks: max gap over the given stages
    def check(out_dir):
        table = cli.read_policy_csv(os.path.join(out_dir, "policy.csv"))
        want = oracle_params(table.grid)
        gap = max(float(np.max(np.abs(table.stage_params(n) - want))) for n in stages)
        if not gap <= ORACLE_TOL:
            raise CheckFailed(f"{what} oracle gap {gap:.3g} above {ORACLE_TOL}")
        return {"oracle_gap": gap}

    check.__name__ = f"{what}_oracle_gap"
    return check


def es_oracle_gap(config):
    """Stop-loss retention of the last stage against the uniform ES closed form."""
    last = config.horizon - 1
    s = config.stage(last)

    def params(grid):
        return np.array(
            [oracles.oracle_es_uniform(s.premium.theta, s.risk.alpha, float(x)) for x in grid]
        )

    return _gap_check([last], params, "es")


def var_oracle_gap(config):
    """Layer deductible of every stage against the value-at-risk kink equation."""
    s = config.stage(0)

    def params(grid):
        sol = oracles.oracle_var_layer(
            s.dY, distortion_preset("identity"), s.premium.theta, s.risk.alpha
        )
        return np.array([sol.a_of_x(float(x)) for x in grid])

    return _gap_check(range(config.horizon), params, "var")


def replays(reference: np.ndarray) -> Callable[[str], dict]:
    """evaluate-policy reproduces the solve's stage-0 values."""

    def replays(out_dir):
        got = _stage_values(out_dir, "0")
        if got.shape != reference.shape:
            raise CheckFailed(f"{got.size} values, the solve wrote {reference.size}")
        diff = float(np.max(np.abs(got - reference)))
        if not diff <= REPLAY_TOL:
            raise CheckFailed(f"values differ from the solve by {diff:.3g}")
        return {}

    return replays


def ruin_within_bound(out_dir):
    """Simulated ruin frequency, less its CI, stays under the union bound."""
    with open(os.path.join(out_dir, "sim.json")) as fh:
        res = json.load(fh)
    if res["paths"] != SIM_PATHS:
        raise CheckFailed(f"simulated {res['paths']} paths, asked for {SIM_PATHS}")
    low = res["ruin_estimate"] - res["ci_half_width"]
    if not low <= UNION_BOUND + 1e-12:
        raise CheckFailed(f"ruin estimate - CI = {low:.4g} above {UNION_BOUND}")
    return {"paths": res["paths"]}


def bound_holds(out_dir):
    """ruin_bound_check certifies its precondition and the expected bound."""
    with open(os.path.join(out_dir, "ruin_bound.json")) as fh:
        res = json.load(fh)
    if not res["holds"]:
        raise CheckFailed("cost-to-go turns positive on the worst-case drift path")
    if abs(res["bound"] - UNION_BOUND) > 1e-12:
        raise CheckFailed(f"bound {res['bound']!r}, expected {UNION_BOUND}")
    return {}


# ---------------------------------------------------------------------------
# operations


def cli_op(name, subcommand, config_path, seed, checks=(), policy=None) -> Op:
    def call(out_dir):
        return cli.run(subcommand, config_path, out_dir, seed=seed, policy=policy)

    return Op(name, call, tuple(checks))


def _tail_ops(workdir: str, seed: int, layer_upper: float) -> list[Op]:
    affine = _doc(
        5,
        _grid(-2.0, 2.0, 257),
        {"family": "stop-loss"},
        _stage(
            _es(0.9),
            atoms=201,
            premium={"kind": "expected", "theta": 0.1},
            beta=0.9,
            constrained=False,
        ),
    )
    docs = {
        "es_stop_loss": ("solve-finite", es_doc()),
        "var_layer": ("solve-finite", var_doc(layer_upper)),
        "affine_finite": ("solve-finite", affine),
        "affine_stationary": ("solve-infinite", dict(affine, horizon=None)),
        "budget_stationary": (
            "solve-infinite",
            _doc(
                None,
                _grid(-0.5, 1.5, 129),
                {"family": "stop-loss"},
                _stage(_es(0.95), atoms=201, beta=0.9),
            ),
        ),
    }
    ops = []
    for name, (sub, doc) in docs.items():
        path = _write_config(workdir, name, doc)
        config = cli.parse_config(path)
        checks = [affordable(config)]
        if sub == "solve-infinite":
            checks.append(certified(config))
        if name == "es_stop_loss":
            checks.append(es_oracle_gap(config))
        if name == "var_layer":
            checks.append(var_oracle_gap(config))
        ops.append(cli_op(name, sub, path, seed, checks))
    return ops


def setup_tail_fastpath(workdir: str, seed: int) -> list[Op]:
    return _tail_ops(workdir, seed, claim_var())


def setup_general_risk(workdir: str, seed: int) -> list[Op]:
    g64 = _grid(-0.5, 1.5, 64)
    docs = {
        "stochastic_income": _doc(
            2,
            g64,
            {"family": "stop-loss"},
            _stage(
                _es(0.95),
                atoms=101,
                income={"family": "uniform", "params": [0.1, 0.5], "atoms": 5},
                premium={"kind": "wang", "preset": "ph:0.9", "theta": 0.2},
            ),
        ),
        "entropic_proportional": _doc(
            1,
            g64,
            {"family": "proportional"},
            _stage(
                {"kind": "entropic", "gamma": 2.0},
                atoms=101,
                premium={"kind": "ph", "gamma": 0.8, "theta": 0.2},
            ),
        ),
        # full-support weights over 2001 atoms: the largest temporaries
        "ph_distortion_layer": _doc(
            1,
            g64,
            {"family": "layer", "layer_upper": claim_var()},
            _stage({"kind": "distortion", "preset": "ph:0.7"}),
        ),
        "piecewise_linear": _doc(
            1,
            _grid(-0.5, 1.5, 32),
            {"family": "piecewise-linear", "knots": [0.2, 0.6], "resolution": 16, "sweeps": 2},
            _stage(_es(0.95), atoms=101),
        ),
    }
    ops = []
    for name, doc in docs.items():
        path = _write_config(workdir, name, doc)
        ops.append(cli_op(name, "solve-finite", path, seed, [affordable(cli.parse_config(path))]))
    return ops


class SetupFailed(Exception):
    pass


def setup_policy_replay(workdir: str, seed: int) -> list[Op]:
    """Solve the tail_fastpath ES and VaR policies, then replay them."""
    layer_upper = claim_var()
    es_path = _write_config(workdir, "es_stop_loss", es_doc())
    var_path = _write_config(workdir, "var_layer", var_doc(layer_upper))
    sim_doc = dict(var_doc(layer_upper), simulate={"x0": X0, "paths": SIM_PATHS})
    sim_path = _write_config(workdir, "var_simulate", sim_doc)
    solved = {}
    for name, path in (("es", es_path), ("var", var_path)):
        out = os.path.join(workdir, f"solve_{name}")
        status = cli.run("solve-finite", path, out, seed=seed)
        if status != 0:
            raise SetupFailed(f"solve-finite {name} exited {status}")
        affordable(cli.parse_config(path))(out)
        solved[name] = out
    var_config = cli.parse_config(var_path)
    var_policy = cli.read_policy_csv(os.path.join(solved["var"], "policy.csv"))

    def ruin_bound(out_dir):
        bound, holds = sim.ruin_bound_check(var_policy, var_config, X0)
        with open(os.path.join(out_dir, "ruin_bound.json"), "w") as fh:
            json.dump({"x0": X0, "bound": bound, "holds": holds}, fh)
            fh.write("\n")
        return 0

    def policy(name):
        return os.path.join(solved[name], "policy.csv")

    return [
        cli_op("evaluate_es", "evaluate-policy", es_path, seed,
               [replays(_stage_values(solved["es"], "0"))], policy=policy("es")),
        cli_op("evaluate_var", "evaluate-policy", var_path, seed,
               [replays(_stage_values(solved["var"], "0"))], policy=policy("var")),
        cli_op("simulate_var", "simulate", sim_path, seed, [ruin_within_bound],
               policy=policy("var")),
        Op("ruin_bound_check", ruin_bound, (bound_holds,)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str, int], list[Op]]
    # span names a traced pass must record; a missed import site would
    # otherwise read as zero time
    coverage: tuple[str, ...]
    # manifest counters that must be positive
    counters: tuple[str, ...] = ()
    # spans the gap check must record
    check_coverage: tuple[str, ...] = ()


_ALWAYS = ("cli.run", "distributions.discretize")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tail_fastpath",
            setup_tail_fastpath,
            _ALWAYS + (
                "treaties.feasible_retention_range",
                "treaties.premium_breakpoints",
                "dp.bellman_step",
                "dp.value_interp",
                "risk.atom_weights",
                "dp.solve_finite",
                "dp.solve_infinite",
            ),
            counters=("argmin_evaluations", "iterations"),
            check_coverage=("oracles.oracle_es_uniform", "oracles.oracle_var_layer"),
        ),
        Workload(
            "general_risk",
            setup_general_risk,
            _ALWAYS + (
                "dp.bellman_step",
                "dp.value_interp",
                "risk.atom_weights",
                "dp.apply_L",
                "distributions.independent_product",
                "distributions.push_forward",
                "premiums.treaty_premium",
                "risk.evaluate",
            ),
            counters=("argmin_evaluations",),
        ),
        Workload(
            "policy_replay",
            setup_policy_replay,
            _ALWAYS + (
                "dp.apply_L",
                "distributions.independent_product",
                "distributions.push_forward",
                "premiums.treaty_premium",
                "risk.evaluate",
                "dp.evaluate_policy",
                "sim.ruin_bound_check",
                "sim.simulate_paths",
                "treaties.retained",
                "distributions.quantile",
            ),
        ),
    )
}


def timed_setup(workload: Workload, workdir: str, seed: int, reps: int, clock=time.perf_counter):
    """Run the set-up ``reps`` times; returns (seconds per rep, ops of the last)."""
    times = []
    ops = None
    for k in range(reps):
        d = os.path.join(workdir, f"setup{k}")
        os.makedirs(d)
        t0 = clock()
        ops = workload.setup(d, seed)
        times.append(clock() - t0)
    return times, ops
