"""The package never loads scipy.

numpy is its one runtime dependency: the entropic log-sum-exp and the
lognormal quantile are computed with numpy and the standard library. Each
check runs in a fresh interpreter that starts with sys.modules["scipy"] set
to None, so any import of scipy there raises ImportError, and compares its
result with the same code run in this process.
"""

import json
import os
import subprocess
import sys

import pytest

import reinsure_dp
from reinsure_dp import cli

SRC = os.path.dirname(os.path.dirname(reinsure_dp.__file__))
MODULES = ("distributions", "risk", "treaties", "premiums", "dp", "oracles", "sim", "cli")

IMPORTS = "".join(f"import reinsure_dp.{m}\n" for m in MODULES) + "result = None\n"
# python -m reinsure_dp --help
HELP = """
import runpy
sys.argv = ['reinsure_dp', '--help']
try:
    runpy.run_module('reinsure_dp', run_name='__main__', alter_sys=True)
except SystemExit as exc:
    result = exc.code
"""
ENTROPIC_SOLVE = """
from reinsure_dp.distributions import FamilySpec, discretize
from reinsure_dp.dp import GridSpec, ModelConfig, SearchSpec, StageData, solve_finite
from reinsure_dp.premiums import PremiumSpec
from reinsure_dp.risk import RiskSpec
stage = StageData(
    discretize(FamilySpec("uniform", (0.0, 1.0), atoms=21)),
    discretize(FamilySpec("point-mass", (0.3,))),
    RiskSpec("entropic", gamma=1.5), PremiumSpec("expected", theta=0.2), 0.9,
)
config = ModelConfig(2, (stage,), GridSpec(-0.5, 1.5, 17), SearchSpec("stop-loss"))
values, policy = solve_finite(config)
result = [v.values.tolist() for v in values] + [policy.stage_params(0).tolist()]
"""
ENTROPIC_EVALUATE = """
from reinsure_dp.distributions import make_discrete
from reinsure_dp.risk import RiskSpec, evaluate
d = make_discrete([(-1.0, 0.25), (0.5, 0.5), (3.0, 0.25)])
result = evaluate(RiskSpec("entropic", gamma=2.0), d)
"""
LOGNORMAL = """
from reinsure_dp.distributions import FamilySpec, discretize
d = discretize(FamilySpec("lognormal", (0.0, 0.5), truncation=4.0, atoms=101))
result = [d.values.tolist(), d.probs.tolist()]
"""
ES_DOC = {
    "horizon": 2,
    "grid": {"lo": -0.5, "hi": 1.5, "count": 17},
    "search": {"family": "stop-loss"},
    "stages": [{
        "claims": {"family": "uniform", "params": [0.0, 1.0], "atoms": 11},
        "income": {"family": "point-mass", "params": [0.3]},
        "risk": {"kind": "expected-shortfall", "alpha": 0.95},
        "premium": {"kind": "expected", "theta": 0.2},
        "beta": 1.0,
    }],
}


def fresh(body, *args):
    """Run body in a new interpreter that cannot import scipy; its `result`."""
    code = (
        "import json, sys\nsys.modules['scipy'] = None\n"
        f"{body}\n"
        "print(json.dumps({'scipy': sys.modules['scipy'] is None, 'result': result}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["scipy"]
    return out["result"]


def here(body):
    ns = {}
    exec(body, ns)
    return json.loads(json.dumps(ns["result"]))


def test_importing_every_module_leaves_it_out():
    assert fresh(IMPORTS) is None


def test_module_help_leaves_it_out():
    assert fresh(HELP) == 0


def test_es_stop_loss_solve_through_run_leaves_it_out(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ES_DOC))
    body = "from reinsure_dp import cli\nresult = cli.run('solve-finite', sys.argv[1], sys.argv[2])\n"
    assert fresh(body, str(cfg), str(tmp_path / "fresh")) == 0
    assert cli.run("solve-finite", str(cfg), str(tmp_path / "here")) == 0
    for name in ("values.csv", "policy.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


@pytest.mark.parametrize(
    "body", [ENTROPIC_SOLVE, ENTROPIC_EVALUATE, LOGNORMAL],
    ids=["entropic-solve", "entropic-evaluate", "lognormal-discretize"],
)
def test_users_never_load_it_and_match_the_in_process_run(body):
    assert fresh(body) == here(body)
