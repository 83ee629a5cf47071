"""Command-line entry point: config files, run orchestration, result files.

A run is one JSON config document plus one subcommand. Subcommands write
their tables as CSV with 17 significant digits and a fixed row order, so
two runs of the same config and seed produce byte-identical files; all
timing data lives in the manifest, never in the CSVs. The manifest is
written last and atomically, which makes its presence a completion
certificate: a run that died half way leaves no manifest behind.

The solver's own code is single threaded: the batched evaluator owns the
vectorization, and fixed accumulation order is what keeps reruns
reproducible. The stationary solve's policy-evaluation jump is the exception:
its np.linalg.solve runs LAPACK on the BLAS library's threads, which
OPENBLAS_NUM_THREADS=1 pins to one.

Config documents carry the optional keys cost_of_capital_rate and
risk_free_rate. Both are documentation: the model's discount factor beta
already folds them together, so they are echoed into the manifest untouched.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .distributions import DiscreteDistribution, FamilySpec, discretize, make_discrete
from .dp import (
    GridSpec,
    ModelConfig,
    PolicyTable,
    SearchSpec,
    StageData,
    evaluate_policy,
    solve_finite,
    solve_infinite,
)
from .errors import NumericError, ParseError, ValidationError, _integer, _real
from .oracles import oracle_es_uniform, oracle_var_layer
from .premiums import PremiumSpec
from .risk import RiskSpec, distortion_preset
from .sim import simulate_paths
from .treaties import FAMILIES, make_treaty

__all__ = ["main", "parse_config", "read_policy_csv", "run", "write_config"]

_DOC_KEYS = ("cost_of_capital_rate", "risk_free_rate")


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config codec

# the config key of a field named otherwise: "preset" names the distortion_preset
# a spec holds as its distortion, and a Spectrum has no config form
_KEYS = {"distortion": "preset", "spectrum": None}


def _field(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _need(doc, key, prefix=""):
    if not isinstance(doc, dict) or doc.get(key) is None:
        raise ParseError(f"field {_field(prefix, key)}: required")
    return doc[key]


@contextmanager
def _at(path: str):
    """Report a bad value read from the config section at path at its own
    field: path, then the config key of the field the error names, if any.
    Sections do not nest, so a path is prefixed once."""
    try:
        yield
    except ValidationError as exc:
        field = _field(path, _KEYS.get(exc.field, exc.field)) if exc.field else path
        raise type(exc)(f"field {field}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {path}: {exc}") from exc


def _only(obj, path, keys):
    """Refuse a key of config object obj that nothing reads, at its field path."""
    if not isinstance(obj, dict):
        raise ParseError(f"field {path}: expected an object")
    unread = sorted(set(obj) - set(keys))
    if unread:
        raise ValidationError(
            f"field {_field(path, unread[0])}: read by nothing;"
            f" {path or 'the config'} takes {', '.join(keys)}"
        )


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to read
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _read(cls, obj, path, tag=None):
    """A cls from its config section obj at path; tag names the field that
    selects its kind or family, read as a string.

    Each key is the field of its name, or the one _KEYS names by it. A key
    no field has is read by nothing, and a field without a default is
    required; cls refuses every other value, a field its kind does not read
    included, at that field's key.
    """
    keys = {key: f for f in fields(cls) if (key := _KEYS.get(f.name, f.name))}
    _only(obj, path, tuple(keys))
    kwargs = {}
    for key, f in keys.items():
        if f.default is MISSING:
            kwargs[f.name] = _need(obj, key, path)
        elif obj.get(key) is not None:
            kwargs[f.name] = obj[key]
    if tag is not None:
        kind = kwargs[tag] = str(kwargs[tag])
        if cls is RiskSpec and kind == "spectral":
            raise ValidationError(f"field {path}.kind: {kind!r} has no config form")
    if "distortion" in kwargs:
        with _at(f"{path}.preset"):
            kwargs["distortion"] = distortion_preset(str(kwargs["distortion"]))
    with _at(path):
        return cls(**kwargs)


def _doc(spec) -> dict:
    """The config section _read reads spec back from: every field set, which
    is every field its kind reads."""
    doc = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is not None:
            key = _KEYS.get(f.name, f.name)
            if key is None:
                raise ValidationError(f"kind {spec.kind!r} has no config form")
            # refuses a distortion the parser could not rebuild from its name
            if key == "preset":
                value = distortion_preset(getattr(value, "name", "")).name
            doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def _parse_dist(obj, path) -> DiscreteDistribution:
    # pairs, or a family to discretize; neither form reads the other's keys
    if isinstance(obj, dict) and "pairs" in obj:
        _only(obj, path, ("pairs",))
        with _at(path):
            return make_discrete(obj["pairs"])
    return discretize(_read(FamilySpec, obj, path, "family"))


def _parse_stage(obj, idx) -> StageData:
    path = f"stages[{idx}]"
    _only(obj, path, ("claims", "income", "risk", "premium", "beta", "budget_constrained"))
    dY = _parse_dist(_need(obj, "claims", path), f"{path}.claims")
    dZ = _parse_dist(_need(obj, "income", path), f"{path}.income")
    risk = _read(RiskSpec, _need(obj, "risk", path), f"{path}.risk", "kind")
    prem = _read(PremiumSpec, _need(obj, "premium", path), f"{path}.premium", "kind")
    beta = _need(obj, "beta", path)
    with _at(path):
        return StageData(dY, dZ, risk, prem, beta, obj.get("budget_constrained", True))


def _config_from_doc(doc, keys) -> ModelConfig:
    """The model of config document doc; keys are the other top-level keys read."""
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    _only(doc, "", ("horizon", "grid", "search", "stages", "tol", *keys, *_DOC_KEYS))
    if "horizon" not in doc:
        raise ParseError("field horizon: required (integer, or null for infinite)")
    grid = _read(GridSpec, _need(doc, "grid"), "grid")
    search = _read(SearchSpec, _need(doc, "search"), "search", "family")
    stages_doc = _need(doc, "stages")
    if not isinstance(stages_doc, list) or not stages_doc:
        raise ParseError("field stages: expected a nonempty array")
    stages = tuple(_parse_stage(s, i) for i, s in enumerate(stages_doc))
    with _at(""):
        config = ModelConfig(doc["horizon"], stages, grid, search, doc.get("tol", 1e-4))
    if not config.is_infinite and doc.get("tol") is not None:
        raise ValidationError('field tol: read only with "horizon": null')
    return config


def parse_config(path) -> ModelConfig:
    """Read and validate a JSON config file; it may hold any subcommand's keys."""
    keys = [k for sub in _SUBCOMMANDS.values() for k in sub.keys]
    return _config_from_doc(_load_json(path), keys)


def config_to_doc(config: ModelConfig) -> dict:
    doc = {
        "horizon": config.horizon,
        "grid": _doc(config.grid),
        "search": _doc(config.search),
        "tol": config.tol,
        "stages": [
            {
                "claims": {"pairs": s.dY.to_pairs()},
                "income": {"pairs": s.dZ.to_pairs()},
                "risk": _doc(s.risk),
                "premium": _doc(s.premium),
                "beta": s.beta,
                "budget_constrained": s.budget_constrained,
            }
            for s in config.stages
        ],
    }
    if not config.is_infinite:
        del doc["tol"]  # only the stationary solve reads it
    return doc


def write_config(config: ModelConfig, path) -> None:
    """Write the canonical JSON form; parse_config reads it back equal."""
    with open(path, "w") as fh:
        json.dump(config_to_doc(config), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV artifacts


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _values_csv(blocks) -> str:
    # blocks: iterable of (stage label, ValueFunction)
    lines = ["stage,x,value"]
    for label, vf in blocks:
        for x, v in zip(vf.grid, vf.values):
            lines.append(f"{label},{_fmt(x)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def _param_cells(f) -> list[str]:
    # p1, p2: the family's fields in order, a vector as space-separated numbers
    fam = FAMILIES[f.family]
    if fam.fields is None:
        raise ValidationError(f"family {f.family!r} has no CSV form")
    cells = [
        " ".join(_fmt(t) for t in f.params[k]) if k in fam.vectors else _fmt(f.params[k])
        for k in fam.fields
    ]
    return cells + [""] * (2 - len(cells))


_POLICY_COLUMNS = ["stage", "x", "family", "p1", "p2"]


def _policy_csv(policy: PolicyTable, labels) -> str:
    lines = [",".join(_POLICY_COLUMNS)]
    for label, row in zip(labels, policy.rows):
        for x, f in zip(policy.grid, row):
            lines.append(",".join([label, _fmt(x), f.family, *_param_cells(f)]))
    return "\n".join(lines) + "\n"


def read_policy_csv(path) -> PolicyTable:
    """Rebuild a PolicyTable from a policy.csv written by this tool."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:
        raise ParseError(f"cannot read policy {path}: {exc}") from exc
    if reader.fieldnames != _POLICY_COLUMNS:
        raise ParseError(f"{path}: needs the header {','.join(_POLICY_COLUMNS)}")
    if not rows:
        raise ParseError(f"{path}: empty policy file")
    # insertion order is block order
    by_stage: dict[str, list] = {}
    for row in rows:
        name = row["family"]
        fam = FAMILIES.get(name)
        if fam is None or fam.fields is None:
            raise ParseError(f"{path}: unsupported treaty family {name!r}")
        try:
            x = float(row["x"])
            params = {
                k: [float(t) for t in cell.split()] if k in fam.vectors else float(cell)
                for k, cell in zip(fam.fields, (row["p1"], row["p2"]))
            }
            treaty = make_treaty(name, params)
        except (AttributeError, TypeError, ValueError, ValidationError) as exc:
            raise ParseError(f"{path}: bad {name} row: {exc}") from exc
        by_stage.setdefault(row["stage"], []).append((x, treaty))
    # the labels _policy_csv writes: 0 .. N-1 in order, or one block inf
    if list(by_stage) != ["inf"]:
        for k, label in enumerate(by_stage):
            if label != str(k):
                raise ParseError(
                    f"{path}: stage label {label!r} where {k} belongs"
                    " (blocks are labelled 0 .. N-1 in order, or one block inf)"
                )
    blocks = list(by_stage.values())
    first = [x for x, _ in blocks[0]]
    if any([x for x, _ in block] != first for block in blocks[1:]):
        raise ParseError(f"{path}: stage blocks disagree on the state grid")
    grid = np.asarray(first, dtype=np.float64)
    return PolicyTable(grid, tuple(tuple(t for _, t in block) for block in blocks))


def _write_solution(out_dir, values, policy: PolicyTable, labels=None) -> list[str]:
    """Write values.csv and policy.csv; labels default to stage numbers."""
    if labels is None:
        labels = [str(k) for k in range(len(values))]
    _write_text(os.path.join(out_dir, "values.csv"), _values_csv(zip(labels, values)))
    _write_text(os.path.join(out_dir, "policy.csv"), _policy_csv(policy, labels))
    return ["values.csv", "policy.csv"]


def _atomic_json(path, obj) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        # one dumps call takes the C encoder, which indent=2 would bypass
        fh.write(json.dumps(obj) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommand bodies


def _solve_and_write(config, out_dir):
    """Solve the finite horizon and write values.csv and policy.csv."""
    stats: list = []
    values, policy = solve_finite(config, stats=stats)
    return values, policy, _write_solution(out_dir, values, policy), stats


def _run_solve_finite(doc, config, out_dir, seed, policy):
    _, _, outputs, stats = _solve_and_write(config, out_dir)
    return outputs, stats, {}


def _run_solve_infinite(doc, config, out_dir, seed, policy):
    stats: list = []
    sol = solve_infinite(config, stats=stats)
    outputs = _write_solution(out_dir, [sol.value], sol.policy, ["inf"])
    return outputs, stats, {"iterations": sol.iterations, "certificate": sol.certificate}


def _run_evaluate_policy(doc, config, out_dir, seed, policy):
    stats: list = []
    vf = evaluate_policy(read_policy_csv(policy), config, stats=stats)
    _write_text(os.path.join(out_dir, "values.csv"), _values_csv([("0", vf)]))
    return ["values.csv"], stats, {}


def _gap_rows(label, grid, dp_params, oracle_params):
    for x, d, o in zip(grid, dp_params, oracle_params):
        yield f"{label},{_fmt(x)},{_fmt(d)},{_fmt(o)},{_fmt(abs(d - o))}"


# oracle -> the search family whose parameter its closed form gives
_ORACLE_FAMILIES = {"es-uniform": "stop-loss", "var-layer": "layer"}


def _run_oracle_compare(doc, config, out_dir, seed, policy):
    kind = _need(doc, "oracle")
    family = _ORACLE_FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ValidationError(f"field oracle: {kind!r} is not one of {', '.join(_ORACLE_FAMILIES)}")
    if config.search.family != family:
        raise ValidationError(
            f"field search.family: oracle {kind} describes a {family} search,"
            f" not {config.search.family}"
        )
    # every stage's oracle parameters come first, so a refusal writes nothing
    grid = config.grid.points()
    oracle_params = {}
    if kind == "es-uniform":
        last = config.horizon - 1
        s = config.stage(last)
        if s.risk.kind != "expected-shortfall" or s.premium.kind != "expected":
            raise ValidationError(
                "oracle es-uniform needs expected-shortfall risk and expected premium"
            )
        oracle_params[last] = np.array(
            [oracle_es_uniform(s.premium.theta, s.risk.alpha, x) for x in grid]
        )
    else:
        # one row per distinct stage: a shared stage's row serves every stage
        for n, s in enumerate(config.stages):
            if s.risk.kind != "value-at-risk" or s.premium.kind != "expected":
                raise ValidationError(
                    "oracle var-layer needs value-at-risk risk and expected premium"
                )
            sol = oracle_var_layer(s.dY, s.premium.handle(), s.premium.theta, s.risk.alpha)
            if abs(config.search.layer_upper - sol.var_level) > 1e-9:
                raise ValidationError(
                    "oracle var-layer needs search.layer_upper equal to the"
                    " claim VaR at the risk level"
                )
            oracle_params[n] = np.array([sol.a_of_x(x) for x in grid])
        for n in range(len(config.stages), config.horizon):
            oracle_params[n] = oracle_params[0]
    _, policy, outputs, stats = _solve_and_write(config, out_dir)
    lines = ["stage,x,dp_param,oracle_param,gap"]
    for n, params in oracle_params.items():
        lines.extend(_gap_rows(str(n), grid, policy.stage_params(n), params))
    _write_text(os.path.join(out_dir, "oracle_gap.csv"), "\n".join(lines) + "\n")
    return outputs + ["oracle_gap.csv"], stats, {}


def _run_simulate(doc, config, out_dir, seed, policy):
    block = _need(doc, "simulate")
    _only(block, "simulate", ("x0", "paths"))
    x0, n_paths = _need(block, "x0", "simulate"), _need(block, "paths", "simulate")
    # refused before the solve, which would write values.csv and policy.csv
    with _at("simulate"):
        x0, n_paths = _real(x0, "x0"), _integer(n_paths, "paths")
        if n_paths < 1:
            raise ValidationError("path count must be at least 1", "paths")
    if policy is None:
        values, table, outputs, stats = _solve_and_write(config, out_dir)
    else:
        values, table, outputs, stats = None, read_policy_csv(policy), [], []
    result = simulate_paths(table, config, x0, n_paths, seed, values=values)
    payload = {"x0": x0, "seed": seed, **asdict(result)}
    _write_text(os.path.join(out_dir, "sim.json"), json.dumps(payload, indent=2) + "\n")
    return outputs + ["sim.json"], stats, {}


@dataclass(frozen=True)
class _Subcommand:
    help: str
    # body(doc, config, out_dir, seed, policy) -> (outputs, per-stage stats, certificates)
    body: Callable
    keys: tuple[str, ...] = ()  # top-level config keys read beyond the model
    flags: tuple[str, ...] = ()  # flags read beyond --config, --out and --seed
    required: tuple[str, ...] = ()  # those of flags that must be given
    stationary: bool = False  # reads "horizon": null, else an integer horizon


_SUBCOMMANDS = {
    "solve-finite": _Subcommand("backward induction over a finite horizon", _run_solve_finite),
    "solve-infinite": _Subcommand(
        "stationary fixed point with an error certificate", _run_solve_infinite,
        flags=("tol",), stationary=True,
    ),
    "evaluate-policy": _Subcommand(
        "cost-to-go of a stored policy.csv", _run_evaluate_policy,
        flags=("policy",), required=("policy",),
    ),
    "oracle-compare": _Subcommand(
        "solve, then gap against the named closed form", _run_oracle_compare, keys=("oracle",)
    ),
    "simulate": _Subcommand(
        "Monte Carlo ruin statistics under a policy", _run_simulate,
        keys=("simulate",), flags=("policy",),
    ),
}
# argparse settings of each flag a subcommand may read
_FLAGS = {
    "tol": {"type": float, "help": "override the config tolerance"},
    "policy": {"help": "policy.csv to load"},
}


def run(subcommand, config_path, out_dir, *, seed=0, tol=None, policy=None) -> int:
    """Execute one subcommand; returns the process exit status.

    0 on success, 1 on validation/config errors, 2 on numeric failures.
    The manifest is written only after every other artifact is on disk.
    """
    try:
        t0 = time.perf_counter()
        sub = _SUBCOMMANDS.get(subcommand)
        if sub is None:
            raise ValidationError(
                f"unknown subcommand {subcommand!r}; expected one of {', '.join(_SUBCOMMANDS)}"
            )
        given = {"tol": tol, "policy": policy}
        for flag, value in given.items():
            if value is not None and flag not in sub.flags:
                readers = " and ".join(n for n, c in _SUBCOMMANDS.items() if flag in c.flags)
                raise ValidationError(f"--{flag} applies to {readers} only")
        for flag in sub.required:
            if given[flag] is None:
                raise ValidationError(f"{subcommand} needs --{flag} ({_FLAGS[flag]['help']})")
        with _at("seed"):
            seed = _integer(seed)
            if seed < 0:
                raise ValidationError("must be nonnegative")
        doc = _load_json(config_path)
        config = _config_from_doc(doc, sub.keys)
        if config.is_infinite != sub.stationary:
            want = "null (stationary)" if sub.stationary else "an integer (finite)"
            raise ValidationError(
                f"field horizon: {subcommand} reads {want}, got {json.dumps(config.horizon)}"
            )
        if tol is not None:
            with _at(""):
                config = replace(config, tol=tol)
        os.makedirs(out_dir, exist_ok=True)
        outputs, stats, certs = sub.body(doc, config, out_dir, seed, policy)
        manifest = {
            "artifact_version": __version__,
            "subcommand": subcommand,
            "seed": seed,
            **({"tol": config.tol} if "tol" in sub.flags else {}),
            "config": config_to_doc(config),
            "documentation": {k: doc[k] for k in _DOC_KEYS if k in doc},
            "stats": {
                "runtime_seconds": time.perf_counter() - t0,
                "per_stage": stats,
            },
            "certificates": certs,
            "outputs": outputs,
        }
        _atomic_json(os.path.join(out_dir, "manifest.json"), manifest)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reinsure-dp",
        description="Dynamic reinsurance solver: solve, evaluate, compare, simulate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        # dests are run()'s parameter names, so main passes the namespace as is
        p.add_argument("--config", dest="config_path", required=True, help="JSON config path")
        p.add_argument("--out", dest="out_dir", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        for flag in spec.flags:
            p.add_argument(f"--{flag}", required=flag in spec.required, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    return run(**vars(args))
