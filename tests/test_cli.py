"""Tests for config parsing, run orchestration, and result files."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import reinsure_dp
from reinsure_dp import dp
from reinsure_dp.cli import (
    _SUBCOMMANDS,
    _build_parser,
    _policy_csv,
    config_to_doc,
    main,
    parse_config,
    read_policy_csv,
    run,
    write_config,
)
from reinsure_dp.dp import PolicyTable, solve_finite
from reinsure_dp.errors import (
    MonotonicityViolation,
    ParseError,
    ValidationError,
)
from reinsure_dp.oracles import oracle_es_uniform, oracle_var_layer
from reinsure_dp.premiums import _KINDS as PREMIUM_KINDS
from reinsure_dp.risk import _KINDS as RISK_KINDS
from reinsure_dp.risk import RiskSpec, tabulated_distortion, var
from reinsure_dp.treaties import FAMILIES, make_treaty

# one CSV-able parameter set per treaty family
FAMILY_PARAMS = {
    "identity": {},
    "full-cession": {},
    "proportional": {"c": 0.3},
    "stop-loss": {"a": 0.1 + 0.2},
    "layer": {"a": 0.2, "w": 2.0 / 3.0},
    "piecewise-linear": {"knots": [0.0, 0.1 + 0.2, 0.7], "slopes": [1.0, 1.0 / 3.0, 0.0]},
}
# search block per searchable family, for a 51-atom uniform claim
SEARCH_DOCS = {
    "stop-loss": {"family": "stop-loss"},
    "proportional": {"family": "proportional"},
    "layer": {"family": "layer", "layer_upper": 0.9},
    "piecewise-linear": {
        "family": "piecewise-linear", "knots": [0.2, 0.6], "resolution": 8, "sweeps": 1,
    },
}
# one config section per risk and premium kind, every field set
RISK_DOCS = {
    "expectation": {"kind": "expectation"},
    "value-at-risk": {"kind": "value-at-risk", "alpha": 0.95},
    "expected-shortfall": {"kind": "expected-shortfall", "alpha": 0.9},
    "entropic": {"kind": "entropic", "gamma": 2.0},
    "distortion": {"kind": "distortion", "preset": "ph:0.8"},
}
PREMIUM_DOCS = {
    "expected": {"kind": "expected", "theta": 0.2},
    "ph": {"kind": "ph", "theta": 0.1, "gamma": 0.7},
    "wang": {"kind": "wang", "theta": 0.3, "preset": "es:0.5"},
}


def finite_doc(m=51, horizon=2, count=33, family="stop-loss"):
    return {
        "horizon": horizon,
        "grid": {"lo": -0.5, "hi": 1.5, "count": count},
        "search": {"family": family},
        "stages": [
            {
                "claims": {"family": "uniform", "params": [0.0, 1.0], "atoms": m},
                "income": {"family": "point-mass", "params": [0.3]},
                "risk": {"kind": "expected-shortfall", "alpha": 0.95},
                "premium": {"kind": "expected", "theta": 0.2},
                "beta": 1.0,
                "budget_constrained": True,
            }
        ],
    }


def infinite_doc(risk=None):
    doc = finite_doc(m=31, count=17)
    doc["horizon"] = None
    doc["stages"][0]["beta"] = 0.9
    if risk is not None:
        doc["stages"][0]["risk"] = risk
    return doc


def dump(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseConfig:

    def test_minimal_stationary_config(self, tmp_path):
        doc = finite_doc(horizon=5)
        doc["stages"][0]["beta"] = 0.9
        config = parse_config(dump(tmp_path, doc))
        assert config.horizon == 5
        assert len(config.stages) == 1
        assert config.stages[0].beta == 0.9
        assert config.grid.count == 33
        assert config.search.family == "stop-loss"
        assert len(config.stages[0].dY) == 51

    def test_infinite_var_needs_coherence(self, tmp_path):
        doc = infinite_doc(risk={"kind": "value-at-risk", "alpha": 0.95})
        with pytest.raises(ValidationError, match="coherence required"):
            parse_config(dump(tmp_path, doc))

    def test_infinite_needs_strict_discounting(self, tmp_path):
        doc = infinite_doc()
        doc["stages"][0]["beta"] = 1.0
        with pytest.raises(ValidationError):
            parse_config(dump(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(str(path))

    def test_integer_literal_too_long_to_read(self, tmp_path, capsys):
        # json refuses an integer of more than sys.get_int_max_str_digits()
        # digits with a ValueError that is not a JSONDecodeError
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        path = tmp_path / "long.json"
        text = json.dumps(finite_doc()).replace('"horizon": 2', '"horizon": 1' + "0" * limit)
        path.write_text(text)
        assert run("solve-finite", str(path), str(tmp_path / "o")) == 1
        assert f"error: {path} is not valid JSON: " in capsys.readouterr().err

    def test_error_names_field_path(self, tmp_path):
        doc = finite_doc()
        del doc["grid"]
        with pytest.raises(ParseError, match="grid"):
            parse_config(dump(tmp_path, doc))
        doc = finite_doc()
        doc["stages"][0]["risk"] = {"kind": "upside-down"}
        with pytest.raises(ValidationError, match=r"stages\[0\]\.risk"):
            parse_config(dump(tmp_path, doc))

    def test_spectral_kind_not_expressible(self, tmp_path):
        doc = finite_doc()
        doc["stages"][0]["risk"] = {"kind": "spectral"}
        with pytest.raises(ValidationError, match="spectral"):
            parse_config(dump(tmp_path, doc))

    def test_pairs_distribution(self, tmp_path):
        doc = finite_doc()
        doc["stages"][0]["income"] = {"pairs": [[0.1, 0.5], [0.5, 0.5]]}
        config = parse_config(dump(tmp_path, doc))
        assert np.allclose(config.stages[0].dZ.values, [0.1, 0.5])

    def test_roundtrip(self, tmp_path):
        doc = finite_doc(m=41, horizon=2, count=21, family="layer")
        doc["search"]["layer_upper"] = 0.9
        second = dict(doc["stages"][0])
        second["risk"] = {"kind": "distortion", "preset": "ph:0.8"}
        second["premium"] = {"kind": "ph", "theta": 0.1, "gamma": 0.7}
        second["beta"] = 0.95
        doc["stages"] = [doc["stages"][0], second]
        config = parse_config(dump(tmp_path, doc))
        out = tmp_path / "echo.json"
        write_config(config, str(out))
        again = parse_config(str(out))
        assert again.horizon == config.horizon
        assert again.grid == config.grid
        assert again.search == config.search
        assert len(again.stages) == len(config.stages)
        for a, b in zip(again.stages, config.stages):
            assert np.array_equal(a.dY.values, b.dY.values)
            assert np.array_equal(a.dY.probs, b.dY.probs)
            assert np.array_equal(a.dZ.values, b.dZ.values)
            assert a.beta == b.beta
            assert a.budget_constrained == b.budget_constrained
            assert a.risk.kind == b.risk.kind
            assert a.risk.alpha == b.risk.alpha
            assert a.premium.kind == b.premium.kind
            assert a.premium.theta == b.premium.theta
            assert a.premium.gamma == b.premium.gamma
        assert again.stages[1].risk.distortion.name == "ph:0.8"

    def test_roundtrip_every_kind_and_family(self, tmp_path):
        # every kind but spectral, whose Spectrum has no config form
        assert set(RISK_DOCS) == set(RISK_KINDS) - {"spectral"}
        assert set(PREMIUM_DOCS) == set(PREMIUM_KINDS)
        premiums = list(PREMIUM_DOCS.values())
        for family, search in SEARCH_DOCS.items():
            doc = finite_doc(m=11, horizon=len(RISK_DOCS), count=17)
            doc["search"] = search
            doc["stages"] = [
                dict(doc["stages"][0], risk=risk, premium=premiums[k % len(premiums)])
                for k, risk in enumerate(RISK_DOCS.values())
            ]
            config = parse_config(dump(tmp_path, doc, f"{family}.json"))
            out = tmp_path / f"{family}-echo.json"
            write_config(config, str(out))
            again = parse_config(str(out))
            assert again.search == config.search, family
            written = config_to_doc(again)
            assert written == config_to_doc(config), family
            assert written["search"] == dict({"resolution": 64}, **search), family
            for stage, sent in zip(written["stages"], doc["stages"]):
                assert stage["risk"] == sent["risk"]
                assert stage["premium"] == sent["premium"]

    @pytest.mark.parametrize("section,key,value", [
        ("risk", "preset", "ph:0.5"), ("premium", "preset", "ph:0.5"), ("search", "sweeps", 3),
    ])
    def test_section_refuses_fields_it_does_not_read(self, tmp_path, section, key, value):
        # sweeps: 3 is what every search block written by earlier versions carries
        doc = finite_doc()
        block = doc["search"] if section == "search" else doc["stages"][0][section]
        block[key] = value
        path = "search" if section == "search" else rf"stages\[0\]\.{section}"
        # a preset names the spec's distortion, the field the kind does not read
        field = "distortion" if key == "preset" else key
        with pytest.raises(ValidationError, match=rf"field {path}\.{key}: .*reads no {field}$"):
            parse_config(dump(tmp_path, doc))

    def test_writer_refuses_distortion_without_preset(self, tmp_path):
        config = parse_config(dump(tmp_path, finite_doc()))
        tab = tabulated_distortion([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
        stage = replace(config.stages[0], risk=RiskSpec("distortion", distortion=tab))
        with pytest.raises(ValidationError, match="preset"):
            write_config(replace(config, stages=(stage,)), str(tmp_path / "echo.json"))

    def test_readme_config_example_roundtrips(self, tmp_path):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            text = fh.read()
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        doc = json.loads(example)
        config = parse_config(dump(tmp_path, doc))
        out = tmp_path / "echo.json"
        write_config(config, str(out))
        again = parse_config(str(out))
        written = config_to_doc(again)
        for key in ("horizon", "grid", "search"):
            assert written[key] == doc[key], key
        for key in ("risk", "premium", "beta", "budget_constrained"):
            assert written["stages"][0][key] == doc["stages"][0][key], key
        a, b = again.stages[0].dY, config.stages[0].dY
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.probs, b.probs)


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


# a non-numeric or out-of-range value in each config section, and the field
# path it is reported at
BAD_VALUES = {
    "horizon": (("horizon",), "x", "horizon"),
    "tol": (("tol",), "x", "tol"),
    "grid": (("grid", "count"), "x", r"grid\.count"),
    "search": (("search", "resolution"), "fine", r"search\.resolution"),
    "claims": (("stages", 0, "claims", "truncation"), "x", r"stages\[0\]\.claims\.truncation"),
    "income": (
        ("stages", 0, "income"),
        {"family": "uniform", "params": [0.2, 0.4], "atoms": 3, "truncation": "x"},
        r"stages\[0\]\.income\.truncation",
    ),
    "risk": (("stages", 0, "risk", "alpha"), "high", r"stages\[0\]\.risk\.alpha"),
    "premium": (("stages", 0, "premium", "theta"), "x", r"stages\[0\]\.premium\.theta"),
    "stage": (("stages", 0, "beta"), "x", r"stages\[0\]\.beta"),
    "simulate.x0": (("simulate", "x0"), "x", r"simulate\.x0"),
    # json writes NaN as the non-JSON token NaN, and json.load reads it back
    "premium-nan": (("stages", 0, "premium", "theta"), math.nan, r"stages\[0\]\.premium\.theta"),
    "stage-nan": (("stages", 0, "beta"), math.nan, r"stages\[0\]\.beta"),
    "simulate.paths": (("simulate", "paths"), "x", r"simulate\.paths"),
    # an integer beyond the float range: no finite number
    "horizon-huge": (("horizon",), 10**400, "horizon"),
    "grid-huge": (("grid", "count"), 10**400, r"grid\.count"),
    "claims.truncation-range": (
        ("stages", 0, "claims"),
        {"family": "exponential", "params": [2.0], "atoms": 11, "truncation": -1},
        r"stages\[0\]\.claims\.truncation",
    ),
    "claims.atoms-range": (("stages", 0, "claims", "atoms"), 0, r"stages\[0\]\.claims\.atoms"),
    "income.atoms-range": (
        ("stages", 0, "income"),
        {"family": "uniform", "params": [0.2, 0.4], "atoms": 0},
        r"stages\[0\]\.income\.atoms",
    ),
    # a parameter count the family does not take
    "claims.params": (
        ("stages", 0, "claims", "params"), [0.0, 1.0, 2.0], r"stages\[0\]\.claims\.params"
    ),
    "income.params": (
        ("stages", 0, "income"),
        {"family": "lognormal", "params": [0.0], "atoms": 3, "truncation": 2.0},
        r"stages\[0\]\.income\.params",
    ),
}


@pytest.mark.parametrize("section", sorted(BAD_VALUES))
def test_non_numeric_value_exits_1_at_its_field(tmp_path, capsys, section):
    path, value, field = BAD_VALUES[section]
    doc = finite_doc(m=11, horizon=1, count=17)
    doc["simulate"] = {"x0": 1.0, "paths": 10}
    _set(doc, path, value)
    assert run("simulate", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert re.search(f"error: field {field}: ", capsys.readouterr().err)


# an out-of-range value, and the exact field it is reported at: the model
# type that holds the value names it, and the parser prefixes the section
RANGE_REFUSALS = {
    "alpha": (("stages", 0, "risk", "alpha"), 1.5, "stages[0].risk.alpha"),
    "theta": (("stages", 0, "premium", "theta"), -1, "stages[0].premium.theta"),
    "beta": (("stages", 0, "beta"), 1.5, "stages[0].beta"),
    "count": (("grid", "count"), 8, "grid.count"),
    "hi-below-lo": (("grid", "hi"), -1.0, "grid.hi"),
    "resolution": (("search", "resolution"), 4, "search.resolution"),
    "horizon": (("horizon",), 0, "horizon"),
    "uniform-b-below-a": (
        ("stages", 0, "claims", "params"), [1.0, 0.0], "stages[0].claims.params"
    ),
    "stationary-value-at-risk": (
        ("stages", 0, "risk"), {"kind": "value-at-risk", "alpha": 0.95}, "stages[0].risk"
    ),
}


@pytest.mark.parametrize("case", sorted(RANGE_REFUSALS))
def test_range_refusal_exits_1_at_its_exact_field(tmp_path, capsys, case):
    path, value, field = RANGE_REFUSALS[case]
    stationary = case.startswith("stationary")
    doc = infinite_doc() if stationary else finite_doc(m=11, horizon=1, count=17)
    _set(doc, path, value)
    sub = "solve-infinite" if stationary else "solve-finite"
    assert run(sub, dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: field {field}: ") and err.count("field ") == 1


# a quoted number in each kind of number field: each solved with exit 0,
# read as the number, before strings were refused
QUOTED_NUMBERS = {
    "horizon": (("horizon",), "1", "horizon"),
    "grid.count": (("grid", "count"), "17", "grid.count"),
    "search.resolution": (("search", "resolution"), "16", "search.resolution"),
    "claims.params": (("stages", 0, "claims", "params"), ["0", 1.0], "stages[0].claims.params"),
    "risk.alpha": (("stages", 0, "risk", "alpha"), "0.95", "stages[0].risk.alpha"),
    "premium.theta": (("stages", 0, "premium", "theta"), "0.2", "stages[0].premium.theta"),
    "beta": (("stages", 0, "beta"), "1.0", "stages[0].beta"),
    "claims.pairs": (("stages", 0, "claims"), {"pairs": [[0.5, "1"]]}, "stages[0].claims.pairs"),
}


@pytest.mark.parametrize("case", sorted(QUOTED_NUMBERS))
def test_quoted_number_exits_1_at_its_field(tmp_path, capsys, case):
    path, value, field = QUOTED_NUMBERS[case]
    doc = finite_doc(m=11, horizon=1, count=17)
    _set(doc, path, value)
    assert run("solve-finite", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    quoted = value[0] if isinstance(value, list) else value
    if isinstance(value, dict):
        quoted = value["pairs"][0][1]
    assert capsys.readouterr().err == f"error: field {field}: expected a number, got {quoted!r}\n"


@pytest.mark.parametrize("preset", ["ph:abc", "es:", "var:x"])
def test_malformed_preset_level_exits_1_as_an_unknown_preset(tmp_path, capsys, preset):
    doc = finite_doc(m=11, horizon=1, count=17)
    doc["stages"][0]["risk"] = {"kind": "distortion", "preset": preset}
    assert run("solve-finite", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert f"error: field stages[0].risk.preset: unknown distortion preset {preset!r}" in err


# a number or boolean each integer field would otherwise truncate or coerce
NON_INTEGERS = {
    "horizon": (("horizon",), 2.7, "horizon"),
    "horizon-bool": (("horizon",), True, "horizon"),
    "grid.count": (("grid", "count"), 16.9, r"grid\.count"),
    "claims.atoms": (("stages", 0, "claims", "atoms"), 11.5, r"stages\[0\]\.claims\.atoms"),
    # on a family that reads it: a point mass refuses any atom count
    "income.atoms": (
        ("stages", 0, "income"),
        {"family": "uniform", "params": [0.2, 0.4], "atoms": 2.5},
        r"stages\[0\]\.income\.atoms",
    ),
    "search.resolution": (("search", "resolution"), 8.5, r"search\.resolution"),
    "search.sweeps": (("search", "sweeps"), 1.5, r"search\.sweeps"),
    "search.sweeps-bool": (("search", "sweeps"), True, r"search\.sweeps"),
    "simulate.paths": (("simulate", "paths"), 100.9, r"simulate\.paths"),
    "simulate.paths-bool": (("simulate", "paths"), True, r"simulate\.paths"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGERS))
def test_non_integer_exits_1_at_its_field(tmp_path, capsys, case):
    path, value, field = NON_INTEGERS[case]
    doc = finite_doc(m=11, horizon=1, count=17)
    doc["simulate"] = {"x0": 1.0, "paths": 10}
    if path[0] == "search":
        doc["search"] = {"family": "piecewise-linear", "knots": [0.2, 0.6], "resolution": 8}
    _set(doc, path, value)
    assert run("simulate", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert re.search(f"error: field {field}: expected an integer", capsys.readouterr().err)


# a key nothing reads in each config section, and the field path it is refused at
UNREAD_KEYS = {
    "top": (("horison",), 2, "horison"),
    "grid": (("grid", "step"), 0.1, r"grid\.step"),
    # misspelled: left unread, the stage would solve budget-constrained
    "stage": (
        ("stages", 0, "budget_constrainted"), False, r"stages\[0\]\.budget_constrainted"
    ),
    "claims": (("stages", 0, "claims", "scale"), 2.0, r"stages\[0\]\.claims\.scale"),
    # a pairs block reads none of the family keys, nor the reverse
    "claims-pairs": (
        ("stages", 0, "claims"),
        {"pairs": [[0.5, 1]], "family": "uniform", "atoms": 7},
        r"stages\[0\]\.claims\.atoms",
    ),
    "income-family": (
        ("stages", 0, "income"),
        {"family": "point-mass", "params": [0.3], "pairs": [[0.3, 1]]},
        r"stages\[0\]\.income\.family",
    ),
    # a point mass is one atom: no count to read and nothing to cap
    "income-point-mass-atoms": (
        ("stages", 0, "income"),
        {"family": "point-mass", "params": [0.3], "atoms": 7},
        r"stages\[0\]\.income\.atoms",
    ),
    "income-point-mass-truncation": (
        ("stages", 0, "income", "truncation"), 0.1, r"stages\[0\]\.income\.truncation"
    ),
    "simulate": (("simulate", "seeds"), 3, r"simulate\.seeds"),
    # misspelled: no field of SearchSpec has the key
    "search": (("search", "resolutoin"), 32, r"search\.resolutoin"),
}
# a key a field of FamilySpec has, which the point-mass family does not read
FAMILY_UNREAD = {
    "income-point-mass-atoms": "point-mass reads no atoms",
    "income-point-mass-truncation": "point-mass reads no truncation",
}


@pytest.mark.parametrize("case", sorted(UNREAD_KEYS))
def test_unread_key_exits_1_at_its_field(tmp_path, capsys, case):
    path, value, field = UNREAD_KEYS[case]
    doc = finite_doc(m=11, horizon=1, count=17)
    doc["simulate"] = {"x0": 1.0, "paths": 10}
    _set(doc, path, value)
    assert run("simulate", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    reason = FAMILY_UNREAD.get(case, "read by nothing")
    assert re.search(f"error: field {field}: {reason}", capsys.readouterr().err)


# a boolean each number field would otherwise read as 0.0 or 1.0
BOOLEAN_NUMBERS = {
    "beta": (("stages", 0, "beta"), True, r"stages\[0\]\.beta"),
    "risk.alpha": (("stages", 0, "risk", "alpha"), True, r"stages\[0\]\.risk\.alpha"),
    "risk.gamma": (
        ("stages", 0, "risk"), {"kind": "entropic", "gamma": True}, r"stages\[0\]\.risk\.gamma"
    ),
    "premium.theta": (("stages", 0, "premium", "theta"), False, r"stages\[0\]\.premium\.theta"),
    "grid.lo": (("grid", "lo"), False, r"grid\.lo"),
    "grid.hi": (("grid", "hi"), True, r"grid\.hi"),
    "search.layer_upper": (
        ("search",), {"family": "layer", "layer_upper": True}, r"search\.layer_upper"
    ),
    "tol": (("tol",), True, "tol"),
    "simulate.x0": (("simulate", "x0"), True, r"simulate\.x0"),
    "claims.truncation": (
        ("stages", 0, "claims", "truncation"), True, r"stages\[0\]\.claims\.truncation"
    ),
    "income.truncation": (
        ("stages", 0, "income"),
        {"family": "uniform", "params": [0.2, 0.4], "atoms": 3, "truncation": True},
        r"stages\[0\]\.income\.truncation",
    ),
    "claims.params": (
        ("stages", 0, "claims", "params"), [False, True], r"stages\[0\]\.claims\.params"
    ),
    "claims.pairs": (
        ("stages", 0, "claims"), {"pairs": [[0.5, True]]}, r"stages\[0\]\.claims\.pairs"
    ),
}


@pytest.mark.parametrize("case", sorted(BOOLEAN_NUMBERS))
def test_boolean_exits_1_at_its_number_field(tmp_path, capsys, case):
    path, value, field = BOOLEAN_NUMBERS[case]
    doc = finite_doc(m=11, horizon=1, count=17)
    doc["simulate"] = {"x0": 1.0, "paths": 10}
    _set(doc, path, value)
    assert run("simulate", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert re.search(f"error: field {field}: expected a number", capsys.readouterr().err)


@pytest.mark.parametrize("value", ["no", "false", 1, 0, None])
def test_budget_constrained_must_be_boolean(tmp_path, capsys, value):
    doc = finite_doc(m=11, horizon=1, count=17)
    doc["stages"][0]["budget_constrained"] = value
    assert run("solve-finite", dump(tmp_path, doc), str(tmp_path / "o")) == 1
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert re.search(r"error: field stages\[0\]\.budget_constrained: ", capsys.readouterr().err)


class TestSolveSubcommands:

    def test_solve_finite_outputs(self, tmp_path):
        cfg = dump(tmp_path, finite_doc())
        out = tmp_path / "run1"
        assert run("solve-finite", cfg, str(out)) == 0
        values = read_csv(out / "values.csv")
        assert len(values) == 3 * 33
        assert {r["stage"] for r in values} == {"0", "1", "2"}
        policy = read_csv(out / "policy.csv")
        assert len(policy) == 2 * 33
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "solve-finite"
        assert manifest["stats"]["runtime_seconds"] > 0.0
        assert len(manifest["stats"]["per_stage"]) == 2
        # the 9 states at x <= 0 afford one retention and take one probe;
        # the other 24 run the full 3-level, 65-rung zoom
        for entry in manifest["stats"]["per_stage"]:
            assert entry["argmin_evaluations"] == 24 * 3 * 65 + 9
        assert sorted(manifest["outputs"]) == ["policy.csv", "values.csv"]
        assert manifest["config"]["search"] == {"family": "stop-loss", "resolution": 64}

    def test_piecewise_solve_counts_its_candidates(self, tmp_path):
        doc = finite_doc()
        doc["search"] = {
            "family": "piecewise-linear", "knots": [0.2, 0.6], "resolution": 8, "sweeps": 2,
        }
        out = tmp_path / "pw"
        assert run("solve-finite", dump(tmp_path, doc), str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # every state scores its start, then 2 sweeps x 2 knots x 9 slopes,
        # the unaffordable ones included
        per_stage = manifest["stats"]["per_stage"]
        assert [entry["argmin_evaluations"] for entry in per_stage] == [33 * (1 + 2 * 2 * 9)] * 2

    # income and risk -> the evaluator route the manifest names for every
    # searched stage
    @pytest.mark.parametrize(
        "income, risk, route",
        [
            (None, {"kind": "expected-shortfall", "alpha": 0.95}, "point"),
            ("uniform", {"kind": "expected-shortfall", "alpha": 0.95}, "tail"),
            ("uniform", {"kind": "expected-shortfall", "alpha": 0.5}, "tail"),
            ("uniform", {"kind": "distortion", "preset": "ph:0.7"}, "tail"),
            ("unequal", {"kind": "expected-shortfall", "alpha": 0.95}, "per-pair"),
            (None, {"kind": "entropic", "gamma": 2.0}, "entropic"),
        ],
        ids=["es-point", "es-0.95-uniform", "es-0.5-uniform", "ph-uniform", "es-unequal",
             "entropic"],
    )
    def test_manifest_names_each_stage_route(self, tmp_path, income, risk, route):
        doc = finite_doc(count=17)
        stage = doc["stages"][0]
        stage["risk"] = risk
        if income == "uniform":
            stage["income"] = {"family": "uniform", "params": [0.1, 0.5], "atoms": 3}
        if income == "unequal":
            stage["income"] = {"pairs": [[0.0, 0.2], [0.3, 0.5], [0.6, 0.3]]}
        out = tmp_path / "solve"
        assert run("solve-finite", dump(tmp_path, doc), str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [entry["route"] for entry in manifest["stats"]["per_stage"]] == [route] * 2

    def test_reruns_byte_identical(self, tmp_path):
        cfg = dump(tmp_path, finite_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("solve-finite", cfg, str(out1)) == 0
        assert run("solve-finite", cfg, str(out2)) == 0
        for name in ("values.csv", "policy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_solve_infinite_stage_column(self, tmp_path):
        cfg = dump(tmp_path, infinite_doc())
        out = tmp_path / "inf"
        assert run("solve-infinite", cfg, str(out)) == 0
        values = read_csv(out / "values.csv")
        assert {r["stage"] for r in values} == {"inf"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["certificates"]["iterations"] >= 1
        assert 0.0 <= manifest["certificates"]["certificate"] <= 1e-4

    @pytest.mark.parametrize("income, route", [(None, "point"), ("uniform", "tail")])
    def test_solve_infinite_manifest_names_each_bellman_step(self, tmp_path, income, route):
        doc = infinite_doc()
        if income == "uniform":
            doc["stages"][0]["income"] = {"family": "uniform", "params": [0.1, 0.5], "atoms": 3}
        out = tmp_path / "inf"
        assert run("solve-infinite", dump(tmp_path, doc), str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        per_stage = manifest["stats"]["per_stage"]
        iterations = manifest["certificates"]["iterations"]
        assert [entry["iteration"] for entry in per_stage] == list(range(1, iterations + 1))
        assert [entry["route"] for entry in per_stage] == [route] * iterations
        for entry in per_stage:
            assert entry["runtime_seconds"] > 0.0
            assert entry["argmin_evaluations"] > 0

    def test_tol_flag_overrides_config(self, tmp_path, capsys):
        cfg = dump(tmp_path, infinite_doc())
        out = tmp_path / "inf"
        # a library call would otherwise run a boolean as tol 1.0
        assert run("solve-infinite", cfg, str(out), tol=True) == 1
        assert "error: field tol: expected a number" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert run("solve-infinite", cfg, str(out), tol=1e-6) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tol"] == 1e-6
        assert manifest["certificates"]["certificate"] <= 1e-6

    @pytest.mark.parametrize("config_tol, flag", [(math.inf, []), (math.nan, []),
                                                  (None, ["--tol", "inf"])])
    def test_non_finite_tol_exits_1(self, tmp_path, capsys, config_tol, flag):
        # an infinite tol is "met" after one iteration, and the manifest would
        # record it as the non-JSON token Infinity
        doc = infinite_doc() if config_tol is None else dict(infinite_doc(), tol=config_tol)
        out = tmp_path / "inf"
        argv = ["solve-infinite", "--config", dump(tmp_path, doc), "--out", str(out), *flag]
        assert main(argv) == 1
        assert "error: field tol: expected a finite number" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_finite_config_refuses_tol(self, tmp_path, capsys):
        doc = finite_doc()
        doc["tol"] = 1e-4
        out = tmp_path / "fin"
        assert run("solve-finite", dump(tmp_path, doc), str(out)) == 1
        assert "error: field tol: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_tol_recorded_only_for_solve_infinite(self, tmp_path):
        fin = tmp_path / "fin"
        assert run("solve-finite", dump(tmp_path, finite_doc()), str(fin)) == 0
        manifest = json.loads((fin / "manifest.json").read_text())
        assert "tol" not in manifest and "tol" not in manifest["config"]
        doc = dict(infinite_doc(), tol=5e-5)
        inf = tmp_path / "inf"
        assert run("solve-infinite", dump(tmp_path, doc, "inf.json"), str(inf)) == 0
        manifest = json.loads((inf / "manifest.json").read_text())
        assert manifest["tol"] == manifest["config"]["tol"] == 5e-5
        write_config(parse_config(dump(tmp_path, doc, "inf.json")), str(tmp_path / "echo.json"))
        assert parse_config(str(tmp_path / "echo.json")).tol == 5e-5

    def test_tol_flag_only_on_solve_infinite(self, tmp_path, capsys):
        cfg = dump(tmp_path, finite_doc())
        out = tmp_path / "fin"
        assert run("solve-finite", cfg, str(out), tol=1e-6) == 1
        assert "solve-infinite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert main(["solve-finite", "--config", cfg, "--out", str(out), "--tol", "1e-6"]) == 1
        assert not (out / "manifest.json").exists()
        # no subcommand that solves reads a stored policy either
        oracle = dict(finite_doc(), oracle="es-uniform")
        for sub, doc in (("solve-finite", finite_doc()), ("solve-infinite", infinite_doc()),
                         ("oracle-compare", oracle)):
            cfg = dump(tmp_path, doc, f"{sub}.json")
            assert run(sub, cfg, str(out), policy="/nonexistent.csv") == 1, sub
            assert "--policy" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    def test_no_manifest_on_failure(self, tmp_path, capsys):
        cfg = dump(tmp_path, infinite_doc())
        out = tmp_path / "broken"
        assert run("solve-finite", cfg, str(out)) == 1
        assert not (out / "manifest.json").exists()

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(config, stats=None):
            raise MonotonicityViolation("synthetic")

        monkeypatch.setattr("reinsure_dp.cli.solve_finite", boom)
        cfg = dump(tmp_path, finite_doc())
        assert run("solve-finite", cfg, str(tmp_path / "x")) == 2


class TestPolicyFlow:

    def test_evaluate_policy_matches_solver(self, tmp_path):
        assert set(SEARCH_DOCS) == {f for f, fam in FAMILIES.items() if fam.search is not None}
        for family, search in SEARCH_DOCS.items():
            doc = finite_doc()
            doc["search"] = search
            cfg_path = dump(tmp_path, doc, f"{family}.json")
            out = tmp_path / family / "solve"
            assert run("solve-finite", cfg_path, str(out)) == 0, family
            out2 = tmp_path / family / "eval"
            assert run(
                "evaluate-policy", cfg_path, str(out2),
                policy=str(out / "policy.csv"),
            ) == 0, family
            solved = [r for r in read_csv(out / "values.csv") if r["stage"] == "0"]
            evaluated = read_csv(out2 / "values.csv")
            assert len(evaluated) == len(solved)
            for a, b in zip(evaluated, solved):
                assert float(a["value"]) == pytest.approx(float(b["value"]), abs=1e-9), family

    @pytest.mark.parametrize("income, route", [(None, "point"), ("uniform", "tail")])
    def test_evaluate_policy_manifest_names_each_replayed_stage(self, tmp_path, income, route):
        doc = finite_doc(count=17, horizon=3)
        if income == "uniform":
            doc["stages"][0]["income"] = {"family": "uniform", "params": [0.1, 0.5], "atoms": 3}
        cfg = dump(tmp_path, doc)
        solve, replay = tmp_path / "solve", tmp_path / "replay"
        assert run("solve-finite", cfg, str(solve)) == 0
        assert run("evaluate-policy", cfg, str(replay), policy=str(solve / "policy.csv")) == 0
        solved = json.loads((solve / "manifest.json").read_text())["stats"]["per_stage"]
        per_stage = json.loads((replay / "manifest.json").read_text())["stats"]["per_stage"]
        # one entry per replayed stage, last stage first, on the solve's route
        assert [entry["stage"] for entry in per_stage] == [2, 1, 0]
        assert [entry["route"] for entry in per_stage] == [entry["route"] for entry in solved]
        assert [entry["route"] for entry in per_stage] == [route] * 3
        for entry in per_stage:
            assert set(entry) == {"stage", "runtime_seconds", "route"}
            assert entry["runtime_seconds"] > 0.0

    def test_replay_off_apply_L_exits_2_without_manifest(self, tmp_path, monkeypatch, capsys):
        doc = finite_doc(m=11, count=17)
        doc["search"] = SEARCH_DOCS["layer"]
        cfg = dump(tmp_path, doc)
        solve = tmp_path / "solve"
        assert run("solve-finite", cfg, str(solve)) == 0
        real = dp._candidate_objectives

        def shifted(*args):
            # the middle state, one of the three the replay checks
            out = real(*args).copy()
            out[out.size // 2] += 1e-6
            return out

        monkeypatch.setattr(dp, "_candidate_objectives", shifted)
        out = tmp_path / "eval"
        assert run("evaluate-policy", cfg, str(out), policy=str(solve / "policy.csv")) == 2
        assert "numeric failure: stage 1: replayed value" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "values.csv").exists()

    @pytest.mark.parametrize("family", ["stop-loss", "piecewise-linear"])
    def test_search_off_apply_L_exits_2_without_manifest(self, tmp_path, monkeypatch, capsys,
                                                         family):
        doc = finite_doc(m=11, count=17)
        doc["search"] = SEARCH_DOCS[family]
        middle = np.linspace(-0.5, 1.5, 17)[8]
        real = dp._candidate_objectives

        def shifted(v, s, route, x, prem, retained):
            # every candidate at the middle state, one of the three checked
            out = real(v, s, route, x, prem, retained)
            return out + 1e-6 * (np.broadcast_to(x, out.shape) == middle)

        monkeypatch.setattr(dp, "_candidate_objectives", shifted)
        out = tmp_path / "solve"
        assert run("solve-finite", dump(tmp_path, doc), str(out)) == 2
        assert "numeric failure: searched value" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "values.csv").exists()

    def test_policy_csv_roundtrip(self, tmp_path):
        config = parse_config(dump(tmp_path, finite_doc()))
        _, policy = solve_finite(config)
        out = tmp_path / "solve"
        assert run("solve-finite", dump(tmp_path, finite_doc()), str(out)) == 0
        loaded = read_policy_csv(str(out / "policy.csv"))
        assert np.array_equal(loaded.grid, policy.grid)
        assert len(loaded.rows) == len(policy.rows)
        for n in range(len(policy.rows)):
            assert np.array_equal(loaded.stage_params(n), policy.stage_params(n))

    def test_policy_csv_roundtrip_every_family(self, tmp_path):
        assert set(FAMILY_PARAMS) == {k for k, fam in FAMILIES.items() if fam.fields is not None}
        grid = np.array([-0.5, 1.0 / 3.0])
        y = np.linspace(0.0, 1.5, 301)
        for family, params in FAMILY_PARAMS.items():
            f = make_treaty(family, params)
            path = tmp_path / f"{family}.csv"
            path.write_text(_policy_csv(PolicyTable(grid, ((f, f),)), ["0"]))
            loaded = read_policy_csv(str(path))
            assert np.array_equal(loaded.grid, grid)
            for g in loaded.rows[0]:
                assert g.family == family
                assert g.params == f.params
                assert np.array_equal(g.retained(y), f.retained(y)), family

    def test_vector_cells_space_separated(self):
        f = make_treaty("piecewise-linear", FAMILY_PARAMS["piecewise-linear"])
        text = _policy_csv(PolicyTable(np.array([0.0]), ((f,),)), ["0"])
        assert text.splitlines()[1] == (
            "0,0,piecewise-linear,0 0.30000000000000004 0.69999999999999996,"
            "1 0.33333333333333331 0"
        )

    def test_malformed_params_rejected(self, tmp_path):
        path = tmp_path / "policy.csv"
        for cells in ("layer,0.2,abc", "piecewise-linear,0.2 x,1 1", "piecewise-linear,0.3,"):
            path.write_text(f"stage,x,family,p1,p2\n0,0,{cells}\n")
            with pytest.raises(ValidationError):
                read_policy_csv(str(path))

    @pytest.mark.parametrize("text", [
        "stage,x,family,p1\n0,0,stop-loss,0.3\n",  # no p2 column
        "stage,x,family,p1,p2\n0,abc,stop-loss,0.3,\n",
        # parameters the admissible class excludes
        "stage,x,family,p1,p2\n0,0,piecewise-linear,0.2 0.6,-0.5 1\n",
        "stage,x,family,p1,p2\n0,0,stop-loss,nan,\n",
        "stage,x,family,p1,p2\n0,0,layer,0.2,nan\n",
    ])
    def test_malformed_policy_file_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "policy.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_policy_csv(str(path))
        cfg = dump(tmp_path, finite_doc(m=11, horizon=1, count=17))
        out = tmp_path / "o"
        assert run("evaluate-policy", cfg, str(out), policy=str(path)) == 1
        assert f"error: {path}: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_over_budget_row_exits_1_naming_first_row(self, tmp_path, capsys):
        # full cession (stop-loss a = 0) costs 0.6: over budget below x = 0.6;
        # stage 0 comes first in row order though stage 1's state lies lower
        cfg = dump(tmp_path, finite_doc(m=51, horizon=2, count=17))
        grid = np.linspace(-0.5, 1.5, 17)
        keep, full = make_treaty("stop-loss", {"a": 1.0}), make_treaty("stop-loss", {"a": 0.0})
        rows = (tuple(full if j == 4 else keep for j in range(17)),
                tuple(full if j == 1 else keep for j in range(17)))
        path = tmp_path / "policy.csv"
        path.write_text(_policy_csv(PolicyTable(grid, rows), ["0", "1"]))
        out = tmp_path / "o"
        assert run("evaluate-policy", cfg, str(out), policy=str(path)) == 1
        err = capsys.readouterr().err
        assert "stage 0: treaty premium 0.6 exceeds surplus at x = 0" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    @staticmethod
    def two_stage_policy():
        # stage 0 keeps everything above 1.0, stage 1 above 0.9: both affordable
        grid = np.linspace(-0.5, 1.5, 17)
        return PolicyTable(grid, tuple(
            tuple(make_treaty("stop-loss", {"a": a}) for _ in grid) for a in (1.0, 0.9)
        ))

    @pytest.mark.parametrize("labels, bad", [
        (["1", "0"], "'1'"), (["7", "foo"], "'7'"), (["0", "2"], "'2'"), (["inf", "0"], "'inf'"),
    ], ids=["1,0", "7,foo", "0,2", "inf,0"])
    def test_stage_labels_other_than_written_refused(self, tmp_path, labels, bad):
        path = tmp_path / "policy.csv"
        path.write_text(_policy_csv(self.two_stage_policy(), labels))
        with pytest.raises(ParseError) as err:
            read_policy_csv(str(path))
        assert str(err.value).startswith(f"{path}: stage label {bad} ")

    def test_interleaved_blocks_and_a_lone_inf_block_load(self, tmp_path):
        policy = self.two_stage_policy()
        lines = _policy_csv(policy, ["0", "1"]).splitlines()
        # the rows of stage 0 and stage 1 alternate, state by state
        k = len(policy.grid)
        body = [line for pair in zip(lines[1 : k + 1], lines[k + 1 :]) for line in pair]
        path = tmp_path / "interleaved.csv"
        path.write_text("\n".join([lines[0], *body]) + "\n")
        loaded = read_policy_csv(str(path))
        assert np.array_equal(loaded.grid, policy.grid)
        for n in range(2):
            assert np.array_equal(loaded.stage_params(n), policy.stage_params(n))
        path = tmp_path / "inf.csv"
        path.write_text(_policy_csv(PolicyTable(policy.grid, policy.rows[1:]), ["inf"]))
        loaded = read_policy_csv(str(path))
        assert len(loaded.rows) == 1
        assert np.array_equal(loaded.stage_params(0), policy.stage_params(1))

    def test_reordered_stage_labels_exit_1_without_manifest(self, tmp_path, capsys):
        cfg = dump(tmp_path, finite_doc(m=51, horizon=2, count=17))
        path = tmp_path / "policy.csv"
        path.write_text(_policy_csv(self.two_stage_policy(), ["1", "0"]))
        out = tmp_path / "o"
        assert run("evaluate-policy", cfg, str(out), policy=str(path)) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: stage label '1' " in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_custom_treaty_has_no_csv_form(self):
        f = make_treaty("custom", {"fn": lambda y: 0.5 * np.asarray(y)})
        with pytest.raises(ValidationError, match="no CSV form"):
            _policy_csv(PolicyTable(np.array([0.0]), ((f,),)), ["0"])

    def test_evaluate_policy_requires_policy_flag(self, tmp_path, capsys):
        # refused with the flags, before the out directory is made
        cfg = dump(tmp_path, finite_doc())
        out = tmp_path / "o"
        assert run("evaluate-policy", cfg, str(out)) == 1
        assert "error: evaluate-policy needs --policy" in capsys.readouterr().err
        assert not out.exists()
        assert main(["evaluate-policy", "--config", cfg, "--out", str(out)]) == 1
        assert "--policy" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCompare:

    def test_es_uniform_gap_small(self, tmp_path):
        doc = finite_doc(m=501, horizon=2, count=65)
        doc["oracle"] = "es-uniform"
        cfg = dump(tmp_path, doc)
        out = tmp_path / "oracle"
        assert run("oracle-compare", cfg, str(out)) == 0
        rows = read_csv(out / "oracle_gap.csv")
        assert len(rows) == 65
        worst = max(float(r["gap"]) for r in rows)
        assert worst <= 5e-3
        config = parse_config(cfg)
        xs = config.grid.points()
        row = rows[10]
        assert float(row["oracle_param"]) == pytest.approx(
            oracle_es_uniform(0.2, 0.95, float(row["x"])), abs=1e-12
        )
        assert float(row["x"]) == pytest.approx(xs[10], abs=1e-12)

    def test_var_layer_gap_small(self, tmp_path):
        probe = parse_config(dump(tmp_path, finite_doc(m=501), "probe.json"))
        doc = finite_doc(m=501, horizon=2, count=65, family="layer")
        doc["search"]["layer_upper"] = var(probe.stages[0].dY, 0.95)
        doc["stages"][0]["risk"] = {"kind": "value-at-risk", "alpha": 0.95}
        doc["oracle"] = "var-layer"
        cfg = dump(tmp_path, doc)
        out = tmp_path / "oracle"
        assert run("oracle-compare", cfg, str(out)) == 0
        rows = read_csv(out / "oracle_gap.csv")
        assert len(rows) == 2 * 65
        assert max(float(r["gap"]) for r in rows) <= 5e-3

    @pytest.mark.parametrize("oracle, risk, search, message", [
        ("es-uniform", {"kind": "value-at-risk", "alpha": 0.95}, {"family": "stop-loss"},
         "needs expected-shortfall risk"),
        # 1/(1 - alpha) < 1 + theta: outside the closed form's regime
        ("es-uniform", {"kind": "expected-shortfall", "alpha": 0.1}, {"family": "stop-loss"},
         "needs 1/(1-alpha) >= 1+theta"),
        # the claim VaR at 0.95 is about 0.95, not 0.5
        ("var-layer", {"kind": "value-at-risk", "alpha": 0.95},
         {"family": "layer", "layer_upper": 0.5}, "needs search.layer_upper equal to"),
    ], ids=["kind", "regime", "layer-upper"])
    def test_refusal_writes_nothing(self, tmp_path, capsys, oracle, risk, search, message):
        doc = finite_doc(m=501, horizon=2, count=33)
        doc["stages"][0]["risk"] = risk
        doc["search"] = search
        doc["oracle"] = oracle
        out = tmp_path / "o"
        assert run("oracle-compare", dump(tmp_path, doc), str(out)) == 1
        assert message in capsys.readouterr().err
        assert not any((out / name).exists() for name in ("values.csv", "policy.csv"))

    def test_oracle_key_required(self, tmp_path, capsys):
        cfg = dump(tmp_path, finite_doc())
        assert run("oracle-compare", cfg, str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("oracle, search", [
        ("es-uniform", {"family": "stop-loss"}),
        ("var-layer", {"family": "layer", "layer_upper": 0.95}),
    ])
    def test_stationary_config_refused_at_horizon(self, tmp_path, capsys, monkeypatch,
                                                  oracle, search):
        def boom(config, stats=None):
            raise AssertionError("solved a config oracle-compare refuses")

        monkeypatch.setattr("reinsure_dp.cli.solve_finite", boom)
        doc = infinite_doc()
        doc["search"] = search
        doc["oracle"] = oracle
        cfg = dump(tmp_path, doc)
        for i, call in enumerate((
            lambda out: run("oracle-compare", cfg, out),
            lambda out: main(["oracle-compare", "--config", cfg, "--out", out]),
        )):
            out = tmp_path / f"o{i}"
            assert call(str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: field horizon: ") and "Traceback" not in err
            assert not any(out.glob("*"))

    def test_var_layer_rows_once_per_distinct_stage(self, tmp_path, monkeypatch):
        real = oracle_var_layer
        probes = []

        def counting(*args):
            sol = real(*args)
            return replace(sol, a_of_x=lambda x: probes.append(x) or sol.a_of_x(x))

        monkeypatch.setattr("reinsure_dp.cli.oracle_var_layer", counting)
        probe = parse_config(dump(tmp_path, finite_doc(m=101), "probe.json"))
        doc = finite_doc(m=101, horizon=3, count=17, family="layer")
        doc["stages"][0]["risk"] = {"kind": "value-at-risk", "alpha": 0.95}
        doc["search"]["layer_upper"] = var(probe.stages[0].dY, 0.95)
        doc["oracle"] = "var-layer"
        shared = tmp_path / "shared"
        assert run("oracle-compare", dump(tmp_path, doc), str(shared)) == 0
        assert len(probes) == 17
        # the same stage listed once per stage: one row each, the same bytes
        doc["stages"] = doc["stages"] * 3
        listed = tmp_path / "listed"
        assert run("oracle-compare", dump(tmp_path, doc), str(listed)) == 0
        assert len(probes) == 17 + 3 * 17
        gap = (shared / "oracle_gap.csv").read_bytes()
        assert gap == (listed / "oracle_gap.csv").read_bytes()
        assert len(gap.splitlines()) == 1 + 3 * 17

    @pytest.mark.parametrize("oracle, family", [
        ("var-layer", "stop-loss"),
        # its gap table would compare a share c against a stop-loss retention
        ("es-uniform", "proportional"),
    ])
    def test_search_the_oracle_does_not_describe(self, tmp_path, capsys, oracle, family):
        doc = finite_doc(m=11, horizon=1, count=17, family=family)
        if oracle == "var-layer":
            doc["stages"][0]["risk"] = {"kind": "value-at-risk", "alpha": 0.95}
        doc["oracle"] = oracle
        out = tmp_path / "o"
        assert run("oracle-compare", dump(tmp_path, doc), str(out)) == 1
        assert "error: field search.family: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestSimulate:

    def simulate_doc(self):
        doc = finite_doc(m=51, horizon=2, count=33)
        doc["simulate"] = {"x0": 1.0, "paths": 2000}
        return doc

    def test_simulate_writes_json(self, tmp_path):
        cfg = dump(tmp_path, self.simulate_doc())
        out = tmp_path / "sim"
        assert run("simulate", cfg, str(out), seed=5) == 0
        payload = json.loads((out / "sim.json").read_text())
        assert payload["paths"] == 2000
        assert payload["x0"] == 1.0
        assert payload["seed"] == 5
        assert 0.0 <= payload["ruin_estimate"] <= 1.0
        assert payload["imputed_ruin_counts"] is not None
        manifest = json.loads((out / "manifest.json").read_text())
        assert "sim.json" in manifest["outputs"]

    def test_simulate_reruns_identical(self, tmp_path):
        cfg = dump(tmp_path, self.simulate_doc())
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run("simulate", cfg, str(out1), seed=9) == 0
        assert run("simulate", cfg, str(out2), seed=9) == 0
        assert (out1 / "sim.json").read_bytes() == (out2 / "sim.json").read_bytes()

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_non_integer_seed_exits_1(self, tmp_path, capsys, seed):
        # a library call would otherwise run as seed 2 or 1
        cfg = dump(tmp_path, self.simulate_doc())
        assert run("simulate", cfg, str(tmp_path / "o"), seed=seed) == 1
        assert not (tmp_path / "o" / "manifest.json").exists()
        assert re.search(r"error: field seed: expected an integer", capsys.readouterr().err)

    @pytest.mark.parametrize("paths", [0, -5])
    @pytest.mark.parametrize("with_policy", [False, True], ids=["solve", "policy"])
    @pytest.mark.parametrize("entry", ["run", "main"])
    def test_nonpositive_paths_refused_before_anything_is_written(
        self, tmp_path, capsys, paths, with_policy, entry
    ):
        doc = self.simulate_doc()
        doc["simulate"]["paths"] = paths
        cfg, out = dump(tmp_path, doc), tmp_path / "o"
        policy = None
        if with_policy:
            solve = {k: v for k, v in doc.items() if k != "simulate"}
            assert run("solve-finite", dump(tmp_path, solve, "solve.json"), str(tmp_path / "s")) == 0
            policy = str(tmp_path / "s" / "policy.csv")
        if entry == "run":
            code = run("simulate", cfg, str(out), policy=policy)
        else:
            argv = ["simulate", "--config", cfg, "--out", str(out)]
            code = main(argv + (["--policy", policy] if policy else []))
        assert code == 1
        assert re.search(
            r"error: field simulate\.paths: path count must be at least 1", capsys.readouterr().err
        )
        for name in ("values.csv", "policy.csv", "sim.json", "manifest.json"):
            assert not (out / name).exists()

    def test_simulate_block_required(self, tmp_path, capsys):
        cfg = dump(tmp_path, finite_doc())
        assert run("simulate", cfg, str(tmp_path / "o")) == 1

    def test_simulate_with_external_policy(self, tmp_path):
        doc = self.simulate_doc()
        cfg = dump(tmp_path, doc)
        out = tmp_path / "solve"
        # solve-finite reads no simulate block
        solve = {k: v for k, v in doc.items() if k != "simulate"}
        assert run("solve-finite", dump(tmp_path, solve, "solve.json"), str(out)) == 0
        out2 = tmp_path / "sim"
        assert run(
            "simulate", cfg, str(out2), seed=1,
            policy=str(out / "policy.csv"),
        ) == 0
        payload = json.loads((out2 / "sim.json").read_text())
        # external policies come without value functions
        assert payload["imputed_ruin_counts"] is None


# each subcommand: the top-level config keys it reads beyond the model, its
# flags, those of them it requires, and whether it reads a stationary horizon
READS = {
    "solve-finite": ((), (), (), False),
    "solve-infinite": ((), ("tol",), (), True),
    "evaluate-policy": ((), ("policy",), ("policy",), False),
    "oracle-compare": (("oracle",), (), (), False),
    "simulate": (("simulate",), ("policy",), (), False),
}
SUB_KEYS = {"oracle": "es-uniform", "simulate": {"x0": 1.0, "paths": 10}}
FLAG_ARGS = {"tol": ("1e-3", 1e-3), "policy": ("policy.csv", "policy.csv")}


class TestSubcommandTable:

    def test_table_matches_the_documented_reads(self):
        table = {
            name: (sub.keys, sub.flags, sub.required, sub.stationary)
            for name, sub in _SUBCOMMANDS.items()
        }
        assert table == READS

    @pytest.mark.parametrize("sub", sorted(READS))
    def test_wrong_horizon_kind_refused_before_the_out_directory(self, tmp_path, capsys, sub):
        keys, flags, _, stationary = READS[sub]
        doc = finite_doc(m=11, horizon=1, count=17) if stationary else infinite_doc()
        doc.update({key: SUB_KEYS[key] for key in keys})
        # a named policy file is never read: the horizon is refused first
        kwargs = {"policy": str(tmp_path / "missing.csv")} if "policy" in flags else {}
        out = tmp_path / "out"
        assert run(sub, dump(tmp_path, doc), str(out), **kwargs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field horizon: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", sorted(READS))
    def test_refuses_keys_it_does_not_read(self, tmp_path, capsys, sub):
        # a required flag is given, so the key is what gets refused
        required = {flag: FLAG_ARGS[flag][1] for flag in READS[sub][2]}
        for key in sorted(set(SUB_KEYS) - set(READS[sub][0])):
            doc = dict(finite_doc(m=11, horizon=1, count=17), **{key: SUB_KEYS[key]})
            out = tmp_path / key
            assert run(sub, dump(tmp_path, doc, f"{key}.json"), str(out), **required) == 1, key
            assert f"error: field {key}: read by nothing" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    def test_parse_config_accepts_every_subcommand_key(self, tmp_path):
        parse_config(dump(tmp_path, dict(finite_doc(), **SUB_KEYS)))

    @pytest.mark.parametrize("sub", sorted(READS))
    def test_run_refuses_flags_it_does_not_read(self, tmp_path, capsys, sub):
        cfg = dump(tmp_path, finite_doc(m=11, horizon=1, count=17))
        for flag in sorted(set(FLAG_ARGS) - set(READS[sub][1])):
            out = tmp_path / flag
            assert run(sub, cfg, str(out), **{flag: FLAG_ARGS[flag][1]}) == 1, flag
            readers = " and ".join(n for n in READS if flag in READS[n][1])
            assert f"error: --{flag} applies to {readers} only" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("sub", sorted(READS))
    def test_parser_takes_exactly_the_flags_it_reads(self, tmp_path, capsys, sub):
        base = [sub, "--config", "c.json", "--out", "o"]
        for flag, (text, _) in FLAG_ARGS.items():
            argv = base + [f"--{flag}", text]
            if flag in READS[sub][1]:
                assert getattr(_build_parser().parse_args(argv), flag) == FLAG_ARGS[flag][1]
            else:
                assert main(argv) == 1, flag
        assert main(base + ["--bogus", "1"]) == 1


class TestMain:

    def test_main_happy_path(self, tmp_path):
        cfg = dump(tmp_path, finite_doc(m=21, count=17, horizon=1))
        out = tmp_path / "cli"
        code = main(["solve-finite", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()

    def test_main_unknown_subcommand(self, tmp_path, capsys):
        assert main(["frobnicate", "--config", "x", "--out", "y"]) == 1

    def test_main_missing_config_flag(self, capsys):
        assert main(["solve-finite"]) == 1

    def test_main_validation_exit(self, tmp_path, capsys):
        doc = infinite_doc(risk={"kind": "value-at-risk", "alpha": 0.95})
        cfg = dump(tmp_path, doc)
        assert main(["solve-infinite", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_module_entry_point_help(self):
        src = os.path.dirname(os.path.dirname(reinsure_dp.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "reinsure_dp", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "solve-finite" in proc.stdout
