import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from loccgate import engine, model
from loccgate.cli import main
from loccgate.model import random_referee_state


@pytest.fixture
def runner():
    return CliRunner()


def load_schema(name):
    with resources.files("loccgate.schemas").joinpath(name).open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------- simulate


def test_simulate_u_theta_passes(runner):
    result = runner.invoke(main, ["simulate", "u-theta", "--theta", "0.5", "--inputs", "2"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["worst_error"] <= 1e-9
    assert (doc["round_count"], doc["round_type"]) == (3, "c")
    jsonschema.validate(doc, load_schema("report.schema.json"))


def test_simulate_rejects_out_of_domain_angle(runner):
    result = runner.invoke(main, ["simulate", "u-theta", "--theta", "0"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["simulate", "u-theta", "--theta", "2.0"])
    assert result.exit_code == 2


def test_simulate_clifford_cnot(runner):
    result = runner.invoke(main, ["simulate", "clifford", "--gate", "cnot", "--inputs", "1"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["worst_error"] <= 1e-10
    assert (doc["round_count"], doc["round_type"]) == (1, "d")
    assert doc["expected_ebits"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_exit_one_on_impossible_tolerance(runner):
    result = runner.invoke(
        main, ["simulate", "u-theta", "--theta", "0.5", "--inputs", "1", "--tolerance", "-1"]
    )
    assert result.exit_code == 1


def test_simulate_deterministic_output_files(runner, tmp_path):
    args = ["simulate", "u-theta", "--theta", "0.4", "--inputs", "2", "--seed", "7"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert runner.invoke(main, args + ["--output", str(f1)]).exit_code == 0
    assert runner.invoke(main, args + ["--output", str(f2)]).exit_code == 0
    assert f1.read_bytes() == f2.read_bytes()


# ---------------------------------------------------------------- cost curve


def test_cost_curve_csv_rows(runner):
    result = runner.invoke(main, ["cost-curve", "--steps", "5", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["theta", "p_theta", "h_theta", "e_bar", "p_alpha_eq_theta", "is_threshold"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # 5 grid rows + threshold row
    for row in rows:
        theta, p, h, e_bar, sanity, is_thr = map(float, row)
        assert e_bar == pytest.approx(1 - p + h, abs=1e-12)
        assert sanity == pytest.approx(0.5, abs=1e-12)
    threshold_rows = [r for r in rows if r[-1] == "1"]
    assert len(threshold_rows) == 1
    assert float(threshold_rows[0][3]) == pytest.approx(1.0, abs=1e-8)


def test_cost_curve_json_schema(runner):
    result = runner.invoke(main, ["cost-curve", "--steps", "4", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, load_schema("report.schema.json"))
    assert doc["threshold"]["e_bar"] == pytest.approx(1.0, abs=1e-8)


def test_cost_curve_rejects_bad_range(runner):
    assert runner.invoke(main, ["cost-curve", "--theta-min", "2.0"]).exit_code == 2
    assert runner.invoke(main, ["cost-curve", "--theta-min", "-0.1"]).exit_code == 2


# ---------------------------------------------------------------- markov cost


def test_markov_cost_builtin_zz_gate(runner):
    result = runner.invoke(main, ["markov-cost", "--gate", "u-theta", "--theta", "0.3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["cost_ebits"] == pytest.approx(1.0, abs=1e-6)
    assert sorted(doc["fixed_state_eigenvalues"])[-2:] == pytest.approx([0.5, 0.5], abs=1e-8)
    jsonschema.validate(doc, load_schema("report.schema.json"))


def test_markov_cost_identity_is_zero(runner):
    result = runner.invoke(main, ["markov-cost", "--gate", "identity"])
    assert result.exit_code == 0
    assert json.loads(result.output)["cost_ebits"] == pytest.approx(0.0, abs=1e-8)


def test_markov_cost_user_matrix(runner, tmp_path, rng):
    u = model.haar_unitary(4, rng)
    doc = {"re": u.real.tolist(), "im": u.imag.tolist()}
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["markov-cost", "--file", str(path)])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["channel_trace_preserving"] is True
    assert out["channel_min_choi_eigenvalue"] >= -1e-8


def test_markov_cost_rejects_non_unitary(runner, tmp_path):
    doc = {"re": np.ones((4, 4)).tolist(), "im": np.zeros((4, 4)).tolist()}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["markov-cost", "--file", str(path)]).exit_code == 2


@pytest.mark.parametrize(
    "re_part",
    [
        np.eye(2),  # one qubit: not bipartite
        np.eye(3),  # dimension 3 is not a square
        np.eye(1),  # two trivial factors
        np.eye(4) * (1 + 5e-10),  # unitarity deviation 1e-9, above the 1e-10 tolerance
        np.full((4, 4), np.nan),
    ],
    ids=["2x2", "3x3", "1x1", "near-unitary", "nan"],
)
def test_markov_cost_rejects_unusable_matrix(runner, tmp_path, re_part):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps({"re": re_part.tolist(), "im": np.zeros_like(re_part).tolist()}))
    result = runner.invoke(main, ["markov-cost", "--file", str(path)])
    assert result.exit_code == 2
    assert "bad gate file" in result.output
    assert not isinstance(result.exception, ValueError)


def test_markov_cost_rejects_missing_field(runner, tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps({"re": np.eye(4).tolist()}))
    assert runner.invoke(main, ["markov-cost", "--file", str(path)]).exit_code == 2


# ---------------------------------------------------------------- typicality


def test_typicality_table_and_enumeration(runner):
    result = runner.invoke(
        main, ["typicality", "--theta", "0.5", "--delta", "0.4", "--n-list", "6,10,12", "--enumerate"]
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].split(",")[0] == "n"
    for line in lines[1:]:
        vals = dict(zip(lines[0].split(","), line.split(",")))
        assert float(vals["weight"]) == pytest.approx(float(vals["weight_enumerated"]), abs=1e-12)
        total = float(vals["total_error"])
        n = int(vals["n"])
        assert float(vals["n4_total_error"]) == pytest.approx(n**4 * total, rel=1e-12)


def test_typicality_default_list_decreases(runner):
    result = runner.invoke(main, ["typicality", "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, load_schema("report.schema.json"))
    weighted = [row["n4_total_error"] for row in doc["rows"]]
    assert all(b < a for a, b in zip(weighted, weighted[1:]))


def test_typicality_degenerate_half_spectrum_row(runner):
    # theta = pi/2 gives the closest-to-uniform spectrum; weight stays high
    result = runner.invoke(
        main, ["typicality", "--theta", str(math.pi / 2), "--delta", "1.0", "--n-list", "8", "--format", "json"]
    )
    doc = json.loads(result.output)
    assert doc["rows"][0]["weight"] == pytest.approx(1.0, abs=1e-9)
    assert doc["rows"][0]["epsilon_n"] == pytest.approx(0.0, abs=1e-9)


def test_typicality_rejects_bad_delta_and_enumeration(runner):
    assert runner.invoke(main, ["typicality", "--delta", "0"]).exit_code == 2
    assert runner.invoke(main, ["typicality", "--n-list", "64", "--enumerate"]).exit_code == 2


def test_typicality_rejects_vanishing_theta(runner):
    # cos(theta) cos(sqrt(theta)) rounds to 1: the success probability is undefined
    result = runner.invoke(main, ["typicality", "--theta", "1e-17", "--n-list", "8"])
    assert result.exit_code == 2
    assert "success probability undefined" in result.output


# ---------------------------------------------------------------- export


@pytest.mark.parametrize(
    "args",
    [
        ["heralded", "--theta", "0.5"],
        ["controlled-phase", "--phi", "0.7"],
        ["composite", "--theta", "0.4"],
        ["clifford", "--gate", "cnot"],
        ["dilution", "--target", "0.4,0.3,0.2,0.1", "--k", "2"],
    ],
)
def test_export_protocol_validates_against_schema(runner, args):
    result = runner.invoke(main, ["export-protocol", *args])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    jsonschema.validate(doc, load_schema("protocol.schema.json"))


def test_exported_composite_is_runnable_golden(runner, tmp_path, rng):
    path = tmp_path / "composite.json"
    args = ["export-protocol", "composite", "--theta", "0.5", "--output", str(path)]
    assert runner.invoke(main, args).exit_code == 0
    first = path.read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    assert path.read_bytes() == first  # golden: byte-stable across runs

    program = engine.program_from_json(json.loads(first))
    inp = random_referee_state(rng)
    err = engine.protocol_error(program, model.zz_phase_gate(0.5), inp)
    assert err < 1e-9


def test_output_dir_env_override(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("LOCCGATE_OUTPUT_DIR", str(tmp_path))
    result = runner.invoke(main, ["cost-curve", "--steps", "3", "--output", "sub/curve.csv"])
    assert result.exit_code == 0
    assert (tmp_path / "sub" / "curve.csv").exists()
