import csv
import io
import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loccgate import analysis, engine, model, protocols
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


@pytest.mark.parametrize(
    "args",
    [["u-theta", "--theta", "0.5"], ["clifford", "--gate", "cnot"], ["clifford", "--gate", "qutrit-cz"]],
)
def test_simulate_runs_the_engine_once(runner, monkeypatch, args):
    """One run on the built program feeds every error, the ledger and the rounds.

    The heralded fit inside ``build_composite`` runs its own program through
    ``protocols.run_exhaustive``, which this wrapper does not see.
    """
    built, runs = [], []

    def capture(build):
        def wrapped(*a, **k):
            built.append(build(*a, **k))
            return built[-1]

        return wrapped

    for name in ("build_composite", "build_clifford"):
        monkeypatch.setattr(protocols, name, capture(getattr(protocols, name)))
    run = engine.run_exhaustive

    def counted(program, *a, **k):
        runs.append(program)
        return run(program, *a, **k)

    monkeypatch.setattr(engine, "run_exhaustive", counted)
    result = runner.invoke(main, ["simulate", *args])
    assert result.exit_code == 0, result.output
    assert len(built) == 1
    assert sum(program is built[0] for program in runs) == 1
    assert json.loads(result.output)["choi_error"] <= 1e-9


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_rejects_input_count_below_one(runner, count):
    # a count below 1 is rejected, not clamped to a one-input run
    result = runner.invoke(main, ["simulate", "clifford", "--gate", "cnot", "--inputs", count])
    assert result.exit_code == 2, result.output
    assert "--inputs" in result.output


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
    for bad in ("inf", "nan"):
        result = runner.invoke(main, ["typicality", "--delta", bad])
        assert result.exit_code == 2
        assert "delta must be positive and finite" in result.output
    assert runner.invoke(main, ["typicality", "--n-list", "64", "--enumerate"]).exit_code == 2


@pytest.mark.parametrize("delta", ["1e300", "1e308"])
def test_typicality_huge_delta_prints_rows(runner, delta):
    # delta**2 and n (p - delta) overflow a float; every sequence is typical
    result = runner.invoke(main, ["typicality", "--delta", delta, "--n-list", "8,4096"])
    assert result.exit_code == 0, result.output
    header, *rows = csv.reader(io.StringIO(result.output))
    assert len(rows) == 2
    for row in rows:
        vals = dict(zip(header, row, strict=True))
        assert float(vals["epsilon_prime"]) == 0.0
        assert float(vals["weight"]) == pytest.approx(1.0, abs=1e-9)


def test_typicality_json_rejects_a_non_finite_field(runner):
    # n (H + delta) overflows to inf, which JSON cannot hold; CSV prints it as inf
    result = runner.invoke(main, ["typicality", "--delta", "1e308", "--n-list", "4096", "--format", "json"])
    assert result.exit_code == 2, result.output
    assert "rows[0].dilution_ebits is not finite" in result.output
    assert "Infinity" not in result.output


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


def test_fixed_step_with_conditions_is_rejected_by_schema_and_loader(runner):
    result = runner.invoke(main, ["export-protocol", "controlled-phase"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    (step,) = [s for s in doc["steps"] if s["name"] == "c_cnot"]
    assert "instrument" in step and step["condition_on"] == []
    step["condition_on"] = ["nope-step"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, load_schema("protocol.schema.json"))
    with pytest.raises(engine.EngineError, match="step 'c_cnot': fixed instrument cannot declare conditions"):
        engine.program_from_json(doc)


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


# ---------------------------------------------------------------- domain errors


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "u-theta", "--theta", "0.5", "--alpha", "4"],
        ["simulate", "u-theta", "--theta", "0.5", "--alpha", "0"],
        ["simulate", "u-theta", "--theta", "0.5", "--alpha", "nan"],
        ["export-protocol", "heralded", "--alpha", "4"],
        ["export-protocol", "composite", "--alpha", "0"],
        ["export-protocol", "controlled-phase", "--phi", "nan"],
        ["export-protocol", "controlled-phase", "--phi", "inf"],
        ["export-protocol", "dilution", "--k", "-1"],
        # theta so small that the heralded failure branch is pruned
        ["simulate", "u-theta", "--theta", "1e-17", "--inputs", "1"],
        ["export-protocol", "heralded", "--theta", "1e-300"],
        # cos(theta) cos(sqrt(theta)) rounds to 1: the success probability is undefined
        ["cost-curve", "--theta-min", "1e-300", "--steps", "2"],
        # an angle outside (0, pi/2] is rejected even where the command ignores it
        ["simulate", "clifford", "--gate", "cnot", "--theta", "9"],
        ["export-protocol", "controlled-phase", "--theta", "9"],
        # 1/sin(alpha/2) so large that the herald vector's norm overflows
        ["export-protocol", "heralded", "--alpha", "1e-300"],
        ["simulate", "u-theta", "--theta", "0.5", "--alpha", "1e-300"],
    ],
)
def test_builder_domain_errors_exit_two_with_a_message(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no uncaught exception, so no traceback
    assert "Error: " in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("k", ["0", "7"])
def test_export_dilution_k_outside_one_to_six_names_the_option(runner, k):
    # 2^k x 2^k must fit the 4096-dimension cap, which no CLI option lifts
    result = runner.invoke(main, ["export-protocol", "dilution", "--k", k])
    assert result.exit_code == 2, result.output
    assert "--k" in result.output
    assert "dim_cap" not in result.output


def test_export_dilution_rejects_a_non_finite_target(runner):
    result = runner.invoke(main, ["export-protocol", "dilution", "--target", "nan,1", "--k", "1"])
    assert result.exit_code == 2, result.output
    assert "non-finite weights [nan]" in result.output


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_tolerance(runner, bad):
    result = runner.invoke(main, ["simulate", "u-theta", "--theta", "0.5", "--inputs", "1", "--tolerance", bad])
    assert result.exit_code == 2
    assert "tolerance must be finite" in result.output


@pytest.mark.parametrize(
    "module, name, error, args",
    [
        (engine, "run_exhaustive", engine.EngineError, ["simulate", "clifford", "--gate", "cnot"]),
        (analysis, "cesaro_fixed_state", analysis.AnalysisError, ["markov-cost", "--gate", "cnot"]),
    ],
)
def test_invariant_failures_exit_one_with_their_exception(runner, monkeypatch, module, name, error, args):
    # a broken invariant is a bug, not bad input: it must not become exit 2
    def broken(*a, **k):
        raise error("planted invariant failure")

    monkeypatch.setattr(module, name, broken)
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, error)


# ---------------------------------------------------------------- fuzzer


FUZZ_FLOAT = st.one_of(
    st.floats(min_value=0.05, max_value=2.0),
    st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, 1e-300, 1e300]),
)
FUZZ_INTS = [-3, 0, 1, 2, 7, 100]
# qutrit-cz costs 50-100 ms an invocation; the other gates a few ms
FUZZ_GATE = st.sampled_from(["cnot", "cz", "swap", "identity", "junk"] * 4 + ["qutrit-cz"])


def _options(**opts):
    """argv for a random subset of the options, each drawn from its strategy."""
    drawn = [st.none() | strategy.map(lambda v, name=name: [name, str(v)]) for name, strategy in opts.items()]
    return st.tuples(*drawn).map(lambda parts: [x for part in parts if part for x in part])


def _command(name, positional, **opts):
    return st.tuples(positional, _options(**opts)).map(lambda t: [name, *t[0], *t[1]])


FUZZ_ARGV = st.one_of(
    _command(
        "simulate",
        st.sampled_from([["u-theta"], ["clifford"], ["junk"]]),
        **{"--theta": FUZZ_FLOAT, "--alpha": FUZZ_FLOAT, "--gate": FUZZ_GATE,
           "--inputs": st.sampled_from([-3, 0, 1, 2]), "--seed": st.sampled_from(FUZZ_INTS),
           "--tolerance": FUZZ_FLOAT, "--format": st.sampled_from(["json", "junk"])},
    ),
    _command(
        "cost-curve",
        st.just([]),
        **{"--theta-min": FUZZ_FLOAT, "--theta-max": FUZZ_FLOAT,
           "--steps": st.sampled_from([-3, 0, 1, 2, 7, 50]), "--format": st.sampled_from(["json", "csv", "junk"])},
    ),
    _command(
        "markov-cost",
        st.just([]),
        **{"--gate": st.just("u-theta") | FUZZ_GATE, "--theta": FUZZ_FLOAT,
           "--file": st.sampled_from(["@unitary", "@not-unitary", "@not-json", "missing.json"])},
    ),
    _command(
        "typicality",
        st.sampled_from([[], ["--enumerate"]]),
        **{"--theta": FUZZ_FLOAT, "--delta": FUZZ_FLOAT,
           "--n-list": st.lists(st.sampled_from([*FUZZ_INTS, 4096]), max_size=3).map(
               lambda ns: ",".join(map(str, ns))) | st.sampled_from(["x", ",", "1,,2", "1.5"]),
           "--format": st.sampled_from(["json", "csv", "junk"])},
    ),
    _command(
        "export-protocol",
        st.sampled_from([["heralded"], ["controlled-phase"], ["composite"], ["clifford"], ["dilution"], ["junk"]]),
        **{"--theta": FUZZ_FLOAT, "--alpha": FUZZ_FLOAT, "--phi": FUZZ_FLOAT, "--gate": FUZZ_GATE,
           "--target": st.sampled_from(["0.4,0.3,0.2,0.1", "0.5,0.5", "1", "0.2,0.2,0.2,0.2,0.2", "nan,1",
                                        "-1,2", "0,0", "x", ""]),
           "--k": st.sampled_from(FUZZ_INTS)},
    ),
)


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def gate_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("gates")
    docs = {
        "@unitary": json.dumps({"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}),
        "@not-unitary": json.dumps({"re": np.ones((4, 4)).tolist(), "im": np.zeros((4, 4)).tolist()}),
        "@not-json": "{",
    }
    for key, text in docs.items():
        (root / key[1:]).write_text(text)
    return {key: str(root / key[1:]) for key in docs}


@settings(max_examples=300)
@given(argv=FUZZ_ARGV)
@example(argv=["simulate", "u-theta", "--theta", "0.5", "--inputs", "1", "--tolerance", "-1"])
@example(argv=["simulate", "clifford", "--theta", "nan"])  # nan where the gate ignores the angle
def test_cli_fuzz_exits_as_documented(gate_files, argv):
    """Every command exits 0 with parseable output, 2 with a message, or 1
    only where simulate misses its tolerance; never with a traceback.  An
    angle outside (0, pi/2], nan included, always exits 2."""
    argv = [gate_files.get(arg, arg) for arg in argv]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2), result.output
    angles = [float(argv[i + 1]) for i, arg in enumerate(argv) if arg in ("--theta", "--theta-min", "--theta-max")]
    if not all(0.0 < angle <= math.pi / 2 for angle in angles):
        assert result.exit_code == 2, result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    if result.exit_code == 2:
        assert "Error: " in result.output
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if argv[0] in ("cost-curve", "typicality") and fmt != "json":
        header, *rows = csv.reader(io.StringIO(result.stdout))
        assert rows and all(len(row) == len(header) for row in rows)
        assert result.exit_code == 0
        return
    doc = json.loads(result.stdout, parse_constant=_not_json)
    schema = "protocol.schema.json" if argv[0] == "export-protocol" else "report.schema.json"
    jsonschema.validate(doc, load_schema(schema))
    if result.exit_code == 1:
        assert argv[0] == "simulate" and doc["passed"] is False
