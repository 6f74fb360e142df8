"""Command-line surface: simulations, cost curves, channel costs, typicality tables.

Exit codes: 0 on success, 1 when a simulation misses its error tolerance,
2 on usage or domain errors.  Identical invocations (including seed)
produce byte-identical output files; floats are written with 17 significant
digits so files are meaningful as golden data.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import analysis, engine, model, protocols
from .systems import ALICE, BOB, REFEREE, SystemLayout


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolve_output(path: str | None) -> Path | None:
    if path is None or path == "-":
        return None
    p = Path(path)
    base = os.environ.get("LOCCGATE_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        click.echo(text, nl=False)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _emit_json(doc: dict, path: Path | None) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)


def _emit_csv(header: list[str], rows: list[list], path: Path | None) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")
    _emit(buf.getvalue(), path)


def _builtin_gate(name: str, theta: float | None):
    if name == "u-theta":
        if theta is None:
            raise click.UsageError("--theta is required for the u-theta gate")
        if not 0.0 < theta <= math.pi / 2:
            raise click.UsageError(f"theta {theta} outside (0, pi/2]")
        return model.zz_phase_gate(theta)
    if name == "identity":
        return model.GateSpec(np.eye(4))
    if name == "cnot":
        return model.cnot_gate()
    if name == "cz":
        mat = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        return model.GateSpec(mat)
    if name == "swap":
        return model.swap_gate()
    if name == "qutrit-cz":
        return model.qudit_cz_gate(3)
    raise click.UsageError(f"unknown builtin gate {name!r}")


@click.group()
def main() -> None:
    """Entanglement-assisted LOCC gate protocols: simulate and analyze."""


@main.command()
@click.argument("gate", type=click.Choice(["u-theta", "clifford"]))
@click.option("--theta", type=float, default=None, help="Gate angle in radians, in (0, pi/2].")
@click.option("--alpha", type=float, default=None, help="Resource angle; defaults to sqrt(theta).")
@click.option("--gate", "gate_name", default="cnot",
              type=click.Choice(["cnot", "cz", "swap", "identity", "qutrit-cz"]),
              help="Builtin gate for the clifford protocol.")
@click.option("--inputs", type=int, default=5, show_default=True,
              help="Number of random referee-purified inputs.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=1e-9, show_default=True,
              help="Exit 1 when the worst observed error exceeds this.")
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--output", default=None, help="Output path; '-' or omitted for stdout.")
@click.pass_context
def simulate(ctx, gate, theta, alpha, gate_name, inputs, seed, tolerance, fmt, output):
    """Build a protocol, run it exhaustively on random inputs, report errors."""
    rng = np.random.default_rng(seed)
    if gate == "u-theta":
        if theta is None:
            raise click.UsageError("--theta is required")
        if not 0.0 < theta <= math.pi / 2:
            raise click.UsageError(f"theta {theta} outside (0, pi/2]")
        program = protocols.build_composite(theta, alpha)
        target = model.zz_phase_gate(theta)
        d = 2
        params = {"theta": theta, "alpha": alpha if alpha is not None else math.sqrt(theta)}
        label = "u-theta"
    else:
        spec = _builtin_gate(gate_name, theta)
        d = spec.local_dim
        program = protocols.build_clifford(spec)
        target = spec
        params = {"gate": gate_name}
        label = f"clifford:{gate_name}"

    errors = []
    tree = None
    for _ in range(max(inputs, 1)):
        layout = SystemLayout([("A", d, ALICE), ("B", d, BOB), ("R", d * d, REFEREE)])
        state = model.random_pure_state(layout, rng)
        errors.append(engine.protocol_error(program, model.GateSpec(target.matrix, ("A", "B")), state))
        if tree is None:
            tree = engine.run_exhaustive(program, state)
    led = engine.ledger(program, tree)
    prof = engine.classify_rounds(program)
    worst = max(errors)
    doc = {
        "command": "simulate",
        "gate": label,
        "parameters": params,
        "worst_error": worst,
        "mean_error": float(np.mean(errors)),
        "round_count": prof.round_count,
        "round_type": prof.kind,
        "resource_ebits": led.resource_ebits,
        "expected_ebits": led.expected_ebits,
        "inputs": max(inputs, 1),
        "seed": seed,
        "tolerance": tolerance,
        "passed": bool(worst <= tolerance),
    }
    _emit_json(doc, _resolve_output(output))
    if worst > tolerance:
        ctx.exit(1)


@main.command("cost-curve")
@click.option("--theta-min", type=float, default=0.01, show_default=True)
@click.option("--theta-max", type=float, default=math.pi / 2, show_default=True)
@click.option("--steps", type=int, default=50, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
@click.option("--output", default=None)
def cost_curve(theta_min, theta_max, steps, fmt, output):
    """Average ebit cost per angle, plus the bisected break-even angle."""
    if not (0.0 < theta_min < theta_max <= math.pi / 2):
        raise click.UsageError("need 0 < theta-min < theta-max <= pi/2")
    if steps < 2:
        raise click.UsageError("need at least 2 grid steps")
    thetas = np.linspace(theta_min, theta_max, steps)
    rows = []
    for t in thetas:
        point = analysis.CostCurvePoint.at(float(t))
        rows.append(
            {
                "theta": point.theta,
                "p_theta": point.p_theta,
                "h_theta": point.h_theta,
                "e_bar": point.e_bar,
                "p_alpha_eq_theta": analysis.success_probability(float(t), float(t)),
            }
        )
    thr = analysis.break_even_theta()
    threshold = None
    if thr is not None:
        threshold = {"theta": thr, "e_bar": analysis.CostCurvePoint.at(thr).e_bar}
    path = _resolve_output(output)
    if fmt == "json":
        _emit_json({"command": "cost-curve", "rows": rows, "threshold": threshold}, path)
    else:
        header = ["theta", "p_theta", "h_theta", "e_bar", "p_alpha_eq_theta", "is_threshold"]
        table = [[r["theta"], r["p_theta"], r["h_theta"], r["e_bar"], r["p_alpha_eq_theta"], 0] for r in rows]
        if threshold is not None:
            point = analysis.CostCurvePoint.at(threshold["theta"])
            table.append([point.theta, point.p_theta, point.h_theta, point.e_bar,
                          analysis.success_probability(point.theta, point.theta), 1])
        _emit_csv(header, table, path)


@main.command("markov-cost")
@click.option("--gate", "gate_name", default=None,
              type=click.Choice(["u-theta", "identity", "cnot", "cz", "swap", "qutrit-cz"]))
@click.option("--theta", type=float, default=None)
@click.option("--file", "gate_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with fields re, im: nested lists of a square unitary.")
@click.option("--output", default=None)
def markov_cost(gate_name, theta, gate_file, output):
    """Fixed-state eigenvalues and entropy of the round-trip channel."""
    if (gate_name is None) == (gate_file is None):
        raise click.UsageError("provide exactly one of --gate or --file")
    if gate_file is not None:
        try:
            doc = json.loads(Path(gate_file).read_text())
            mat = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
            spec = model.GateSpec(mat)
            spec.local_dim  # raises unless the gate acts on two equal factors of dimension >= 2
        except (KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"bad gate file {gate_file}: {exc}") from None
        label = gate_file
    else:
        spec = _builtin_gate(gate_name, theta)
        label = gate_name if gate_name != "u-theta" else f"u-theta({theta})"
    channel = analysis.round_trip_channel(spec)
    fixed = analysis.cesaro_fixed_state(channel)
    eigs = sorted(float(x) for x in np.linalg.eigvalsh(fixed))
    choi_min = float(np.linalg.eigvalsh(channel.choi()).min())
    doc = {
        "command": "markov-cost",
        "gate": label,
        "fixed_state_eigenvalues": eigs,
        "cost_ebits": analysis.markovianizing_cost(spec),
        "channel_trace_preserving": True,
        "channel_min_choi_eigenvalue": choi_min,
    }
    _emit_json(doc, _resolve_output(output))


@main.command()
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--delta", type=float, default=0.4, show_default=True)
@click.option("--n-list", "n_list", default="64,256,1024,4096", show_default=True,
              help="Comma-separated block lengths.")
@click.option("--enumerate", "enumerate_", is_flag=True,
              help="Add brute-force typical weights (requires every n <= 20).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
@click.option("--output", default=None)
def typicality(theta, delta, n_list, enumerate_, fmt, output):
    """Typical weight and error decay table over block lengths."""
    if delta <= 0:
        raise click.UsageError("delta must be positive")
    if not 0.0 < theta <= math.pi / 2:
        raise click.UsageError(f"theta {theta} outside (0, pi/2]")
    try:
        ns = [int(x) for x in n_list.split(",") if x.strip()]
    except ValueError:
        raise click.UsageError(f"bad n-list {n_list!r}") from None
    if not ns or any(n < 1 for n in ns):
        raise click.UsageError("n-list must contain positive integers")
    if enumerate_ and any(n > 20 for n in ns):
        raise click.UsageError("--enumerate requires every n <= 20")
    rows = []
    for n in ns:
        try:
            report = analysis.error_budget(n, delta, theta)
        except ValueError as exc:  # e.g. theta so small that cos(theta) rounds to 1
            raise click.UsageError(f"theta {theta}: {exc}") from None
        row = {
            "n": n,
            "weight": report.typical_weight,
            "epsilon_n": report.epsilon_n,
            "epsilon_prime": report.epsilon_prime,
            "total_error": report.total_error,
            "n4_total_error": float(n) ** 4 * report.total_error,
            "dilution_ebits": report.dilution_ebits,
        }
        if enumerate_:
            row["weight_enumerated"] = analysis.enumerate_typical_weight(
                n, delta, analysis.resource_spectrum(theta)
            )
        rows.append(row)
    path = _resolve_output(output)
    if fmt == "json":
        _emit_json({"command": "typicality", "theta": theta, "delta": delta, "rows": rows}, path)
    else:
        header = list(rows[0].keys())
        _emit_csv(header, [[r[k] for k in header] for r in rows], path)


@main.command("export-protocol")
@click.argument("kind", type=click.Choice(["heralded", "controlled-phase", "composite", "clifford", "dilution"]))
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--alpha", type=float, default=None)
@click.option("--phi", type=float, default=0.5, show_default=True)
@click.option("--gate", "gate_name", default="cnot",
              type=click.Choice(["cnot", "cz", "swap", "identity", "qutrit-cz"]))
@click.option("--target", default="0.4,0.3,0.2,0.1", show_default=True,
              help="Dilution target spectrum (comma-separated).")
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--output", default=None)
def export_protocol(kind, theta, alpha, phi, gate_name, target, k, output):
    """Dump a protocol program as a JSON document."""
    if kind in ("heralded", "composite") and not 0.0 < theta <= math.pi / 2:
        raise click.UsageError(f"theta {theta} outside (0, pi/2]")
    if kind == "heralded":
        program = protocols.build_heralded(theta, alpha if alpha is not None else math.sqrt(theta)).program
    elif kind == "controlled-phase":
        program = protocols.build_controlled_phase(phi)
    elif kind == "composite":
        program = protocols.build_composite(theta, alpha)
    elif kind == "clifford":
        program = protocols.build_clifford(_builtin_gate(gate_name, theta))
    else:
        try:
            spectrum = [float(x) for x in target.split(",")]
            program = protocols.nielsen_dilution(spectrum, k)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
    _emit_json(engine.program_to_json(program), _resolve_output(output))


if __name__ == "__main__":
    main()
