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

from . import analysis, engine, model, protocols, qmath
from .systems import ALICE, BOB, DEFAULT_DIM_CAP, REFEREE, SystemLayout


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


def _non_finite(doc, where: str = "") -> str | None:
    """Path of the first nan or infinite float in a JSON document, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else where
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found = _non_finite(value, f"{where}.{key}" if isinstance(key, str) else f"{where}[{key}]")
        if found is not None:
            return found
    return None


def _emit_json(doc: dict, path: Path | None) -> None:
    """Strict JSON: a nan or infinite value is a domain error naming its field."""
    field = _non_finite(doc)
    if field is not None:
        raise ValueError(f"{field.lstrip('.')} is not finite, and JSON has no such number")
    _emit(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def _emit_csv(header: list[str], rows: list[list], path: Path | None) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")
    _emit(buf.getvalue(), path)


def _angle(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    """The gate-angle domain (0, pi/2], checked once for every angle option; rejects nan."""
    if value is not None and not 0.0 < value <= math.pi / 2:
        raise click.BadParameter(f"{value} outside (0, pi/2]")
    return value


# Builtin gates on (A, B); u-theta, the one gate that takes --theta, is built by _builtin_gate.
_GATES = {
    "cnot": model.cnot_gate,
    "cz": lambda: model.cz_gate(("A", "B")),
    "swap": model.swap_gate,
    "identity": lambda: model.GateSpec(np.eye(4)),
    "qutrit-cz": lambda: model.qudit_cz_gate(3),
}


# the largest k with 2^k x 2^k <= DEFAULT_DIM_CAP, the size cap no CLI option lifts
_DILUTION_MAX_K = (DEFAULT_DIM_CAP.bit_length() - 1) // 2


def _builtin_gate(name: str, theta: float | None) -> model.GateSpec:
    if name in _GATES:
        return _GATES[name]()
    if theta is None:
        raise click.UsageError("--theta is required for the u-theta gate")
    return model.zz_phase_gate(theta)


class _Command(click.Command):
    """A command whose domain errors exit 2 with their message.

    Builders and ``analysis`` raise ValueError on input outside their domain.
    EngineError and AnalysisError are invariant failures, not bad input: they
    pass through, exit 1 and keep their traceback.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from None


class _Main(click.Group):
    command_class = _Command


@click.group(cls=_Main)
def main() -> None:
    """Entanglement-assisted LOCC gate protocols: simulate and analyze."""


@main.command()
@click.argument("gate", type=click.Choice(["u-theta", "clifford"]))
@click.option("--theta", type=float, default=None, callback=_angle,
              help="Gate angle in radians, in (0, pi/2].")
@click.option("--alpha", type=float, default=None, help="Resource angle; defaults to sqrt(theta).")
@click.option("--gate", "gate_name", default="cnot", type=click.Choice(list(_GATES)),
              help="Builtin gate for the clifford protocol.")
@click.option("--inputs", type=click.IntRange(min=1), default=5, show_default=True,
              help="Number of random referee-purified inputs.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tolerance", type=float, default=1e-9, show_default=True,
              help="Exit 1 when the worst observed error exceeds this.")
@click.option("--format", "fmt", type=click.Choice(["json"]), default="json")
@click.option("--output", default=None, help="Output path; '-' or omitted for stdout.")
@click.pass_context
def simulate(ctx, gate, theta, alpha, gate_name, inputs, seed, tolerance, fmt, output):
    """Build a protocol, run it once on the Choi input, report its errors.

    The one run fixes the protocol's channel, so the error on each random
    input is a reduction over its leaves, not another run.
    """
    if not math.isfinite(tolerance):
        raise click.UsageError("tolerance must be finite")
    rng = np.random.default_rng(seed)
    target = _builtin_gate(gate_name if gate == "clifford" else gate, theta)
    if gate == "u-theta":
        program = protocols.build_composite(theta, alpha)
        params = {"theta": theta, "alpha": alpha if alpha is not None else math.sqrt(theta)}
        label = "u-theta"
    else:
        program = protocols.build_clifford(target)
        params = {"gate": gate_name}
        label = f"clifford:{gate_name}"
    d = target.local_dim

    tree = engine.run_exhaustive(program, engine.choi_input(program))
    layout = SystemLayout([("A", d, ALICE), ("B", d, BOB), ("R", d * d, REFEREE)])
    errors = []
    for _ in range(inputs):
        state = model.random_pure_state(layout, rng)
        errors.append(engine.protocol_error(program, target, state, tree=tree))
    led = engine.ledger(program, tree)
    prof = engine.classify_rounds(program)
    worst = max(errors)
    doc = {
        "command": "simulate",
        "gate": label,
        "parameters": params,
        "worst_error": worst,
        "mean_error": float(np.mean(errors)),
        "choi_error": engine.choi_error(program, target, tree),
        "round_count": prof.round_count,
        "round_type": prof.kind,
        "resource_ebits": led.resource_ebits,
        "expected_ebits": led.expected_ebits,
        "inputs": inputs,
        "seed": seed,
        "tolerance": tolerance,
        "passed": bool(worst <= tolerance),
    }
    _emit_json(doc, _resolve_output(output))
    if worst > tolerance:
        ctx.exit(1)


@main.command("cost-curve")
@click.option("--theta-min", type=float, default=0.01, show_default=True, callback=_angle)
@click.option("--theta-max", type=float, default=math.pi / 2, show_default=True, callback=_angle)
@click.option("--steps", type=click.IntRange(min=2), default=50, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
@click.option("--output", default=None)
def cost_curve(theta_min, theta_max, steps, fmt, output):
    """Average ebit cost per angle, plus the bisected break-even angle."""
    if not theta_min < theta_max:
        raise click.UsageError("need theta-min < theta-max")
    thetas = np.linspace(theta_min, theta_max, steps)
    rows = []
    for t in thetas:
        point = analysis.CostCurvePoint.at(float(t))
        p_alpha_eq_theta = analysis.success_probability(float(t), float(t))
        rows.append(
            {
                "theta": point.theta,
                "p_theta": point.p_theta,
                "h_theta": point.h_theta,
                "e_bar": point.e_bar,
                "p_alpha_eq_theta": p_alpha_eq_theta,
            }
        )
    thr = analysis.break_even_theta()
    thr_point = threshold = None
    if thr is not None:
        thr_point = analysis.CostCurvePoint.at(thr)
        threshold = {"theta": thr, "e_bar": thr_point.e_bar}
    path = _resolve_output(output)
    if fmt == "json":
        _emit_json({"command": "cost-curve", "rows": rows, "threshold": threshold}, path)
    else:
        header = ["theta", "p_theta", "h_theta", "e_bar", "p_alpha_eq_theta", "is_threshold"]
        table = [[r["theta"], r["p_theta"], r["h_theta"], r["e_bar"], r["p_alpha_eq_theta"], 0] for r in rows]
        if thr_point is not None:
            table.append([thr_point.theta, thr_point.p_theta, thr_point.h_theta, thr_point.e_bar,
                          analysis.success_probability(thr_point.theta, thr_point.theta), 1])
        _emit_csv(header, table, path)


@main.command("markov-cost")
@click.option("--gate", "gate_name", default=None, type=click.Choice(["u-theta", *_GATES]))
@click.option("--theta", type=float, default=None, callback=_angle)
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
    eigs = np.linalg.eigvalsh(fixed)  # the spectrum von_neumann_entropy takes: fixed is symmetrized
    doc = {
        "command": "markov-cost",
        "gate": label,
        "fixed_state_eigenvalues": [float(x) for x in eigs],
        "cost_ebits": qmath.shannon_entropy(eigs),  # analysis.markovianizing_cost(spec)
        "channel_trace_preserving": True,
        "channel_min_choi_eigenvalue": channel.min_choi_eigenvalue,
    }
    _emit_json(doc, _resolve_output(output))


@main.command()
@click.option("--theta", type=float, default=0.5, show_default=True, callback=_angle)
@click.option("--delta", type=float, default=0.4, show_default=True)
@click.option("--n-list", "n_list", default="64,256,1024,4096", show_default=True,
              help="Comma-separated block lengths.")
@click.option("--enumerate", "enumerate_", is_flag=True,
              help="Add brute-force typical weights (requires every n <= 20).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
@click.option("--output", default=None)
def typicality(theta, delta, n_list, enumerate_, fmt, output):
    """Typical weight and error decay table over block lengths."""
    if not (delta > 0 and math.isfinite(delta)):
        raise click.UsageError("delta must be positive and finite")
    ns = [int(x) for x in n_list.split(",") if x.strip()]
    if not ns or any(n < 1 for n in ns):
        raise click.UsageError("n-list must contain positive integers")
    if enumerate_ and any(n > 20 for n in ns):
        raise click.UsageError("--enumerate requires every n <= 20")
    rows = []
    for n in ns:
        report = analysis.error_budget(n, delta, theta)
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
@click.option("--theta", type=float, default=0.5, show_default=True, callback=_angle)
@click.option("--alpha", type=float, default=None)
@click.option("--phi", type=float, default=0.5, show_default=True)
@click.option("--gate", "gate_name", default="cnot", type=click.Choice(list(_GATES)))
@click.option("--target", default="0.4,0.3,0.2,0.1", show_default=True,
              help="Dilution target spectrum (comma-separated).")
@click.option("--k", type=click.IntRange(1, _DILUTION_MAX_K), default=2, show_default=True,
              help=f"Ebits of the maximally entangled input; 2^k x 2^k must fit the {DEFAULT_DIM_CAP}-dimension cap.")
@click.option("--output", default=None)
def export_protocol(kind, theta, alpha, phi, gate_name, target, k, output):
    """Dump a protocol program as a JSON document."""
    if kind == "heralded":
        program = protocols.build_heralded(theta, alpha if alpha is not None else math.sqrt(theta)).program
    elif kind == "controlled-phase":
        program = protocols.build_controlled_phase(phi)
    elif kind == "composite":
        program = protocols.build_composite(theta, alpha)
    elif kind == "clifford":
        program = protocols.build_clifford(_GATES[gate_name]())
    else:
        program = protocols.nielsen_dilution([float(x) for x in target.split(",")], k)
    _emit_json(engine.program_to_json(program), _resolve_output(output))


if __name__ == "__main__":
    main()
