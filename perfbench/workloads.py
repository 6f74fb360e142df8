"""Seeded operations and their correctness checks, one kind of cycle per workload.

A cycle is a fixed list of operation kinds; the seed draws only parameters
and input vectors.  Every run therefore does the same mix of work whatever
its seed, and a run always ends on a whole cycle.

Input vectors come from the benchmark's own ``numpy.random.Generator`` and
are wrapped in ``systems.PureState``.  ``model.random_pure_state`` and
``model.haar_unitary`` are not used: a change to the program's samplers must
not change the workload.  Target gates and expected values are written out
here in closed form, so a check never compares the program with itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from loccgate import analysis, engine, model, protocols
from loccgate.systems import ALICE, BOB, REFEREE, PureState, SystemLayout

EPS = 2.0**-52
THETA_STAR = 0.6057065  # root of e_bar(theta) = 1, acceptance criterion 5
EXACT_TOL = 1e-9  # infidelity of an exact protocol, ledger identities, Schmidt data
HERALD_TOL = 1e-10  # heralded success probability against its closed form
BREAK_EVEN_TOL = 1e-6
MARKOV_TOL = 1e-6
# batch_error sums 1 - sum_leaf p |<psi|phi>|^2 over at most 100 leaves; its
# rounding is ~1e-14.  Where the analytic bound is exactly 0 (n = 1 and a
# delta so wide that every sequence is typical) the simulated error reads
# 0 or a few 1e-16, so the check allows err <= bound + BATCH_FLOOR.
BATCH_FLOOR = 1e-12
BATCH_DELTAS = {1: 2.6, 2: 1.2}  # scripts/run_batch_demo.py


def weight_floor(n: int) -> float:
    """Float floor of typical weight + complement = 1 at block length n.

    Each log-pmf term is lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) + k log p
    + (n-k) log q, a sum of four terms of size ~lgamma(n+1), each rounded at
    |lgamma(n+1)| * 2^-52.  At n = 2^20 that is ~1.2e-8; the weight observed
    there (delta 0.05, theta 0.5) is 1 + 1.7e-9.
    """
    return 4.0 * (math.lgamma(n + 1) + 1.0) * EPS


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# closed forms

SZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def zz_gate(theta: float) -> np.ndarray:
    return math.cos(theta / 2) * np.eye(4, dtype=complex) + 1j * math.sin(theta / 2) * SZZ


def controlled_phase(phi: float) -> np.ndarray:
    """I (x) |0><0| + exp(i phi Z) (x) |1><1| on (A, B)."""
    rz = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    return np.kron(np.eye(2), np.diag([1.0, 0.0])) + np.kron(rz, np.diag([0.0, 1.0]))


def binary_entropy(x: float) -> float:
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0)


def success_prob(theta: float, alpha: float) -> float:
    return math.sin(alpha) ** 2 / (2.0 * (1.0 - math.cos(theta) * math.cos(alpha)))


def e_bar(theta: float) -> tuple[float, float, float]:
    """(p, h, 1 - p + h) of the retry protocol with alpha = sqrt(theta)."""
    alpha = math.sqrt(theta)
    p = success_prob(theta, alpha)
    h = binary_entropy(math.cos(alpha / 2) ** 2)
    return p, h, 1.0 - p + h


def _qutrit_cz() -> np.ndarray:
    w = np.exp(2j * np.pi / 3)
    return np.diag([w ** (s * t) for s in range(3) for t in range(3)])


# name -> (matrix on (A, B), gate entanglement K(U) in ebits)
CLIFFORD = {
    "cnot": (np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex), 1.0),
    "cz": (np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), 1.0),
    "swap": (np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], complex), 2.0),
    "qutrit-cz": (_qutrit_cz(), math.log2(3)),
}

ROUNDS = {
    "composite": (3, "c"),
    "heralded": (2, "b"),
    "controlled_phase": (2, "b"),
    "clifford": (1, "d"),
    "dilution": (1, "a"),
}


# ---------------------------------------------------------------------------
# inputs


def gaussian_state(rng: np.random.Generator, layout: SystemLayout) -> PureState:
    vec = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, vec, normalize=True)


def referee_input(rng: np.random.Generator, d: int) -> PureState:
    layout = SystemLayout([("A", d, ALICE), ("B", d, BOB), ("R", d * d, REFEREE)])
    return gaussian_state(rng, layout)


def angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.05, math.pi / 2))


# ---------------------------------------------------------------------------
# verify: build, simulate with diagnostics, account, serialize


def verify_cycle(rng: np.random.Generator) -> list:
    """Five cheap operations (heralded x2, controlled-phase, dilution k = 1, 2),
    four medium (composite, cnot, cz, swap), two heavy (qutrit-cz, dilution
    k = 3).  The median then falls low in the medium group, where the
    machine's slow phases move it least; see run.py."""
    theta = angle(rng)
    ops = [("composite", {"theta": theta, "target": zz_gate(theta), "input": referee_input(rng, 2)})]
    for _ in range(2):
        theta, alpha = angle(rng), float(rng.uniform(0.1, 1.4))
        ops.append(("heralded", {"theta": theta, "alpha": alpha, "target": zz_gate(theta),
                                 "input": referee_input(rng, 2)}))
    phi = float(rng.uniform(-math.pi, math.pi))
    ops.append(("controlled_phase", {"phi": phi, "target": controlled_phase(phi),
                                     "input": referee_input(rng, 2)}))
    for gate, (mat, _) in CLIFFORD.items():
        d = math.isqrt(mat.shape[0])
        ops.append(("clifford", {"gate": gate, "target": mat, "input": referee_input(rng, d)}))
    for k in (1, 2, 3):
        ops.append(("dilution", {"k": k, "target": np.sort(rng.dirichlet(np.ones(2**k)))[::-1]}))
    return ops


def do_verify(kind: str, p: dict) -> dict:
    out = {}
    if kind == "dilution":
        program = protocols.nielsen_dilution(p["target"], p["k"])
        tree = engine.run_exhaustive(program)
    else:
        if kind == "composite":
            program = protocols.build_composite(p["theta"])
        elif kind == "heralded":
            heralded = protocols.build_heralded(p["theta"], p["alpha"])
            program = heralded.program
            out["failure_angle"] = heralded.failure_angle
        elif kind == "controlled_phase":
            program = protocols.build_controlled_phase(p["phi"])
        else:
            program = protocols.build_clifford(model.GateSpec(CLIFFORD[p["gate"]][0]))
        out["error"] = engine.protocol_error(program, model.GateSpec(p["target"]), p["input"])
        tree = engine.run_exhaustive(program, p["input"])
    out["ledger"] = engine.ledger(program, tree)
    out["rounds"] = engine.classify_rounds(program)
    out["gap"] = engine.entanglement_monotonicity_gap(tree)
    out["json"] = json.dumps(engine.program_to_json(program))
    out["tree"] = tree
    out["steps"] = len(program.steps)
    return out


def check_verify(kind: str, p: dict, out: dict) -> None:
    prof = out["rounds"]
    check((prof.round_count, prof.kind) == ROUNDS[kind], f"rounds {prof}")
    check(out["gap"] >= -EXACT_TOL, f"monotonicity gap {out['gap']:.3e}")
    doc = json.loads(out["json"])
    check(doc["format"] == "loccgate-protocol" and len(doc["steps"]) == out["steps"],
          "program JSON does not list the program's steps")
    ebits = out["ledger"].expected_ebits
    if kind == "dilution":
        k, target = p["k"], p["target"]
        for leaf in out["tree"].leaves:
            vec = leaf.state.vector.reshape(2**k, 2**k)
            got = np.sort(np.linalg.svd(vec, compute_uv=False) ** 2)[::-1]
            check(float(np.max(np.abs(got - target))) <= EXACT_TOL, "dilution Schmidt coefficients")
        h = -sum(x * math.log2(x) for x in target if x > 0)
        check(abs(ebits - (k - h)) <= EXACT_TOL, f"dilution ebits {ebits} != {k - h}")
        return
    err = out["error"]
    if kind == "heralded":
        theta, alpha = p["theta"], p["alpha"]
        prob = success_prob(theta, alpha)
        got = sum(l.probability for l in out["tree"].leaves
                  if dict(l.transcript)["h_meas_b"] == "success")
        check(abs(got - prob) <= HERALD_TOL, f"success probability {got} != {prob}")
        fail = 2.0 * math.atan(math.tan(alpha / 2) ** 2 / math.tan(theta / 2))
        check(abs(abs(out["failure_angle"]) - fail) <= EXACT_TOL, "failure angle")
        check(-EXACT_TOL <= err <= 1.0 - prob + EXACT_TOL, f"heralded infidelity {err}")
        expected = binary_entropy(math.cos(alpha / 2) ** 2)
    else:
        check(err <= EXACT_TOL, f"infidelity {err:.3e}")
        if kind == "composite":
            expected = e_bar(p["theta"])[2]
        elif kind == "controlled_phase":
            expected = 1.0
        else:
            expected = CLIFFORD[p["gate"]][1]
    check(abs(ebits - expected) <= EXACT_TOL, f"ledger {ebits} != {expected}")


# ---------------------------------------------------------------------------
# batch: the typical-subspace plan, simulated without diagnostics


def batch_cycle(rng: np.random.Generator) -> list:
    """Three operations at n = 2 and two at n = 1.  The median falls low in the
    n = 2 latencies and the tail high in them, where the machine's slow phases
    move them least; see run.py."""
    ops = []
    for n in (2, 2, 2, 1, 1):
        factors = [(f"A{i+1}", 2, ALICE) for i in range(n)] + [(f"B{i+1}", 2, BOB) for i in range(n)]
        # every theta in (0, pi/2] keeps the all-zeros count typical at these
        # (n, delta), so the typical set is never empty
        ops.append(("batch_n%d" % n, {"n": n, "delta": BATCH_DELTAS[n], "theta": angle(rng),
                                      "input": gaussian_state(rng, SystemLayout(factors))}))
    return ops


def do_batch(kind: str, p: dict) -> dict:
    plan = protocols.build_batch(p["theta"], p["n"], p["delta"])
    return {"bound": plan.error_bound, "error": protocols.batch_error(plan, p["input"])}


def check_batch(kind: str, p: dict, out: dict) -> None:
    err, bound = out["error"], out["bound"]
    check(0.0 <= err <= bound + BATCH_FLOOR, f"batch error {err:.3e} > bound {bound:.3e}")


# ---------------------------------------------------------------------------
# analysis: closed-form kernels, no engine work

BUDGET_EXPONENTS = range(6, 21, 2)  # n = 2^6 .. 2^20


def analysis_cycle(rng: np.random.Generator) -> list:
    ops = [("error_budget", {"n": 2**e, "delta": float(rng.uniform(0.02, 0.4)), "theta": angle(rng)})
           for e in BUDGET_EXPONENTS]
    for gate in ("cnot", "swap", "qutrit-cz"):
        ops.append(("markov", {"gate": gate, "matrix": CLIFFORD[gate][0]}))
    theta = angle(rng)
    ops.append(("markov", {"gate": "u-theta", "theta": theta, "matrix": zz_gate(theta)}))
    ops.append(("break_even", {}))
    ops.append(("cost_curve", {"thetas": np.linspace(float(rng.uniform(0.01, 0.1)), math.pi / 2, 50)}))
    return ops


def do_analysis(kind: str, p: dict) -> dict:
    if kind == "error_budget":
        return {"report": analysis.error_budget(p["n"], p["delta"], p["theta"])}
    if kind == "markov":
        return {"cost": analysis.markovianizing_cost(model.GateSpec(p["matrix"]))}
    if kind == "break_even":
        return {"theta": analysis.break_even_theta()}
    return {"points": [analysis.CostCurvePoint.at(float(t)) for t in p["thetas"]]}


def check_analysis(kind: str, p: dict, out: dict) -> None:
    if kind == "error_budget":
        r = out["report"]
        weight, complement = r.typical_weight, (r.epsilon_n / 2.0) ** 2
        floor = weight_floor(p["n"])
        check(abs(weight + complement - 1.0) <= floor,
              f"weight + complement - 1 = {weight + complement - 1.0:.3e} at n={p['n']}")
        check(0.0 <= r.epsilon_prime <= 1.0 and r.epsilon_n >= 0.0, "error terms out of range")
        check(math.isclose(r.total_error, r.epsilon_n + 2.0 * r.epsilon_prime, rel_tol=1e-12),
              "total error is not eps_n + 2 eps'")
    elif kind == "markov":
        cost = out["cost"]
        if p["gate"] == "u-theta":
            check(abs(cost - 1.0) <= MARKOV_TOL, f"U(theta) Markov cost {cost}")
        else:
            d = math.isqrt(p["matrix"].shape[0])
            check(-EXACT_TOL <= cost <= 2.0 * math.log2(d) + EXACT_TOL, f"Markov cost {cost}")
    elif kind == "break_even":
        check(out["theta"] is not None and abs(out["theta"] - THETA_STAR) <= BREAK_EVEN_TOL,
              f"break-even {out['theta']}")
    else:
        for point in out["points"]:
            p_, h, e = e_bar(point.theta)
            check(max(abs(point.p_theta - p_), abs(point.h_theta - h), abs(point.e_bar - e)) <= 1e-12,
                  f"cost curve at {point.theta}")
            if abs(point.theta - THETA_STAR) > 10 * BREAK_EVEN_TOL:
                check((point.e_bar < 1.0) == (point.theta < THETA_STAR), "cost-curve sign")


# ---------------------------------------------------------------------------
# cli: one subprocess per command, checked from its stdout


def cli_cycle(rng: np.random.Generator) -> list:
    def seed() -> str:
        return str(int(rng.integers(0, 2**31)))

    cmds = [
        ("simulate_u_theta", ["simulate", "u-theta", "--theta", repr(angle(rng)), "--seed", seed()]),
        ("simulate_clifford", ["simulate", "clifford", "--gate", "cnot", "--seed", seed()]),
        ("simulate_clifford", ["simulate", "clifford", "--gate", "swap", "--seed", seed()]),
        ("simulate_qutrit_cz", ["simulate", "clifford", "--gate", "qutrit-cz", "--seed", seed()]),
        ("cost_curve", ["cost-curve", "--steps", "50"]),
        ("markov_cost", ["markov-cost", "--gate", "cnot"]),
        ("markov_cost", ["markov-cost", "--gate", "u-theta", "--theta", repr(angle(rng))]),
        ("typicality", ["typicality"]),
        ("export_protocol", ["export-protocol", "composite", "--theta", repr(angle(rng))]),
        ("export_protocol", ["export-protocol", "clifford", "--gate", "qutrit-cz"]),
    ]
    return cmds


class CliChecker:
    """Checks CLI outputs; any invocation seen before must print the same bytes."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        def validator(name):
            schema = json.loads((schema_dir / name).read_text())
            return jsonschema.Draft7Validator(schema)

        self.report = validator("report.schema.json")
        self.protocol = validator("protocol.schema.json")
        self.seen: dict[tuple, bytes] = {}

    def __call__(self, kind: str, argv: list, out: dict) -> None:
        check(out["returncode"] == 0, f"exit code {out['returncode']}: {out['stderr'][-300:]!r}")
        stdout = out["stdout"]
        first = self.seen.setdefault(tuple(argv), stdout)
        check(stdout == first, "identical invocations printed different bytes")
        text = stdout.decode()
        if argv[0] == "cost-curve":
            rows = list(csv.reader(io.StringIO(text)))
            check(rows[0] == ["theta", "p_theta", "h_theta", "e_bar", "p_alpha_eq_theta", "is_threshold"],
                  "cost-curve header")
            check(len(rows) == 52 and rows[-1][-1] == "1", "cost-curve rows")
            check(abs(float(rows[-1][0]) - THETA_STAR) <= BREAK_EVEN_TOL, "cost-curve threshold")
            return
        if argv[0] == "typicality":
            rows = list(csv.DictReader(io.StringIO(text)))
            check([int(r["n"]) for r in rows] == [64, 256, 1024, 4096], "typicality rows")
            for r in rows:
                total = float(r["epsilon_n"]) + 2.0 * float(r["epsilon_prime"])
                check(math.isclose(float(r["total_error"]), total, rel_tol=1e-12), "typicality total")
            return
        doc = json.loads(text)
        if argv[0] == "export-protocol":
            errors = list(self.protocol.iter_errors(doc))
            check(not errors, f"protocol schema: {errors[:1]}")
            return
        errors = list(self.report.iter_errors(doc))
        check(not errors, f"report schema: {errors[:1]}")
        if argv[0] == "simulate":
            check(doc["passed"] is True and doc["worst_error"] <= EXACT_TOL,
                  f"simulate worst error {doc['worst_error']}")
            if argv[1] == "u-theta":
                expected, rounds = e_bar(float(argv[3]))[2], (3, "c")
            else:
                expected, rounds = CLIFFORD[argv[3]][1], (1, "d")
            check((doc["round_count"], doc["round_type"]) == rounds, "simulate rounds")
            check(abs(doc["expected_ebits"] - expected) <= EXACT_TOL, "simulate ledger")
        else:  # markov-cost
            if argv[2] == "u-theta":
                check(abs(doc["cost_ebits"] - 1.0) <= MARKOV_TOL, f"Markov cost {doc['cost_ebits']}")
            else:
                check(-EXACT_TOL <= doc["cost_ebits"] <= 2.0 + EXACT_TOL, "Markov cost out of range")


CYCLES = {"verify": verify_cycle, "batch": batch_cycle, "analysis": analysis_cycle, "cli": cli_cycle}
IN_PROCESS = {
    "verify": (do_verify, check_verify),
    "batch": (do_batch, check_batch),
    "analysis": (do_analysis, check_analysis),
}


def make_cycles(workload: str, seed: int, count: int) -> list[list]:
    rng = np.random.default_rng(seed)
    return [CYCLES[workload](rng) for _ in range(count)]
