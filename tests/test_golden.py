"""Golden values of the numerical kernels and of CLI output.

The kernel values were recorded with scipy 1.17.1 (``unitary_group.rvs``,
``gammaln``, ``logsumexp`` and ``optimize.bisect``), which these kernels
replace, so a change in their floating-point behaviour shows up here bit for
bit.  The ``export-protocol`` digests pin the JSON of every exported
protocol kind, and the batch digests that of the batched program at n = 1
and 2, so a builder refactor cannot change a serialized program.  The batch
mixture digests pin what that program does at n = 1, 2 and 3 (every merged
leaf, ``batch_error`` and the fitted failure angle); they were recorded
before the batch builder kept its angle-independent steps per structure.
The ``simulate`` digests pin the reports of the README commands, whose
errors and ledger all come from one run on the Choi input.  The typicality
values at n up to 2^20 were recorded with the full-array binomial kernels.
The typical-resource digests were recorded while ``typical_resource`` still
built its own typical set.  The ``markov-cost`` digests were recorded while
``cesaro_fixed_state`` still took the eigenvalue-1 columns of an ``eig`` of the
lifted channel and the round-trip channel was built one matrix unit at a time;
swap's is the exact projection's (cost 2.0, where ``eig`` gave
1.9999999999999998).
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import loccgate
from loccgate import analysis, engine, model, protocols
from loccgate.cli import main
from loccgate.systems import ALICE, BOB, PureState, SystemLayout


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "dim, seed, digest",
    [
        (2, 0, "78186e17e8f9e4faa588b33f8b5581f3df8f277e6a07b1ac1db4927dc778d074"),
        (3, 5, "a5206d24dc2aeae80a27b534304d8b6ec2c1a98c9abaf4cdcd833c6277f36219"),
        (4, 11, "7a581637e90fc8568534256a5794deb0e611487bf7ca420ad5e41f2a24b40ea2"),
        (9, 3, "96eea5c2c6aa821a930a14726e819b63dbeb30591ab0150cf22075c19acbfe75"),
    ],
)
def test_haar_unitary_bits(dim, seed, digest):
    u = model.haar_unitary(dim, np.random.default_rng(seed))
    assert sha256(u.tobytes()) == digest
    assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)


def test_haar_unitary_generator_state_after_draw():
    rng = np.random.default_rng(7)
    model.haar_unitary(4, rng)
    assert rng.random().hex() == "0x1.8a0a22a0c70ccp-3"


def test_haar_unitary_rejects_dimension_one():
    with pytest.raises(ValueError):
        model.haar_unitary(1, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n, delta, digest",
    [
        (1, 2.6, "4334ead199bbca929ab871f7d79fb00f6945bcc5e19214b8743889b2ad7f3cc8"),
        (2, 1.2, "f8843e8ce5d4f8cb80f4844cc090bc3e2131fdf57ff1b1ccd48ec3bae324c326"),
        (3, 0.7, "d215c4fdc96babb8ca175fbf5603640d9b432269b1a00f7a06b3b5dde7cd1bbb"),
    ],
)
def test_typical_resource_bits(n, delta, digest):
    """The batched protocol's typical resource, built from the plan's own typical set."""
    omega = protocols.build_batch(0.5, n, delta).omega
    assert sha256(omega.vector.view(np.uint64).tobytes()) == digest


def test_log_factorial_table_bits():
    lf = analysis.log_factorials(9000)
    assert lf.shape == (9001,)
    assert sha256(lf.tobytes()) == "b864757c61ca097bd5d5483f9a4fc31bbe77c4cd2c5dd1678c1b54597d267d0f"


@pytest.mark.parametrize("n", [0, 1, 11, 12, 13, 998, 999, 1000, 1001])
def test_log_factorials_near_branch_points(n):
    lf = analysis.log_factorials(n)
    assert lf.shape == (n + 1,)
    assert lf[n] == pytest.approx(math.lgamma(n + 1), rel=1e-15, abs=1e-15)


ERROR_BUDGET_GOLDEN = {
    64: {
        "typical_weight": "0x1.ff6b719d44b96p-1",
        "epsilon_n": "0x1.13ca8a57740f3p-4",
        "epsilon_prime": "0x1.f81a88c02688ep-37",
        "total_error": "0x1.13ca8a596c29cp-4",
        "dilution_ebits": "0x1.dba718b0bc96ep+5",
        "log_epsilon_n": "-0x1.595c11846a054p+1",
        "log_epsilon_prime": "-0x1.8f805fa813d9bp+4",
        "hoeffding_epsilon_prime": "0x1.5e94d54ce17fbp-30",
    },
    4096: {
        "typical_weight": "0x1.0000000004a9ep+0",
        "epsilon_n": "0x1.4e74fee835377p-215",
        "epsilon_prime": "0x0.0p+0",
        "total_error": "0x1.4e74fee835377p-215",
        "dilution_ebits": "0x1.dba718b0bc96ep+11",
        "log_epsilon_n": "-0x1.2984c4a9126bep+7",
        "log_epsilon_prime": "-0x1.55b49e5203ef3p+10",
        "hoeffding_epsilon_prime": "0x0.0p+0",
    },
}


@pytest.mark.parametrize("n", sorted(ERROR_BUDGET_GOLDEN))
def test_error_budget_bits(n):
    report = analysis.error_budget(n, 0.4, 0.5)
    got = {name: getattr(report, name).hex() for name in ERROR_BUDGET_GOLDEN[n]}
    assert got == ERROR_BUDGET_GOLDEN[n]


def test_error_budget_bits_at_two_to_the_twenty():
    # n = 2^20, delta = 0.05, theta = 0.5: every field, recorded with the
    # full-array kernels; most log-pmf terms there underflow exp to 0.0
    report = dataclasses.asdict(analysis.error_budget(2**20, 0.05, 0.5))
    assert {k: v.hex() if isinstance(v, float) else v for k, v in report.items()} == {
        "theta": "0x1.0000000000000p-1",
        "n": 1048576,
        "delta": "0x1.999999999999ap-5",
        "entropy": "0x1.0eda4be3efca1p-1",
        "typical_weight": "0x1.000000075c588p+0",
        "epsilon_n": "0x0.0p+0",
        "epsilon_prime": "0x0.0p+0",
        "total_error": "0x0.0p+0",
        "dilution_ebits": "0x1.2873e57d8963bp+19",
        "log_epsilon_n": "-0x1.69b6a25870eadp+9",
        "log_epsilon_prime": "-0x1.5b61c6f8e783ap+12",
        "hoeffding_epsilon_prime": "0x0.0p+0",
    }


@pytest.mark.parametrize(
    "values, expected",
    [
        ([1.0, 3.0, 3.0, -2.0, 3.0], "0x1.0945c2b3cfa87p+2"),  # tied maxima
        ([-7.25], "-0x1.d000000000000p+2"),
        ([-math.inf, 0.5, -math.inf, -1.0], "0x1.671fa423d5084p-1"),
        ([-math.inf, -math.inf], "-inf"),
        ([], "-inf"),
    ],
)
def test_logsumexp_bits(values, expected):
    a = np.array(values, dtype=float)
    before = a.copy()
    assert analysis.logsumexp(a).hex() == expected
    assert np.array_equal(a, before)  # the input is left untouched


def test_break_even_theta_bits():
    assert analysis.break_even_theta().hex() == "0x1.361f2aa651fdfp-1"


def test_bisect_rejects_bracket_without_sign_change():
    with pytest.raises(ValueError):
        analysis.bisect(lambda t: t * t + 1.0, -1.0, 1.0, xtol=1e-12)


def test_bisect_endpoint_root_and_iteration_limit():
    assert analysis.bisect(lambda t: t - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0
    with pytest.raises(RuntimeError):
        # a 4e30-wide bracket still has a step near 3 after 100 halvings
        analysis.bisect(lambda t: t - 0.3, -1e30, 3e30, xtol=1e-12)


TYPICALITY_DEFAULT_CSV = """\
n,weight,epsilon_n,epsilon_prime,total_error,n4_total_error,dilution_ebits
64,0.9988666061857312,0.067331829449589084,1.4327487438901481e-11,0.067331829478244065,1129640.646831668,59.456590061908045
256,0.99999999954092145,4.2858706284373314e-05,1.5812427301096586e-39,4.2858706284373314e-05,184076.74184025306,237.82636024763218
1024,1.0000000000004157,2.8660373613784707e-17,1.6287276542584151e-150,2.8660373613784707e-17,3.1512414044760743e-05,951.30544099052872
4096,1.0000000000042415,2.4811400311901152e-65,0,2.4811400311901152e-65,6.9837883249511398e-51,3805.2217639621149
"""


def test_typicality_default_stdout():
    result = CliRunner().invoke(main, ["typicality"])
    assert result.exit_code == 0
    assert result.output == TYPICALITY_DEFAULT_CSV


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--n-list", "10000,65536,1048576"], "78774603b558b1ead20da6f12ccad5507ace6a9eea92ccca32f712d4d9f7fe13"),
        (
            ["--theta", "0.3", "--delta", "0.05", "--n-list", "100000,1048576"],
            "b3a0215ea49378ffd6633fee55f5d84d80d1814b6bc0c19784aca5fcb2b11864",
        ),
    ],
    ids=["default-angle", "theta-0.3"],
)
def test_typicality_stdout_at_large_n(args, digest):
    # recorded with the full-array kernels; at these n the windowed kernels
    # skip almost every log-pmf term
    result = CliRunner().invoke(main, ["typicality", *args])
    assert result.exit_code == 0, result.output
    assert sha256(result.output.encode()) == digest


def test_cost_curve_stdout():
    result = CliRunner().invoke(main, ["cost-curve", "--steps", "50"])
    assert result.exit_code == 0
    assert sha256(result.output.encode()) == (
        "d3f638a66436ba7d72f26655ada70a2e3a8ae324cbeeb8c1b43265fc364a471a"
    )


def test_cli_import_pulls_in_no_scipy():
    code = (
        "import sys, loccgate.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(loccgate.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "args, digest",
    [
        (["heralded", "--theta", "0.5"], "e30aba0a08123fd79b846b8175f298e7bac0fc47d46c9fe2c347e24f1785b386"),
        (["controlled-phase", "--phi", "0.7"], "ec52a73ab098727f9a43467f8ed82bc93fec71b98461c74e9f15ebd8c69ec9da"),
        (["composite", "--theta", "0.4"], "5440c2201456576977989c4fa3c2e612122a5c6dae237fb11f88d557c2c69bd0"),
        (["clifford", "--gate", "cnot"], "a17fb7cc35b0de0b3b431602f57a05611e87a9b6586048e4a7e7d19d3fb91423"),
        (
            ["dilution", "--target", "0.4,0.3,0.2,0.1", "--k", "2"],
            "56b74ba837c471873a48d4fc73d1c129c0b49bbd17c300f2b98a6fb8eb93032e",
        ),
    ],
    ids=["heralded", "controlled-phase", "composite", "clifford", "dilution"],
)
def test_export_protocol_stdout(args, digest):
    result = CliRunner().invoke(main, ["export-protocol", *args])
    assert result.exit_code == 0, result.output
    assert sha256(result.output.encode()) == digest


@pytest.mark.parametrize(
    "n, delta, digest",
    [
        (1, 2.6, "1e8e5dc4dcf993c99bf330c68813c6c58408d0a733ffe141058f3e3b2c4426ee"),
        (2, 1.2, "bcafd91967dfed1310048c64d9fc92e3aef35cc74009d0b49baf56a5526a4a4d"),
    ],
)
def test_batch_program_export_bits(n, delta, digest):
    """The batched program's JSON, which no CLI command exports: every table's keys, order and instruments."""
    doc = engine.program_to_json(protocols.build_batch(0.5, n, delta).program)
    assert sha256(json.dumps(doc, sort_keys=True).encode()) == digest


@pytest.mark.parametrize(
    "theta, n, delta, digest",
    [
        (0.3, 1, 2.6, "bf2a11aa4d721dad295c4b944c521a5d739031518983d338afae74fbafc875bd"),
        (0.3, 2, 1.2, "6c49fa28cea01ecb0d5ad5a20060317508422d5a78b312c4bb174d068642833e"),
        (0.3, 3, 0.7, "a4569fd777c3bc14cf64a61c924d8e0e04dd8c5aef67b31cc564559c7328d870"),
        (0.7, 1, 2.6, "9b99fca40a8e2f14560b47e4997b17e48eeb5766d99ae64571f976aed4c84db0"),
        (0.7, 2, 1.2, "f47098925d182d4a5a47890bc7d03cf78d2406a6c68b8d66549ba74cead3c3f0"),
        (0.7, 3, 0.7, "ba93edc37d87261b16a10bb74abafae04317529babcb288df16331aa59cb924f"),
    ],
)
def test_batch_mixture_bits(theta, n, delta, digest):
    """The batched program's output on a seeded input: every mixture leaf, the error and the fitted angle."""
    plan = protocols.build_batch(theta, n, delta)
    copies = range(1, n + 1)
    layout = SystemLayout([(f"A{i}", 2, ALICE) for i in copies] + [(f"B{i}", 2, BOB) for i in copies])
    rng = np.random.default_rng(31 + n)
    initial = PureState(layout, rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim), normalize=True)
    h = hashlib.sha256()
    for leaf in engine.output_mixture(plan.program, initial).leaves:
        h.update(json.dumps([leaf.transcript, leaf.state.layout.labels]).encode())
        h.update(np.float64(leaf.probability).tobytes() + leaf.state.vector.tobytes())
    h.update(protocols.batch_error(plan, initial).hex().encode() + plan.failure_angle.hex().encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["u-theta", "--theta", "0.5"], "8449c0ff6e5fdeccc823c71a5379c3ca78b98e44b41ba45c9beb7aa66bf7810b"),
        (["clifford", "--gate", "cnot"], "474292789e25b45dc12e0a70a09f88cba000805c528463a5e66742638ec24920"),
        (["clifford", "--gate", "qutrit-cz"], "4e422747661747ffe9eb020ee414e141c926fad3e912c7ae4b4b7d851536aec6"),
    ],
    ids=["u-theta", "cnot", "qutrit-cz"],
)
def test_simulate_stdout(args, digest):
    result = CliRunner().invoke(main, ["simulate", *args])
    assert result.exit_code == 0, result.output
    assert sha256(result.output.encode()) == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--gate", "cnot"], "dbae433d3a4de39fca0ed7aa9b3470d56980a82f4ce96bead66c154578426f2c"),
        (["--gate", "qutrit-cz"], "745c0d6a2d902cf6f7a11937f871a60285a45f7cde077eecc4d9504035069259"),
        (["--gate", "identity"], "a8c5ff06f796b4c1b6649ea04dde1209e64ab2cb80b4e78bde4d970a43d63069"),
        (["--gate", "cz"], "2325cc8a5fbc119911ef29166a74010c61299a1730fc7d3bb6cf2f837bdfcd51"),
        (["--gate", "u-theta", "--theta", "0.3"], "9ff9cecf1da9d139a2e3e0591ee69e2033bcc42534a149ff0d62ebea66fe114d"),
        (["--gate", "u-theta", "--theta", "0.5"], "944899fb728b4674fdbcfe53c53685d3344f81b64d33e7e16ec123d279de80ef"),
        (["--gate", "swap"], "8f8e0ddd6b7050b6262cb37a41e3afd89ffbb7006ffadaf93780e36b4dd77a26"),
    ],
    ids=["cnot", "qutrit-cz", "identity", "cz", "u-theta-0.3", "u-theta-0.5", "swap"],
)
def test_markov_cost_stdout(args, digest):
    result = CliRunner().invoke(main, ["markov-cost", *args])
    assert result.exit_code == 0, result.output
    assert sha256(result.output.encode()) == digest
