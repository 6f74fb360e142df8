"""Golden values of the numerical kernels and of CLI output.

The kernel values were recorded with scipy 1.17.1 (``unitary_group.rvs``,
``gammaln``, ``logsumexp`` and ``optimize.bisect``), which these kernels
replace, so a change in their floating-point behaviour shows up here bit for
bit.  The ``export-protocol`` digests pin the JSON of every exported
protocol kind, so a builder refactor cannot change a serialized program.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import loccgate
from loccgate import analysis, model
from loccgate.cli import main


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
