"""`constants` and every model load run without numpy.

Each case runs in a fresh interpreter, since this test process has numpy
loaded already.  numpy stays where primes are streamed, so `geomean` still
imports it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

MODEL = ("name = custom\nd = 2\nalpha = 1\ndelta = 1\nK = 9\n"
         "fp = (2 * p + 3) * (2 * p - 1) / 4\nstrongly_multiplicative = true\n")
HALF = ("name = half\nd = 1\nalpha = 1\ndelta = 0.5\nK = 1\n"
        "fp = p + 1000 * p / (p^2 + 5000)\nstrongly_multiplicative = true\n")


def _python(code: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def _numpy_after(code: str) -> bool:
    res = _python(textwrap.dedent(code) + "import sys\nprint('numpy' in sys.modules)\n")
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1] == "True"


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "custom.model"
    path.write_text(MODEL)
    return str(path)


@pytest.fixture()
def half_delta_file(tmp_path):
    path = tmp_path / "half.model"
    path.write_text(HALF)
    return str(path)


def test_constants_imports_no_numpy():
    assert not _numpy_after("""
        from primemean import cli
        assert cli.main(["constants", "--model", "euler_phi", "--aj", "4"]) == 0
    """)


def test_constants_of_a_model_file_imports_no_numpy(model_file):
    assert not _numpy_after(f"""
        from primemean import cli
        assert cli.main(["constants", "--model", {model_file!r},
                         "--precision", "1.2e-5"]) == 0
    """)


def test_package_surface_and_model_loads_import_no_numpy(model_file, half_delta_file):
    assert not _numpy_after(f"""
        import primemean
        primemean.builtin("kappa")
        primemean.load_model_file({model_file!r})
        primemean.load_model_file({half_delta_file!r})
    """)


@pytest.mark.parametrize("model, row", [
    ("euler_phi", {"n": 1000, "log_geomean": 5.333045537856295,
                   "scaled_ratio": 0.20706764718139514, "predicted": 0.09676933668685889,
                   "abs_diff": 0.11029831049453626, "predicted_tail": 3.353126012101619e-16}),
    ("kappa", {"n": 1000, "log_geomean": 5.210436758462227,
               "scaled_ratio": 0.18317404353888447, "predicted": 0.17284386424206455,
               "abs_diff": 0.010330179296819925, "predicted_tail": 5.032409553680675e-16}),
])
def test_geomean_still_imports_numpy_and_prints_the_same(model, row):
    # the row was printed before the package surface became lazy; the
    # euler_phi digits were re-pinned when the prime-power term joined the
    # prime pass's reduction (n log G moved by 9e-13, within its 3.7e-11 bound).
    # geomean's sublinear route prints them unchanged: n log G is bit-identical
    # to the sieve route's at n = 1000, 1.3e-12 (euler_phi) and 6.5e-13 (kappa)
    # from the 40-digit sums
    res = _python(textwrap.dedent(f"""
        import sys
        from primemean import cli
        rc = cli.main(["geomean", "--model", {model!r}, "--n", "1000", "--format", "json"])
        print(rc, "numpy" in sys.modules)
    """))
    assert res.returncode == 0, res.stderr
    out, status = res.stdout.rsplit("\n", 2)[0], res.stdout.splitlines()[-1]
    assert status == "0 True"
    assert json.loads(out) == [row]
