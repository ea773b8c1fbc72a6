"""`python -m primemean.cli`: the process's exit path, end to end.

`cli.run` runs `cli.main`, the atexit handlers and the flushes of stdout
and stderr, and leaves through os._exit, so the interpreter does not tear
down its modules.  Each case starts a fresh interpreter on this source tree.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from primemean import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# fewer than a stdout buffer's 8 KiB, and more
SMALL = ["constants", "--model", "euler_phi", "--format", "json"]
LARGE = ["geomean", "--model", "kappa", "--to", "1e6", "--points", "64", "--format", "json"]


def _env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PRIMEMEAN_"))}
    return {**env, "PYTHONPATH": SRC, **extra}


def _cli(args, **kw) -> subprocess.CompletedProcess:
    kw.setdefault("capture_output", True)
    return subprocess.run([sys.executable, "-m", "primemean.cli", *args],
                          env=kw.pop("env", _env()), timeout=120, **kw)


def _in_process(args) -> tuple[int, bytes]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(list(args))
    return rc, out.getvalue().encode()


@pytest.mark.parametrize("args", [
    SMALL,
    ["geomean", "--model", "kappa", "--n", "1000", "--format", "json"],
    ["sums", "--model", "kappa", "--to", "1e4", "--points", "3", "--format", "csv"],
])
def test_module_run_prints_what_main_prints(args):
    res = _cli(args)
    assert (res.returncode, res.stdout) == _in_process(args)
    assert res.stderr == b""


@pytest.mark.parametrize("args, code", [
    (["geomean", "--model", "nosuch"], 2),
    (["constants", "--model", "euler_phi", "--aj", "0", "--precision", "1e-15"], 3),
    (["verify", "--check", "nosuch"], 4),
])
def test_module_run_exit_codes(args, code):
    res = _cli(args)
    assert res.returncode == code
    assert res.stdout == b""
    assert res.stderr.decode().startswith("error: ")


def test_usage_error_keeps_argparse_exit():
    res = _cli(["constants", "--nosuch"])
    assert res.returncode == 2 and b"usage:" in res.stderr


def test_redirected_stdout_holds_every_byte(tmp_path):
    path = tmp_path / "out.json"
    with open(path, "wb") as out:
        res = _cli(LARGE, stdout=out, stderr=subprocess.PIPE, capture_output=False)
    assert res.returncode == 0, res.stderr
    rc, expected = _in_process(LARGE)
    assert len(expected) > 8192
    assert (rc, path.read_bytes()) == (0, expected)


_TEARDOWN = """
    import atexit, runpy, sys

    class Noisy:
        def __del__(self):
            print("del", flush=True)

    noisy = Noisy()
    atexit.register(lambda: print("hook"))
    sys.argv = ["primemean", "constants", "--aj", "0"]
    {call}
"""


def test_run_skips_teardown_but_not_atexit():
    code = textwrap.dedent(_TEARDOWN.format(
        call='runpy.run_module("primemean.cli", run_name="__main__")'))
    res = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "hook"
    assert "del" not in res.stdout.splitlines()


def test_main_alone_keeps_the_teardown():
    # the control: the same child through `main` tears down, and says so
    code = textwrap.dedent(_TEARDOWN.format(call="from primemean import cli; cli.main()"))
    res = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["hook", "del"]


def test_module_constants_imports_no_numpy():
    res = _cli(SMALL, env=_env(PYTHONPROFILEIMPORTTIME="1"))
    assert res.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.decode().splitlines()
                if line.startswith("import time:")]
    assert "primemean.constants" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def _broken_pipe(args, env):
    read, write = os.pipe()
    os.close(read)
    try:
        return _cli(args, stdout=write, stderr=subprocess.PIPE, capture_output=False, env=env)
    finally:
        os.close(write)


def _full_device(args, env):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        return _cli(args, stdout=full, stderr=subprocess.PIPE, capture_output=False, env=env)


def _closed_stdout(args, env):
    return subprocess.run(["sh", "-c", 'exec "$0" -m primemean.cli "$@" >&-',
                           sys.executable, *args],
                          env=env, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("fail, reason", [
    (_broken_pipe, "[Errno 32] Broken pipe"),
    (_full_device, "[Errno 28] No space left on device"),
    (_closed_stdout, "stdout is closed"),
], ids=["broken-pipe", "full-device", "closed-stdout"])
@pytest.mark.parametrize("buffering", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [SMALL, LARGE, ["verify", "--check", "series-algebra"]],
                         ids=["small", "large", "verify-table"])
def test_failed_write_is_one_line_and_exit_1(fail, reason, buffering, args):
    res = fail(args, _env(**buffering))
    assert res.stderr.decode() == f"error: cannot write output: {reason}\n"
    assert res.returncode == 1
