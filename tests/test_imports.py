"""Each module of the package reaches its siblings through public names only,
and a one-worker run imports no process-pool machinery and no OpenSSL hashlib."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betasched

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betasched"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_sibling_imports(path):
    """`file:line: name` for each `_`-prefixed name imported from the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "betasched":
            continue  # stdlib and third-party imports
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno}: {alias.name}"


def test_every_exported_name_resolves():
    # a stale entry would break `from betasched import *`
    assert [name for name in betasched.__all__ if not hasattr(betasched, name)] == []


def test_every_module_is_checked():
    assert {"engine.py", "experiments.py", "policies.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_from_a_sibling(path):
    assert list(private_sibling_imports(path)) == []


def test_a_private_import_is_seen(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "from .engine import _prepare, run\n"
                   "from betasched.analytics import _fmt\n")
    assert list(private_sibling_imports(bad)) == ["bad.py:2: _prepare", "bad.py:3: _fmt"]


# run in a fresh interpreter: the CLI on the arguments after the script, then
# the modules it added to `sys.modules` from the package's import to the end of
# the run, of the pool's packages and hashlib's (a replication's seed hashes
# with the builtin SHA-512 that `random` uses)
POOL_PROBE = """
import sys
before = set(sys.modules)
import betasched
import betasched.cli
code = betasched.cli.main(sys.argv[1:])
added = set(sys.modules) - before
heavy = ("multiprocessing", "concurrent", "hashlib", "_hashlib")
print(code, *sorted(m for m in added if m.split(".")[0] in heavy))
"""


def probe_pool(*argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", POOL_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_a_one_worker_sweep_never_imports_the_process_pool(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = probe_pool("sweep", "--n", "5", "--reps", "20", "--eps-grid", "0,0.1",
                      "--jobs", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 2 * 4  # the columns, then opt and three policies per point


@pytest.mark.parametrize("channel, message", [
    (["--rho", "2"], "rho must lie strictly in (0,1), got 2"),
    (["--alpha", "3/2"], "alpha must lie strictly in (0,1), got 3/2"),
    (["--w0", "1", "--w1", "1"], "weights must satisfy w0 > w1 > 0, got w0=1, w1=1"),
    (["--eps-grid", "0,0.6"], "eps0 must lie in [0, 1/2], got 3/5"),
    (["--eps-grid", "0:0.6:0.05"], "eps0 must lie in [0, 1/2], got 11/20"),
], ids=["rho", "alpha", "weights", "rate", "range-grid"])
def test_a_bad_channel_is_refused_before_any_pool_starts(channel, message):
    # enough replications for two workers: the config must refuse the channel first
    proc = probe_pool("sweep", "--jobs", "2", "--reps", "100000", "--n", "5",
                      "--eps-grid", "0,0.1", *channel)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]
    assert proc.stderr == f"error: {message}\n"
