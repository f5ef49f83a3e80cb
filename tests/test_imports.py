"""Each module of the package reaches its siblings through public names only,
and a one-worker run imports no process-pool machinery."""

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


# run in a fresh interpreter: the modules it added to `sys.modules` from the
# package's import to the end of a one-worker sweep, of the pool's packages
POOL_PROBE = """
import sys
before = set(sys.modules)
import betasched
import betasched.cli
code = betasched.cli.main(["sweep", "--n", "5", "--reps", "20", "--eps-grid", "0,0.1",
                           "--jobs", "1", "--out", sys.argv[1]])
added = set(sys.modules) - before
print(code, *sorted(m for m in added if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_a_one_worker_sweep_never_imports_the_process_pool(tmp_path):
    out = tmp_path / "sweep.csv"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE, str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 2 * 4  # the columns, then opt and three policies per point
