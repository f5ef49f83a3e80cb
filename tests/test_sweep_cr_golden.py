"""Golden `sweep --cr` outputs on the coupled grid 0:0.5:0.01.

The digests are SHA-256 of the whole CSV on stdout (header, every ratio,
worst_q and regime cell), so a change in the last printed digit of any
competitive ratio or maximiser shows here. They were recorded from the
analytic layer while it still computed every ratio in exact `Fraction`
arithmetic, before it moved to integer pairs.
"""

import hashlib

import pytest

from betasched.cli import main

GRID = ["sweep", "--cr", "--eps-grid", "0:0.5:0.01"]

GOLDEN = {
    "default": ([], "dc3dc6c782f90312e4e6ec595fe084c88bd7b1a0325c7b302e1e22f44fc6f223"),
    "w0=3,w1=2": (["--w0", "3", "--w1", "2"],
                  "4fbfc269b1ad275b47dc1e1e1c280829399201a0da0c63ded62c35c70119e4de"),
    "w0=1e200": (["--w0", "1e200"],
                 "a1017b9f303a57940e19b9b05b4fb3c65357e8037088f9365a36418340d3a40b"),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_sweep_cr_output_is_golden(capsys, case):
    flags, digest = GOLDEN[case]
    rc = main(GRID + flags)
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 214  # header lines, columns, 51 points x 4 rows
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_cr_overflow_is_refused(capsys):
    rc = main(GRID + ["--w0", "1e400"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: competitive ratios overflow a float at these weights\n"
