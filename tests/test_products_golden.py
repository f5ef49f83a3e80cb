"""Golden `sweep`, `arrivals` and `sweep --cr` outputs, as CSV and as JSON.

The digests are SHA-256 of the whole text on stdout (header block or
`config` object, and every cell of every row), so a change of column order,
of number format, of an empty cell, or of which value lands in which cell
shows here. eps0 and eps1 differ at every point, so a swapped error cell
shows; the Monte Carlo products run all five policies. The `--cr` channel
has nearly equal weights, where the hybrid ratio's `worst_q` cell is empty
at (0.4, 0.4). They were recorded while each data product still wrote its
rows as its own dict literals.
"""

import hashlib

import pytest

from betasched.cli import main

POLICIES = ["--policy", "nonpreemptive", "--policy", "preemptive", "--policy", "beta",
            "--policy", "hybrid", "--policy", "modified-beta"]
MONTE_CARLO = ["--n", "8", "--seed", "2", "--eps0-grid", "0,0.1,0.5",
               "--eps1-grid", "0.5,0.2,0", *POLICIES]
PRODUCTS = {
    "sweep": ["sweep", "--reps", "300", *MONTE_CARLO],
    "arrivals": ["arrivals", "--reps", "200", *MONTE_CARLO],
    "cr": ["sweep", "--cr", "--alpha", "9/20", "--w0", "20/19",
           "--eps0-grid", "0,0.1,0.4", "--eps1-grid", "0.5,0.2,0.4"],
}

GOLDEN = {
    ("sweep", "csv"):
        "a215cf14dc5daed34c2c5b914790a6269760b33b5524884e9778929120b5aabe",
    ("sweep", "json"):
        "64b9b4ba5c10587ba4fa08e45e9647ab7627258d391b3b1c9db84c2ccc09e2cd",
    ("arrivals", "csv"):
        "a8909ad1dd9deab6851217f98cba82066ab8cbf8f7e73c36d1a0623b55dddfa6",
    ("arrivals", "json"):
        "f85fac5c5bd098531a39b0d7ee90eb9c766c451c3dbbee04535579f875177233",
    ("cr", "csv"):
        "1916eb35b2975cb145ed984dd066136f102535e5e2592e3707584c9f4439b443",
    ("cr", "json"):
        "ba263fa23b57260a23d26f196d40841e7afc4844459626fc791dd7a4a5650ef6",
}


@pytest.mark.parametrize("product, fmt", GOLDEN, ids=[f"{p}-{f}" for p, f in GOLDEN])
def test_data_product_is_golden(capsys, product, fmt):
    rc = main(PRODUCTS[product] + ["--format", fmt])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[product, fmt]
