"""Golden `run-one` outputs: every built-in policy, exact and posterior reveal.

The digests are SHA-256 of the whole `run-one --against-wsrpt` text (trace,
completions, cost, preemptions, log loss, WSRPT cost), so any change to the
order of events, to which job completes, or to the rng draws shows here, not
only a change of cost. They were recorded from the engine before its
interrupted FIFO was tombstoned and its theta heap built on first read, and
hold for the ordered map that replaced the tombstoned list.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from betasched.cli import main
from betasched.domain import Instance, Job, Parameters, PredictionModel, dump_instance, make_job
from betasched.policies import POLICIES

F = Fraction
PARAMS = Parameters(F(2, 5), 20, 1)  # beta = 2/57


def shuffled_ids(rng, n):
    ids = rng.sample(range(1, 4 * n), n)
    rng.shuffle(ids)
    return ids


def p_hat_instance():
    """40 jobs, p_hat on the grid k/40 (some at 0, 1 and next to beta), half released later."""
    rng = random.Random(2024)
    jobs = []
    for jid in shuffled_ids(rng, 40):
        urgent = rng.random() < 0.2
        k = rng.randrange(8, 41) if urgent else rng.randrange(0, 17)
        release = F(rng.randrange(16), 4) if rng.random() < 0.5 else 0
        jobs.append(make_job(jid, 0 if urgent else 1, p_hat=F(k, 40), release_time=release))
    return Instance(jobs, PARAMS)


def binary_instance():
    """40 labelled jobs, rho = 1/5 with 10% / 20% label errors, a third released later."""
    rng = random.Random(2025)
    model = PredictionModel(F(1, 5), F(1, 10), F(1, 5))
    jobs = []
    for jid in shuffled_ids(rng, 40):
        tt = 0 if rng.random() < 0.2 else 1
        label = tt if rng.random() < 0.85 else 1 - tt
        release = F(rng.randrange(20), 3) if rng.random() < 1 / 3 else F(0)
        jobs.append(Job(jid, tt, label, release_time=release))
    return Instance(jobs, PARAMS, model)


INSTANCES = {"p_hat": p_hat_instance, "binary": binary_instance}
REVELATIONS = {
    "exact": [],
    "posterior": ["--revelation", "posterior", "--seed", "4"],
}

GOLDEN = {
    ("p_hat", "nonpreemptive", "exact"):
        "5d3bba5e85ebde833e19ef14624855a1531dfd75b6ee906d577c00eaf7b63bf6",  # preemptions,0
    ("p_hat", "nonpreemptive", "posterior"):
        "5d3bba5e85ebde833e19ef14624855a1531dfd75b6ee906d577c00eaf7b63bf6",  # preemptions,0
    ("p_hat", "preemptive", "exact"):
        "fe91fc42731efec1ee4e8bc1c50b4cb38e409e633f933b01eb152310ab14f8c2",  # preemptions,31
    ("p_hat", "preemptive", "posterior"):
        "df43983bcebd6dafd350284b1d9b6cf5cb0063171501852958286cfbb2a79bba",  # preemptions,40
    ("p_hat", "beta", "exact"):
        "1b3b98360d2460b63ab7da9d369d1b4d49181295abfbc04ae141774609c45eda",  # preemptions,27
    ("p_hat", "beta", "posterior"):
        "4d4bff97a571cd01f370f29f41c10496b2e62f8208ec0b5b2d42bcf21b89ec75",  # preemptions,36
    ("p_hat", "modified-beta", "exact"):
        "1b3b98360d2460b63ab7da9d369d1b4d49181295abfbc04ae141774609c45eda",  # preemptions,27
    ("p_hat", "modified-beta", "posterior"):
        "8f44b37e86ab75fa3b7b50c40126828948169c9585f13bd471d4e5259d310a2a",  # preemptions,15
    ("binary", "nonpreemptive", "exact"):
        "4876eb309b1650e4fe962958a9cbe2361d7ca5805d7165c63e737b3a3a408902",  # preemptions,0
    ("binary", "nonpreemptive", "posterior"):
        "4876eb309b1650e4fe962958a9cbe2361d7ca5805d7165c63e737b3a3a408902",  # preemptions,0
    ("binary", "preemptive", "exact"):
        "03af2b94600f14445d8d8af2fdd0a50cf9d5dafcda155f4b906a50307cd5ea1f",  # preemptions,32
    ("binary", "preemptive", "posterior"):
        "c947799c5b2cf0278d5cd3b6caf4f05ffb94d81851aefbdfcdbaeee7b1a04da3",  # preemptions,40
    ("binary", "beta", "exact"):
        "aea17750f1d8ca8d607afa14f198a4684dbbafe9f2e4fd21fb699829612fae00",  # preemptions,6
    ("binary", "beta", "posterior"):
        "04456a71f1e988d653da540e4f74f2d75beac80adf82217a37b684a6c0295b2a",  # preemptions,12
    ("binary", "hybrid", "exact"):
        "aea17750f1d8ca8d607afa14f198a4684dbbafe9f2e4fd21fb699829612fae00",  # preemptions,6
    ("binary", "hybrid", "posterior"):
        "04456a71f1e988d653da540e4f74f2d75beac80adf82217a37b684a6c0295b2a",  # preemptions,12
    ("binary", "modified-beta", "exact"):
        "aea17750f1d8ca8d607afa14f198a4684dbbafe9f2e4fd21fb699829612fae00",  # preemptions,6
    ("binary", "modified-beta", "posterior"):
        "ec73e6e3b9f38e0758529b8f2b334e23f70cb5dbff7d2f6138217d29faabd77d",  # preemptions,6
}


def run_one(capsys, tmp_path, kind, policy, revelation):
    path = tmp_path / f"{kind}.txt"
    path.write_text(dump_instance(INSTANCES[kind]()))
    rc = main(["run-one", str(path), "--policy", policy, "--against-wsrpt"]
              + REVELATIONS[revelation])
    out, err = capsys.readouterr()
    return rc, out, err


CASES = [(kind, policy, revelation) for kind in INSTANCES for policy in POLICIES
         for revelation in REVELATIONS if not (kind == "p_hat" and policy == "hybrid")]


@pytest.mark.parametrize("kind, policy, revelation", CASES)
def test_run_one_output_is_golden(capsys, tmp_path, kind, policy, revelation):
    rc, out, err = run_one(capsys, tmp_path, kind, policy, revelation)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[kind, policy, revelation]


@pytest.mark.parametrize("revelation", REVELATIONS)
def test_hybrid_refuses_p_hat(capsys, tmp_path, revelation):
    rc, out, err = run_one(capsys, tmp_path, "p_hat", "hybrid", revelation)
    assert rc == 2
    assert err == "error: hybrid policy needs binary labels\n"
    assert out == ""


def test_golden_cases_cover_every_policy():
    assert set(GOLDEN) == set(CASES)
    assert {policy for _, policy, _ in CASES} == set(POLICIES)
