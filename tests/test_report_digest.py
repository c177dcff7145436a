"""Golden digest of the report bytes: the JSON of the first 40 trials of each
criterion-5 configuration and opial-25, on both backends at two seeds.

Any change to an exact value, a float bit, a component or the serialization
moves the digest; a deliberate change must update it and say why."""

import hashlib

import pytest

from nablafrac import Backend, mix_seed, replay_inequality_trial
from nablafrac.gridio import report_to_dict, to_json

CONFIGURATIONS = (
    ("opial", {"g_variant": "paper"}),
    ("opial", {"g_variant": "tight"}),
    ("ostrowski", {}),
    ("poincare", {}),
    ("sobolev", {"r": 1}),
    ("sobolev", {"r": 2}),
    ("sobolev", {"r": 3}),
    ("avg-sobolev", {}),
    ("opial-25", {}),
)
TRIALS = 40

GOLDEN = {
    (Backend.EXACT, 42): "ab2a6dce14527af766c05dea72bc05cfe78c565e330443bf61e81c38cf00a746",
    (Backend.EXACT, 7): "92b74df1e07929eac240bccdcbdaeed57e2ff7d04e5355bc2687806f1ef3099c",
    (Backend.FLOAT, 42): "8a3624d2cde58cf828b1f64b14116b0b35f53a7524e207f29e1e87c2cea0890f",
    (Backend.FLOAT, 7): "59939feeb741d947fa6e73f20da251358a67a76a70439719580e0a04fc311fa7",
}


@pytest.mark.parametrize("backend, seed", sorted(GOLDEN, key=lambda key: (key[0].value, key[1])))
def test_report_bytes_match_the_golden_digest(backend, seed):
    digest = hashlib.sha256()
    for name, params in CONFIGURATIONS:
        for index in range(TRIALS):
            report = replay_inequality_trial(name, mix_seed(seed, index), backend, **params)
            digest.update(to_json(report_to_dict(report)).encode())
    assert digest.hexdigest() == GOLDEN[backend, seed]
