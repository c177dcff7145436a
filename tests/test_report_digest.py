"""Golden digests of the report and identity bytes: the JSON of the first 40
trials of each criterion-5 configuration and opial-25, and of the (got, want)
pairs of the first 40 trials of every identity suite, on both backends at two
seeds.

Any change to an exact value, a float bit, a component or the serialization
moves the digest; a deliberate change must update it and say why."""

import hashlib

import pytest

from nablafrac import IDENTITY_SUITE_NAMES, Backend, mix_seed, replay_identity_trial, replay_inequality_trial
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


# The identity pairs go through every pointwise sum and difference of the
# suites (exponents, duality, nabla-of-sum, ...), so these pin the pointwise
# paths value for value and bit for bit.
IDENTITY_GOLDEN = {
    (Backend.EXACT, 42): "6d32f6fd209cd09697f54ab2d621e7e614f6128117471cf2a0def44f580e7519",
    (Backend.EXACT, 7): "f63c34709a71a93a07c74bf2a798ba555009ec2cd4eba2110c56b4a8e3a34230",
    (Backend.FLOAT, 42): "4826f6ccc85051d3d6e5535db0763d27e352064047c81f0c4302dbb17d2c91d5",
    (Backend.FLOAT, 7): "d2c5213326230758b0c818eb575019158af2b0c59a078e89f1d9f2e193438c0a",
}


@pytest.mark.parametrize("backend, seed", sorted(IDENTITY_GOLDEN, key=lambda key: (key[0].value, key[1])))
def test_identity_pairs_match_the_golden_digest(backend, seed):
    assert len(IDENTITY_SUITE_NAMES) == 9
    digest = hashlib.sha256()
    for name in IDENTITY_SUITE_NAMES:
        for index in range(TRIALS):
            digest.update(to_json(replay_identity_trial(name, mix_seed(seed, index), backend)).encode())
    assert digest.hexdigest() == IDENTITY_GOLDEN[backend, seed]
