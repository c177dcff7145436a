"""The suite JSON is the same under every supported interpreter.

Float results add in one fixed order (no builtin ``sum``, which became
compensated in Python 3.12), so the bytes of a suite run must not depend on the
Python version.  The mix below is run in process, then by every other installed
interpreter from 3.10 on, one after another; the child needs only the library."""

import os
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src"

# The eight criterion-5 configurations and opial-25 at 60 trials with the report
# of each of the first 20 trials (lhs, rhs and every component: theta,
# kernel_factor, caputo_norm, ...), and the nine identity suites at 20 trials with
# the (got, want) pairs of each trial, so every float bit of the reports and of
# the pointwise pairs is compared, on both backends at seed 42.
SCRIPT = textwrap.dedent(
    """
    import hashlib

    from nablafrac import (
        Backend,
        IDENTITY_SUITE_NAMES,
        mix_seed,
        replay_identity_trial,
        replay_inequality_trial,
        run_identity_suite,
        run_inequality_suite,
    )
    from nablafrac.gridio import report_to_dict, suite_to_dict, to_json

    INEQUALITIES = (
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


    def mix_digest():
        digest = hashlib.sha256()
        for backend in Backend:
            for name, params in INEQUALITIES:
                result = run_inequality_suite(name, 60, 42, backend, **params)
                digest.update(to_json(suite_to_dict(result)).encode())
                for index in range(20):
                    report = replay_inequality_trial(name, mix_seed(42, index), backend, **params)
                    digest.update(to_json(report_to_dict(report)).encode())
            for name in IDENTITY_SUITE_NAMES:
                result = run_identity_suite(name, 20, 42, backend)
                digest.update(to_json(suite_to_dict(result)).encode())
                for index in range(20):
                    pairs = replay_identity_trial(name, mix_seed(42, index), backend)
                    digest.update(to_json(pairs).encode())
        return digest.hexdigest()


    if __name__ == "__main__":
        print(mix_digest())
    """
)


def other_interpreters():
    """``(version, path)`` of every pyenv interpreter from 3.10 on but the running one."""
    found = []
    for path in sorted(Path.home().glob(".pyenv/versions/*/bin/python3")):
        match = re.match(r"(\d+)\.(\d+)\.\d+$", path.parent.parent.name)
        if match and (int(match[1]), int(match[2])) >= (3, 10):
            if path.parent.parent.name != platform.python_version():
                found.append((path.parent.parent.name, path))
    return found


def test_suite_json_is_the_same_under_every_interpreter():
    namespace = {"__name__": "suite_mix"}
    exec(SCRIPT, namespace)
    want = namespace["mix_digest"]()
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10+ interpreter is installed")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    got = {}
    for version, python in interpreters:
        result = subprocess.run(
            [str(python), "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, f"{version}: {result.stderr}"
        got[version] = result.stdout.strip()
    assert got == {version: want for version in got}, f"{sys.version.split()[0]}: {want}"
