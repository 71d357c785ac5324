import os
from pathlib import Path

import pytest

from polyrmf.poly import IntPolynomial
from polyrmf.sieve import sieve_values

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def src_env():
    """The environment for a subprocess, with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="session")
def x2p1():
    return IntPolynomial((1, 0, 1))


@pytest.fixture(scope="session")
def table_60(x2p1):
    return sieve_values(x2p1, 60)


@pytest.fixture(scope="session")
def table_1e3(x2p1):
    return sieve_values(x2p1, 1000)
