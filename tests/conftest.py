import os

import pytest

from gepower import (
    BeliefGrid,
    ChannelParams,
    Discount,
    EconParams,
    SolverConfig,
    extract_policy,
    solve,
    worker,
)

# The two canonical parameter sets used across the suite: identical channels
# with strong memory, same loss schedule, and a reward ratio on either side
# of the structural switch.
CH = ChannelParams(0.1, 0.9)
ECON_A = EconParams(3.0, 2.0, 1.2, 0.8)
ECON_B = EconParams(3.7, 2.0, 1.2, 0.8)
DISC = Discount(0.9)
TOL = 1e-6


@pytest.fixture(scope="session")
def channel():
    return CH


@pytest.fixture(scope="session")
def econ_a():
    return ECON_A


@pytest.fixture(scope="session")
def econ_b():
    return ECON_B


@pytest.fixture(scope="session")
def discount():
    return DISC


@pytest.fixture(scope="session")
def solved_a():
    return solve(SolverConfig(DISC, TOL, 5000), CH, ECON_A, BeliefGrid(101))


@pytest.fixture(scope="session")
def solved_b():
    return solve(SolverConfig(DISC, TOL, 5000), CH, ECON_B, BeliefGrid(101))


@pytest.fixture(scope="session")
def solved_a_51():
    return solve(SolverConfig(DISC, TOL, 5000), CH, ECON_A, BeliefGrid(51))


@pytest.fixture(scope="session")
def policy_a(solved_a):
    return extract_policy(solved_a.field, CH, ECON_A, DISC)


@pytest.fixture(scope="session")
def policy_b(solved_b):
    return extract_policy(solved_b.field, CH, ECON_B, DISC)


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork, with the worker allowed as on two CPUs."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(worker, "_second_cpu", lambda: True)
    return calls
