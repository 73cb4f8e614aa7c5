"""Shared fixtures: the default 12-satellite scenario and one large trial batch."""

import pytest

from edmdetect import NoiseModel, generate_constellation, run_trials

DEFAULT_SEED = 1
MASTER_SEED = 42


@pytest.fixture(scope="session")
def scenario12():
    return generate_constellation(12, 10.0, seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def noise_default():
    return NoiseModel(sigma_v=3.0, bias_b=1.0e5)


@pytest.fixture(scope="session")
def mc100k(scenario12, noise_default):
    """100,000 trials at the default scenario, shared across test modules.

    Trial t's noise depends only on (master seed, t), so any prefix of this
    batch is bit-identical to an independent shorter run.
    """
    return run_trials(scenario12, noise_default, 100_000, MASTER_SEED)


@pytest.fixture(scope="session")
def lambda_matrix_100k(mc100k):
    return mc100k.lambdas
